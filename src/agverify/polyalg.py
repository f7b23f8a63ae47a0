"""Exact univariate polynomial and rational-function arithmetic over Q.

Every coefficient is a `fractions.Fraction`, so arithmetic is exact and
zero tests are genuine decisions rather than tolerance checks. The matrix
layer (`polymatrix`) depends on this for divisibility tests, singularity
detection and canonical forms.

Conventions:

* polynomials are dense: ``coeffs[k]`` is the coefficient of ``s^k``;
* the zero polynomial is the empty coefficient tuple and has degree ``-inf``;
* gcds are monic, and rational functions are stored reduced with a monic
  denominator, so equal values are always structurally equal.

Floats are rejected everywhere: silently accepting one would poison the
exactness guarantee.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Union

Rational = Fraction
Scalar = Union[int, Fraction]

NEG_INF = float("-inf")

_F0 = Fraction(0)
_F1 = Fraction(1)


def _frac(x: Scalar) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"exact coefficient expected (int or Fraction), got {type(x).__name__}")


class Poly:
    """Univariate polynomial in ``s`` with rational coefficients.

    Immutable value type. Construct from an iterable of coefficients in
    ascending powers; trailing zeros are stripped so equal polynomials are
    structurally equal::

        Poly([1, 0, 3])        # 3*s^2 + 1
        Poly([])               # the zero polynomial
    """

    __slots__ = ("coeffs",)

    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [_frac(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- basic queries ----------------------------------------------------

    @property
    def degree(self) -> int | float:
        """Degree of the polynomial; ``-inf`` for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lc(self) -> Fraction:
        """Leading coefficient (0 for the zero polynomial)."""
        return self.coeffs[-1] if self.coeffs else _F0

    @property
    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def coeff(self, k: int) -> Fraction:
        """Coefficient of ``s^k`` (0 beyond the stored degree)."""
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else _F0

    # -- ring arithmetic ---------------------------------------------------

    def __add__(self, other) -> "Poly":
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other) -> "Poly":
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Poly":
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "Poly":
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return ZERO
        out = [_F0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    if cb:
                        out[i + j] += ca * cb
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative polynomial power")
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other) -> tuple["Poly", "Poly"]:
        """Euclidean division: ``self = q*other + r`` with ``deg r < deg other``."""
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        if self.degree < other.degree:
            return ZERO, self
        rem = list(self.coeffs)
        db = len(other.coeffs) - 1
        inv_lb = 1 / other.lc
        q = [_F0] * (len(rem) - db)
        for i in range(len(rem) - 1, db - 1, -1):
            c = rem[i]
            if c:
                f = c * inv_lb
                q[i - db] = f
                rem[i] = _F0
                for j in range(db):
                    rem[i - db + j] -= f * other.coeffs[j]
        return Poly(q), Poly(rem[:db])

    def __floordiv__(self, other) -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other) -> "Poly":
        return divmod(self, other)[1]

    def __truediv__(self, other):
        """Divide by a scalar (giving a Poly) or by a Poly (giving a RatFunc)."""
        if isinstance(other, (int, Fraction)):
            inv = 1 / _frac(other)
            return Poly([c * inv for c in self.coeffs])
        if isinstance(other, Poly):
            return RatFunc(self, other)
        return NotImplemented

    def divides(self, other: "Poly") -> bool:
        """True when ``other`` is a polynomial multiple of ``self``."""
        if self.is_zero:
            return other.is_zero
        return (other % self).is_zero

    def monic(self) -> "Poly":
        """Scale so the leading coefficient is 1 (zero stays zero)."""
        if self.is_zero or self.lc == 1:
            return self
        return self / self.lc

    # -- evaluation ---------------------------------------------------------

    def __call__(self, x: Scalar) -> Fraction:
        """Exact Horner evaluation at a rational point."""
        x = _frac(x)
        acc = _F0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    # -- value protocol -----------------------------------------------------

    def __eq__(self, other) -> bool:
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(("Poly", self.coeffs))

    def __bool__(self) -> bool:
        return not self.is_zero

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            a = abs(c)
            if k == 0:
                body = str(a)
            else:
                svar = "s" if k == 1 else f"s^{k}"
                body = svar if a == 1 else f"{a}*{svar}"
            if not parts:
                parts.append(body if sign == "+" else f"-{body}")
            else:
                parts.append(f" {sign} {body}")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"Poly({self})"


def _as_poly(x) -> "Poly":
    if isinstance(x, Poly):
        return x
    if isinstance(x, (int, Fraction)):
        return Poly([x])
    return NotImplemented


ZERO = Poly()
ONE = Poly([1])
S = Poly([0, 1])


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor of two polynomials.

    Undefined for two zero inputs.
    """
    if a.is_zero and b.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


def poly_lcm(a: Poly, b: Poly) -> Poly:
    """Monic least common multiple; lcm with zero is zero."""
    if a.is_zero or b.is_zero:
        return ZERO
    return ((a * b) // poly_gcd(a, b)).monic()


class RatFunc:
    """Rational function num/den, stored reduced with a monic denominator."""

    __slots__ = ("num", "den")

    num: Poly
    den: Poly

    def __init__(self, num, den=ONE):
        num = _as_poly(num)
        den = _as_poly(den)
        if num is NotImplemented or den is NotImplemented:
            raise TypeError("RatFunc expects Poly or exact scalar arguments")
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero:
            num, den = ZERO, ONE
        else:
            g = poly_gcd(num, den)
            if g != ONE:
                num, den = num // g, den // g
            c = den.lc
            if c != 1:
                num, den = num / c, den / c
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RatFunc is immutable")

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_proper(self) -> bool:
        """Denominator degree >= numerator degree (zero counts as proper)."""
        return self.den.degree >= self.num.degree

    @property
    def is_polynomial(self) -> bool:
        return self.den == ONE

    def __add__(self, other) -> "RatFunc":
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self.num, self.den)

    def __sub__(self, other) -> "RatFunc":
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "RatFunc":
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "RatFunc":
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RatFunc":
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other) -> "RatFunc":
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __eq__(self, other) -> bool:
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash(("RatFunc", self.num, self.den))

    def __bool__(self) -> bool:
        return not self.is_zero

    def __str__(self) -> str:
        if self.is_polynomial:
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self) -> str:
        return f"RatFunc({self})"


def _as_ratfunc(x) -> "RatFunc":
    if isinstance(x, RatFunc):
        return x
    if isinstance(x, (Poly, int, Fraction)):
        return RatFunc(x)
    return NotImplemented
