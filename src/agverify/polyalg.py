"""Exact univariate polynomial arithmetic over Q.

A polynomial holds integer numerators over one positive integer denominator,
so arithmetic is exact (zero tests are genuine decisions, not tolerance
checks) and each coefficient operation is plain integer arithmetic. The
matrix layer (`polymatrix`) depends on this for divisibility tests,
singularity detection and canonical forms. Division is a pseudo-division of
the integer numerators (`_pseudo_divmod`), which `polymatrix.row_echelon`
also runs directly on integer coefficient lists, without building a `Poly`.
A `Poly` divides only by a scalar; `divmod` divides by a polynomial. The
text of a polynomial, and of each coefficient (`_coeff_text`), is printed from
the integer numerators and the denominator, without a `Fraction`.

The package has one polynomial gcd, `_gcd`, a primitive remainder sequence
on integer coefficient lists; latent elimination (`behavior.eliminate_latent`)
runs it directly. `poly_gcd` is its monic wrapper on `Poly`, and it and
`poly_lcm` serve the tests of the matrix and contract layers. `RatFunc`
takes no part in any decision: every decision stays in Q[s]. It has no
arithmetic: it keeps only its normalising constructor and `is_proper`, for
its own tests and for the benchmark tracer in ``perfbench/``, which counts
its constructions.

Conventions:

* polynomials are dense: ``num[k] / den`` is the coefficient of ``s^k``;
  ``coeffs``, ``lc`` and ``coeff`` return `Fraction`s;
* the form is canonical (no trailing zeros in ``num``, ``den > 0``,
  ``gcd(den, *num) == 1``); zero is ``((), 1)`` and has degree ``-inf``;
* gcds are monic, and rational functions are stored reduced with a monic
  denominator, so equal values are always structurally equal.

Floats are rejected everywhere: silently accepting one would poison the
exactness guarantee.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

Scalar = int | Fraction

NEG_INF = float("-inf")

_F0 = Fraction(0)


def _frac(x: Scalar) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"exact coefficient expected (int or Fraction), got {type(x).__name__}")


@dataclass(frozen=True, slots=True, init=False, repr=False, eq=False)
class Poly:
    """Univariate polynomial in ``s`` with rational coefficients.

    Immutable value type: integer numerators ``num`` in ascending powers over
    one denominator ``den``, in the canonical form above, so equal
    polynomials are structurally equal. Construct from ``int`` or
    ``Fraction`` coefficients in ascending powers::

        Poly([1, 0, 3])              # 3*s^2 + 1: num (1, 0, 3), den 1
        Poly([Fraction(1, 2), 1])    # s + 1/2: num (1, 2), den 2
        Poly([])                     # the zero polynomial
    """

    num: tuple[int, ...]
    den: int

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = list(coeffs)
        den = 1
        for c in cs:
            if isinstance(c, Fraction):
                d = c.denominator
                if den % d:
                    den = den // gcd(den, d) * d
            elif not isinstance(c, int):
                raise TypeError(f"exact coefficient expected (int or Fraction), got {type(c).__name__}")
        if den == 1:
            num = [c.numerator for c in cs]
        else:
            num = [c.numerator * (den // c.denominator) for c in cs]
        while num and not num[-1]:
            num.pop()
        # Over the lcm of reduced denominators the numerators share no factor
        # with it, so the form is already canonical.
        _set_num(self, tuple(num))
        _set_den(self, den)

    # -- basic queries ----------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients in ascending powers, as `Fraction`s."""
        den = self.den
        return tuple(Fraction(c, den) for c in self.num)

    @property
    def degree(self) -> int | float:
        """Degree of the polynomial; ``-inf`` for the zero polynomial."""
        return len(self.num) - 1 if self.num else NEG_INF

    @property
    def is_zero(self) -> bool:
        return not self.num

    @property
    def lc(self) -> Fraction:
        """Leading coefficient (0 for the zero polynomial)."""
        return Fraction(self.num[-1], self.den) if self.num else _F0

    @property
    def is_constant(self) -> bool:
        return len(self.num) <= 1

    def coeff(self, k: int) -> Fraction:
        """Coefficient of ``s^k`` (0 beyond the stored degree)."""
        return Fraction(self.num[k], self.den) if 0 <= k < len(self.num) else _F0

    # -- ring arithmetic ---------------------------------------------------

    def __add__(self, other) -> "Poly":
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return _add(self, other, 1)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return _poly([-c for c in self.num], self.den)

    def __sub__(self, other) -> "Poly":
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return _add(self, other, -1)

    def __rsub__(self, other) -> "Poly":
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return _add(other, self, -1)

    def __mul__(self, other) -> "Poly":
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.num, other.num
        if not a or not b:
            return ZERO
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b, i):
                    out[j] += ca * cb
        return _poly(out, self.den * other.den)

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
        """Euclidean division: ``self = q*other + r`` with ``deg r < deg other``,
        from one pseudo-division of the numerators (`_pseudo_divmod`)."""
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.num:
            raise ZeroDivisionError("polynomial division by zero")
        q, r, m = _pseudo_divmod(self.num, other.num)
        # m * self.num == q * other.num + r
        den = m * self.den
        if other.den != 1:
            q = [x * other.den for x in q]
        return _poly(q, den), _poly(r, den)

    def __floordiv__(self, other) -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other) -> "Poly":
        return divmod(self, other)[1]

    def __truediv__(self, other) -> "Poly":
        """Divide by a nonzero scalar; `divmod` divides by a polynomial."""
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        d = other.denominator
        return _poly([c * d for c in self.num], self.den * other.numerator)

    def divides(self, other: "Poly") -> bool:
        """True when ``other`` is a polynomial multiple of ``self``."""
        if len(self.num) <= 1:
            # A nonzero constant divides every polynomial.
            return bool(self.num) or other.is_zero
        return (other % self).is_zero

    def monic(self) -> "Poly":
        """Scale so the leading coefficient is 1 (zero stays zero)."""
        if self.is_zero or self.num[-1] == self.den:
            return self
        return _poly(list(self.num), self.num[-1])

    # -- evaluation ---------------------------------------------------------

    def __call__(self, x: Scalar) -> Fraction:
        """Exact Horner evaluation at a rational point."""
        x = _frac(x)
        acc = _F0
        for c in reversed(self.num):
            acc = acc * x + c
        return acc / self.den

    # -- value protocol -----------------------------------------------------

    # Equality and hashing are written out, not generated, because a
    # constant polynomial compares equal to the scalar it holds.
    def __eq__(self, other) -> bool:
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        if len(self.num) <= 1:
            return hash(Fraction(self.num[0], self.den) if self.num else 0)
        return hash(("Poly", self.num, self.den))

    def __bool__(self) -> bool:
        return not self.is_zero

    def __str__(self) -> str:
        num, den = self.num, self.den
        if not num:
            return "0"
        parts: list[str] = []
        for k in range(len(num) - 1, -1, -1):
            c = num[k]
            if not c:
                continue
            sign = "-" if c < 0 else "+"
            a = abs(c)
            if k == 0:
                body = _coeff_text(a, den)
            else:
                svar = "s" if k == 1 else f"s^{k}"
                body = svar if a == den else f"{_coeff_text(a, den)}*{svar}"
            if not parts:
                parts.append(body if sign == "+" else f"-{body}")
            else:
                parts.append(f" {sign} {body}")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"Poly({self})"


_set_num = Poly.num.__set__
_set_den = Poly.den.__set__


def _poly(num: list[int], den: int) -> Poly:
    """The canonical Poly ``num / den``: trailing zeros stripped, ``den``
    made positive and the common factor of ``den`` and ``num`` divided out."""
    while num and not num[-1]:
        num.pop()
    if not num:
        return ZERO
    if den != 1:
        if den < 0:
            num, den = [-c for c in num], -den
        g = gcd(den, *num)
        if g != 1:
            num, den = [c // g for c in num], den // g
    p = object.__new__(Poly)
    _set_num(p, tuple(num))
    _set_den(p, den)
    return p


def _coeff_text(c: int, den: int) -> str:
    """``c / den`` in lowest terms, as ``str(Fraction(c, den))`` prints it:
    ``a`` or ``a/b``, for ``den > 0``."""
    g = gcd(c, den)
    return str(c // g) if g == den else f"{c // g}/{den // g}"


def _pseudo_divmod(a: Sequence[int], b: Sequence[int]) -> tuple[list[int], list[int], int]:
    """Pseudo-division of integer coefficient lists in ascending powers, ``b``
    nonzero and both without trailing zeros: ``(q, r, m)`` with
    ``m * a == q * b + r``, an integer ``m > 0`` and ``r`` of lower degree
    than ``b``, without trailing zeros.

    Fraction-free: where the leading coefficient ``lb`` of ``b`` does not
    divide the leading remainder coefficient ``c``, the remainder and the
    quotient so far are scaled by ``|lb| / gcd(c, lb)``, and ``m`` is the
    product of those factors.
    """
    db = len(b) - 1
    rem = list(a)
    lb = b[-1]
    alb = abs(lb)
    q = [0] * (len(rem) - db)
    m = 1
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i]
        if c:
            f = alb // gcd(c, alb)
            if f != 1:
                rem = [x * f for x in rem]
                q = [x * f for x in q]
                m *= f
                c *= f
            f = c // lb
            q[i - db] = f
            rem[i] = 0
            for j in range(db):
                rem[i - db + j] -= f * b[j]
    del rem[db:]
    while rem and not rem[-1]:
        rem.pop()
    return q, rem, m


def _add(a: Poly, b: Poly, sign: int) -> Poly:
    """``a + sign * b`` for ``sign`` in {1, -1}, over the lcm of the denominators."""
    fa, fb, den = 1, sign, a.den
    if b.den != den:
        g = gcd(den, b.den)
        fa, fb, den = b.den // g, sign * (den // g), den // g * b.den
    out = [c * fa for c in a.num] if fa != 1 else list(a.num)
    if len(out) < len(b.num):
        out.extend([0] * (len(b.num) - len(out)))
    for i, c in enumerate(b.num):
        out[i] += fb * c
    return _poly(out, den)


def _as_poly(x) -> "Poly":
    if isinstance(x, Poly):
        return x
    if isinstance(x, (int, Fraction)):
        return _poly([x.numerator], x.denominator)
    return NotImplemented


ZERO = Poly()
ONE = Poly([1])
S = Poly([0, 1])


def _gcd(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Greatest common divisor of integer coefficient lists in ascending
    powers, not both empty and without trailing zeros, as the unique
    polynomial with integer coefficients of gcd 1 and a positive leading
    coefficient. A primitive remainder sequence (Brown, J. ACM 18, 1971):
    each pseudo-remainder (`_pseudo_divmod`) is divided by its content, so
    the gcd is found without a `Fraction` or a `Poly`. A nonzero constant
    remainder ends it: the gcd is then 1."""
    while len(b) > 1:
        r = _pseudo_divmod(a, b)[1]
        g = gcd(*r) or 1
        a, b = b, [x // g for x in r]
    if b:
        return [1]
    g = gcd(*a) if a[-1] > 0 else -gcd(*a)
    return [x // g for x in a]


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor of two polynomials, from `_gcd` on
    their numerators.

    Undefined for two zero inputs.
    """
    if a.is_zero and b.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    g = _gcd(a.num, b.num)
    return _poly(g, g[-1])


def poly_lcm(a: Poly, b: Poly) -> Poly:
    """Monic least common multiple; lcm with zero is zero."""
    if a.is_zero or b.is_zero:
        return ZERO
    return ((a * b) // poly_gcd(a, b)).monic()


@dataclass(frozen=True, slots=True, init=False)
class RatFunc:
    """A rational function num/den, stored reduced with a monic denominator."""

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

    @property
    def is_proper(self) -> bool:
        """Denominator degree >= numerator degree (zero counts as proper)."""
        return self.den.degree >= self.num.degree
