"""Matrices over Q[s]: arithmetic, row echelon form and the Smith form.

Everything is exact, and no rational function is ever formed. A product
computes each entry as one integer convolution over a running common
denominator, and builds one `Poly` per entry. Two eliminations do all the
work in Q[s]. A fraction-free (Bareiss) elimination, `_packed_pass`, backs
what `behavior` decides by Cramer's rule (the properness of an input-output
form, latent elimination and inclusion, the last through the Cramer solve
`_left_quotient`) and the inverses of the Smith transforms, so none of them
leaves the polynomial ring. It runs on Python integers: each row is scaled
to integer coefficients and each entry replaced by its value at a power of
two large enough to read the polynomial back (Kronecker substitution), so
an update is one big-integer expression and builds no `Poly`. Its forward
steps update only the rows below each pivot, and fraction-free back
substitution then gives the top rows their Gauss-Jordan entries, the
Cramer numerators. `_fraction_free` reads the result back as `Poly`
entries; `_left_quotient` divides the numerators by the pivot on the
integers and reads back only the quotients. `row_echelon`
is the reduction behind minimization and latent elimination: unimodular row
operations over the Euclidean domain Q[s], carrying along whatever columns
sit to the right, so reducing [R | I] yields the left transform with the
echelon form. It runs on integer coefficient lists as well: each row is
scaled to integer coefficients, each update is one pseudo-division followed
by division by the row's content, and `Poly` entries are built only when a
row is written back.
`smith_form`, which backs the ``smith`` command, is built from the two: it
alternates `row_echelon` on the rows and on the columns until the matrix is
diagonal, and inverts each accumulated unimodular transform W with one
fraction-free pass on [W | I].
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd, lcm, prod

from .polyalg import ONE, ZERO, Poly, _as_poly, _poly, _pseudo_divmod


class DimensionError(ValueError):
    """Matrix shapes are incompatible for the requested operation."""


class SelfCheckError(RuntimeError):
    """A result failed the check it runs on itself: a fault, not bad input."""


def _coerce_entry(x) -> Poly:
    p = _as_poly(x)
    if p is NotImplemented:
        raise TypeError(f"polynomial entry expected, got {type(x).__name__}")
    return p


_POLY = frozenset({Poly})


@dataclass(frozen=True, slots=True, init=False, repr=False)
class PolyMatrix:
    """Immutable rows x cols matrix of `Poly` entries.

    ``cols`` must be given explicitly when constructing a matrix with zero
    rows; every other shape is inferred from the entry grid. A grid of
    `Poly` entries, as the parser and the arithmetic build, is kept as
    given; any other entry is converted (`int`, `Fraction`) or refused.
    """

    rows: int
    cols: int
    entries: tuple[tuple[Poly, ...], ...]

    def __init__(self, entries: Iterable[Iterable] = (), cols: int | None = None):
        grid = tuple(map(tuple, entries))
        if not _POLY.issuperset(map(type, chain.from_iterable(grid))):
            grid = tuple(tuple(map(_coerce_entry, row)) for row in grid)
        if grid:
            ncols = len(grid[0])
            for row in grid:
                if len(row) != ncols:
                    raise DimensionError("rows of unequal length")
            if cols is not None and cols != ncols:
                raise DimensionError(f"declared cols={cols} but rows have {ncols} entries")
        else:
            if cols is None:
                cols = 0
            ncols = cols
        if ncols < 0:
            raise DimensionError("negative column count")
        object.__setattr__(self, "rows", len(grid))
        object.__setattr__(self, "cols", ncols)
        object.__setattr__(self, "entries", grid)

    # -- constructors -------------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "PolyMatrix":
        return cls([[ONE if i == j else ZERO for j in range(n)] for i in range(n)], cols=n)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "PolyMatrix":
        return cls([[ZERO] * cols for _ in range(rows)], cols=cols)

    @classmethod
    def diag(cls, diagonal: Sequence) -> "PolyMatrix":
        ds = [_coerce_entry(d) for d in diagonal]
        n = len(ds)
        return cls([[ds[i] if i == j else ZERO for j in range(n)] for i in range(n)], cols=n)

    # -- access ---------------------------------------------------------------

    def __getitem__(self, key: tuple[int, int]) -> Poly:
        i, j = key
        return self.entries[i][j]

    def shape_str(self) -> str:
        return f"{self.rows}x{self.cols}"

    def take_rows(self, indices: Iterable[int]) -> "PolyMatrix":
        return PolyMatrix([self.entries[i] for i in indices], cols=self.cols)

    def take_cols(self, indices: Iterable[int]) -> "PolyMatrix":
        idx = list(indices)
        return PolyMatrix([[row[j] for j in idx] for row in self.entries], cols=len(idx))

    @property
    def is_zero(self) -> bool:
        return all(e.is_zero for row in self.entries for e in row)

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    @property
    def degree(self) -> int | float:
        """Largest entry degree (``-inf`` for a zero or empty matrix)."""
        return max((e.degree for row in self.entries for e in row), default=float("-inf"))

    # -- arithmetic -------------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionError(f"cannot add {self.shape_str()} and {other.shape_str()}")
        return PolyMatrix(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.entries, other.entries)],
            cols=self.cols,
        )

    def __neg__(self) -> "PolyMatrix":
        return PolyMatrix([[-e for e in row] for row in self.entries], cols=self.cols)

    def __sub__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, PolyMatrix):
            if isinstance(other, (Poly, int, Fraction)):
                p = _coerce_entry(other)
                return PolyMatrix([[e * p for e in row] for row in self.entries], cols=self.cols)
            return NotImplemented
        if self.cols != other.rows:
            raise DimensionError(f"cannot multiply {self.shape_str()} by {other.shape_str()}")
        columns = list(zip(*other.entries)) if other.rows else [()] * other.cols
        out = []
        for row in self.entries:
            out_row = []
            for col in columns:
                # One integer convolution over a running denominator `den`.
                acc: list[int] = []
                den = 1
                for a, b in zip(row, col):
                    an, bn = a.num, b.num
                    if not an or not bn:
                        continue
                    e = a.den * b.den
                    if e != den:
                        L = lcm(den, e)
                        if L != den:
                            f = L // den
                            acc = [c * f for c in acc]
                            den = L
                        if L != e:
                            g = L // e
                            an = [c * g for c in an]
                    n = len(an) + len(bn) - 1
                    if len(acc) < n:
                        acc.extend([0] * (n - len(acc)))
                    for i, ca in enumerate(an):
                        if ca:
                            for j, cb in enumerate(bn, i):
                                acc[j] += ca * cb
                out_row.append(_poly(acc, den))
            out.append(out_row)
        return PolyMatrix(out, cols=other.cols)

    def __rmul__(self, other):
        if isinstance(other, (Poly, int, Fraction)):
            return self * other
        return NotImplemented

    # -- value protocol ----------------------------------------------------------

    def __str__(self) -> str:
        # The text format has no empty row, so a matrix without columns
        # prints as `[]`.
        if not self.cols:
            return "[]"
        return "[" + ", ".join("[" + ", ".join(str(e) for e in row) + "]" for row in self.entries) + "]"

    def __repr__(self) -> str:
        return f"PolyMatrix({self})"


def hstack(*mats: PolyMatrix) -> PolyMatrix:
    """Concatenate matrices left to right."""
    if not mats:
        raise DimensionError("hstack of nothing")
    rows = mats[0].rows
    for m in mats:
        if m.rows != rows:
            raise DimensionError("hstack with differing row counts")
    return PolyMatrix(
        [sum((list(m.entries[i]) for m in mats), []) for i in range(rows)],
        cols=sum(m.cols for m in mats),
    )


def vstack(*mats: PolyMatrix) -> PolyMatrix:
    """Concatenate matrices top to bottom."""
    if not mats:
        raise DimensionError("vstack of nothing")
    cols = mats[0].cols
    for m in mats:
        if m.cols != cols:
            raise DimensionError("vstack with differing column counts")
    out: list[tuple[Poly, ...]] = []
    for m in mats:
        out.extend(m.entries)
    return PolyMatrix(out, cols=cols)


def _pack(p: Poly, scale: int, k: int) -> int:
    """``scale * p`` evaluated at s = 2^k, for ``scale`` a multiple of ``p.den``."""
    v = 0
    for c in reversed(p.num):
        v = (v << k) + c
    return v * (scale // p.den)


def _unpack(v: int, k: int, den: int) -> Poly:
    """The polynomial with coefficients in (-2^(k-1), 2^(k-1)) whose value at
    s = 2^k is ``v``, divided by ``den``."""
    half = 1 << (k - 1)
    mask = (half << 1) - 1
    num = []
    while v:
        c = ((v + half) & mask) - half
        num.append(c)
        v = (v - c) >> k
    return _poly(num, den)


def _packed_pass(
    grid: Sequence[Sequence[Poly]], ncols: int
) -> tuple[list[int], int, int, list[list[int]], list[int], int, int, list[int]]:
    """Fraction-free (Bareiss) elimination of ``grid``, which it leaves as is, on packed integers.

    Scans columns ``0..ncols-1``; each pivots on its first nonzero entry at or
    below the current rank, and a column without one is skipped. Every row
    below the pivot row becomes (pivot * row - entry * pivot_row) /
    previous_pivot in every column without a pivot, the skipped ones
    included, and the rows above are left as they are. Each entry stays a
    minor of the input, so the division is exact (Bareiss, Math. Comp. 22,
    1968; Nakos, Turner & Williams, SIGSAM Bull. 31, 1997, for the skipped
    columns). The rows below the rank then hold the minors that border the
    pivot block with one more row and column.

    The top rows are then brought to the Gauss-Jordan form by fraction-free
    back substitution. Let p_i be the pivot of top row i, U_il its entry in
    the pivot column of row l > i, b_i its entry in a column without a
    pivot, and d the last pivot. From the last top row up,
    y_i = (d * b_i - sum over l > i of U_il * y_l) / p_i, with y_i = b_i in
    the last. Row i of the forward steps is p_(i-1) times row i of the
    Gaussian elimination, so y_i is d times the coefficient of pivot column
    i in that column; by Cramer's rule it is a minor of the input, and the
    division is exact for the same reason as the forward steps. So after a
    full-rank pass on [P | Q] the last pivot is +-det P and the right block
    +-det(P) P^-1 Q; a skipped column c holds, in the top rows, the last
    pivot times the coefficients of c on the pivot columns.

    The pass runs on integers. Row i is scaled by the lcm L_i of its
    denominators, and each entry is replaced by its value at s = 2^k
    (Kronecker substitution). Every entry the pass keeps is a minor of the
    scaled grid, and the coefficient 1-norm of a minor is at most the
    product of the 1-norms of its rows, so at most B, the product over all
    rows of max(1, 1-norm). With k = bits(B) + 1 each coefficient fits in a
    signed k-bit digit: an entry is zero iff its polynomial is, and
    `_unpack` gives the polynomial back. Evaluation is a ring homomorphism,
    so an exact division of polynomials is an exact division of integers;
    an integer division that leaves a remainder raises `ArithmeticError`.

    Returns ``(pivots, sign, pivot, right, order, k, s, dens)``: the scanned
    columns that got a pivot, whose count is the rank, the sign of the row
    permutation, the last pivot (1 when the rank is 0), the columns without
    a pivot of every row, the skipped scanned ones first and then those from
    ``ncols`` on, the input row each row came from, all in the final row
    order, the digit size k, and the denominators that `_unpack` takes for
    the pivot and for each row of ``right``. The scaled pivot and top rows
    carry the factor s, the product of L_i over the pivot rows, and the rows
    below carry s * L_i of their own row.
    """
    rows = len(grid)
    width = len(grid[0]) if grid else 0
    scales, bound = [], 1
    for row in grid:
        scale = lcm(*[e.den for e in row])
        scales.append(scale)
        bound *= max(1, sum([sum(map(abs, e.num)) * (scale // e.den) for e in row]))
    k = bound.bit_length() + 1
    a = [[_pack(e, scale, k) for e in row] for row, scale in zip(grid, scales)]
    order = list(range(rows))
    # The columns without a pivot: those skipped, then those not yet scanned.
    live = list(range(width))
    pivots: list[int] = []
    sign, prev = 1, 1
    for c in range(ncols):
        rank = len(pivots)
        if rank == rows:
            break
        piv = next((i for i in range(rank, rows) if a[i][c]), None)
        if piv is None:
            continue
        if piv != rank:
            a[rank], a[piv] = a[piv], a[rank]
            order[rank], order[piv] = order[piv], order[rank]
            sign = -sign
        live.remove(c)
        prow = a[rank]
        pivot = prow[c]
        for row in a[rank + 1:]:
            f = row[c]
            for j in live:
                q, r = divmod(row[j] * pivot - f * prow[j], prev)
                if r:
                    raise ArithmeticError("inexact division in fraction-free elimination")
                row[j] = q
        prev = pivot
        pivots.append(c)
    rank = len(pivots)
    for i in range(rank - 2, -1, -1):
        row = a[i]
        p = row[pivots[i]]
        terms = [(row[c], a[l]) for l, c in enumerate(pivots[i + 1:], i + 1) if row[c]]
        for j in live:
            q, r = divmod(prev * row[j] - sum([u * y[j] for u, y in terms]), p)
            if r:
                raise ArithmeticError("inexact division in fraction-free elimination")
            row[j] = q
    s = prod(scales[i] for i in order[:rank])
    dens = [s] * rank + [s * scales[i] for i in order[rank:]]
    return pivots, sign, prev, [[row[j] for j in live] for row in a], order, k, s, dens


def _fraction_free(
    grid: Sequence[Sequence[Poly]], ncols: int
) -> tuple[list[int], int, Poly, list[list[Poly]], list[int]]:
    """`_packed_pass` with the pivot and the right block read back as `Poly`
    entries: ``(pivots, sign, pivot, right, order)``, the entries those of
    the elimination on the unscaled grid."""
    pivots, sign, pivot, right, order, k, s, dens = _packed_pass(grid, ncols)
    right = [[_unpack(v, k, d) for v in row] for row, d in zip(right, dens)]
    return pivots, sign, _unpack(pivot, k, s), right, order


def _left_quotient(src: Sequence[Sequence[Poly]], target: PolyMatrix) -> PolyMatrix | str | None:
    """A polynomial M with M * src = target, by Cramer's rule.

    One fraction-free pass (`_packed_pass`) on [src^T | target^T] scans the
    columns of src^T. Those that get a pivot are the pivot rows J of src,
    the first independent ones; the others are its dependent rows D. The
    pass pivots in the columns C of src, and its last pivot is
    d = +-det src_J on C. Its top rows hold d * X, for X the coefficients
    of the rows of D and of target on the rows of J. Its rows below hold
    the minors that border src_J with another column of src and a row of
    target, which all vanish iff every row of target is a rational
    combination of src_J. When d divides the coefficients of every row of
    D, src and src_J have the same row module, so M exists iff the unique
    multiplier of src_J is polynomial, that is iff d divides every
    numerator; M then has a zero column for each row of D. Returns the
    reason when no polynomial M exists, and None when a row of D is no
    polynomial combination of src_J, which leaves the question open.

    Everything is decided on the packed integers of the pass, and a `Poly`
    is unpacked only for a quotient or a diagnostic. A bordered minor is
    zero iff its integer is. A numerator y over d is divided as integers
    first. Let D and Y be the packed d and y, with digit size k, and d~
    and y~ the scaled integer polynomials they are the values of at 2^k,
    d~ read with digit k from D alone (the reduced d can have smaller
    coefficients, and would not bound the product). If D divides Y, let x
    be the quotient read with digit k, so x(2^k) * D = Y. If moreover
    ||x||_1 * ||d~||_inf < 2^(k-1), every coefficient of x * d~ lies in
    (-2^(k-1), 2^(k-1)), and so does every coefficient of y~, a minor
    inside the pass's bound. Two such polynomials with the same value at
    2^k are equal, since their difference has coefficients in
    (-2^k, 2^k) and vanishes at 2^k. So x * d~ = y~, and x = y / d is the
    quotient. Otherwise y is unpacked and divided by d as polynomials: the
    only route for a multiplier with rational coefficients, and the one
    that words a remainder.
    """
    r, n = len(src), target.cols
    g = [[row[j] for row in src] + [row[j] for row in target.entries] for j in range(n)]
    pivots, _, D, right, order, k, s, dens = _packed_pass(g, r)
    rank = len(pivots)
    dropped = r - rank
    for row, j, den in zip(right[rank:], order[rank:], dens[rank:]):
        for t, v in enumerate(row[dropped:]):
            if v:
                return (
                    f"no polynomial multiplier exists: row {t} is not a rational combination of "
                    f"the source rows in source column {j} (bordered minor {_unpack(v, k, den)})"
                )
    scaled = _unpack(D, k, 1).num
    d = _poly(list(scaled), s)
    d_max = max(map(abs, scaled))
    half = 1 << (k - 1)

    def quotient(v: int) -> Poly | None:
        q, rem = divmod(v, D)
        if not rem:
            x = _unpack(q, k, 1)
            if sum(map(abs, x.num)) * d_max < half:
                return x
        return None

    if not all(quotient(v) is not None or d.divides(_unpack(v, k, s))
               for row in right[:rank] for v in row[:dropped]):
        return None
    M = [[ZERO] * r for _ in range(target.rows)]
    for t, out in enumerate(M):
        for i, c in enumerate(pivots):
            v = right[i][dropped + t]
            x = quotient(v)
            if x is None:
                e = _unpack(v, k, s)
                x, rem = divmod(e, d)
                if not rem.is_zero:
                    return (
                        f"multiplier is not polynomial: entry ({t}, {c}) requires dividing {e} by "
                        f"the pivot {d} in source columns {sorted(order[:rank])}, remainder {rem}"
                    )
            out[c] = x
    return PolyMatrix(M, cols=r)


def _unimodular_inverse(W: Sequence[Sequence[Poly]]) -> list[list[Poly]]:
    """The rows of W^-1 for a unimodular W, from one fraction-free pass on [W | I].

    The pass leaves d W^-1 in the top rows of the right block, for
    d = +-det W, so W^-1 is polynomial iff the rank is full and d is a
    constant; each entry is then one scalar division. Raises
    `SelfCheckError` otherwise, since the transforms of `smith_form` are
    unimodular by construction.
    """
    n = len(W)
    a = [list(row) + list(e) for row, e in zip(W, PolyMatrix.identity(n).entries)]
    pivots, _, d, right, _ = _fraction_free(a, n)
    if len(pivots) < n or not d.is_constant:
        raise SelfCheckError(
            f"Smith transform has no polynomial inverse: rank {len(pivots)} of {n}, last pivot {d}"
        )
    lc = d.lc
    return [[e / lc for e in row] for row in right]


def _mul_sub(m: int, x: list[int], q: list[int], y: list[int]) -> list[int]:
    """``m * x - q * y`` for integer coefficient lists, without trailing zeros."""
    out = [m * v for v in x] if m != 1 else list(x)
    n = len(q) + len(y) - 1
    if len(out) < n:
        out.extend([0] * (n - len(out)))
    for i, qi in enumerate(q):
        if qi:
            for j, yj in enumerate(y, i):
                out[j] -= qi * yj
    while out and not out[-1]:
        out.pop()
    return out


def row_echelon(a: list[list[Poly]], ncols: int) -> list[int]:
    """Row echelon form of the first ``ncols`` columns of the grid ``a``, in place.

    Only unimodular row operations over Q[s] are used, and any columns to the
    right of ``ncols`` are carried along, so reducing [R | I] leaves [W R | W]
    with W unimodular. Each column pivots on its lowest-degree nonzero entry
    at or below the current rank (ties go to the lowest row); the entries
    below are replaced by their remainders modulo the pivot, and while one
    survives it becomes the next, lower-degree pivot. Entries above the
    pivots are left as they are.

    The scan runs on integers. On entry row i becomes integer coefficient
    lists over the lcm L_i of its denominators, so an entry's degree is the
    length of its list less one. A row below the pivot row p with a nonzero
    entry x in column c is updated by one pseudo-division (`_pseudo_divmod`),
    m * x = q * p[c] + r with an integer m > 0, as row := m * row - q * p
    over the columns from c on, and is then divided by its content, the gcd
    of all its coefficients (a primitive pseudo-remainder step; Brown,
    J. ACM 18, 1971). The result is a positive rational multiple of
    row - (q / m) * p, the update over Q(s), so degrees, zero tests and
    pivots are those of the rational scan, and each updated row is the
    unique positive multiple of it with integer coefficients of gcd 1, which
    keeps the coefficients short; a constant scaling is unimodular.

    No `Poly` is built during the scan. Each pivot row is written back made
    monic when its column ends, so it does not depend on those scalings;
    each row below the rank that was updated is written back primitive, with
    denominator 1; a row the scan never updates keeps its `Poly` objects.

    Returns the pivot columns; their count is the generic rank, and the rows
    from there down are zero in the scanned columns.
    """
    rows = len(a)
    width = len(a[0]) if a else 0
    z = []
    for row in a:
        scale = lcm(*[e.den for e in row])
        z.append([[v * (scale // e.den) for v in e.num] for e in row])
    updated = [False] * rows
    pivots: list[int] = []
    for c in range(ncols):
        rank = len(pivots)
        if rank == rows:
            break
        live = [i for i in range(rank, rows) if z[i][c]]
        if not live:
            continue
        while live:
            piv = min(live, key=lambda i: len(z[i][c]))
            a[rank], a[piv] = a[piv], a[rank]
            z[rank], z[piv] = z[piv], z[rank]
            updated[rank], updated[piv] = updated[piv], updated[rank]
            prow = z[rank]
            p = prow[c]
            for i in range(rank + 1, rows):
                row = z[i]
                if not row[c]:
                    continue
                q, row[c], m = _pseudo_divmod(row[c], p)
                for j in range(c + 1, width):
                    if prow[j]:
                        row[j] = _mul_sub(m, row[j], q, prow[j])
                    elif m != 1 and row[j]:
                        row[j] = [m * v for v in row[j]]
                # Columns before c are zero below the rank.
                g = 0
                for e in row[c:]:
                    if e:
                        g = gcd(g, *e)
                        if g == 1:
                            break
                if g > 1:
                    z[i] = [[v // g for v in e] for e in row]
                updated[i] = True
            # A surviving remainder has lower degree than the pivot: re-pivot.
            live = [i for i in range(rank + 1, rows) if z[i][c]]
        prow = z[rank]
        lc = prow[c][-1]
        a[rank] = [_poly(e, lc) for e in prow]
        pivots.append(c)
    for i in range(len(pivots), rows):
        if updated[i]:
            a[i] = [_poly(e, 1) for e in z[i]]
    return pivots


@dataclass(frozen=True)
class SmithDecomposition:
    """Factorization R = U * [diag(invariant_factors) 0; 0 0] * V.

    U and V are unimodular; the invariant factors are monic, nonzero and each
    divides the next. ``U_inv`` and ``V_inv`` are the (polynomial) inverses of
    U and V, so U_inv * R * V_inv is the middle factor.

    Construction checks the invariant factors and that U * U_inv and
    V_inv * V are identities, and raises `SelfCheckError` otherwise. R is not
    stored, so U_inv * R * V_inv is left to the caller to check.
    """

    U: PolyMatrix
    V: PolyMatrix
    invariant_factors: tuple[Poly, ...]
    U_inv: PolyMatrix
    V_inv: PolyMatrix

    def __post_init__(self):
        prev: Poly | None = None
        for d in self.invariant_factors:
            if d.is_zero or d.lc != 1:
                raise SelfCheckError("invariant factors must be monic and nonzero")
            if prev is not None and not prev.divides(d):
                raise SelfCheckError("invariant factor divisibility chain broken")
            prev = d
        if self.U * self.U_inv != PolyMatrix.identity(self.U.rows):
            raise SelfCheckError("U_inv is not the inverse of U")
        if self.V_inv * self.V != PolyMatrix.identity(self.V.rows):
            raise SelfCheckError("V_inv is not the inverse of V")

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)

    def canonical_form(self) -> PolyMatrix:
        """The middle factor [diag(d_1..d_r) 0; 0 0], shaped rows(U) x cols(V)."""
        rows, cols = self.U.rows, self.V.rows
        return PolyMatrix(
            [
                [
                    self.invariant_factors[i] if i == j and i < self.rank else ZERO
                    for j in range(cols)
                ]
                for i in range(rows)
            ],
            cols=cols,
        )

    def reconstruct(self) -> PolyMatrix:
        return self.U * self.canonical_form() * self.V


def smith_form(R: PolyMatrix) -> SmithDecomposition:
    """Smith canonical form of a polynomial matrix.

    Alternates row echelon reductions (`row_echelon`) of [S | U_inv] and of
    [S^T | V_inv^T], starting from S = R, so U_inv * R * V_inv = S holds
    throughout (Kailath, Linear Systems, 1980, section 6.3). Either pass
    leaves in each pivot position a gcd of the entries it reduced, so the
    first pivot whose row or column is not yet clear either drops in degree
    or has them cleared, and once clear they stay clear: S becomes diagonal,
    monic entries on top and zeros below. If then d_i does not divide
    d_(i+1), row i + 1 is added to row i, and the next column pass replaces
    d_i by gcd(d_i, d_(i+1)) while d_1 .. d_(i-1) stay. Every repair thus
    lowers the degree of a pivot without touching the ones before it, so the
    loop ends. The diagonal is unique; the transforms are not. U and V are
    the inverses of the unimodular U_inv and V_inv, each from one
    fraction-free pass (`_unimodular_inverse`): U from [U_inv | I], and V^T
    from [V_inv^T | I]. The rows of both are echelon rows with one
    denominator each, so scaling them to integers adds few bits, where the
    rows of V_inv mix denominators and would make the pass much slower.
    """
    m, n = R.rows, R.cols
    a = [list(row) + list(e) for row, e in zip(R.entries, PolyMatrix.identity(m).entries)]
    vt = [list(row) for row in PolyMatrix.identity(n).entries]  # V_inv^T
    while True:
        row_echelon(a, n)  # a = [S | U_inv]
        if any(not e.is_zero for i, row in enumerate(a) for j, e in enumerate(row[:n]) if i != j):
            b = [list(col) + v for col, v in zip(zip(*(row[:n] for row in a)), vt)]  # [S^T | V_inv^T]
            row_echelon(b, m)
            vt = [row[m:] for row in b]
            a = [list(col) + row[n:] for col, row in zip(zip(*(row[:m] for row in b)), a)]
            continue
        factors = [a[i][i] for i in range(min(m, n)) if not a[i][i].is_zero]
        bad = next((i for i in range(len(factors) - 1) if not factors[i].divides(factors[i + 1])), None)
        if bad is None:
            break
        a[bad] = [x + y for x, y in zip(a[bad], a[bad + 1])]

    U_inv = [row[n:] for row in a]
    return SmithDecomposition(
        U=PolyMatrix(_unimodular_inverse(U_inv), cols=m),
        V=PolyMatrix(list(zip(*_unimodular_inverse(vt))), cols=n),
        invariant_factors=tuple(factors),
        U_inv=PolyMatrix(U_inv, cols=m),
        V_inv=PolyMatrix(list(zip(*vt)), cols=n),
    )
