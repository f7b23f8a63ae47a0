"""Matrices over Q[s]: arithmetic, determinants, generic rank, row echelon
form, inversion and the Smith canonical form.

Everything is exact. One fraction-free (Bareiss) elimination backs the
determinant, the generic rank and the properness test, so none of them
leaves the polynomial ring. `row_echelon` is the one reduction the
behavioral decisions use: unimodular row operations over the Euclidean
domain Q[s], carrying along whatever columns sit to the right, so reducing
[R | I] yields the left transform with the echelon form. `smith_form` also
applies column operations and tracks both transforms and their inverses; it
backs the ``smith`` command and serves as a test oracle. `RatMatrix` and
`invert_ratmatrix` compute over the fraction field Q(s); they back only
`behavior.transfer_matrix`, an independent cross-check of state elimination,
and no decision uses them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .polyalg import ONE, ZERO, Poly, RatFunc, _as_poly, _as_ratfunc


class DimensionError(ValueError):
    """Matrix shapes are incompatible for the requested operation."""


class SingularMatrixError(ValueError):
    """A square matrix required to be invertible has zero determinant."""


def _coerce_entry(x) -> Poly:
    p = _as_poly(x)
    if p is NotImplemented:
        raise TypeError(f"polynomial entry expected, got {type(x).__name__}")
    return p


class PolyMatrix:
    """Immutable rows x cols matrix of `Poly` entries.

    ``cols`` must be given explicitly when constructing a matrix with zero
    rows; every other shape is inferred from the entry grid.
    """

    __slots__ = ("rows", "cols", "entries")

    rows: int
    cols: int
    entries: tuple[tuple[Poly, ...], ...]

    def __init__(self, entries: Iterable[Iterable] = (), cols: int | None = None):
        grid = tuple(tuple(_coerce_entry(x) for x in row) for row in entries)
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

    def __setattr__(self, name, value):
        raise AttributeError("PolyMatrix is immutable")

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

    def row(self, i: int) -> tuple[Poly, ...]:
        return self.entries[i]

    def col(self, j: int) -> tuple[Poly, ...]:
        return tuple(row[j] for row in self.entries)

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

    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
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

    def __sub__(self, other: "PolyMatrix") -> "PolyMatrix":
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, PolyMatrix):
            if self.cols != other.rows:
                raise DimensionError(
                    f"cannot multiply {self.shape_str()} by {other.shape_str()}"
                )
            cols = other.cols
            out = []
            for i in range(self.rows):
                row_i = self.entries[i]
                out_row = []
                for j in range(cols):
                    acc = ZERO
                    for k in range(self.cols):
                        a = row_i[k]
                        if not a.is_zero:
                            b = other.entries[k][j]
                            if not b.is_zero:
                                acc = acc + a * b
                    out_row.append(acc)
                out.append(out_row)
            return PolyMatrix(out, cols=cols)
        if isinstance(other, (Poly, int, Fraction)):
            p = _coerce_entry(other)
            return PolyMatrix([[e * p for e in row] for row in self.entries], cols=self.cols)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (Poly, int, Fraction)):
            return self * other
        return NotImplemented

    def transpose(self) -> "PolyMatrix":
        return PolyMatrix(
            [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)],
            cols=self.rows,
        )

    # -- value protocol ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(("PolyMatrix", self.rows, self.cols, self.entries))

    def shape_str(self) -> str:
        return f"{self.rows}x{self.cols}"

    def __str__(self) -> str:
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


def block(grid: Sequence[Sequence[PolyMatrix]]) -> PolyMatrix:
    """Compose a matrix from a grid of blocks (row-major)."""
    return vstack(*(hstack(*row) for row in grid))


def _exact_div(a: Poly, b: Poly) -> Poly:
    q, r = divmod(a, b)
    if not r.is_zero:
        raise ArithmeticError("inexact division in fraction-free elimination")
    return q


def _fraction_free(a: list[list[Poly]], ncols: int, jordan: bool = False) -> tuple[int, int]:
    """Fraction-free (Bareiss) row elimination of the grid ``a``, in place.

    Scans columns ``0..ncols-1``; each pivots on its first nonzero entry at or
    below the current rank, and a column without one is skipped. Every other
    row below the pivot (with ``jordan``, above it too) becomes
    (pivot * row - entry * pivot_row) / previous_pivot. Each entry stays a
    minor of the input, so the division is exact (Bareiss, Math. Comp. 22,
    1968; Nakos, Turner & Williams, SIGSAM Bull. 31, 1997, for the skipped
    columns and the Gauss-Jordan form). After a full-rank Gauss-Jordan pass
    on [P | Q] the last pivot is +-det P and the right block +-det(P) P^-1 Q.

    Returns the rank of the scanned columns and the sign of the row
    permutation.
    """
    rows = len(a)
    width = len(a[0]) if a else 0
    rank, sign, prev = 0, 1, ONE
    for c in range(ncols):
        if rank == rows:
            break
        piv = next((i for i in range(rank, rows) if not a[i][c].is_zero), None)
        if piv is None:
            continue
        if piv != rank:
            a[rank], a[piv] = a[piv], a[rank]
            sign = -sign
        prow = a[rank]
        pivot = prow[c]
        for i in range(0 if jordan else rank + 1, rows):
            if i == rank:
                continue
            row = a[i]
            f = row[c]
            for j in range(c + 1, width):
                row[j] = _exact_div(row[j] * pivot - f * prow[j], prev)
            row[c] = ZERO
        prev = pivot
        rank += 1
    return rank, sign


def row_echelon(a: list[list[Poly]], ncols: int) -> list[int]:
    """Row echelon form of the first ``ncols`` columns of the grid ``a``, in place.

    Only unimodular row operations over Q[s] are used, and any columns to the
    right of ``ncols`` are carried along, so reducing [R | I] leaves [W R | W]
    with W unimodular. Each column pivots on its lowest-degree nonzero entry
    at or below the current rank (ties go to the lowest row); the entries
    below are replaced by their remainders modulo the pivot, and while one
    survives it becomes the next, lower-degree pivot. The pivot is then made
    monic. Entries above the pivots are left as they are.

    Returns the pivot columns; their count is the generic rank, and the rows
    from there down are zero in the scanned columns.
    """
    rows = len(a)
    width = len(a[0]) if a else 0
    pivots: list[int] = []
    for c in range(ncols):
        rank = len(pivots)
        if rank == rows:
            break
        live = [i for i in range(rank, rows) if not a[i][c].is_zero]
        if not live:
            continue
        while live:
            piv = min(live, key=lambda i: a[i][c].degree)
            a[rank], a[piv] = a[piv], a[rank]
            prow = a[rank]
            for row in a[rank + 1:]:
                if not row[c].is_zero:
                    q, row[c] = divmod(row[c], prow[c])
                    for j in range(c + 1, width):
                        if not prow[j].is_zero:
                            row[j] = row[j] - q * prow[j]
            # A surviving remainder has lower degree than the pivot: re-pivot.
            live = [i for i in range(rank + 1, rows) if not a[i][c].is_zero]
        lc = a[rank][c].lc
        if lc != 1:
            a[rank] = [e / lc for e in a[rank]]
        pivots.append(c)
    return pivots


def determinant(P: PolyMatrix) -> Poly:
    """Exact determinant by fraction-free (Bareiss) elimination.

    Stays inside Q[s] throughout: every division performed is exact.
    """
    if not P.is_square:
        raise DimensionError(f"determinant of non-square {P.shape_str()} matrix")
    n = P.rows
    if n == 0:
        return ONE
    a = [list(row) for row in P.entries]
    rank, sign = _fraction_free(a, n)
    if rank < n:
        return ZERO
    det = a[n - 1][n - 1]
    return det if sign == 1 else -det


def rank_generic(R: PolyMatrix) -> int:
    """Rank of R over the field of rational functions Q(s).

    Equals the rank of R(x) at all but finitely many evaluation points.
    Computed by fraction-free elimination, so it never leaves Q[s].
    """
    return _fraction_free([list(row) for row in R.entries], R.cols)[0]


def is_unimodular(P: PolyMatrix) -> bool:
    """True iff det(P) is a nonzero constant, i.e. P has a polynomial inverse."""
    if not P.is_square:
        raise DimensionError(f"unimodularity of non-square {P.shape_str()} matrix")
    d = determinant(P)
    return d.is_constant and not d.is_zero


@dataclass(frozen=True)
class SmithDecomposition:
    """Factorization R = U * [diag(invariant_factors) 0; 0 0] * V.

    U and V are unimodular; the invariant factors are monic, nonzero and each
    divides the next. ``U_inv`` and ``V_inv`` are the (polynomial) inverses of
    U and V, accumulated during the reduction at no extra cost.
    """

    U: PolyMatrix
    V: PolyMatrix
    invariant_factors: tuple[Poly, ...]
    rank: int
    U_inv: PolyMatrix
    V_inv: PolyMatrix

    def __post_init__(self):
        if self.rank != len(self.invariant_factors):
            raise ValueError("rank does not match the number of invariant factors")
        prev: Poly | None = None
        for d in self.invariant_factors:
            if d.is_zero or d.lc != 1:
                raise ValueError("invariant factors must be monic and nonzero")
            if prev is not None and not prev.divides(d):
                raise ValueError("invariant factor divisibility chain broken")
            prev = d

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

    Reduces R with elementary row and column operations over Q[s]. The pivot
    is always a nonzero entry of minimal degree in the remaining submatrix
    (ties broken by lowest row, then column index), which makes the output
    deterministic. After clearing a pivot's row and column the remaining
    block is forced to be divisible by the pivot, so the invariant factors
    come out in a divisibility chain; they are normalized monic, with the
    constants absorbed into U.
    """
    m, n = R.rows, R.cols
    S_ = [list(row) for row in R.entries]
    U = [list(row) for row in PolyMatrix.identity(m).entries]
    Ui = [list(row) for row in PolyMatrix.identity(m).entries]
    V = [list(row) for row in PolyMatrix.identity(n).entries]
    Vi = [list(row) for row in PolyMatrix.identity(n).entries]

    def swap_rows(i: int, j: int) -> None:
        if i == j:
            return
        S_[i], S_[j] = S_[j], S_[i]
        Ui[i], Ui[j] = Ui[j], Ui[i]
        for r in U:
            r[i], r[j] = r[j], r[i]

    def swap_cols(i: int, j: int) -> None:
        if i == j:
            return
        for r in S_:
            r[i], r[j] = r[j], r[i]
        V[i], V[j] = V[j], V[i]
        for r in Vi:
            r[i], r[j] = r[j], r[i]

    def add_row(dst: int, src: int, q: Poly) -> None:
        # S[dst] += q * S[src]; keeps R = U*S*V by the matching update of U.
        S_[dst] = [a + q * b for a, b in zip(S_[dst], S_[src])]
        Ui[dst] = [a + q * b for a, b in zip(Ui[dst], Ui[src])]
        for r in U:
            r[src] = r[src] - q * r[dst]

    def add_col(dst: int, src: int, q: Poly) -> None:
        for r in S_:
            r[dst] = r[dst] + q * r[src]
        for r in Vi:
            r[dst] = r[dst] + q * r[src]
        V[src] = [a - q * b for a, b in zip(V[src], V[dst])]

    def scale_row(i: int, c: Fraction) -> None:
        S_[i] = [e * c for e in S_[i]]
        Ui[i] = [e * c for e in Ui[i]]
        inv = 1 / c
        for r in U:
            r[i] = r[i] * inv

    def find_pivot(t: int) -> tuple[int, int] | None:
        best: tuple[int | float, int, int] | None = None
        for i in range(t, m):
            for j in range(t, n):
                e = S_[i][j]
                if not e.is_zero and (best is None or e.degree < best[0]):
                    best = (e.degree, i, j)
        return None if best is None else (best[1], best[2])

    t = 0
    limit = min(m, n)
    while t < limit:
        piv = find_pivot(t)
        if piv is None:
            break
        while True:
            swap_rows(t, piv[0])
            swap_cols(t, piv[1])
            dirty = False
            for i in range(t + 1, m):
                if not S_[i][t].is_zero:
                    q, r = divmod(S_[i][t], S_[t][t])
                    add_row(i, t, -q)
                    if not r.is_zero:
                        dirty = True
            for j in range(t + 1, n):
                if not S_[t][j].is_zero:
                    q, r = divmod(S_[t][j], S_[t][t])
                    add_col(j, t, -q)
                    if not r.is_zero:
                        dirty = True
            if dirty:
                # Some remainder of smaller degree survived; re-pivot on it.
                piv = find_pivot(t)
                continue
            bad = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if not (S_[i][j] % S_[t][t]).is_zero:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            # Pull the offending row up; the next clearing pass strictly
            # reduces the pivot degree, so this terminates.
            add_row(t, bad, ONE)
            piv = (t, t)
        c = S_[t][t].lc
        if c != 1:
            scale_row(t, 1 / c)
        t += 1

    factors = tuple(S_[i][i] for i in range(t))
    return SmithDecomposition(
        U=PolyMatrix(U, cols=m),
        V=PolyMatrix(V, cols=n),
        invariant_factors=factors,
        rank=t,
        U_inv=PolyMatrix(Ui, cols=m),
        V_inv=PolyMatrix(Vi, cols=n),
    )


class RatMatrix:
    """Immutable matrix of `RatFunc` entries; all entries stored canonical."""

    __slots__ = ("rows", "cols", "entries")

    rows: int
    cols: int
    entries: tuple[tuple[RatFunc, ...], ...]

    def __init__(self, entries: Iterable[Iterable] = (), cols: int | None = None):
        grid = []
        for row in entries:
            out_row = []
            for x in row:
                r = _as_ratfunc(x)
                if r is NotImplemented:
                    raise TypeError(f"rational-function entry expected, got {type(x).__name__}")
                out_row.append(r)
            grid.append(tuple(out_row))
        grid = tuple(grid)
        if grid:
            ncols = len(grid[0])
            for row in grid:
                if len(row) != ncols:
                    raise DimensionError("rows of unequal length")
        else:
            ncols = cols if cols is not None else 0
        object.__setattr__(self, "rows", len(grid))
        object.__setattr__(self, "cols", ncols)
        object.__setattr__(self, "entries", grid)

    def __setattr__(self, name, value):
        raise AttributeError("RatMatrix is immutable")

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)], cols=n)

    @classmethod
    def from_polymatrix(cls, P: PolyMatrix) -> "RatMatrix":
        return cls([[RatFunc(e) for e in row] for row in P.entries], cols=P.cols)

    def __getitem__(self, key: tuple[int, int]) -> RatFunc:
        i, j = key
        return self.entries[i][j]

    def __add__(self, other: "RatMatrix") -> "RatMatrix":
        if not isinstance(other, RatMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionError("shape mismatch in addition")
        return RatMatrix(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.entries, other.entries)],
            cols=self.cols,
        )

    def __sub__(self, other: "RatMatrix") -> "RatMatrix":
        if not isinstance(other, RatMatrix):
            return NotImplemented
        return self + RatMatrix([[-e for e in row] for row in other.entries], cols=other.cols)

    def __mul__(self, other):
        if isinstance(other, PolyMatrix):
            other = RatMatrix.from_polymatrix(other)
        if not isinstance(other, RatMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise DimensionError("shape mismatch in multiplication")
        out = []
        for i in range(self.rows):
            out_row = []
            for j in range(other.cols):
                acc = RatFunc(ZERO)
                for k in range(self.cols):
                    a = self.entries[i][k]
                    if not a.is_zero:
                        b = other.entries[k][j]
                        if not b.is_zero:
                            acc = acc + a * b
                out_row.append(acc)
            out.append(out_row)
        return RatMatrix(out, cols=other.cols)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RatMatrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(("RatMatrix", self.rows, self.cols, self.entries))

    def __str__(self) -> str:
        return "[" + ", ".join("[" + ", ".join(str(e) for e in row) + "]" for row in self.entries) + "]"

    def __repr__(self) -> str:
        return f"RatMatrix({self})"


def invert_ratmatrix(P: PolyMatrix) -> RatMatrix:
    """Exact inverse of a square polynomial matrix over Q(s).

    Raises `SingularMatrixError` when det(P) = 0 and `DimensionError` when P
    is not square.
    """
    if not P.is_square:
        raise DimensionError(f"inverse of non-square {P.shape_str()} matrix")
    n = P.rows
    a = [[RatFunc(e) for e in row] + [RatFunc(1 if i == j else 0) for j in range(n)]
         for i, row in enumerate(P.entries)]
    for c in range(n):
        pivot_row = None
        for i in range(c, n):
            if not a[i][c].is_zero:
                pivot_row = i
                break
        if pivot_row is None:
            raise SingularMatrixError("matrix is not invertible (zero determinant)")
        a[c], a[pivot_row] = a[pivot_row], a[c]
        pivot = a[c][c]
        a[c] = [x / pivot for x in a[c]]
        for i in range(n):
            if i != c and not a[i][c].is_zero:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return RatMatrix([row[n:] for row in a], cols=n)


def is_proper(P: PolyMatrix, Q: PolyMatrix) -> bool:
    """True iff every entry of P^-1 Q is a proper rational function.

    By Cramer's rule entry (i, j) of P^-1 Q is det(P with column i replaced
    by column j of Q) / det P, so it is proper iff that numerator has degree
    at most deg det P. One fraction-free Gauss-Jordan pass on [P | Q] yields
    det P as its last pivot and every numerator in the right block, without
    leaving Q[s]. Raises `SingularMatrixError` when det P = 0 and
    `DimensionError` when P is not square or the row counts differ.
    """
    if P.rows != Q.rows:
        raise DimensionError("P and Q must have the same number of rows")
    if not P.is_square:
        raise DimensionError(f"inverse of non-square {P.shape_str()} matrix")
    n = P.rows
    a = [list(p) + list(q) for p, q in zip(P.entries, Q.entries)]
    if _fraction_free(a, n, jordan=True)[0] < n:
        raise SingularMatrixError("matrix is not invertible (zero determinant)")
    bound = a[n - 1][n - 1].degree if n else 0
    return all(e.degree <= bound for row in a for e in row[n:])
