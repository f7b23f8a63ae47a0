"""Shared test helpers: independent oracles, random-instance generators and
a wall-clock budget.

The oracles here deliberately avoid the library's decision paths: the
determinant and adjugate oracles are plain cofactor expansion, the transfer
identity of a state-space system is checked with its denominators cleared,
the inclusion oracle solves the multiplier equation as a finite linear system
over Q by coefficient matching, and rank probing evaluates at rational points
and eliminates over plain Fractions.
"""

from __future__ import annotations

import random
import re
import time
from collections import namedtuple
from contextlib import contextmanager
from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm
from operator import mul

from agverify import IoSystem, KernelRep, LatentRep, Poly, PolyMatrix, StateSpace, check_io_form
from agverify.behavior import _integer_rows, _io_labels
from agverify.docparse import ParseError
from agverify.polyalg import ZERO, S, _poly
from agverify.polymatrix import SelfCheckError, _fraction_free, hstack, row_echelon, vstack

# ---------------------------------------------------------------------------
# Exact linear algebra over plain Fractions
# ---------------------------------------------------------------------------


def fraction_rank(rows: list[list[Fraction]]) -> int:
    a = [row[:] for row in rows]
    if not a:
        return 0
    m, n = len(a), len(a[0])
    rank = 0
    for c in range(n):
        piv = next((i for i in range(rank, m) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        for i in range(rank + 1, m):
            if a[i][c] != 0:
                f = a[i][c] / a[rank][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
        if rank == m:
            break
    return rank


def eval_matrix(M: PolyMatrix, x: Fraction) -> list[list[Fraction]]:
    return [[e(x) for e in row] for row in M.entries]


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------


def evaluation_rank(R: PolyMatrix) -> int:
    """Generic rank from evaluation alone: a nonzero r x r minor has degree at
    most min(m, n) * deg R, so it vanishes at no more points than that, and
    the largest rank over one more distinct points is the generic rank."""
    d = max(0, R.degree)
    points = range(min(R.rows, R.cols) * d + 1)
    return max((fraction_rank(eval_matrix(R, Fraction(x))) for x in points), default=0)


def det_cofactor(M: PolyMatrix) -> Poly:
    """Determinant by cofactor expansion along the first row."""
    n = M.rows
    if n == 0:
        return Poly([1])
    if n == 1:
        return M[0, 0]
    total = ZERO
    rest = list(range(1, n))
    for j in range(n):
        a = M[0, j]
        if a.is_zero:
            continue
        minor = M.take_rows(rest).take_cols([c for c in range(n) if c != j])
        term = a * det_cofactor(minor)
        total = total + (term if j % 2 == 0 else -term)
    return total


def proper_by_cofactors(P: PolyMatrix, Q: PolyMatrix) -> bool:
    """Whether det P is nonzero and P^-1 Q proper, by Cramer's rule: entry
    (i, j) is det(P with column i replaced by column j of Q) / det P, with
    both determinants by cofactor expansion."""
    det = det_cofactor(P)
    if det.is_zero:
        return False
    n = P.rows
    numerators = (
        det_cofactor(PolyMatrix([[Q[r, j] if c == i else P[r, c] for c in range(n)]
                                 for r in range(n)], cols=n))
        for i in range(n) for j in range(Q.cols)
    )
    return all(e.degree <= det.degree for e in numerators)


def is_unimodular(M: PolyMatrix) -> bool:
    """Whether det M, by cofactor expansion, is a nonzero constant."""
    d = det_cofactor(M)
    return d.is_constant and not d.is_zero


def adjugate_cofactor(M: PolyMatrix) -> PolyMatrix:
    """Adjugate by cofactors: entry (i, j) is (-1)^(i+j) times the minor of
    M without row j and column i, so M * adj(M) = det(M) * I."""
    n = M.rows
    others = [[c for c in range(n) if c != k] for k in range(n)]
    return PolyMatrix(
        [[(-1) ** (i + j) * det_cofactor(M.take_rows(others[j]).take_cols(others[i]))
          for j in range(n)] for i in range(n)],
        cols=n,
    )


def transfer_identity_holds(s: StateSpace, P: PolyMatrix, Q: PolyMatrix) -> bool:
    """P^-1 Q = C (sI - A)^-1 B + D with the denominators cleared: det P != 0
    and P (C adj(sI - A) B + chi D) = chi Q for chi = det(sI - A) != 0."""
    resolvent = PolyMatrix.identity(s.n) * S - s.A
    chi = det_cofactor(resolvent)
    numerator = s.C * adjugate_cofactor(resolvent) * s.B + s.D * chi
    return not det_cofactor(P).is_zero and P * numerator == Q * chi


def bareiss_reference(grid: list[list[Poly]], ncols: int, jordan: bool = False):
    """The fraction-free elimination of `polymatrix._fraction_free`, on
    `Poly` entries with their own exact division; returns the same
    (pivot columns, sign, last pivot, right block, row order), the right
    block over the columns without a pivot."""
    a = [list(row) for row in grid]
    rows, width = len(a), len(a[0]) if a else 0
    order = list(range(rows))
    pivots, sign, prev = [], 1, Poly([1])
    for c in range(ncols):
        rank = len(pivots)
        piv = next((i for i in range(rank, rows) if not a[i][c].is_zero), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        order[rank], order[piv] = order[piv], order[rank]
        sign = sign if piv == rank else -sign
        prow, pivot = a[rank], a[rank][c]
        pivots.append(c)
        for i in range(0 if jordan else rank + 1, rows):
            if i != rank:
                f = a[i][c]
                for j in range(width):
                    if j not in pivots:
                        q, r = divmod(a[i][j] * pivot - f * prow[j], prev)
                        assert r.is_zero, "inexact Bareiss division"
                        a[i][j] = q
        prev = pivot
    free = [j for j in range(width) if j not in pivots]
    return pivots, sign, prev, [[row[j] for j in free] for row in a], order


def left_quotient_reference(src: list[list[Poly]], target: PolyMatrix) -> PolyMatrix | str | None:
    """`polymatrix._left_quotient` on the pass read back as `Poly` entries
    (`_fraction_free`): every bordered minor tested and every numerator
    divided by the last pivot as polynomials, with `divmod`."""
    r, n = len(src), target.cols
    g = [[row[j] for row in src] + [row[j] for row in target.entries] for j in range(n)]
    pivots, _, d, right, order = _fraction_free(g, r)
    rank = len(pivots)
    dropped = r - rank
    for row, j in zip(right[rank:], order[rank:]):
        for t, e in enumerate(row[dropped:]):
            if not e.is_zero:
                return (
                    f"no polynomial multiplier exists: row {t} is not a rational combination of "
                    f"the source rows in source column {j} (bordered minor {e})"
                )
    if not all(d.divides(e) for row in right[:rank] for e in row[:dropped]):
        return None
    M = [[ZERO] * r for _ in range(target.rows)]
    for t, out in enumerate(M):
        for i, c in enumerate(pivots):
            e = right[i][dropped + t]
            quot, rem = divmod(e, d)
            if not rem.is_zero:
                return (
                    f"multiplier is not polynomial: entry ({t}, {c}) requires dividing {e} by "
                    f"the pivot {d} in source columns {sorted(order[:rank])}, remainder {rem}"
                )
            out[c] = quot
    return PolyMatrix(M, cols=r)


def row_echelon_reference(grid: list[list[Poly]], ncols: int):
    """The reduction of `polymatrix.row_echelon` on `Poly` entries with their
    own Euclidean division; returns the pivot columns and the reduced grid.
    Each updated row is scaled to integer coefficients with gcd 1 by a
    positive rational, and each pivot row made monic when its column ends."""
    a = [list(row) for row in grid]
    rows, width = len(a), len(a[0]) if a else 0
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
            for i in range(rank + 1, rows):
                row = a[i]
                if not row[c].is_zero:
                    q, row[c] = divmod(row[c], prow[c])
                    for j in range(c + 1, width):
                        row[j] = row[j] - q * prow[j]
                    a[i] = _primitive_polys(row)
            live = [i for i in range(rank + 1, rows) if not a[i][c].is_zero]
        lc = a[rank][c].lc
        a[rank] = [e / lc for e in a[rank]]
        pivots.append(c)
    return pivots, a


def eliminate_latent_reference(l: LatentRep) -> KernelRep:
    """Latent elimination by one `row_echelon` scan of [E | manifest], on
    E's columns and then on the manifest's, for every latent map E: the
    rows zero on E's columns that get a pivot in the manifest's. This is
    the route `behavior.eliminate_latent` keeps for a latent map that leaves
    two rows or more."""
    E, M = l.latent_map, l.manifest
    a = [list(e) + list(m) for e, m in zip(E.entries, M.entries)]
    pivots = row_echelon(a, E.cols + M.cols)
    rank = sum(c < E.cols for c in pivots)
    kept = PolyMatrix([row[E.cols:] for row in a[rank:len(pivots)]], cols=M.cols)
    return KernelRep(kept, l.signal_labels)


def gcd_reference(a: Poly, b: Poly) -> Poly:
    """Monic gcd by Euclid's algorithm over Q, on lists of `Fraction`
    coefficients in ascending powers, not both zero."""
    x, y = list(a.coeffs), list(b.coeffs)
    while y:
        while len(x) >= len(y):
            f, shift = x[-1] / y[-1], len(x) - len(y)
            for i, c in enumerate(y):
                x[shift + i] -= f * c
            while x and not x[-1]:
                x.pop()
        x, y = y, x
    return Poly([c / x[-1] for c in x])


def statespace_to_kernel_reference(s: StateSpace) -> KernelRep:
    """The external (u, y) behavior of a state-space system by eliminating
    the state from [sI - A; C] x = [B 0; -D I] (u, y) with
    `eliminate_latent_reference`, the construction the package used before
    it read the observability indices."""
    n, p = s.n, s.p
    manifest = vstack(
        hstack(s.B, PolyMatrix.zeros(n, p)),
        hstack(-s.D, PolyMatrix.identity(p)),
    )
    latent = vstack(PolyMatrix.identity(n) * S - s.A, s.C)
    return eliminate_latent_reference(LatentRep(manifest, latent, _io_labels(s.m, p)))


def statespace_to_io_reference(s: StateSpace) -> IoSystem:
    """`behavior.statespace_to_io` with the observability scan it had before
    it used Bareiss's recurrence: each update is v := b_c v - v_c b, taken
    only when v_c is nonzero, followed by division of the whole row by its
    gcd. It neither reads nor keeps the converted form on ``s``."""
    n, m, p = s.n, s.m, s.p
    A, dA = _integer_rows(s.A)
    B, dB = _integer_rows(s.B)
    x, dC = _integer_rows(s.C)
    D, dD = _integer_rows(s.D)
    a_cols = [[row[j] for row in A] for j in range(n)]
    b_cols = [[row[j] for row in B] for j in range(m)]
    q = [[dB * dC * e for e in row] for row in D]
    basis: list[tuple[int, list[int]]] = []
    selected: list[tuple[int, int, list[int]]] = []
    P_rows: list[list[Poly]] = [[] for _ in range(p)]
    Q_rows: list[list[Poly]] = [[] for _ in range(p)]
    active = list(range(p))
    k = 0
    while active:
        still = []
        for i in active:
            v = x[i] + [0] * len(selected) + [1]
            for c, b in basis:
                e = v[c]
                if e:
                    f = b[c]
                    v = [f * a - e * z for a, z in zip_longest(v, b, fillvalue=0)]
                    g = gcd(*v)
                    if g > 1:
                        v = [a // g for a in v]
            pivot = next((c for c in range(n) if v[c]), None)
            if pivot is not None:
                basis.append((pivot, v))
                selected.append((i, k, q[i]))
                still.append(i)
                xi = x[i]
                x[i] = [sum(map(mul, xi, col)) for col in a_cols]
                q[i] = [dA * dD * sum(map(mul, xi, col)) for col in b_cols] + [dA * e for e in q[i]]
                continue
            pn = [[0] * (k + 1) for _ in range(p)]
            qn = [0] * (m * (k + 1))
            for w, (j, l, qj) in zip(v[n:], [*selected, (i, k, q[i])]):
                if w:
                    pn[j][l] += w * dB * dC * dD * dA**l
                    for t, e in enumerate(qj):
                        qn[t] += w * e
            den = v[-1] * dB * dC * dD * dA**k
            P_rows[i] = [_poly(e, den) for e in pn]
            Q_rows[i] = [_poly(qn[c::m], den) for c in range(m)]
        active = still
        k += 1
    sys = IoSystem(PolyMatrix(P_rows, cols=p), PolyMatrix(Q_rows, cols=m))
    if not check_io_form(sys):
        raise SelfCheckError("state elimination did not yield input-output form")
    return sys


def _primitive_polys(row: list[Poly]) -> list[Poly]:
    """The positive rational multiple of ``row`` whose entries have integer
    coefficients with gcd 1 (a zero row stays)."""
    den = lcm(*(e.den for e in row))
    g = gcd(*(c * (den // e.den) for e in row for c in e.num))
    if not g:
        return row
    return [Poly([c * (den // e.den) // g for c in e.num]) for e in row]


def inclusion_by_linear_solve(R1: PolyMatrix, R2: PolyMatrix) -> bool:
    """Does a polynomial M with M * R1 = R2 exist?

    Coefficient matching with the degree bound deg(M) <= deg(R2) +
    cols(R1) * deg(R1) turns row i of M * R1 = R2 into an exact rational
    system A x_i = b_i with one coefficient matrix A for every row, so M
    exists iff rank A = rank [A | b_1 ... b_q], that is iff no pivot of the
    row echelon form of [A | b_1 ... b_q] falls in the b columns. Each
    equation is scaled to integers, so one integer elimination decides.
    """
    if R1.cols != R2.cols:
        raise ValueError("column mismatch")
    if R1.is_zero:
        return R2.is_zero
    d1 = max(0, int(R1.degree))
    d2 = 0 if R2.is_zero else max(0, int(R2.degree))
    dm = d2 + R1.cols * d1
    r, k, q = R1.rows, R1.cols, R2.rows
    n_unknowns = r * (dm + 1)
    max_pow = dm + d1
    AB: list[list[int]] = []
    # Equations ordered by power and unknowns by degree make A banded, which
    # keeps the fill-in of the elimination small.
    for t in range(max_pow + 1):
        for j in range(k):
            row = [Fraction(0)] * n_unknowns
            for l in range(r):
                src = R1[l, j]
                for d in range(dm + 1):
                    e = t - d
                    if 0 <= e:
                        c = src.coeff(e)
                        if c:
                            row[d * r + l] = c
            row += [R2[i, j].coeff(t) for i in range(q)]
            den = lcm(*(x.denominator for x in row))
            AB.append(_primitive([x.numerator * (den // x.denominator) for x in row]))
    return not _pivot_beyond(AB, n_unknowns)


def _primitive(row: list[int]) -> list[int]:
    """The row divided by the gcd of its entries (a zero row stays)."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _pivot_beyond(a: list[list[int]], ncols: int) -> bool:
    """Does the row echelon form of the integer matrix ``a`` have a pivot
    beyond its first ``ncols`` columns? Fraction-free elimination of those
    columns in place, each updated row divided by the gcd of its entries,
    then a look at what remains below the rank."""
    rank = 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        prow, p = a[rank], a[rank][c]
        for i in range(rank + 1, len(a)):
            f = a[i][c]
            if f:
                a[i] = _primitive([p * x - f * y for x, y in zip(a[i], prow)])
        rank += 1
        if rank == len(a):
            break
    return any(any(row[ncols:]) for row in a[rank:])


def join_reference(a1: KernelRep, a2: KernelRep) -> KernelRep:
    """The join of two behaviors over two latent copies of u, u = l1 + l2
    with A1 l1 = 0 and A2 l2 = 0, eliminated:
        [I I; A1 0; 0 A2] (l1; l2) = (I; 0; 0) u
    """
    m, r1, r2 = a1.dim, a1.R.rows, a2.R.rows
    I = PolyMatrix.identity(m)
    manifest = vstack(I, PolyMatrix.zeros(r1 + r2, m))
    latent = vstack(
        hstack(I, I),
        hstack(a1.R, PolyMatrix.zeros(r1, m)),
        hstack(PolyMatrix.zeros(r2, m), a2.R),
    )
    return eliminate_latent_reference(LatentRep(manifest, latent, a1.signal_labels))


def numeric_full_row_rank(M: PolyMatrix, rng: random.Random, tries: int = 4) -> bool:
    """Full row rank at some rational point implies full generic row rank."""
    for _ in range(tries):
        x = Fraction(rng.randint(-12, 12), rng.randint(1, 5))
        if fraction_rank(eval_matrix(M, x)) == M.rows:
            return True
    return False


def matmul_reference(A: PolyMatrix, B: PolyMatrix) -> PolyMatrix:
    """A * B as a sum of `Poly` products, one `Poly` per term."""
    assert A.cols == B.rows
    return PolyMatrix(
        [[sum((A[i, t] * B[t, j] for t in range(A.cols)), ZERO) for j in range(B.cols)]
         for i in range(A.rows)],
        cols=B.cols,
    )


def poly_text_reference(p: Poly) -> str:
    """The text of `Poly.__str__`, printed from the `Fraction` coefficients."""
    coeffs = p.coeffs
    parts: list[str] = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        a = abs(c)
        if k == 0:
            body = str(a)
        else:
            svar = "s" if k == 1 else f"s^{k}"
            body = svar if a == 1 else f"{a}*{svar}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f" {'-' if c < 0 else '+'} {body}")
    return "".join(parts) or "0"


# A symbol's kind is its own text. The EOF token's text is what error
# messages show for it.
Token = namedtuple("Token", "kind text line col")

# Blanks and comments match no group. `\w` holds exactly where `str.isalnum()`
# holds, or for "_"; it also takes digits such as "²" that may not start a
# name, so `tokenize_reference` checks a NAME's first character.
_TOKEN_REFERENCE = re.compile(
    r"(?P<NL>\n)|[ \t\r]+|#.*|(?P<INT>[0-9]+)|(?P<NAME>\w+)"
    r"|(?P<SYMBOL>[][{},:+\-*^/])|(?P<BAD>.)"
)


def tokenize_reference(text: str, source: str) -> list[Token]:
    """The document tokens with their kinds, lines and columns, from one scan
    that tracks the line and the offset where it starts."""
    tokens = []
    line, start = 1, 0  # the current line and the offset where it starts
    for m in _TOKEN_REFERENCE.finditer(text):
        kind = m.lastgroup
        if kind is None:
            continue
        tok, col = m.group(), m.start() - start + 1
        if kind == "NL":
            line, start = line + 1, m.end()
            continue
        if kind == "SYMBOL":
            kind = tok
        elif kind == "BAD" or kind == "NAME" and not (tok[0].isalpha() or tok[0] == "_"):
            raise ParseError(f"unexpected character {tok[0]!r}", source, line, col)
        tokens.append(Token(kind, tok, line, col))
    # A comment does not advance the column, so the end of a last line that
    # holds one is at its "#".
    end = text.find("#", start)
    end = len(text) if end < 0 else end
    tokens.append(Token("EOF", "end of input", line, end - start + 1))
    return tokens


@contextmanager
def budget(seconds: float, what: str):
    t0 = time.perf_counter()
    yield
    elapsed = time.perf_counter() - t0
    assert elapsed < seconds, f"{what} took {elapsed:.2f}s, budget {seconds}s"


# ---------------------------------------------------------------------------
# Random instance generators (all driven by an explicit seeded Random)
# ---------------------------------------------------------------------------


def random_poly(rng: random.Random, max_deg: int = 3, lo: int = -3, hi: int = 3,
                nonzero: bool = False) -> Poly:
    deg = rng.randint(0, max_deg)
    coeffs = [rng.randint(lo, hi) for _ in range(deg + 1)]
    p = Poly(coeffs)
    if nonzero and p.is_zero:
        coeffs[deg] = rng.choice([c for c in range(lo, hi + 1) if c != 0])
        p = Poly(coeffs)
    return p


def random_matrix(rng: random.Random, rows: int, cols: int, max_deg: int = 3) -> PolyMatrix:
    return PolyMatrix(
        [[random_poly(rng, max_deg) for _ in range(cols)] for _ in range(rows)], cols=cols
    )


def random_full_row_rank(rng: random.Random, rows: int, cols: int, max_deg: int = 3) -> PolyMatrix:
    while True:
        M = random_matrix(rng, rows, cols, max_deg)
        if numeric_full_row_rank(M, rng):
            return M


def random_unimodular(rng: random.Random, n: int, ops: int = 6, max_deg: int = 2) -> PolyMatrix:
    """Product of elementary operations: guaranteed unimodular by construction."""
    rows = [[Poly([1]) if i == j else ZERO for j in range(n)] for i in range(n)]
    for _ in range(ops):
        kind = rng.randrange(3)
        if kind == 0 and n >= 2:
            i, j = rng.sample(range(n), 2)
            rows[i], rows[j] = rows[j], rows[i]
        elif kind == 1:
            i = rng.randrange(n)
            c = rng.choice([-2, -1, 2])
            rows[i] = [e * c for e in rows[i]]
        elif n >= 2:
            i, j = rng.sample(range(n), 2)
            q = random_poly(rng, max_deg, -2, 2)
            rows[i] = [a + q * b for a, b in zip(rows[i], rows[j])]
    return PolyMatrix(rows, cols=n)


def random_statespace(rng: random.Random, max_n: int = 4, max_m: int = 2,
                      max_p: int = 2) -> StateSpace:
    n = rng.randint(1, max_n)
    m = rng.randint(1, max_m)
    p = rng.randint(1, max_p)

    def grid(r, c):
        return [[Fraction(rng.randint(-3, 3)) for _ in range(c)] for _ in range(r)]

    return StateSpace.from_lists(grid(n, n), grid(n, m), grid(p, n), grid(p, m))


def random_kernel(rng: random.Random, dim: int, rows: int, label: str = "w",
                  max_deg: int = 2) -> KernelRep:
    return KernelRep(random_matrix(rng, rows, dim, max_deg), ((label, dim),))
