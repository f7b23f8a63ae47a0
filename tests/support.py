"""Shared test helpers: independent oracles and random-instance generators.

The oracles here deliberately avoid the library's decision paths: the
determinant oracle is plain cofactor expansion, the inclusion oracle solves
the multiplier equation as a finite linear system over Q by coefficient
matching, and rank probing evaluates at rational points and eliminates over
plain Fractions.
"""

from __future__ import annotations

import random
from fractions import Fraction

from agverify import KernelRep, Poly, PolyMatrix, StateSpace
from agverify.polyalg import ZERO

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


def linear_system_solvable(A: list[list[Fraction]], b: list[Fraction]) -> bool:
    """Whether A x = b has any exact rational solution."""
    if not A:
        return all(x == 0 for x in b)
    aug = [row[:] + [rhs] for row, rhs in zip(A, b)]
    m, n = len(aug), len(A[0])
    rank = 0
    for c in range(n):
        piv = next((i for i in range(rank, m) if aug[i][c] != 0), None)
        if piv is None:
            continue
        aug[rank], aug[piv] = aug[piv], aug[rank]
        for i in range(rank + 1, m):
            if aug[i][c] != 0:
                f = aug[i][c] / aug[rank][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[rank])]
        rank += 1
        if rank == m:
            break
    # Inconsistent iff some fully-eliminated row keeps a nonzero rhs.
    return all(any(x != 0 for x in row[:n]) or row[n] == 0 for row in aug[rank:])


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


def inclusion_by_linear_solve(R1: PolyMatrix, R2: PolyMatrix) -> bool:
    """Does a polynomial M with M * R1 = R2 exist?

    Coefficient matching with the degree bound deg(M) <= deg(R2) +
    cols(R1) * deg(R1), solved row by row as an exact rational linear system.
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
    for i in range(q):
        rows_a: list[list[Fraction]] = []
        rhs: list[Fraction] = []
        for j in range(k):
            target = R2[i, j]
            for t in range(max_pow + 1):
                row = [Fraction(0)] * n_unknowns
                for l in range(r):
                    src = R1[l, j]
                    for d in range(dm + 1):
                        e = t - d
                        if 0 <= e:
                            c = src.coeff(e)
                            if c:
                                row[l * (dm + 1) + d] = c
                rows_a.append(row)
                rhs.append(target.coeff(t))
        if not linear_system_solvable(rows_a, rhs):
            return False
    return True


def numeric_full_row_rank(M: PolyMatrix, rng: random.Random, tries: int = 4) -> bool:
    """Full row rank at some rational point implies full generic row rank."""
    for _ in range(tries):
        x = Fraction(rng.randint(-12, 12), rng.randint(1, 5))
        if fraction_rank(eval_matrix(M, x)) == M.rows:
            return True
    return False


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
