"""Exact arithmetic and answer checks that share no code with agverify.

Polynomials are coefficient lists, lowest degree first, with no trailing
zeros (the zero polynomial is `[]`); matrices are lists of rows of them.
Coefficients are ints or Fractions. Instance generation in `workloads.py`
builds its inputs with these helpers only, so the same seed gives the same
document bytes on every commit of the program, and the expected answers are
fixed without asking the program.

Two oracles:

* Inclusion refutation uses the rank oracle of the test suite
  (`tests/support.py`, exact elimination over Fractions). If ker R1 is
  contained in ker R2 then R2 = M*R1 for a polynomial M, so at every point x
  the rows of R2(x) lie in the row space of R1(x); a point where stacking
  R2(x) under R1(x) raises the rank refutes the inclusion.
* `Implementation.holds` decides exactly whether a state-space system
  implements a contract whose assumption is one equation over its inputs
  (see the class docstring); generation takes holding guarantees from the
  kernel of the same linear map, and confirms failing ones with the rank
  oracle as well.

Witnesses are re-multiplied with plain coefficient lists (`product_equals`).
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from support import fraction_rank  # noqa: E402

POINTS = tuple(Fraction(x) for x in (0, 1, -1, 2, -2, 3, -3)) + (Fraction(1, 2),)

# ---------------------------------------------------------------------------
# Polynomials and polynomial matrices on coefficient lists
# ---------------------------------------------------------------------------


def trim(c: list) -> list:
    while c and c[-1] == 0:
        c.pop()
    return c


def p_add(a: list, b: list) -> list:
    if len(a) < len(b):
        a, b = b, a
    return trim([x + (b[i] if i < len(b) else 0) for i, x in enumerate(a)])


def p_scale(a: list, k) -> list:
    return trim([k * x for x in a])


def p_sub(a: list, b: list) -> list:
    return p_add(a, p_scale(b, -1))


def p_mul(a: list, b: list) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return trim(out)


def p_divmod(a: list, b: list) -> tuple[list, list]:
    """Quotient and remainder over the rationals; b is nonzero."""
    r = [Fraction(x) for x in a]
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    lead = Fraction(b[-1])
    while len(r) >= len(b):
        f = r[-1] / lead
        shift = len(r) - len(b)
        q[shift] = f
        for i, y in enumerate(b):
            r[shift + i] -= f * y
        trim(r)
    return trim(q), r


def p_gcdex(a: list, b: list) -> tuple[list, list, list]:
    """(g, s, t) with s*a + t*b = g, g the monic gcd; a and b not both zero."""
    r0, r1 = [Fraction(x) for x in a], [Fraction(x) for x in b]
    s0, s1, t0, t1 = [Fraction(1)], [], [], [Fraction(1)]
    while r1:
        q, r = p_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, p_sub(s0, p_mul(q, s1))
        t0, t1 = t1, p_sub(t0, p_mul(q, t1))
    lead = r0[-1]
    return p_scale(r0, 1 / lead), p_scale(s0, 1 / lead), p_scale(t0, 1 / lead)


def p_eval(a: list, x):
    value = 0
    for c in reversed(a):
        value = value * x + c
    return value


def m_eval(M: list, x) -> list[list[Fraction]]:
    return [[Fraction(p_eval(e, x)) for e in row] for row in M]


def m_mul(M: list, N: list) -> list:
    return [
        [
            _sum(p_mul(row[k], N[k][j]) for k in range(len(N)))
            for j in range(len(N[0]))
        ]
        for row in M
    ]


def _sum(polys) -> list:
    total: list = []
    for p in polys:
        total = p_add(total, p)
    return total


def format_poly(p: list) -> str:
    """`3*s^2 - s + 1`, the polynomial syntax of definition documents."""
    parts: list[str] = []
    for k in range(len(p) - 1, -1, -1):
        c = p[k]
        if c == 0:
            continue
        a = abs(c)
        body = str(a) if k == 0 else ("s" if k == 1 else f"s^{k}")
        if k and a != 1:
            body = f"{a}*{body}"
        if parts:
            parts.append(f" {'-' if c < 0 else '+'} {body}")
        else:
            parts.append(f"-{body}" if c < 0 else body)
    return "".join(parts) or "0"


def format_matrix(M: list) -> str:
    return "[" + ", ".join("[" + ", ".join(map(format_poly, row)) + "]" for row in M) + "]"


def program_matrix(M) -> list:
    """An agverify PolyMatrix as coefficient lists."""
    return [[list(e.coeffs) for e in row] for row in M.entries]


# ---------------------------------------------------------------------------
# Inclusion
# ---------------------------------------------------------------------------


def full_generic_rank(R: list) -> bool:
    """Full row rank at some point implies full generic row rank."""
    return any(fraction_rank(m_eval(R, x)) == len(R) for x in POINTS)


def _raises_rank(base: list[list[Fraction]], extra: list[list[Fraction]]) -> bool:
    return fraction_rank(base + extra) > fraction_rank(base)


def inclusion_refuted(R1: list, R2: list) -> bool:
    """Some point shows that ker R1 is not contained in ker R2."""
    return any(_raises_rank(m_eval(R1, x), m_eval(R2, x)) for x in POINTS)


def product_equals(M: list, A: list, B: list) -> bool:
    """M * A == B."""
    if len(M) != len(B) or (M and len(M[0]) != len(A)):
        return False
    return m_mul(M, A) == [[trim(list(e)) for e in row] for row in B]


# ---------------------------------------------------------------------------
# Implementation of a one-equation contract by a state-space system
# ---------------------------------------------------------------------------


def _mat_mul(X: list, Y: list) -> list:
    return [[sum(x * Y[k][j] for k, x in enumerate(row)) for j in range(len(Y[0]))] for row in X]


class Implementation:
    """The state-space system x' = Ax + Bu, y = Cx + Du (m = 2 inputs) under
    the assumption env(d/dt) u = 0 with env = [a, b], one equation.

    Write a = g a', b = g b' with g = gcd(a, b) and p a' + q b' = 1. Then
    u is in ker env iff u = [b'; -a'] v + [p; q] w with v free and
    g(d/dt) w = 0. For a guarantee row G(s) = sum_k g_k s^k, repeated use of
    x' = Ax + Bu gives

        G(d/dt) y = L x + T(d/dt) u,  L = sum_k g_k C A^k,
        T(s) = sum_k g_k (sum_{j<k} C A^(k-1-j) B s^j + D s^k),

    and since x(0), v and w are independent, G annihilates every output iff
    L = 0, T [b'; -a'] = 0, and g divides T [p; q]. All three are linear in
    the coefficients of G: `conditions` is that linear map.
    """

    def __init__(self, A: list, B: list, C: list, D: list, env_row: list):
        a, b = env_row
        self.g, p, q = p_gcdex(a, b)
        a1, b1 = p_divmod(a, self.g)[0], p_divmod(b, self.g)[0]
        self.free = (b1, p_scale(a1, -1))
        self.bound = (p, q)
        self.n = len(A)
        self.A, self.B, self.C, self.D = A, B, C, D
        self._powers = [C]  # C A^k
        self._markov = [[[[] for _ in B[0]] for _ in C]]  # sum_{j<k} C A^(k-1-j) B s^j

    def _grow(self, k: int) -> None:
        while len(self._powers) <= k:
            last = self._powers[-1]
            CB = _mat_mul(last, self.B)
            shifted = [
                [p_add([0] + e if e else [], [CB[i][j]] if CB[i][j] else []) for j, e in enumerate(row)]
                for i, row in enumerate(self._markov[-1])
            ]
            self._powers.append(_mat_mul(last, self.A))
            self._markov.append(shifted)

    def conditions(self, G_row: list) -> tuple[list, list, list]:
        """L, T [b'; -a'] and T [p; q] mod g for one row of guarantees over
        (y1, y2); all three are zero iff the row holds."""
        degree = max((len(e) for e in G_row), default=0) - 1
        self._grow(max(degree, 0))
        L = [Fraction(0)] * self.n
        T: list = [[], []]
        for i, e in enumerate(G_row):
            for k, c in enumerate(e):
                if not c:
                    continue
                for col in range(self.n):
                    L[col] += c * self._powers[k][i][col]
                for j in range(2):
                    term = p_add(self._markov[k][i][j], [0] * k + [self.D[i][j]] if self.D[i][j] else [])
                    T[j] = p_add(T[j], p_scale(term, c))
        free = p_add(p_mul(T[0], self.free[0]), p_mul(T[1], self.free[1]))
        bound = p_add(p_mul(T[0], self.bound[0]), p_mul(T[1], self.bound[1]))
        rem = p_divmod(bound, self.g)[1]
        return L, free, rem

    def holds(self, G: list) -> bool:
        return all(not any(map(any, self.conditions(row))) for row in G)

    def annihilators(self, degree: int) -> list[list]:
        """A basis of the guarantee rows of degree <= `degree` that hold,
        each scaled to coprime integers."""
        unknowns = []
        for k in range(degree + 1):
            for i in range(2):
                row = [[], []]
                row[i] = [0] * k + [1]
                unknowns.append(row)
        columns = [self.conditions(u) for u in unknowns]
        matrix = []
        for part in range(3):
            size = max(len(col[part]) for col in columns)
            for r in range(size):
                matrix.append([Fraction(col[part][r] if r < len(col[part]) else 0) for col in columns])
        basis = []
        for vec in nullspace(matrix, len(unknowns)):
            vec = integer_vector(vec)
            row = [[], []]
            for c, u in zip(vec, unknowns):
                i = 0 if u[0] else 1
                row[i] = p_add(row[i], p_scale(u[i], c))
            basis.append(row)
        return basis


def nullspace(rows: list[list[Fraction]], n: int) -> list[list[Fraction]]:
    """A basis of { z : rows z = 0 } by reduced row echelon form."""
    a = [r[:] for r in rows]
    pivots = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        lead = a[r][c]
        a[r] = [x / lead for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    basis = []
    for free in (c for c in range(n) if c not in pivots):
        z = [Fraction(0)] * n
        z[free] = Fraction(1)
        for i, c in enumerate(pivots):
            z[c] = -a[i][free]
        basis.append(z)
    return basis


def integer_vector(v: list[Fraction]) -> list[int]:
    """The rational vector scaled to coprime integers."""
    den = lcm(*(x.denominator for x in v))
    ints = [int(x * den) for x in v]
    g = gcd(*ints) or 1
    return [x // g for x in ints]


def implementation_refuted(A, B, C, D, env: list, G: list) -> bool:
    """Some point shows an output of the system under inputs in ker env that
    G does not annihilate.

    Exponential trajectories at x satisfy K(x) (state, u, y) = 0 with
        K = [[x I - A, -B, 0], [C, D, -I], [0, env(x), 0]],
    and every such y must satisfy G(x) y = 0 if the contract is implemented.
    """
    n, m, p = len(A), len(B[0]), len(C)
    zero = Fraction(0)
    for x in POINTS:
        rows = []
        for i in range(n):
            rows.append(
                [(x if i == j else zero) - A[i][j] for j in range(n)]
                + [-Fraction(b) for b in B[i]]
                + [zero] * p
            )
        for i in range(p):
            rows.append(
                [Fraction(c) for c in C[i]]
                + [Fraction(d) for d in D[i]]
                + [Fraction(-1) if i == j else zero for j in range(p)]
            )
        for row in m_eval(env, x):
            rows.append([zero] * n + row + [zero] * p)
        extra = [[zero] * (n + m) + row for row in m_eval(G, x)]
        if _raises_rank(rows, extra):
            return True
    return False
