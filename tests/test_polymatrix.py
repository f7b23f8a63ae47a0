"""Polynomial-matrix layer: arithmetic, determinant, rank, Smith form, inversion."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from agverify.polyalg import ONE, S, ZERO, Poly, RatFunc
from agverify.polymatrix import (
    DimensionError,
    PolyMatrix,
    RatMatrix,
    SingularMatrixError,
    block,
    determinant,
    hstack,
    invert_ratmatrix,
    is_proper,
    is_unimodular,
    rank_generic,
    row_echelon,
    smith_form,
    vstack,
)
from support import det_cofactor, eval_matrix, fraction_rank, random_matrix, random_unimodular


@st.composite
def poly_matrices(draw, rows, cols, max_deg=2):
    coeffs = st.lists(st.integers(min_value=-4, max_value=4), min_size=1, max_size=max_deg + 1)
    entry = coeffs.map(Poly)
    return PolyMatrix([[draw(entry) for _ in range(cols)] for _ in range(rows)], cols=cols)


@st.composite
def proper_instances(draw):
    """(P, Q) with P square; P is forced singular and Q gets zero columns
    often enough that every branch of the decision is exercised."""
    n = draw(st.integers(min_value=0, max_value=3))
    P = draw(poly_matrices(n, n, draw(st.integers(min_value=0, max_value=2))))
    if n and draw(st.integers(min_value=0, max_value=3)) == 0:
        rows = list(P.entries)
        factor = draw(poly_matrices(1, 1, 1))[0, 0]
        rows[-1] = tuple(e * factor for e in rows[0])
        P = PolyMatrix(rows, cols=n)
    m = draw(st.integers(min_value=0, max_value=3))
    Q = draw(poly_matrices(n, m, draw(st.integers(min_value=0, max_value=3))))
    zero_cols = draw(st.sets(st.integers(min_value=0, max_value=max(m - 1, 0)), max_size=m))
    Q = PolyMatrix(
        [[ZERO if j in zero_cols else e for j, e in enumerate(row)] for row in Q.entries],
        cols=m,
    )
    return P, Q


@st.composite
def rank_instances(draw):
    """m x n matrices, 0 rows and 0 columns included. Half are a product
    through an inner dimension below min(m, n), so their rank is deficient;
    half have a column that is a multiple of the first, so elimination must
    skip a column that has no pivot."""
    m = draw(st.integers(min_value=0, max_value=4))
    n = draw(st.integers(min_value=0, max_value=4))
    if min(m, n) > 0 and draw(st.booleans()):
        k = draw(st.integers(min_value=0, max_value=min(m, n) - 1))
        R = draw(poly_matrices(m, k, 1)) * draw(poly_matrices(k, n, 1))
    else:
        R = draw(poly_matrices(m, n, 2))
    if n > 1 and draw(st.booleans()):
        j = draw(st.integers(min_value=1, max_value=n - 1))
        f = draw(poly_matrices(1, 1, 1))[0, 0]
        R = PolyMatrix(
            [[row[0] * f if c == j else e for c, e in enumerate(row)] for row in R.entries],
            cols=n,
        )
    return R


class TestArithmetic:
    def test_identity_multiplication(self):
        X = PolyMatrix([[S, 1], [2, S**2]])
        assert PolyMatrix.identity(2) * X == X

    def test_vstack(self):
        v = vstack(PolyMatrix([[S]]), PolyMatrix([[S**2]]))
        assert v == PolyMatrix([[S], [S**2]])

    def test_mul_by_zero(self):
        A = PolyMatrix([[S, 1], [0, S]])
        assert A * PolyMatrix.zeros(2, 3) == PolyMatrix.zeros(2, 3)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            PolyMatrix([[S]]) + PolyMatrix([[S, 1]])
        with pytest.raises(DimensionError):
            PolyMatrix([[S, 1]]) * PolyMatrix([[S, 1]])

    def test_ragged_rows_rejected(self):
        with pytest.raises(DimensionError):
            PolyMatrix([[S], [S, 1]])

    def test_zero_row_matrix_needs_cols(self):
        m = PolyMatrix([], cols=3)
        assert (m.rows, m.cols) == (0, 3)

    def test_block_compose(self):
        I = PolyMatrix.identity(1)
        b = block([[I, I], [PolyMatrix([[S]]), PolyMatrix.zeros(1, 1)]])
        assert b == PolyMatrix([[1, 1], [S, 0]])

    def test_transpose(self):
        assert PolyMatrix([[S, 1]]).transpose() == PolyMatrix([[S], [1]])

    def test_scalar_product(self):
        assert S * PolyMatrix.identity(2) == PolyMatrix.diag([S, S])


class TestDeterminant:
    def test_triangular(self):
        assert determinant(PolyMatrix([[S, 1], [0, S]])) == S**2

    def test_identity(self):
        assert determinant(PolyMatrix.identity(3)) == ONE

    def test_non_square(self):
        with pytest.raises(DimensionError):
            determinant(PolyMatrix([[S, 1]]))

    def test_matches_cofactor_oracle(self):
        rng = random.Random(101)
        for _ in range(40):
            n = rng.randint(1, 3)
            M = random_matrix(rng, n, n, max_deg=2)
            assert determinant(M) == det_cofactor(M)

    def test_empty(self):
        assert determinant(PolyMatrix([], cols=0)) == ONE


class TestRank:
    def test_dependent_rows(self):
        assert rank_generic(PolyMatrix([[S, 0], [S**2, 0]])) == 1

    def test_identity(self):
        assert rank_generic(PolyMatrix.identity(4)) == 4

    def test_constructed_rank(self):
        rng = random.Random(7)
        for _ in range(15):
            n = rng.randint(2, 3)
            r = rng.randint(0, n)
            U = random_unimodular(rng, n)
            V = random_unimodular(rng, n)
            D = PolyMatrix.diag([S + k for k in range(n)])
            mask = PolyMatrix.diag([1 if i < r else 0 for i in range(n)])
            assert rank_generic(U * (D * mask) * V) == r

    def test_matches_numeric_rank_at_sample_points(self):
        # The rank at any evaluation point never exceeds the generic rank and
        # equals it away from a finite bad set, so sampling must reach it.
        from support import eval_matrix, fraction_rank

        rng = random.Random(23)
        for _ in range(10):
            M = random_matrix(rng, rng.randint(1, 3), rng.randint(1, 3), 2)
            want = rank_generic(M)
            hits = 0
            for _ in range(40):
                x = Fraction(rng.randint(-20, 20), rng.randint(1, 7))
                got = fraction_rank(eval_matrix(M, x))
                assert got <= want
                if got == want:
                    hits += 1
                    if hits == 5:
                        break
            assert hits == 5


class TestRankOracle:
    @settings(deadline=None)
    @given(rank_instances())
    def test_matches_evaluation(self, R):
        # A nonzero r x r minor has degree <= min(m, n) * d, so it vanishes at
        # no more than that many points: the largest rank over one more
        # distinct points is the generic rank exactly.
        d = max(0, R.degree)
        points = [Fraction(x) for x in range(min(R.rows, R.cols) * d + 1)]
        want = max(fraction_rank(eval_matrix(R, x)) for x in points)
        assert rank_generic(R) == want


class TestRowEchelon:
    @settings(deadline=None)
    @given(rank_instances())
    def test_reduction_of_r_and_identity(self, R):
        m, n = R.rows, R.cols
        a = [list(row) + list(e) for row, e in zip(R.entries, PolyMatrix.identity(m).entries)]
        pivots = row_echelon(a, n)
        H = PolyMatrix([row[:n] for row in a], cols=n)
        W = PolyMatrix([row[n:] for row in a], cols=m)
        assert W * R == H
        assert is_unimodular(W)
        r = len(pivots)
        assert r == rank_generic(R)
        assert pivots == sorted(set(pivots))
        for k, c in enumerate(pivots):
            assert H[k, c].lc == 1
            assert all(H[k, j].is_zero for j in range(c))
            assert all(H[i, c].is_zero for i in range(k + 1, m))
        assert H.take_rows(range(r, m)).is_zero

    def test_entries_above_pivots_stay(self):
        a = [[Poly([-2]), Poly([-1]), ONE, ZERO], [ZERO, Poly([-1]), ZERO, ONE]]
        assert row_echelon(a, 4) == [0, 1]
        assert a[0] == [ONE, Poly([Fraction(1, 2)]), Poly([Fraction(-1, 2)]), ZERO]
        assert a[1] == [ZERO, ONE, ZERO, Poly([-1])]

    def test_lowest_degree_pivot_and_repivot(self):
        # s^2 + 1 leaves remainder 1 modulo s; that becomes the pivot.
        a = [[S**2 + 1], [S]]
        assert row_echelon(a, 1) == [0]
        assert a == [[ONE], [ZERO]]


class TestUnimodular:
    def test_shear(self):
        assert is_unimodular(PolyMatrix([[1, S], [0, 1]]))

    def test_scalar_s(self):
        assert not is_unimodular(PolyMatrix([[S]]))

    def test_smith_factors_are_unimodular(self):
        rng = random.Random(53)
        for _ in range(20):
            M = random_matrix(rng, rng.randint(1, 3), rng.randint(1, 3), 2)
            sd = smith_form(M)
            assert is_unimodular(sd.U) and is_unimodular(sd.V)


class TestSmith:
    def test_diagonal_reordering(self):
        # gcd of 1x1 minors is s, product of 2x2 minors gives s^3: chain [s, s^2].
        sd = smith_form(PolyMatrix([[S**2, 0], [0, S]]))
        assert sd.invariant_factors == (S, S**2)

    def test_zero_matrix(self):
        sd = smith_form(PolyMatrix.zeros(2, 3))
        assert sd.invariant_factors == ()
        assert sd.rank == 0
        assert sd.reconstruct() == PolyMatrix.zeros(2, 3)

    def test_coprime_row(self):
        # Quarter-car body row with unit parameters: entries are coprime.
        sd = smith_form(PolyMatrix([[S**2 + S + 1, -S - 1]]))
        assert sd.invariant_factors == (ONE,)

    def test_empty_matrix(self):
        sd = smith_form(PolyMatrix([], cols=2))
        assert sd.rank == 0 and sd.V == PolyMatrix.identity(2)

    def test_inverse_tracking(self):
        rng = random.Random(11)
        for _ in range(25):
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            M = random_matrix(rng, m, n, 2)
            sd = smith_form(M)
            assert sd.U * sd.U_inv == PolyMatrix.identity(m)
            assert sd.V * sd.V_inv == PolyMatrix.identity(n)

    def test_reconstruction_and_chain(self):
        rng = random.Random(29)
        for _ in range(60):
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            M = random_matrix(rng, m, n, 3)
            sd = smith_form(M)
            assert sd.reconstruct() == M
            for a, b in zip(sd.invariant_factors, sd.invariant_factors[1:]):
                assert (b % a).is_zero

    def test_minor_gcd_oracle(self):
        # d_1 * ... * d_k equals the monic gcd of all k x k minors.
        from itertools import combinations

        from agverify.polyalg import poly_gcd

        rng = random.Random(97)
        for _ in range(20):
            m, n = rng.randint(1, 3), rng.randint(1, 3)
            M = random_matrix(rng, m, n, 2)
            sd = smith_form(M)
            for k in range(1, sd.rank + 1):
                minors = [
                    det_cofactor(M.take_rows(rsel).take_cols(csel))
                    for rsel in combinations(range(m), k)
                    for csel in combinations(range(n), k)
                ]
                g = None
                for minor in minors:
                    if not minor.is_zero:
                        g = minor if g is None else poly_gcd(g, minor)
                assert g is not None
                product = ONE
                for d in sd.invariant_factors[:k]:
                    product = product * d
                assert product == g.monic()


class TestInversion:
    def test_scalar(self):
        inv = invert_ratmatrix(PolyMatrix([[S]]))
        assert inv == RatMatrix([[RatFunc(ONE, S)]])

    def test_identity(self):
        assert invert_ratmatrix(PolyMatrix.identity(3)) == RatMatrix.identity(3)

    def test_singular(self):
        with pytest.raises(SingularMatrixError):
            invert_ratmatrix(PolyMatrix([[S, S], [S, S]]))

    def test_non_square(self):
        with pytest.raises(DimensionError):
            invert_ratmatrix(PolyMatrix([[S, 1]]))

    def test_random_unimodular_roundtrip(self):
        rng = random.Random(3)
        for _ in range(15):
            n = rng.randint(1, 3)
            U = random_unimodular(rng, n)
            assert invert_ratmatrix(U) * U == RatMatrix.identity(n)

    def test_general_inverse(self):
        rng = random.Random(5)
        count = 0
        while count < 10:
            n = rng.randint(1, 3)
            M = random_matrix(rng, n, n, 2)
            if determinant(M).is_zero:
                continue
            assert (invert_ratmatrix(M) * M) == RatMatrix.identity(n)
            count += 1


class TestProper:
    def test_integrator(self):
        assert is_proper(PolyMatrix([[S]]), PolyMatrix([[ONE]]))

    def test_differentiator(self):
        assert not is_proper(PolyMatrix([[ONE]]), PolyMatrix([[S]]))

    def test_singular_p(self):
        with pytest.raises(SingularMatrixError):
            is_proper(PolyMatrix([[ZERO]]), PolyMatrix([[ONE]]))

    @settings(deadline=None)
    @given(proper_instances())
    @example((PolyMatrix([], cols=0), PolyMatrix([], cols=2)))
    def test_matches_inversion_oracle(self, instance):
        # The oracle forms P^-1 Q over Q(s) and tests each entry.
        P, Q = instance
        try:
            inverse = invert_ratmatrix(P)
        except SingularMatrixError:
            with pytest.raises(SingularMatrixError):
                is_proper(P, Q)
            return
        want = all(e.is_proper for row in (inverse * Q).entries for e in row)
        assert is_proper(P, Q) == want

    def test_hstack_shapes(self):
        h = hstack(PolyMatrix.identity(2), PolyMatrix.zeros(2, 1))
        assert (h.rows, h.cols) == (2, 3)


def test_smith_decomposition_rejects_broken_chain():
    from agverify.polymatrix import SmithDecomposition

    with pytest.raises(ValueError):
        SmithDecomposition(
            U=PolyMatrix.identity(2),
            V=PolyMatrix.identity(2),
            invariant_factors=(S**2, S),
            rank=2,
            U_inv=PolyMatrix.identity(2),
            V_inv=PolyMatrix.identity(2),
        )
