"""Polynomial-matrix layer: arithmetic, the fraction-free pass, row echelon
form, Smith form, properness."""

import random
from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from agverify.polyalg import ONE, S, ZERO, Poly, RatFunc, poly_gcd
from agverify.polymatrix import (
    DimensionError,
    PolyMatrix,
    SelfCheckError,
    SingularMatrixError,
    _fraction_free,
    _left_quotient,
    hstack,
    is_proper,
    row_echelon,
    smith_form,
    vstack,
)
from support import (
    bareiss_reference,
    det_cofactor,
    eval_matrix,
    evaluation_rank,
    fraction_rank,
    is_unimodular,
    matmul_reference,
    random_matrix,
    random_unimodular,
    row_echelon_reference,
)


def minor_gcd(M: PolyMatrix, k: int) -> Poly:
    """Monic gcd of the k x k minors of M, by cofactor expansion; zero if all vanish."""
    g = ZERO
    for rsel in combinations(range(M.rows), k):
        for csel in combinations(range(M.cols), k):
            minor = det_cofactor(M.take_rows(rsel).take_cols(csel))
            if not minor.is_zero:
                g = poly_gcd(g, minor)
    return g


@st.composite
def poly_matrices(draw, rows, cols, max_deg=2, coeff=st.integers(min_value=-4, max_value=4)):
    entry = st.lists(coeff, min_size=1, max_size=max_deg + 1).map(Poly)
    return PolyMatrix([[draw(entry) for _ in range(cols)] for _ in range(rows)], cols=cols)


def rationals(bound: int) -> st.SearchStrategy:
    """Integers in [-bound, bound], and such numerators over 1..9."""
    num = st.integers(min_value=-bound, max_value=bound)
    return st.one_of(num, st.builds(Fraction, num, st.integers(min_value=1, max_value=9)))


@st.composite
def proper_instances(draw, coeff=st.integers(min_value=-4, max_value=4)):
    """(P, Q) with P square; P is forced singular and Q gets zero columns
    often enough that every branch of the decision is exercised."""
    n = draw(st.integers(min_value=0, max_value=3))
    P = draw(poly_matrices(n, n, draw(st.integers(min_value=0, max_value=2)), coeff))
    if n and draw(st.integers(min_value=0, max_value=3)) == 0:
        rows = list(P.entries)
        factor = draw(poly_matrices(1, 1, 1, coeff))[0, 0]
        rows[-1] = tuple(e * factor for e in rows[0])
        P = PolyMatrix(rows, cols=n)
    m = draw(st.integers(min_value=0, max_value=3))
    Q = draw(poly_matrices(n, m, draw(st.integers(min_value=0, max_value=3)), coeff))
    zero_cols = draw(st.sets(st.integers(min_value=0, max_value=max(m - 1, 0)), max_size=m))
    Q = PolyMatrix(
        [[ZERO if j in zero_cols else e for j, e in enumerate(row)] for row in Q.entries],
        cols=m,
    )
    return P, Q


@st.composite
def wide_squares(draw):
    """n x n for n <= 4 with coefficients up to +-2^80 over denominators
    1..9 and zero entries; some have a zero row, some a row that is a
    polynomial multiple of another, so the rank drops."""
    n = draw(st.integers(min_value=0, max_value=4))
    coeff = st.one_of(st.just(0), rationals(2**80))
    rows = [list(row) for row in draw(poly_matrices(n, n, 2, coeff)).entries]
    cells = st.integers(min_value=0, max_value=max(n - 1, 0))
    for i, j in draw(st.sets(st.tuples(cells, cells), max_size=n * n)):
        rows[i][j] = ZERO
    kind = draw(st.sampled_from(("as drawn", "zero row", "multiple row")))
    if n and kind == "zero row":
        rows[draw(cells)] = [ZERO] * n
    elif n > 1 and kind == "multiple row":
        factor = draw(poly_matrices(1, 1, 1, coeff))[0, 0]
        rows[-1] = [e * factor for e in rows[0]]
    return PolyMatrix(rows, cols=n)


@st.composite
def elimination_grids(draw):
    """Grids up to 5 x 7 with up to 5 scanned columns and rational entries;
    some have a row that is a multiple of another, a scanned column that is
    a multiple of the one before it, or a zero first column, so the pass
    loses rank, skips columns, also between two pivots, and permutes rows."""
    rows = draw(st.integers(min_value=0, max_value=5))
    ncols = draw(st.integers(min_value=0, max_value=5))
    width = ncols + draw(st.integers(min_value=0, max_value=2))
    coeff = st.one_of(st.just(0), rationals(2**40))
    grid = [list(row) for row in draw(poly_matrices(rows, width, 2, coeff)).entries]
    if rows > 1 and draw(st.booleans()):
        factor = draw(poly_matrices(1, 1, 1, coeff))[0, 0]
        grid[-1] = [e * factor for e in grid[0]]
    if ncols > 2 and draw(st.booleans()):
        j = draw(st.integers(min_value=1, max_value=ncols - 2))
        factor = draw(poly_matrices(1, 1, 1, coeff))[0, 0]
        for row in grid:
            row[j] = row[j - 1] * factor
    if width and draw(st.booleans()):
        for row in grid:
            row[0] = ZERO
    return grid, ncols


@st.composite
def rank_instances(draw, coeff=st.integers(min_value=-4, max_value=4)):
    """m x n matrices, 0 rows and 0 columns included. Half are a product
    through an inner dimension below min(m, n), so their rank is deficient;
    half have a column that is a multiple of the first, so elimination must
    skip a column that has no pivot."""
    m = draw(st.integers(min_value=0, max_value=4))
    n = draw(st.integers(min_value=0, max_value=4))
    if min(m, n) > 0 and draw(st.booleans()):
        k = draw(st.integers(min_value=0, max_value=min(m, n) - 1))
        R = draw(poly_matrices(m, k, 1, coeff)) * draw(poly_matrices(k, n, 1, coeff))
    else:
        R = draw(poly_matrices(m, n, 2, coeff))
    if n > 1 and draw(st.booleans()):
        j = draw(st.integers(min_value=1, max_value=n - 1))
        f = draw(poly_matrices(1, 1, 1))[0, 0]
        R = PolyMatrix(
            [[row[0] * f if c == j else e for c, e in enumerate(row)] for row in R.entries],
            cols=n,
        )
    return R


def with_identity(R: PolyMatrix) -> tuple[list[list[Poly]], int]:
    """The grid [R | I] and its scanned column count, as `smith_form` and
    `behavior_included` reduce it."""
    identity = PolyMatrix.identity(R.rows).entries
    return [list(row) + list(e) for row, e in zip(R.entries, identity)], R.cols


@st.composite
def product_pairs(draw):
    """(A, B) of shapes m x k and k x n, each of m, k, n from 0 to 3."""
    m, k, n = (draw(st.integers(min_value=0, max_value=3)) for _ in range(3))
    return draw(poly_matrices(m, k)), draw(poly_matrices(k, n))


@st.composite
def rational_product_pairs(draw):
    """(A, B) of shapes m x k and k x n, each of m, k, n from 0 to 4, with
    entries of degree at most 3 whose coefficients mix denominators and
    run above 2^64."""
    wide = st.builds(Fraction, st.integers(min_value=-2**80, max_value=2**80),
                     st.integers(min_value=1, max_value=10**9 + 7))
    coeff = st.one_of(st.just(0), rationals(2**80), wide)
    m, k, n = (draw(st.integers(min_value=0, max_value=4)) for _ in range(3))
    return draw(poly_matrices(m, k, 3, coeff)), draw(poly_matrices(k, n, 3, coeff))


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

    def test_entries_are_kept_or_converted(self):
        p = S + 1
        M = PolyMatrix(iter([iter([p, 2]), (Fraction(1, 2), p)]))
        assert M.entries == ((p, Poly([2])), (Poly([Fraction(1, 2)]), p)) and M.entries[0][0] is p
        for bad in (1.5, "s"):
            with pytest.raises(TypeError, match="polynomial entry expected"):
                PolyMatrix([[p, S], [S, bad]])

    def test_value_semantics(self):
        M = PolyMatrix([[S, 1]])
        assert M == PolyMatrix([[S, ONE]]) and hash(M) == hash(PolyMatrix([[S, ONE]]))
        assert M != PolyMatrix([[S, 2]])
        assert PolyMatrix([], cols=1) != PolyMatrix([], cols=2)
        assert repr(M) == "PolyMatrix([[s, 1]])"
        with pytest.raises(AttributeError):
            M.rows = 2

    def test_transpose(self):
        assert PolyMatrix([[S, 1]]).transpose() == PolyMatrix([[S], [1]])

    def test_scalar_product(self):
        assert S * PolyMatrix.identity(2) == PolyMatrix.diag([S, S])

    @settings(deadline=None)
    @given(product_pairs())
    def test_product_matches_evaluation(self, pair):
        # Entries of A * B have degree at most 4, so values at five points fix them.
        A, B = pair
        AB = A * B
        assert (AB.rows, AB.cols) == (A.rows, B.cols)
        for x in (Fraction(k, 2) for k in range(-2, 3)):
            a, b = eval_matrix(A, x), eval_matrix(B, x)
            want = [[sum(a[i][t] * b[t][j] for t in range(A.cols)) for j in range(B.cols)]
                    for i in range(A.rows)]
            assert eval_matrix(AB, x) == want

    @settings(deadline=None)
    @given(rational_product_pairs())
    def test_product_matches_reference(self, pair):
        A, B = pair
        assert A * B == matmul_reference(A, B)


def pass_det(M: PolyMatrix) -> Poly:
    """det M from one `_fraction_free` pass, as `is_proper` reads it: the
    sign of the row permutation times the last pivot, zero without a full rank."""
    pivots, sign, last = _fraction_free(M.entries, M.cols)[:3]
    return sign * last if len(pivots) == M.rows else ZERO


def pass_rank(M: PolyMatrix) -> int:
    """The pivot count of one `_fraction_free` pass, the rank over Q(s) that
    `check_io_form` and `eliminate_latent` read."""
    return len(_fraction_free(M.entries, M.cols)[0])


class TestDeterminant:
    def test_triangular(self):
        assert pass_det(PolyMatrix([[S, 1], [0, S]])) == S**2

    def test_identity(self):
        assert pass_det(PolyMatrix.identity(3)) == ONE

    def test_matches_cofactor_oracle(self):
        rng = random.Random(101)
        for _ in range(40):
            n = rng.randint(1, 3)
            M = random_matrix(rng, n, n, max_deg=2)
            assert pass_det(M) == det_cofactor(M)

    def test_empty(self):
        assert pass_det(PolyMatrix([], cols=0)) == ONE

    @settings(deadline=None)
    @given(wide_squares())
    def test_wide_coefficients_match_oracles(self, M):
        # Per-row denominators, large coefficients and zero rows exercise the
        # scaling, the coefficient bound and the signed digits of the pass.
        assert pass_det(M) == det_cofactor(M)
        assert pass_rank(M) == evaluation_rank(M)


class TestFractionFree:
    @settings(deadline=None)
    @given(elimination_grids())
    def test_matches_poly_reference(self, instance):
        # Every returned value, the right block of the rows above and below
        # the rank included, equals that of the elimination on Poly entries.
        grid, ncols = instance
        assert _fraction_free(grid, ncols) == bareiss_reference(grid, ncols, True)


class TestRank:
    def test_dependent_rows(self):
        assert pass_rank(PolyMatrix([[S, 0], [S**2, 0]])) == 1

    def test_identity(self):
        assert pass_rank(PolyMatrix.identity(4)) == 4

    def test_constructed_rank(self):
        rng = random.Random(7)
        for _ in range(15):
            n = rng.randint(2, 3)
            r = rng.randint(0, n)
            U = random_unimodular(rng, n)
            V = random_unimodular(rng, n)
            D = PolyMatrix.diag([S + k for k in range(n)])
            mask = PolyMatrix.diag([1 if i < r else 0 for i in range(n)])
            assert pass_rank(U * (D * mask) * V) == r

    def test_matches_numeric_rank_at_sample_points(self):
        # The rank at any evaluation point never exceeds the generic rank and
        # equals it away from a finite bad set, so sampling must reach it.
        from support import eval_matrix, fraction_rank

        rng = random.Random(23)
        for _ in range(10):
            M = random_matrix(rng, rng.randint(1, 3), rng.randint(1, 3), 2)
            want = pass_rank(M)
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
        assert pass_rank(R) == want


class TestRowEchelon:
    @settings(deadline=None)
    @given(rank_instances())
    def test_reduction_of_r_and_identity(self, R):
        m = R.rows
        a, n = with_identity(R)
        pivots = row_echelon(a, n)
        H = PolyMatrix([row[:n] for row in a], cols=n)
        W = PolyMatrix([row[n:] for row in a], cols=m)
        assert W * R == H
        assert is_unimodular(W)
        r = len(pivots)
        assert r == evaluation_rank(R)
        assert pivots == sorted(set(pivots))
        for k, c in enumerate(pivots):
            assert H[k, c].lc == 1
            assert all(H[k, j].is_zero for j in range(c))
            assert all(H[i, c].is_zero for i in range(k + 1, m))
        assert H.take_rows(range(r, m)).is_zero

    @settings(deadline=None)
    @given(
        rank_instances(st.fractions(-3, 3, max_denominator=5)),
        st.lists(st.fractions(-3, 3, max_denominator=5).filter(bool), min_size=4, max_size=4),
    )
    def test_rows_below_rank_primitive_and_pivot_rows_scale_free(self, R, scales):
        grid, n = with_identity(R)
        scaled = [[e * c for e in row] for row, c in zip(grid, scales)]
        r = len(row_echelon(grid, n))
        assert len(row_echelon(scaled, n)) == r
        assert grid[:r] == scaled[:r]
        for row in grid[r:]:
            assert all(e.den == 1 for e in row)
            assert gcd(*(c for e in row for c in e.num)) == 1

    @settings(deadline=None)
    @given(st.one_of(elimination_grids(), rank_instances(rationals(4)).map(with_identity)))
    def test_matches_poly_reference(self, instance):
        grid, ncols = instance
        a = [list(row) for row in grid]
        pivots = row_echelon(a, ncols)
        assert (pivots, a) == row_echelon_reference(grid, ncols)

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
    # A matrix is unimodular iff it has a polynomial inverse, which the
    # Cramer solve of the Smith transforms finds.
    def test_shear(self):
        W = PolyMatrix([[1, S], [0, 1]])
        assert _left_quotient(W.entries, PolyMatrix.identity(2)) * W == PolyMatrix.identity(2)

    def test_scalar_s(self):
        assert isinstance(_left_quotient(PolyMatrix([[S]]).entries, PolyMatrix.identity(1)), str)

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
        rng = random.Random(97)
        for _ in range(20):
            m, n = rng.randint(1, 3), rng.randint(1, 3)
            M = random_matrix(rng, m, n, 2)
            sd = smith_form(M)
            product = ONE
            for k, d in enumerate(sd.invariant_factors, 1):
                product = product * d
                assert product == minor_gcd(M, k)

    def test_constant_pivot_needs_no_division(self, monkeypatch):
        # U and V are Cramer solves over unimodular sources, whose last pivot
        # is a nonzero constant, and the invariant factors start at 1.
        calls = []
        divmod_ = Poly.__divmod__
        monkeypatch.setattr(Poly, "__divmod__", lambda a, b: calls.append(b) or divmod_(a, b))
        sd = smith_form(PolyMatrix([[S**2 + S + 1, -S - 1], [-S - 1, S**2 + S + 2]]))
        assert calls == []
        assert sd.invariant_factors == (ONE, S**4 + 2 * S**3 + 3 * S**2 + S + 1)

    @settings(deadline=None)
    @given(rank_instances())
    @example(PolyMatrix.diag([S, S + 1]))  # s does not divide s + 1: factors (1, s^2 + s)
    def test_decomposition_property(self, R):
        sd = smith_form(R)
        assert sd.reconstruct() == R
        assert sd.U * sd.U_inv == PolyMatrix.identity(R.rows)
        assert sd.V * sd.V_inv == PolyMatrix.identity(R.cols)
        factors = sd.invariant_factors
        assert all(a.divides(b) for a, b in zip(factors, factors[1:]))
        assert sd.rank == evaluation_rank(R)
        product = ONE
        for k, d in enumerate(factors, 1):
            product = product * d
            assert product == minor_gcd(R, k)


class TestRatMatrix:
    """There is no matrix over Q(s): PolyMatrix is the one matrix container."""

    def test_shape_checks(self):
        with pytest.raises(DimensionError):
            PolyMatrix([[1, S]], cols=3)
        with pytest.raises(DimensionError):
            PolyMatrix([], cols=-1)
        with pytest.raises(DimensionError):
            PolyMatrix.identity(2) + PolyMatrix.identity(3)
        with pytest.raises(TypeError, match="polynomial entry expected"):
            PolyMatrix([[RatFunc(ONE, S)]])


class TestProper:
    def test_integrator(self):
        assert is_proper(PolyMatrix([[S]]), PolyMatrix([[ONE]]))

    def test_differentiator(self):
        assert not is_proper(PolyMatrix([[ONE]]), PolyMatrix([[S]]))

    def test_singular_p(self):
        with pytest.raises(SingularMatrixError):
            is_proper(PolyMatrix([[ZERO]]), PolyMatrix([[ONE]]))

    def test_non_square_p(self):
        with pytest.raises(DimensionError, match="needs a square P, got 1x2"):
            is_proper(PolyMatrix([[S, ONE]]), PolyMatrix([[ONE]]))

    @staticmethod
    def check_against_inversion(P, Q):
        # Cramer's rule: entry (i, j) of P^-1 Q is det(P with column i
        # replaced by column j of Q) / det P; both determinants by cofactors.
        det = det_cofactor(P)
        if det.is_zero:
            with pytest.raises(SingularMatrixError):
                is_proper(P, Q)
            return
        n = P.rows
        numerators = (
            det_cofactor(PolyMatrix([[Q[r, j] if c == i else P[r, c] for c in range(n)]
                                     for r in range(n)], cols=n))
            for i in range(n) for j in range(Q.cols)
        )
        assert is_proper(P, Q) == all(e.degree <= det.degree for e in numerators)

    @settings(deadline=None)
    @given(proper_instances())
    @example((PolyMatrix([], cols=0), PolyMatrix([], cols=2)))
    def test_matches_inversion_oracle(self, instance):
        self.check_against_inversion(*instance)

    @settings(deadline=None)
    @given(proper_instances(rationals(4)))
    def test_matches_inversion_oracle_rational(self, instance):
        # statespace_to_io makes the diagonal of P monic and carries rational
        # alphas and Markov terms elsewhere, so most properness tests on a
        # state-space system see denominators.
        self.check_against_inversion(*instance)

    def test_hstack_shapes(self):
        h = hstack(PolyMatrix.identity(2), PolyMatrix.zeros(2, 1))
        assert (h.rows, h.cols) == (2, 3)


def test_smith_decomposition_rejects_broken_chain():
    from agverify.polymatrix import SmithDecomposition

    with pytest.raises(SelfCheckError):
        SmithDecomposition(
            U=PolyMatrix.identity(2),
            V=PolyMatrix.identity(2),
            invariant_factors=(S**2, S),
            U_inv=PolyMatrix.identity(2),
            V_inv=PolyMatrix.identity(2),
        )


@pytest.mark.parametrize("side", ["U", "V"])
def test_smith_decomposition_rejects_wrong_transform(side):
    sd = smith_form(PolyMatrix([[S**2 + S + 1, -S - 1], [-S - 1, S**2 + S + 2]]))
    wrong = getattr(sd, side) * PolyMatrix.diag([1, S + 1])
    with pytest.raises(AttributeError):  # frozen: checked once, at construction
        setattr(sd, side, wrong)
    with pytest.raises(SelfCheckError, match="is not the inverse of " + side):
        replace(sd, **{side: wrong})
