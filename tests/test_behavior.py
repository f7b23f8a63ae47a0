"""Representations, elimination and the inclusion decision procedure."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import agverify
from agverify import behavior, contracts
from agverify.behavior import (
    InclusionWitness,
    IoSystem,
    KernelRep,
    LatentRep,
    SignalSpaceError,
    StateSpace,
    behavior_equal,
    behavior_included,
    check_io_form,
    eliminate_latent,
    interconnect,
    minimal_kernel,
    statespace_to_io,
    statespace_to_kernel,
)
from agverify.docparse import parse_documents
from agverify.polyalg import ONE, S, ZERO, Poly, _gcd
from agverify.polymatrix import (
    PolyMatrix,
    SelfCheckError,
    SingularMatrixError,
    hstack,
    is_proper,
    row_echelon,
    vstack,
)
from support import (
    eliminate_latent_reference,
    eval_matrix,
    evaluation_rank,
    fraction_rank,
    inclusion_by_linear_solve,
    random_full_row_rank,
    random_matrix,
    random_statespace,
    random_unimodular,
    statespace_to_kernel_reference,
    transfer_identity_holds,
)
from test_polymatrix import poly_matrices, rationals

W1 = (("w", 1),)
W2 = (("w", 2),)
W3 = (("w", 3),)


def kernel(entries, labels=W1, **kw):
    return KernelRep(PolyMatrix(entries, cols=sum(d for _, d in labels)), labels, **kw)


@st.composite
def inclusion_sources(draw):
    """Full-row-rank sources, or rank-deficient ones made by appending a
    polynomial combination of the rows."""
    n = draw(st.integers(min_value=1, max_value=3))
    rows = draw(st.integers(min_value=1, max_value=n))
    R1 = draw(poly_matrices(rows, n))
    assume(evaluation_rank(R1) == rows)
    if draw(st.booleans()):
        R1 = vstack(R1, draw(poly_matrices(1, rows, 1)) * R1)
    return R1


@st.composite
def inclusion_instances(draw):
    """(R1, R2): R2 a left multiple of R1 (holds); a multiple of R1 while the
    source is F * R1 (a rational multiplier when F is not unimodular); a
    multiple of R1 that also constrains a signal left free by the source (a
    remainder after the last pivot); or an unrelated matrix."""
    R1 = draw(inclusion_sources())
    q = draw(st.integers(min_value=0, max_value=2))
    mode = draw(st.sampled_from(("multiple", "factor", "free signal", "unrelated")))
    if mode == "unrelated":
        return R1, draw(poly_matrices(q, R1.cols))
    R2 = draw(poly_matrices(q, R1.rows, 1)) * R1
    if mode == "factor":
        return draw(poly_matrices(R1.rows, R1.rows, 1)) * R1, R2
    if mode == "free signal":
        extra = draw(poly_matrices(q, 1))
        return hstack(R1, PolyMatrix.zeros(R1.rows, 1)), hstack(R2, extra)
    return R1, R2


@st.composite
def rational_inclusion_instances(draw):
    """(R1, R2) with R1 of full row rank, up to 4x5 at degree <= 3, carrying a
    non-integer coefficient: R2 a left multiple of R1 (holds), the same with
    R1 replaced by F * R1 (a rational multiplier when F is not unimodular), or
    a multiple plus a constant perturbation (usually fails)."""
    cols = draw(st.integers(min_value=1, max_value=5))
    rows = draw(st.integers(min_value=1, max_value=min(4, cols)))
    R1 = draw(poly_matrices(rows, cols, 3, st.fractions(-3, 3, max_denominator=5)))
    assume(any(c.denominator != 1 for row in R1.entries for e in row for c in e.coeffs))
    assume(evaluation_rank(R1) == rows)
    small = st.fractions(-2, 2, max_denominator=3)
    q = draw(st.integers(min_value=1, max_value=2))
    R2 = draw(poly_matrices(q, rows, 1, small)) * R1
    mode = draw(st.sampled_from(("multiple", "factor", "perturbed")))
    if mode == "factor":
        R1 = draw(poly_matrices(rows, rows, 1, small)) * R1
        assume(evaluation_rank(R1) == rows)
    elif mode == "perturbed":
        R2 = R2 + draw(poly_matrices(q, cols, 0, small))
    return R1, R2


@st.composite
def rank_deficient_rational_instances(draw):
    """(R1, R2) with R1 rank deficient and carrying non-integer coefficients:
    up to 3 independent rows of up to 4 columns at degree <= 2, some mixed by
    a square factor F (a rational multiplier when F is not unimodular), and
    1-2 polynomial combinations of them, in shuffled order. R2 is a left
    multiple of the independent rows (holds unless F was applied), or that
    plus a constant perturbation (usually fails)."""
    cols = draw(st.integers(min_value=1, max_value=4))
    rows = draw(st.integers(min_value=1, max_value=min(3, cols)))
    base = draw(poly_matrices(rows, cols, 2, st.fractions(-3, 3, max_denominator=5)))
    assume(any(c.denominator != 1 for row in base.entries for e in row for c in e.coeffs))
    assume(evaluation_rank(base) == rows)
    small = st.fractions(-2, 2, max_denominator=3)
    q = draw(st.integers(min_value=1, max_value=2))
    R2 = draw(poly_matrices(q, rows, 1, small)) * base
    mode = draw(st.sampled_from(("multiple", "factor", "perturbed")))
    if mode == "factor":
        base = draw(poly_matrices(rows, rows, 1, small)) * base
        assume(evaluation_rank(base) == rows)
    elif mode == "perturbed":
        R2 = R2 + draw(poly_matrices(q, cols, 0, small))
    extra = draw(poly_matrices(draw(st.integers(min_value=1, max_value=2)), rows, 1, small))
    R1 = vstack(base, extra * base)
    order = draw(st.permutations(range(R1.rows)))
    return R1.take_rows(order), R2


class TestMinimalKernel:
    def test_dependent_rows_compress(self):
        k = kernel([[S, ZERO], [S**2, ZERO]], W2)
        mk = minimal_kernel(k)
        assert mk.R.rows == 1 and evaluation_rank(mk.R) == mk.R.rows
        assert behavior_equal(k, mk).holds

    def test_already_minimal_same_row_count(self):
        k = kernel([[S, ONE]], W2)
        mk = minimal_kernel(k)
        assert mk.R.rows == 1
        assert behavior_equal(k, mk).holds

    def test_zero_matrix_gives_full_behavior(self):
        k = kernel([[ZERO, ZERO]], W2)
        assert minimal_kernel(k).R.rows == 0

    def test_rank_equals_rows_and_equivalence(self):
        rng = random.Random(31)
        for _ in range(20):
            rows, dim = rng.randint(1, 3), rng.randint(1, 3)
            k = kernel(
                [[p for p in random_matrix(rng, 1, dim, 2).entries[0]] for _ in range(rows)],
                (("w", dim),),
            )
            mk = minimal_kernel(k)
            assert evaluation_rank(mk.R) == mk.R.rows
            assert behavior_equal(k, mk).holds


    @settings(deadline=None, max_examples=60)
    @given(inclusion_sources())
    def test_full_row_rank_and_mutual_inclusion(self, R):
        mk = minimal_kernel(KernelRep(R, (("w", R.cols),)))
        assert evaluation_rank(mk.R) == mk.R.rows
        assert inclusion_by_linear_solve(R, mk.R)
        assert inclusion_by_linear_solve(mk.R, R)


@st.composite
def latent_reps(draw):
    """Latent representations, among them ones with no rows, with no latent
    columns, and with a manifest row that is a multiple of another."""
    rows = draw(st.integers(min_value=0, max_value=4))
    dim = draw(st.integers(min_value=1, max_value=3))
    E = draw(poly_matrices(rows, draw(st.integers(min_value=0, max_value=3))))
    M = draw(poly_matrices(rows, dim))
    if rows >= 2 and draw(st.booleans()):
        factor = draw(poly_matrices(1, 1, 1))[0, 0]
        M = PolyMatrix(M.entries[:-1] + (tuple(factor * e for e in M.entries[0]),), cols=dim)
    return LatentRep(M, E, (("w", dim),))


@st.composite
def elimination_cases(draw):
    """Latent representations whose latent map E = X Y, with X q x r and Y
    r x m, has rank at most r and leaves kappa = q - r rows or more: kappa
    0, 1 and 2 or 3, E rank-deficient when r < m, no latent columns
    (m = 0), a single row (q = 1), rational coefficients, a zero manifest
    row, and a manifest E Z, for which no row is kept."""
    m = draw(st.integers(min_value=0, max_value=3))
    r = draw(st.integers(min_value=0, max_value=m))
    q = r + draw(st.sampled_from((0, 1, 1, 2, 3)))
    p = draw(st.integers(min_value=1, max_value=3))
    coeff = rationals(3)
    E = draw(poly_matrices(q, r, 1, coeff)) * draw(poly_matrices(r, m, 1, coeff))
    kind = draw(st.sampled_from(("plain", "plain", "zero row", "through E")))
    if kind == "through E":
        M = E * draw(poly_matrices(m, p, 1, coeff))
    else:
        M = draw(poly_matrices(q, p, 2, coeff))
        if kind == "zero row" and q:
            M = PolyMatrix(M.entries[:-1] + ((ZERO,) * p,), cols=p)
    return LatentRep(M, E, (("w", p),))


def implements_ss_shaped(seed: int):
    """An n = 5 state-space system with two inputs and two outputs, and a
    contract of one degree-2 assumption equation, as in the benchmark's
    `implements_ss`: the latent map [Q; E] of the interconnection is 3 x 2
    of rank 2."""
    rng = random.Random(seed)

    def grid(rows, cols):
        return [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]

    system = StateSpace.from_lists(grid(5, 5), grid(5, 2), grid(2, 5), grid(2, 2))
    env = [Poly([rng.randint(-3, 3), rng.randint(-3, 3), rng.choice((-2, -1, 1, 2))]) for _ in range(2)]
    assumptions = KernelRep(PolyMatrix([env]), (("u", 2),))
    return system, contracts.Contract(assumptions, KernelRep(PolyMatrix([[S, ONE]]), (("y", 2),)))


class TestEliminateLatent:
    @settings(deadline=None, max_examples=200)
    @given(elimination_cases())
    def test_matches_scan_reference(self, lat):
        k, ref = eliminate_latent(lat), eliminate_latent_reference(lat)
        assert (k.R.rows, k.R.cols) == (ref.R.rows, ref.R.cols)
        assert k.R.entries == ref.R.entries and k.signal_labels == ref.signal_labels

    def test_interconnection_rows_match_scan_reference(self, monkeypatch):
        # The corpus S under C keeps a row whose entries share s^2 + s + 1,
        # so `_gcd` runs its remainder sequence; the implements_ss-shaped
        # interconnections have entries of gcd 1, which it certifies.
        maps, gcds = [], []
        monkeypatch.setattr(behavior, "eliminate_latent", lambda lat: maps.append(lat) or eliminate_latent(lat))
        monkeypatch.setattr(behavior, "_gcd", lambda a, b: gcds.append(_gcd(a, b)) or gcds[-1])
        files = sorted(agverify.corpus_dir().glob("*.ag"))
        doc = parse_documents([(str(f), f.read_text()) for f in files])
        cases = [(doc.get("C").value, doc.get("S").value)]
        cases += [implements_ss_shaped(seed)[::-1] for seed in (1, 2, 3)]
        for i, (contract, system) in enumerate(cases):
            del gcds[:]
            k = interconnect(contract.assumptions, statespace_to_io(system))
            assert k == eliminate_latent_reference(maps[-1])
            assert len(gcds[-1]) == (3 if i == 0 else 1)

    def test_common_factor_of_the_kernel_row_is_divided_out(self):
        # v = (s, -s) has v E = 0; the left kernel is generated by (1, -1).
        lat = LatentRep(PolyMatrix([[ONE, S], [ZERO, S + 1]]), PolyMatrix([[S], [S]]), W2)
        assert eliminate_latent(lat).R == PolyMatrix([[ONE, -ONE]])  # not (s, -s)
        assert eliminate_latent(lat) == eliminate_latent_reference(lat)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_one_kept_row_runs_no_scan(self, echelon_calls, seed):
        system, contract = implements_ss_shaped(seed)
        contracts.implements(system, contract)
        assert echelon_calls == []

    def test_two_kept_rows_run_one_scan(self, echelon_calls, monkeypatch):
        passes = []
        fraction_free = behavior._fraction_free
        monkeypatch.setattr(behavior, "_fraction_free", lambda *args: passes.append(1) or fraction_free(*args))
        # q - m = 2 decides the route from the shapes, without a pass.
        lat = LatentRep(PolyMatrix([[ONE], [S], [S**2]]), PolyMatrix([[S], [ONE], [S + 1]]), W1)
        assert eliminate_latent(lat).R.rows == 1
        assert (echelon_calls, passes) == ([2], [])
        # A rank-deficient E: q - m = 1, and the pass finds kappa = 2.
        lat = LatentRep(PolyMatrix([[ONE], [S]]), PolyMatrix([[ZERO], [ZERO]]), W1)
        assert eliminate_latent(lat).R == PolyMatrix([[ONE]])
        assert (echelon_calls, passes) == ([2, 2], [1])

    @settings(deadline=None, max_examples=80)
    @given(latent_reps())
    def test_one_scan_is_minimal_and_matches_two_passes(self, lat):
        k = eliminate_latent(lat)
        assert evaluation_rank(k.R) == k.R.rows
        assert minimal_kernel(k) == k
        # Reference: reduce E's columns only, then minimize the rows below.
        E, M = lat.latent_map, lat.manifest
        a = [list(e) + list(m) for e, m in zip(E.entries, M.entries)]
        rank = len(row_echelon(a, E.cols))
        below = PolyMatrix([row[E.cols:] for row in a[rank:]], cols=M.cols)
        assert k == minimal_kernel(KernelRep(below, lat.signal_labels))

    def test_integrator(self):
        # s x = u, y = x with x latent: the external law is s y = u.
        lat = LatentRep(
            PolyMatrix([[ONE, ZERO], [ZERO, ONE]]),
            PolyMatrix([[S], [ONE]]),
            (("u", 1), ("y", 1)),
        )
        k = eliminate_latent(lat)
        assert behavior_equal(k, kernel([[-ONE, S]], (("u", 1), ("y", 1)))).holds

    def test_unimodular_latent_map_absorbs_everything(self):
        lat = LatentRep(
            PolyMatrix([[S, ONE], [S**2, S]]),
            PolyMatrix([[ONE, S], [ZERO, ONE]]),
            W2,
        )
        assert eliminate_latent(lat).R.rows == 0

    def test_exponential_probe(self):
        # For random latent data and a pole-free rational point, the manifest
        # amplitude induced by a random latent amplitude must satisfy the
        # eliminated representation.
        rng = random.Random(67)
        done = 0
        while done < 25:
            rows = rng.randint(1, 3)
            latdim = rng.randint(1, 2)
            manifest = random_matrix(rng, rows, rows, 2)
            lmap = random_matrix(rng, rows, latdim, 2)
            lam = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            Mval = eval_matrix(manifest, lam)
            if fraction_rank(Mval) != rows:
                continue
            l0 = [Fraction(rng.randint(-3, 3)) for _ in range(latdim)]
            rhs = [sum(e(lam) * x for e, x in zip(row, l0)) for row in lmap.entries]
            w0 = _solve_square(Mval, rhs)
            lat = LatentRep(manifest, lmap, (("w", rows),))
            R = eval_matrix(eliminate_latent(lat).R, lam)
            assert all(sum(e * x for e, x in zip(row, w0)) == 0 for row in R)
            done += 1


def _solve_square(A, b):
    n = len(A)
    aug = [row[:] + [rhs] for row, rhs in zip(A, b)]
    for c in range(n):
        piv = next(i for i in range(c, n) if aug[i][c] != 0)
        aug[c], aug[piv] = aug[piv], aug[c]
        aug[c] = [x / aug[c][c] for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
    return [aug[i][n] for i in range(n)]


QUARTER_CAR = StateSpace.from_lists(
    [[0, 1], [0, 0]], [[1, -1], [1, -1]], [[1, 0]], [[1, 0]]
)


@st.composite
def statespace_systems(draw):
    """Systems with n = 0..5 states, 0..2 inputs and 1..3 outputs, built
    through `StateSpace.from_lists`, with entries drawn from a few rationals
    and zeros; C often has a zero row or repeats a row, so the pair (C, A)
    is unobservable."""
    n = draw(st.integers(min_value=0, max_value=5))
    m = draw(st.integers(min_value=0, max_value=2))
    p = draw(st.integers(min_value=1, max_value=3))
    value = st.sampled_from([0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 4)])

    def grid(rows, cols):
        return [[draw(value) for _ in range(cols)] for _ in range(rows)]

    A, B, C, D = grid(n, n), grid(n, m), grid(p, n), grid(p, m)
    if p > 1:
        kind = draw(st.sampled_from(["plain", "zero", "repeated"]))
        if kind == "zero":
            C[-1] = [0] * n
        elif kind == "repeated":
            C[-1] = list(C[0])
    return StateSpace.from_lists(A, B, C, D)


class TestStateSpaceConversion:
    def test_scalar_integrator(self):
        s = StateSpace.from_lists([[0]], [[1]], [[1]], [[0]])
        io = statespace_to_io(s)
        assert io.P == PolyMatrix([[S]])
        assert io.Q == PolyMatrix([[ONE]])

    def test_memoryless(self):
        s = StateSpace(
            PolyMatrix([], cols=0),
            PolyMatrix([], cols=2),
            PolyMatrix([[], []], cols=0),
            PolyMatrix([[2, 1], [0, 1]]),
        )
        io = statespace_to_io(s)
        assert io.P == PolyMatrix.identity(2)
        assert io.Q == PolyMatrix([[2, 1], [0, 1]])

    def test_from_lists_without_rows(self):
        # A matrix without rows takes its width from its partner: B from D
        # when n = 0, D from B when p = 0, and C from A.
        s = StateSpace.from_lists([], [], [[], []], [[2, 1], [0, 1]])
        assert (s.n, s.m, s.p) == (0, 2, 2)
        assert statespace_to_io(s).Q == PolyMatrix([[2, 1], [0, 1]])
        s = StateSpace.from_lists([[0]], [[1, 2]], [], [])
        assert (s.n, s.m, s.p, s.C.cols, s.D.cols) == (1, 2, 0, 1, 2)
        s = StateSpace.from_lists([], [], [], [])
        assert (s.n, s.m, s.p) == (0, 0, 0)
        # With no states C takes D's rows; with no inputs B and D get no columns.
        s = StateSpace.from_lists([], [], [], [[2, 1]])
        assert (s.n, s.m, s.p, s.C.rows) == (0, 2, 1, 1)
        io = statespace_to_io(s)
        assert (io.P, io.Q) == (PolyMatrix([[1]]), PolyMatrix([[2, 1]]))
        s = StateSpace.from_lists([[0]], [], [[1]], [])
        assert (s.n, s.m, s.p, s.B.rows, s.D.rows) == (1, 0, 1, 1, 1)
        assert statespace_to_io(s).P == PolyMatrix([[S]])
        # Matrices are kept as given, and an empty one is shaped as a list.
        A, C = PolyMatrix([[0]]), PolyMatrix([[1]])
        t = StateSpace.from_lists(A, PolyMatrix([]), C, [])
        assert t == s and t.A is A and t.C is C

    @settings(deadline=None, max_examples=150)
    @given(statespace_systems())
    def test_matches_elimination_reference(self, s):
        k = statespace_to_kernel(s)
        assert behavior_equal(k, statespace_to_kernel_reference(s)).holds
        assert k.R.rows == s.p
        P, Q = k.R.take_cols(range(s.m, s.m + s.p)), -k.R.take_cols(range(s.m))
        assert is_proper(P, Q)
        # The normal form: P_ii monic of degree nu_i, P_ij of degree at most
        # nu_i before the diagonal and below it after, Q_i of degree at most
        # nu_i, so P's leading row-coefficient matrix is unit lower-triangular.
        nus = [row[i].degree for i, row in enumerate(P.entries)]
        for i, (nu, row) in enumerate(zip(nus, P.entries)):
            assert row[i].lc == 1
            assert all(e.degree <= nu for e in row[:i])
            assert all(e.degree < nu for e in row[i + 1:])
            assert all(e.degree <= nu for e in Q.entries[i])
        # sum nu_i is the rank of the observability matrix [C; CA; ...].
        blocks = [s.C]
        for _ in range(1, s.n):
            blocks.append(blocks[-1] * s.A)
        assert sum(nus) == fraction_rank([r for b in blocks for r in eval_matrix(b, 0)])

    def test_rational_scaling_pinned(self):
        # Denominators 2, 3, 5 and 7 in A, B, C and D, so each scale factor
        # of the integer scan differs.
        s = StateSpace.from_lists(
            [[Fraction(1, 2), 1, 0], [0, Fraction(-1, 2), 1], [1, 0, Fraction(3, 2)]],
            [[Fraction(1, 3), 0], [0, Fraction(2, 3)], [1, Fraction(-1, 3)]],
            [[Fraction(1, 5), 0, 1], [0, Fraction(2, 5), 0]],
            [[Fraction(1, 7), 0], [0, Fraction(-2, 7)]],
        )
        io = statespace_to_io(s)
        F = Fraction
        assert io.P == PolyMatrix([
            [Poly([F(19, 40), F(-39, 20), 1]), F(-61, 40)],
            [Poly([F(-11, 20), F(1, 10)]), Poly([F(9, 20), 1])],
        ])
        assert io.Q == PolyMatrix([
            [Poly([F(-611, 4200), F(331, 420), F(1, 7)]), Poly([F(151, 210), F(-1, 3)])],
            [Poly([F(59, 2100), F(1, 70)]), Poly([F(11, 105), F(-2, 7)])],
        ])

    def test_quarter_car_elimination(self):
        # d^2 y = d^2 u1 + d(u1 - u2) + (u1 - u2) for unit parameters.
        io = statespace_to_io(QUARTER_CAR)
        assert io.P == PolyMatrix([[S**2]])
        assert io.Q == PolyMatrix([[S**2 + S + 1, -S - 1]])
        assert check_io_form(io)

    def test_kernel_and_io_agree(self):
        k = statespace_to_kernel(QUARTER_CAR)
        io = statespace_to_io(QUARTER_CAR)
        assert behavior_equal(k, io.kernel()).holds

    def test_transfer_function_cross_check(self):
        rng = random.Random(41)
        for _ in range(25):
            sp = random_statespace(rng, max_n=3)
            io = statespace_to_io(sp)
            assert check_io_form(io)
            assert transfer_identity_holds(sp, io.P, io.Q)

    @settings(deadline=None)
    @given(statespace_systems())
    def test_transfer_identity_property(self, s):
        io = statespace_to_io(s)
        assert transfer_identity_holds(s, io.P, io.Q)


def io_of(s: StateSpace) -> IoSystem:
    """The input-output form of an equal, newly built system."""
    return statespace_to_io(StateSpace(s.A, s.B, s.C, s.D))


@st.composite
def io_form_instances(draw):
    """IoSystems of every kind `check_io_form` tells apart: P row reduced,
    nonsingular but not row reduced, singular, or with a zero row; m = 0 and
    p = 0 included. Q's degrees straddle P's row degrees."""
    p = draw(st.integers(min_value=0, max_value=3))
    m = draw(st.integers(min_value=0, max_value=2))
    coeff = st.fractions(-3, 3, max_denominator=4)
    kind = draw(st.sampled_from(("row reduced", "not row reduced", "singular", "zero row")))
    nus = [draw(st.integers(min_value=0, max_value=2)) for _ in range(p)]
    H = draw(poly_matrices(p, p, 0, coeff))
    assume(fraction_rank(eval_matrix(H, 0)) == p)
    rows = [
        [h * S**nu + draw(poly_matrices(1, 1, nu - 1, coeff))[0, 0] if nu else h for h in row]
        for nu, row in zip(nus, H.entries)
    ]
    if p >= 2 and kind == "not row reduced":
        # Adding s^d times row 1 to row 0, for d above nu_0 - nu_1, repeats
        # row 1's leading coefficients in row 0 and keeps det P.
        d = max(nus[0] - nus[1], 0) + draw(st.integers(min_value=1, max_value=2))
        rows[0] = [a + S**d * b for a, b in zip(rows[0], rows[1])]
    elif p and kind == "singular":
        factor = draw(poly_matrices(1, 1, 1, coeff))[0, 0]
        rows[-1] = [e * factor for e in rows[0]]
    elif p and kind == "zero row":
        rows[draw(st.integers(min_value=0, max_value=p - 1))] = [ZERO] * p
    Q = draw(poly_matrices(p, m, 3, coeff))
    return IoSystem(PolyMatrix(rows, cols=p), Q)


class TestCheckIoForm:
    def test_integrator(self):
        assert check_io_form(IoSystem(PolyMatrix([[S]]), PolyMatrix([[ONE]])))

    def test_differentiator(self):
        assert not check_io_form(IoSystem(PolyMatrix([[ONE]]), PolyMatrix([[S]])))

    def test_singular(self):
        assert not check_io_form(IoSystem(PolyMatrix([[ZERO]]), PolyMatrix([[ONE]])))

    @settings(deadline=None, max_examples=150)
    @given(io_form_instances())
    def test_matches_cramer_numerators(self, sys):
        try:
            expected = is_proper(sys.P, sys.Q)
        except SingularMatrixError:
            expected = False
        assert check_io_form(sys) == expected

    def test_row_reduced_needs_no_elimination(self, monkeypatch):
        # Row degrees 2 and 1, P_hr = [[1, 1], [0, 2]]: proper iff Q's rows
        # have degree at most 2 and 1.
        def eliminated(*args):
            raise AssertionError("is_proper ran")

        monkeypatch.setattr(behavior, "is_proper", eliminated)
        P = PolyMatrix([[S**2 + 1, S**2], [ONE, 2 * S]])
        assert check_io_form(IoSystem(P, PolyMatrix([[S**2, ONE], [S, 3]])))
        assert not check_io_form(IoSystem(P, PolyMatrix([[S**2, ONE], [S**2, 3]])))
        assert check_io_form(io_of(QUARTER_CAR))

    def test_falls_back_when_not_row_reduced(self):
        # det P = -1, but P_hr = [[0, 1], [0, 1]] is singular, so the row
        # degrees 2 and 1 decide nothing: P^-1 [1; 0] = [-s; 1] is not proper.
        P = PolyMatrix([[S, S**2 + 1], [ONE, S]])
        assert check_io_form(IoSystem(P, PolyMatrix([[S], [ONE]])))
        assert not check_io_form(IoSystem(P, PolyMatrix([[ONE], [ZERO]])))


class TestConversionIsKept:
    """`statespace_to_io` converts each `StateSpace` object at most once."""

    @staticmethod
    def system():
        return StateSpace.from_lists([[0, 1], [0, 0]], [[1, -1], [1, -1]], [[1, 0]], [[1, 0]])

    @staticmethod
    def count_checks(monkeypatch) -> list:
        calls = []

        def counted(sys):
            calls.append(sys)
            return check_io_form(sys)

        monkeypatch.setattr(behavior, "check_io_form", counted)
        return calls

    def test_same_object_every_call(self, monkeypatch):
        s = self.system()
        calls = self.count_checks(monkeypatch)
        io = statespace_to_io(s)
        assert statespace_to_io(s) is io
        assert statespace_to_kernel(s) == io.kernel()
        assert calls == [io]

    def test_equal_system_converts_by_itself(self, monkeypatch):
        s, t = self.system(), self.system()
        before = (hash(s), repr(s))
        calls = self.count_checks(monkeypatch)
        io = statespace_to_io(s)
        assert s == t and (hash(s), repr(s)) == before == (hash(t), repr(t))
        io_t = statespace_to_io(t)
        assert io_t == io and io_t is not io
        assert len(calls) == 2

    def test_failed_check_keeps_nothing(self, monkeypatch):
        s = self.system()
        monkeypatch.setattr(behavior, "check_io_form", lambda sys: False)
        for _ in range(2):
            with pytest.raises(SelfCheckError):
                statespace_to_io(s)
        monkeypatch.undo()
        assert statespace_to_io(s) == io_of(s)

    def test_kept_form_stays_out_of_the_value(self):
        s = self.system()
        statespace_to_io(s)
        assert "IoSystem" not in repr(s)
        with pytest.raises(AttributeError):
            s.A = s.A
        assert StateSpace(s.A, s.B, s.C, s.D) == s


@st.composite
def integer_rank_deficient_instances(draw):
    """(R1, R2) with R1 an integer source of up to 6x7 at degree <= 2 and of
    rank r below its row count: T * G for r independent rows G and
    T = [F; X] of degree <= 1, in shuffled order. F = I makes every row a
    polynomial combination of G; a random square F usually is not unimodular,
    so some rows are only rational combinations of the others. Which rows the
    pass keeps depends on the order, so both kinds of dependent row occur
    either way. R2 is a left multiple of R1 (holds), of G (holds iff G lies
    in the row module of R1), or of R1 plus a constant (usually fails)."""
    cols = draw(st.integers(min_value=3, max_value=7))
    rank = draw(st.integers(min_value=1, max_value=5))
    rows = draw(st.integers(min_value=rank + 1, max_value=6))
    small = st.integers(min_value=-2, max_value=2)
    G = draw(poly_matrices(rank, cols, 1, small))
    assume(evaluation_rank(G) == rank)
    if draw(st.booleans()):
        F = PolyMatrix.identity(rank)
    else:
        F = draw(poly_matrices(rank, rank, 1, small))
        assume(evaluation_rank(F) == rank)
    T = vstack(F, draw(poly_matrices(rows - rank, rank, 1, small)))
    R1 = (T * G).take_rows(draw(st.permutations(range(rows))))
    q = draw(st.integers(min_value=1, max_value=2))
    mode = draw(st.sampled_from(("multiple", "base", "perturbed")))
    if mode == "base":
        R2 = draw(poly_matrices(q, rank, 1, small)) * G
    else:
        R2 = draw(poly_matrices(q, rows, 1, small)) * R1
    if mode == "perturbed":
        R2 = R2 + PolyMatrix([[ONE] + [ZERO] * (cols - 1)] + [[ZERO] * cols] * (q - 1))
    return R1, R2


@pytest.fixture
def echelon_calls(monkeypatch):
    """Count the `row_echelon` reductions that `behavior_included` runs."""
    calls = []

    def counted(a, ncols):
        calls.append(ncols)
        return row_echelon(a, ncols)

    monkeypatch.setattr(behavior, "row_echelon", counted)
    return calls


class TestInclusion:
    def test_s_in_s_squared(self):
        v = behavior_included(kernel([[S]]), kernel([[S**2]]))
        assert v.holds
        assert v.witnesses[0].multiplier == PolyMatrix([[S]])

    def test_s_squared_not_in_s(self):
        v = behavior_included(kernel([[S**2]]), kernel([[S]]))
        assert not v.holds
        (d,) = v.diagnostics
        assert d.startswith("multiplier is not polynomial:")
        assert "pivot s^2" in d
        assert d.endswith("remainder s")

    def test_rational_but_not_polynomial_multiplier(self):
        # [1, 0] = [1/s, -1/s^2] * R1, and no polynomial multiplier exists.
        R1, R2 = [[S, ONE], [ZERO, S]], [[ONE, ZERO]]
        v = behavior_included(kernel(R1, W2), kernel(R2, W2))
        assert not v.holds
        (d,) = v.diagnostics
        assert d.startswith("multiplier is not polynomial:")
        assert "pivot s^2" in d
        assert not inclusion_by_linear_solve(PolyMatrix(R1), PolyMatrix(R2))

    def test_target_outside_rational_row_space(self):
        v = behavior_included(kernel([[S, ZERO]], W2), kernel([[S, ONE]], W2))
        assert not v.holds
        (d,) = v.diagnostics
        assert d.startswith("no polynomial multiplier exists: row 0 ")
        assert "source column 1" in d

    @pytest.mark.parametrize(
        "R1, R2, want",
        [
            (
                [[ZERO, Poly([Fraction(1, 2), 1]), Poly([Fraction(1, 3)])],
                 [ZERO, ZERO, Poly([Fraction(-2, 5), Fraction(3, 4)])]],
                [[ZERO, Poly([Fraction(1, 7)]), Poly([0, Fraction(5, 6)])]],
                "multiplier is not polynomial: entry (0, 0) requires dividing 3/28*s - 2/35 "
                "by the pivot 3/4*s^2 - 1/40*s - 1/5 in source columns [1, 2], "
                "remainder 3/28*s - 2/35",
            ),
            (
                [[Poly([Fraction(1, 2), 1]), Poly([Fraction(1, 3)]), Poly([0, Fraction(2, 9)])],
                 [Poly([Fraction(5, 6)]), ZERO, Poly([Fraction(-2, 5), Fraction(3, 4)])]],
                [[Poly([Fraction(1, 2), Fraction(1, 7)]), Poly([Fraction(1, 6), 0, Fraction(5, 6)]),
                  Poly([1, Fraction(1, 8)])]],
                "no polynomial multiplier exists: row 0 is not a rational combination of the "
                "source rows in source column 2 (bordered minor -5/8*s^4 + 227/1296*s^3 "
                "+ 13/168*s^2 + 241/2268*s - 14/45)",
            ),
        ],
    )
    def test_rational_source_diagnostics(self, R1, R2, want):
        # Rows with different denominators, and in the first case a zero
        # source column that makes the pass permute rows: the printed pivot,
        # numerator and minor are those of the elimination over Q[s].
        v = behavior_included(kernel(R1, W3), kernel(R2, W3))
        assert not v.holds
        assert v.diagnostics == (want,)

    def test_rank_deficient_source_needs_transform(self):
        # Neither row of R1 divides [1, 0]; their combination -row0 + row1 does.
        r1 = kernel([[S, ZERO], [S + 1, ZERO]], W2)
        v = behavior_included(r1, kernel([[ONE, ZERO]], W2))
        assert v.holds
        assert v.witnesses[0].multiplier == PolyMatrix([[-ONE, ONE]])
        v = behavior_included(r1, kernel([[ZERO, ONE]], W2))
        assert not v.holds
        assert "source column 1" in v.diagnostics[0]

    def test_dependent_row_dropped_without_echelon(self, echelon_calls):
        # The last row is a * row0 + b * row1 with polynomial a and b.
        R0, R1 = [S, ONE, ZERO], [ONE, S + 2, S]
        a, b = S + 1, Poly([-2])
        src = [R0, R1, [a * x + b * y for x, y in zip(R0, R1)]]
        r2 = kernel([[S * x - y for x, y in zip(R0, R1)]], W3)
        v = behavior_included(kernel(src, W3), r2)
        assert v.holds
        assert echelon_calls == []
        M = v.witnesses[0].multiplier
        assert M.take_cols([2]).is_zero
        assert M * PolyMatrix(src) == r2.R

    def test_non_polynomial_dependence_falls_back_to_echelon(self, echelon_calls):
        v = behavior_included(kernel([[S, ZERO], [S + 1, ZERO]], W2), kernel([[ONE, ZERO]], W2))
        assert v.holds
        assert len(echelon_calls) == 1
        assert v.witnesses[0].multiplier == PolyMatrix([[-ONE, ONE]])

    @pytest.mark.parametrize(
        "R2, want",
        [
            (
                [[S, S + 1, S], [ONE, ZERO, ZERO]],
                "no polynomial multiplier exists: row 1 is not a rational combination of "
                "the source rows in source column 2 (bordered minor s)",
            ),
            (
                [[S, S + 1, S], [ZERO, ONE, ONE]],
                "multiplier is not polynomial: entry (1, 2) requires dividing s by the pivot "
                "s^2 in source columns [0, 1], remainder s",
            ),
        ],
    )
    def test_dropped_row_diagnostics(self, echelon_calls, R2, want):
        # Source rows b, (s + 1) * b, a: the pass keeps rows 0 and 2 and drops
        # row 1. The diagnostic counts the target's rows and names the
        # source row 2, not its place among the kept rows.
        b, a = [S, ONE, ZERO], [ZERO, S, S]
        src = [b, [(S + 1) * e for e in b], a]
        v = behavior_included(kernel(src, W3), kernel(R2, W3))
        assert not v.holds
        assert v.diagnostics == (want,)
        assert echelon_calls == []
        # Row 0 of R2 alone holds, with a zero multiplier column for row 1.
        v = behavior_included(kernel(src, W3), kernel(R2[:1], W3))
        assert v.witnesses[0].multiplier == PolyMatrix([[ONE, ZERO, ONE]])

    def test_zero_row_source(self):
        free = kernel([], W2)
        v = behavior_included(free, kernel([[ZERO, ZERO]], W2))
        assert v.holds
        assert v.witnesses[0].multiplier == PolyMatrix([[]], cols=0)
        v = behavior_included(free, kernel([[ZERO, S]], W2))
        assert not v.holds
        (d,) = v.diagnostics
        assert d.startswith("no polynomial multiplier exists:")
        assert "source column 1" in d

    def test_zero_row_target(self):
        everything = kernel([], W2)
        for R1 in ([[S, ONE]], [[S, ONE], [S**2, S]]):
            v = behavior_included(kernel(R1, W2), everything)
            assert v.holds
            assert v.witnesses[0].multiplier == PolyMatrix([], cols=len(R1))

    def test_full_space_only_contains_everything(self):
        free = kernel([], (("w", 1),))
        v = behavior_included(free, kernel([[S]]))
        assert not v.holds
        assert behavior_included(kernel([[S]]), free).holds

    def test_signal_mismatch(self):
        with pytest.raises(SignalSpaceError):
            behavior_included(kernel([[S]]), kernel([[S]], (("v", 1),)))

    def test_witness_validates_against_original_input(self):
        # Redundant-row r1: the witness must still multiply the original R1.
        r1 = kernel([[S, ZERO], [S**2, ZERO]], W2)
        r2 = kernel([[S**3, ZERO]], W2)
        v = behavior_included(r1, r2)
        assert v.holds
        w = v.witnesses[0]
        assert w.source == r1.R and w.target == r2.R
        assert w.multiplier * r1.R == r2.R

    def test_witness_constructor_rejects_bad_certificate(self):
        with pytest.raises(SelfCheckError):
            InclusionWitness(
                multiplier=PolyMatrix([[ONE]]),
                source=PolyMatrix([[S]]),
                target=PolyMatrix([[S**2]]),
            )

    def test_left_factor_inclusion_and_unimodular_equality(self):
        rng = random.Random(87)
        for _ in range(15):
            dim = rng.randint(1, 3)
            rows = rng.randint(1, 3)
            r = KernelRep(random_full_row_rank(rng, rows, dim + rows, 2), (("w", dim + rows),))
            left = random_matrix(rng, rng.randint(1, 2), rows, 1)
            assert behavior_included(r, KernelRep(left * r.R, r.signal_labels)).holds
            U = random_unimodular(rng, rows)
            assert behavior_equal(r, KernelRep(U * r.R, r.signal_labels)).holds

    def test_reflexive_transitive_with_composed_witness(self):
        rng = random.Random(19)
        for _ in range(10):
            dim = rng.randint(2, 3)
            r1 = KernelRep(random_full_row_rank(rng, 2, dim, 2), (("w", dim),))
            m1 = random_matrix(rng, 2, 2, 1)
            m2 = random_matrix(rng, 1, 2, 1)
            r2 = KernelRep(m1 * r1.R, r1.signal_labels)
            r3 = KernelRep(m2 * r2.R, r1.signal_labels)
            assert behavior_included(r1, r1).holds
            w12 = behavior_included(r1, r2).witnesses[0]
            w23 = behavior_included(r2, r3).witnesses[0]
            # The composed multiplier is itself a valid certificate.
            InclusionWitness(w23.multiplier * w12.multiplier, r1.R, r3.R)
            assert behavior_included(r1, r3).holds

    def test_agrees_with_linear_solve_oracle(self):
        rng = random.Random(71)
        checked = 0
        while checked < 40:
            dim = rng.randint(1, 3)
            rows = rng.randint(1, dim)
            R1 = random_full_row_rank(rng, rows, dim, 2)
            if rng.random() < 0.5:
                R2 = random_matrix(rng, rng.randint(1, 2), dim, 2)
            else:
                R2 = random_matrix(rng, rng.randint(1, 2), rows, 1) * R1
            got = behavior_included(
                KernelRep(R1, (("w", dim),)), KernelRep(R2, (("w", dim),))
            )
            assert got.holds == inclusion_by_linear_solve(R1, R2)
            checked += 1


    @settings(deadline=None, max_examples=80)
    @given(inclusion_instances())
    def test_matches_linear_solve_oracle(self, instance):
        R1, R2 = instance
        labels = (("w", R1.cols),)
        v = behavior_included(KernelRep(R1, labels), KernelRep(R2, labels))
        assert v.holds == inclusion_by_linear_solve(R1, R2)
        if v.holds:
            assert v.witnesses[0].multiplier * R1 == R2
        else:
            (d,) = v.diagnostics
            assert "multiplier" in d

    @settings(deadline=None, max_examples=40)
    @given(rational_inclusion_instances())
    def test_matches_linear_solve_oracle_rational(self, instance):
        R1, R2 = instance
        labels = (("w", R1.cols),)
        v = behavior_included(KernelRep(R1, labels), KernelRep(R2, labels))
        assert v.holds == inclusion_by_linear_solve(R1, R2)
        if v.holds:
            assert v.witnesses[0].multiplier * R1 == R2


    @settings(deadline=None, max_examples=40)
    @given(rank_deficient_rational_instances())
    def test_rank_deficient_rational_sources_match_oracle(self, instance):
        R1, R2 = instance
        labels = (("w", R1.cols),)
        v = behavior_included(KernelRep(R1, labels), KernelRep(R2, labels))
        assert v.holds == inclusion_by_linear_solve(R1, R2)
        if v.holds:
            assert v.witnesses[0].multiplier * R1 == R2
        else:
            (d,) = v.diagnostics
            assert "multiplier" in d


    @settings(deadline=None, max_examples=60)
    @given(integer_rank_deficient_instances())
    def test_integer_rank_deficient_sources_match_oracle(self, instance):
        R1, R2 = instance
        labels = (("w", R1.cols),)
        v = behavior_included(KernelRep(R1, labels), KernelRep(R2, labels))
        assert v.holds == inclusion_by_linear_solve(R1, R2)
        if v.holds:
            assert v.witnesses[0].multiplier * R1 == R2


class TestBehaviorEqual:
    def test_constant_factor(self):
        assert behavior_equal(kernel([[S]]), kernel([[2 * S]])).holds

    def test_not_equal(self):
        v = behavior_equal(kernel([[S]]), kernel([[S**2]]))
        assert not v.holds
        assert any("backward" in d for d in v.diagnostics)

    def test_two_witnesses(self):
        v = behavior_equal(kernel([[S]]), kernel([[3 * S]]))
        assert {w.label for w in v.witnesses} == {"forward", "backward"}


class TestInterconnect:
    def test_free_input_gives_full_output_behavior(self):
        integrator = IoSystem(PolyMatrix([[S]]), PolyMatrix([[ONE]]))
        env = KernelRep(PolyMatrix([], cols=1), (("u", 1),))
        out = interconnect(env, integrator)
        assert out.R.rows == 0

    def test_quarter_car_constrained_output(self):
        io = statespace_to_io(QUARTER_CAR)
        env = KernelRep(PolyMatrix([[S**2 + S + 1, -S - 1]]), (("u", 2),))
        out = interconnect(env, io)
        assert behavior_equal(out, KernelRep(PolyMatrix([[S**2]]), (("y", 1),))).holds

    def test_wheel_servo_with_grounded_assumptions(self):
        # The two-mass assumptions pin the wheel-servo output down to the
        # same zero-acceleration behavior.
        sys0 = StateSpace.from_lists(
            [[0, 1], [0, 0]], [[-1, 1], [-1, 2]], [[1, 0]], [[0, 1]]
        )
        env = KernelRep(
            PolyMatrix(
                [[S**2 + S + 1, -S - 1], [-S - 1, S**2 + S + 2]]
            ),
            (("u", 2),),
        )
        out = interconnect(env, statespace_to_io(sys0))
        assert behavior_equal(out, KernelRep(PolyMatrix([[S**2]]), (("y", 1),))).holds

    def test_dimension_mismatch(self):
        integrator = IoSystem(PolyMatrix([[S]]), PolyMatrix([[ONE]]))
        with pytest.raises(Exception):
            interconnect(KernelRep(PolyMatrix([[S, 1]]), (("u", 2),)), integrator)
