"""Representations, elimination and the inclusion decision procedure."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

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
    exp_membership,
    interconnect,
    is_autonomous,
    minimal_kernel,
    statespace_to_io,
    statespace_to_kernel,
    transfer_matrix,
)
from agverify.polyalg import ONE, S, ZERO
from agverify.polymatrix import PolyMatrix, hstack, rank_generic, vstack
from support import (
    eval_matrix,
    evaluation_rank,
    fraction_rank,
    inclusion_by_linear_solve,
    random_full_row_rank,
    random_matrix,
    random_statespace,
    random_unimodular,
)
from test_polymatrix import poly_matrices

W1 = (("w", 1),)
W2 = (("w", 2),)


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


class TestMinimalKernel:
    def test_dependent_rows_compress(self):
        k = kernel([[S, ZERO], [S**2, ZERO]], W2)
        mk = minimal_kernel(k)
        assert mk.R.rows == 1 and mk.minimal
        assert behavior_equal(k, mk).holds

    def test_already_minimal_same_row_count(self):
        k = kernel([[S, ONE]], W2)
        mk = minimal_kernel(k)
        assert mk.R.rows == 1
        assert behavior_equal(k, mk).holds

    def test_zero_matrix_gives_full_behavior(self):
        k = kernel([[ZERO, ZERO]], W2)
        assert minimal_kernel(k).R.rows == 0

    def test_flag_verified(self):
        with pytest.raises(ValueError):
            kernel([[S], [S]], W1, minimal=True)

    def test_rank_equals_rows_and_equivalence(self):
        rng = random.Random(31)
        for _ in range(20):
            rows, dim = rng.randint(1, 3), rng.randint(1, 3)
            k = kernel(
                [[p for p in random_matrix(rng, 1, dim, 2).entries[0]] for _ in range(rows)],
                (("w", dim),),
            )
            mk = minimal_kernel(k)
            assert rank_generic(mk.R) == mk.R.rows
            assert behavior_equal(k, mk).holds


    @settings(deadline=None, max_examples=60)
    @given(inclusion_sources())
    def test_full_row_rank_and_mutual_inclusion(self, R):
        mk = minimal_kernel(KernelRep(R, (("w", R.cols),)))
        assert evaluation_rank(mk.R) == mk.R.rows
        assert inclusion_by_linear_solve(R, mk.R)
        assert inclusion_by_linear_solve(mk.R, R)


class TestEliminateLatent:
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
            assert exp_membership(eliminate_latent(lat), lam, w0)
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
            from agverify.polymatrix import invert_ratmatrix

            assert invert_ratmatrix(io.P) * io.Q == transfer_matrix(sp)


class TestCheckIoForm:
    def test_integrator(self):
        assert check_io_form(IoSystem(PolyMatrix([[S]]), PolyMatrix([[ONE]])))

    def test_differentiator(self):
        assert not check_io_form(IoSystem(PolyMatrix([[ONE]]), PolyMatrix([[S]])))

    def test_singular(self):
        assert not check_io_form(IoSystem(PolyMatrix([[ZERO]]), PolyMatrix([[ONE]])))


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
        with pytest.raises(ValueError):
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


class TestAutonomous:
    def test_scalar(self):
        assert is_autonomous(kernel([[S]]))

    def test_full_behavior(self):
        assert not is_autonomous(kernel([], (("w", 1),)))

    def test_underdetermined(self):
        assert not is_autonomous(kernel([[S, -ONE]], W2))


class TestExpMembership:
    def test_constants(self):
        assert exp_membership(kernel([[S]]), 0, [1])

    def test_exponential(self):
        assert exp_membership(kernel([[S - 1]]), 1, [1])

    def test_rejected(self):
        assert not exp_membership(kernel([[S]]), 1, [1])

    def test_wrong_amplitude_length(self):
        with pytest.raises(Exception):
            exp_membership(kernel([[S]]), 0, [1, 2])
