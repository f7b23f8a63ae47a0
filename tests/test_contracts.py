"""Contract calculus: compatibility, implementation, refinement, conjunction."""

import random
from fractions import Fraction

import pytest

import agverify
from agverify import behavior, contracts
from agverify.behavior import (
    InclusionWitness,
    IoSystem,
    KernelRep,
    StateSpace,
    behavior_equal,
    behavior_included,
    check_io_form,
    statespace_to_io,
)
from agverify.contracts import (
    Contract,
    IoFormError,
    conjunction,
    env_compatible,
    implements,
    join_assumptions,
    meet_guarantees,
    refines,
)
from agverify.docparse import parse_documents
from agverify.polyalg import ONE, S, ZERO, Poly, poly_gcd
from agverify.polymatrix import DimensionError, PolyMatrix
from support import join_reference, random_matrix, random_poly

U2 = (("u", 2),)
U1 = (("u", 1),)
Y1 = (("y", 1),)


def kern(entries, labels):
    return KernelRep(PolyMatrix(entries, cols=sum(d for _, d in labels)), labels)


# Quarter-car corpus with unit parameters.
A = kern([[S**2 + S + 1, -S - 1]], U2)
A0 = kern([[S**2 + S + 1, -S - 1], [-S - 1, S**2 + S + 2]], U2)
A1 = kern([[S**2 + S + 1, -S - 1], [-(S**2) - S, S**3 + S**2 + 2 * S]], U2)
A2 = kern(
    [[S**2 + S + 1, -S - 1], [-(S**3) - S**2 - S - 1, S**4 + S**3 + 3 * S**2 + S + 2]], U2
)
G = kern([[S**2]], Y1)

C = Contract(A, G)
C0 = Contract(A0, G)
C1 = Contract(A1, G)
C2 = Contract(A2, G)

SYS = StateSpace.from_lists([[0, 1], [0, 0]], [[1, -1], [1, -1]], [[1, 0]], [[1, 0]])
SYS0 = StateSpace.from_lists([[0, 1], [0, 0]], [[-1, 1], [-1, 2]], [[1, 0]], [[0, 1]])


@pytest.mark.parametrize(
    "value, attribute",
    [(C, "guarantees"), (A, "R"), (SYS, "A"), (statespace_to_io(SYS), "P")],
)
def test_value_types_reject_assignment(value, attribute):
    with pytest.raises(AttributeError):
        setattr(value, attribute, getattr(value, attribute))


class TestEnvCompatible:
    def test_assumptions_are_compatible_with_themselves(self):
        assert env_compatible(A, C).holds

    def test_quarter_car_a0_compatible_with_c(self):
        assert env_compatible(A0, C).holds

    def test_unconstrained_environment_incompatible(self):
        free = KernelRep(PolyMatrix([], cols=2), U2)
        assert not env_compatible(free, C).holds


class TestImplements:
    def test_quarter_car_implements(self):
        v = implements(SYS, C)
        assert v.holds
        w = v.witness("guarantees")
        assert w.multiplier * w.source == w.target
        assert w.target == G.R

    def test_sys0_does_not_implement_c(self):
        v = implements(SYS0, C)
        assert not v.holds
        assert v.diagnostics

    def test_sys0_implements_c0(self):
        assert implements(SYS0, C0).holds

    def test_io_system_accepted(self):
        assert implements(statespace_to_io(SYS), C).holds

    def test_non_io_form_rejected(self):
        differentiator = IoSystem(PolyMatrix([[ONE]]), PolyMatrix([[S, ZERO]]))
        with pytest.raises(IoFormError):
            implements(differentiator, C)

    def test_one_conversion_for_several_contracts(self, monkeypatch):
        lattice = (C, C0, C1, C2)
        expected = [implements(SYS, c).holds for c in lattice]
        checked = []

        def counted(sys):
            checked.append(sys)
            return check_io_form(sys)

        monkeypatch.setattr(behavior, "check_io_form", counted)
        system = StateSpace(SYS.A, SYS.B, SYS.C, SYS.D)
        assert [implements(system, c).holds for c in lattice] == expected
        assert checked == [statespace_to_io(system)]

    def test_dimensions_checked_before_conversion(self, monkeypatch):
        def fail(system):
            raise AssertionError("converted before the dimension check")

        monkeypatch.setattr(contracts, "statespace_to_io", fail)
        monkeypatch.setattr(contracts, "check_io_form", fail)
        single_input = Contract(kern([[S + 1]], U1), G)
        # SYS, and a 2-input system not in input-output form.
        differentiator = IoSystem(PolyMatrix([[ONE]]), PolyMatrix([[S, ZERO]]))
        for system in (SYS, differentiator):
            with pytest.raises(DimensionError) as exc:
                implements(system, single_input)
            assert str(exc.value) == "system is 2-input 1-output, contract expects 1-input 1-output"


class TestRefines:
    def test_quarter_car_lattice(self):
        assert refines(C, C0).holds
        assert refines(C, C1).holds
        assert refines(C, C2).holds
        assert refines(C1, C0).holds
        assert refines(C2, C0).holds
        assert not refines(C0, C).holds

    def test_reflexive(self):
        for c in (C, C0, C1, C2):
            assert refines(c, c).holds

    def test_witness_labels(self):
        v = refines(C, C0)
        assert {w.label for w in v.witnesses} == {"assumptions", "guarantees"}

    def test_failure_names_the_side(self):
        v = refines(C0, C)
        assert any(d.startswith("assumption inclusion fails") for d in v.diagnostics)


class TestJoinMeet:
    def test_join_scalar_is_lcm(self):
        # Sum of scalar kernels is the kernel of the lcm.
        a1 = kern([[S]], U1)
        a2 = kern([[S - 1]], U1)
        j = join_assumptions(a1, a2)
        assert behavior_equal(j, kern([[S * (S - 1)]], U1)).holds
        assert sum(p.degree for p in (j.R[0, 0],)) == 2

    def test_join_idempotent(self):
        a = kern([[S**2 + 1]], U1)
        assert behavior_equal(join_assumptions(a, a), a).holds

    def test_join_with_full_space(self):
        a = kern([[S]], U1)
        free = KernelRep(PolyMatrix([], cols=1), U1)
        assert join_assumptions(a, free).R.rows == 0

    def test_meet_scalar_is_gcd(self):
        # Intersection of scalar kernels is the kernel of the gcd: here the
        # factors are coprime so only the zero trajectory survives.
        g1 = kern([[S]], Y1)
        g2 = kern([[S - 1]], Y1)
        met = meet_guarantees(g1, g2)
        assert behavior_equal(met, kern([[ONE]], Y1)).holds

    def test_meet_idempotent(self):
        g = kern([[S**2]], Y1)
        assert behavior_equal(meet_guarantees(g, g), g).holds

    def test_meet_with_full_space(self):
        g = kern([[S**2]], Y1)
        free = KernelRep(PolyMatrix([], cols=1), Y1)
        assert behavior_equal(meet_guarantees(g, free), g).holds

    def test_scalar_oracle_random(self):
        rng = random.Random(131)
        for _ in range(20):
            p = random_poly(rng, 3, nonzero=True)
            q = random_poly(rng, 3, nonzero=True)
            a1, a2 = kern([[p]], U1), kern([[q]], U1)
            assert behavior_equal(
                join_assumptions(a1, a2), kern([[p * q // poly_gcd(p, q)]], U1)
            ).holds
            assert behavior_equal(
                meet_guarantees(a1, a2), kern([[poly_gcd(p, q)]], U1)
            ).holds

    def test_join_equals_two_copy_reference(self):
        # One latent copy of u yields the very matrix that two copies yield.
        files = sorted(agverify.corpus_dir().glob("*.ag"))
        doc = parse_documents([(str(f), f.read_text()) for f in files])
        corpus = [doc.get(name).value for name in ("A", "A0", "A1", "A2")]
        pairs = [(a1, a2) for a1 in corpus for a2 in corpus]
        rng = random.Random(2000)

        def kernel(m):
            # Up to 5 rows of degree at most 3: some rational, some with a
            # dependent row, some with no row at all.
            rational = rng.random() < 0.4
            rows = [
                [Poly([Fraction(c, rng.randint(1, 4) if rational else 1)
                       for c in random_poly(rng).num]) for _ in range(m)]
                for _ in range(rng.randint(0, 5))
            ]
            if rows and rng.random() < 0.3:
                q, i, j = random_poly(rng, 1), rng.randrange(len(rows)), rng.randrange(len(rows))
                rows.append([q * a + b for a, b in zip(rows[i], rows[j])])
            return KernelRep(PolyMatrix(rows, cols=m), (("u", m),))

        for _ in range(500):
            m = rng.randint(1, 4)
            pairs.append((kernel(m), kernel(m)))
        assert sum(not a.R.rows or not b.R.rows for a, b in pairs) > 50
        for a1, a2 in pairs:
            assert join_assumptions(a1, a2).R == join_reference(a1, a2).R

    def test_join_contains_both_and_meet_contained_in_both(self):
        rng = random.Random(17)
        for _ in range(10):
            dim = rng.randint(1, 2)
            labels = (("u", dim),)
            a1 = KernelRep(random_matrix(rng, rng.randint(1, 2), dim, 2), labels)
            a2 = KernelRep(random_matrix(rng, rng.randint(1, 2), dim, 2), labels)
            j = join_assumptions(a1, a2)
            assert behavior_included(a1, j).holds
            assert behavior_included(a2, j).holds
            met = meet_guarantees(a1, a2)
            assert behavior_included(met, a1).holds
            assert behavior_included(met, a2).holds


class TestConjunction:
    def test_quarter_car_conjunction(self):
        cj = conjunction(C1, C2)
        assert behavior_equal(cj.guarantees, G).holds
        assert refines(C, cj).holds
        assert refines(cj, C0).holds
        assert implements(SYS, cj).holds

    def test_conjunction_refines_both(self):
        cj = conjunction(C1, C2)
        assert refines(cj, C1).holds
        assert refines(cj, C2).holds

    def test_idempotent(self):
        cj = conjunction(C, C)
        assert behavior_equal(cj.assumptions, C.assumptions).holds
        assert behavior_equal(cj.guarantees, C.guarantees).holds

    def test_largest_property_on_quarter_car(self):
        # C refines both C1 and C2, so it must refine their conjunction.
        cj = conjunction(C1, C2)
        assert refines(C, C1).holds and refines(C, C2).holds
        assert refines(C, cj).holds


class TestContractType:
    def test_stored_as_given(self):
        a = kern([[S], [S]], U1)
        c = Contract(a, G)
        assert c.assumptions is a and c.guarantees is G

    def test_dimensions(self):
        assert C.input_dim == 2 and C.output_dim == 1

    def test_dimension_mismatch_rejected(self):
        other = Contract(kern([[S]], U1), G)
        with pytest.raises(Exception):
            refines(C, other)


class TestWitnessChecks:
    @pytest.mark.parametrize(
        "decide, args, labels",
        [
            (implements, (SYS, C), ["guarantees"]),
            (refines, (C, C0), ["assumptions", "guarantees"]),
            (env_compatible, (A0, C), ["assumptions"]),
            (behavior_equal, (A1, A1), ["forward", "backward"]),
        ],
    )
    def test_each_witness_is_checked_once(self, monkeypatch, decide, args, labels):
        # A witness is built with its label, so its self-check runs once.
        check = InclusionWitness.__post_init__
        checked = []

        def counting_check(w):
            checked.append(w.label)
            check(w)

        monkeypatch.setattr(InclusionWitness, "__post_init__", counting_check)
        verdict = decide(*args)
        assert verdict.holds
        assert checked == labels
        assert [w.label for w in verdict.witnesses] == labels
