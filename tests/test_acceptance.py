"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines. All comparisons are exact (zero tolerance); the only thresholds are
wall-clock budgets.
"""

import random
from contextlib import contextmanager


import agverify
from agverify import (
    Contract,
    KernelRep,
    PolyMatrix,
    behavior_equal,
    behavior_included,
    conjunction,
    env_compatible,
    implements,
    interconnect,
    is_unimodular,
    refines,
    smith_form,
    statespace_to_io,
)
from agverify.cli import main as cli_main
from agverify.docparse import parse_document, parse_documents
from agverify.polyalg import S
from agverify.polymatrix import vstack
from support import (
    budget,
    inclusion_by_linear_solve,
    random_full_row_rank,
    random_matrix,
    random_statespace,
    transfer_identity_holds,
)

CORPUS_FILES = sorted(str(p) for p in agverify.corpus_dir().glob("*.ag"))
DOC = parse_documents([(f, open(f).read()) for f in CORPUS_FILES])

SYS = DOC.get("S").value
SYS0 = DOC.get("S0").value
C = DOC.get("C").value
C0 = DOC.get("C0").value
C1 = DOC.get("C1").value
C2 = DOC.get("C2").value
KER_A1 = DOC.get("A1").value
KER_A2 = DOC.get("A2").value


@contextmanager
def criterion(num: str, label: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {num}] FAIL - {label}")
        raise
    print(f"[criterion {num}] PASS - {label}")


def test_criterion_1_quarter_car_implementation(capsys):
    with criterion("1", "quarter-car system implements its contract, with certificate"):
        with budget(1.0, "implements(S, C)"):
            v = implements(SYS, C)
            assert v.holds
            w = v.witness("guarantees")
            assert w.multiplier * w.source == w.target
            assert w.target == C.guarantees.R

            out = interconnect(C.assumptions, statespace_to_io(SYS))
            target = KernelRep(PolyMatrix([[S**2]]), (("y", 1),))
            assert behavior_equal(out, target).holds

        with budget(1.0, "CLI implements S C"):
            assert cli_main(["implements", "S", "C", *CORPUS_FILES]) == 0
        capsys.readouterr()


def test_criterion_2_negative_and_weakened_contract(capsys):
    with criterion("2", "wheel-servo system fails C with a diagnostic, implements C0"):
        with budget(1.0, "implements(S0, C)"):
            v = implements(SYS0, C)
            assert not v.holds
            assert v.diagnostics and any(
                "multiplier" in d or "invariant factor" in d for d in v.diagnostics
            )
        with budget(1.0, "implements(S0, C0)"):
            assert implements(SYS0, C0).holds
        with budget(1.0, "CLI exit codes"):
            assert cli_main(["implements", "S0", "C", *CORPUS_FILES]) == 1
            assert cli_main(["implements", "S0", "C0", *CORPUS_FILES]) == 0
        capsys.readouterr()


def test_criterion_3_refinement_lattice():
    with criterion("3", "refinement lattice of the corpus reproduced exactly"):
        conj = conjunction(C1, C2)
        positive = [
            ("C refines C0", C, C0),
            ("C refines C1", C, C1),
            ("C refines C2", C, C2),
            ("C1 refines C0", C1, C0),
            ("C2 refines C0", C2, C0),
            ("C refines C1^C2", C, conj),
            ("C1^C2 refines C0", conj, C0),
        ]
        for label, a, b in positive:
            with budget(1.0, label):
                assert refines(a, b).holds, label
        with budget(1.0, "C0 does not refine C"):
            assert not refines(C0, C).holds


def test_criterion_4_conjunction_correctness():
    with criterion("4", "conjunction: assumption join, guarantee meet, implementation"):
        conj = conjunction(C1, C2)
        assert behavior_included(KER_A1, conj.assumptions.with_signal_labels(KER_A1.signal_labels)).holds
        assert behavior_included(KER_A2, conj.assumptions.with_signal_labels(KER_A2.signal_labels)).holds
        # G1 = G2 = G here, so the meet is behavior-equal to G itself.
        assert behavior_equal(conj.guarantees, C.guarantees).holds
        assert implements(SYS, conj).holds


def test_criterion_5a_smith_property_suite():
    with criterion("5a", "Smith reconstruction/unimodularity/divisibility on 500 matrices"):
        with budget(60.0, "500 Smith decompositions"):
            rng = random.Random(20250809)
            for _ in range(500):
                rows, cols = rng.randint(1, 4), rng.randint(1, 4)
                M = random_matrix(rng, rows, cols, max_deg=3)
                sd = smith_form(M)
                assert sd.reconstruct() == M
                assert is_unimodular(sd.U) and is_unimodular(sd.V)
                assert sd.U * sd.U_inv == PolyMatrix.identity(rows)
                assert sd.V * sd.V_inv == PolyMatrix.identity(cols)
                for a, b in zip(sd.invariant_factors, sd.invariant_factors[1:]):
                    assert (b % a).is_zero


def test_criterion_5b_inclusion_matches_linear_solve_oracle():
    with criterion("5b", "inclusion decision agrees with coefficient-matching oracle, 200 pairs"):
        with budget(60.0, "200 inclusion decisions with oracle"):
            rng = random.Random(20250810)
            for _ in range(200):
                dim = rng.randint(1, 3)
                rows = rng.randint(1, dim)
                R1 = random_full_row_rank(rng, rows, dim, max_deg=3)
                if rng.random() < 0.5:
                    R2 = random_matrix(rng, rng.randint(1, 2), dim, max_deg=3)
                else:
                    R2 = random_matrix(rng, rng.randint(1, 2), rows, max_deg=2) * R1
                verdict = behavior_included(
                    KernelRep(R1, (("w", dim),)), KernelRep(R2, (("w", dim),))
                )
                assert verdict.holds == inclusion_by_linear_solve(R1, R2)
                if verdict.holds:
                    w = verdict.witnesses[0]
                    assert w.multiplier * R1 == R2


def test_criterion_5c_transfer_function_cross_check():
    with criterion("5c", "io-form transfer matrix equals state-space transfer matrix, 200 systems"):
        with budget(60.0, "200 state-space conversions"):
            rng = random.Random(20250811)
            for _ in range(200):
                sp = random_statespace(rng, max_n=4, max_m=2, max_p=2)
                io = statespace_to_io(sp)
                assert transfer_identity_holds(sp, io.P, io.Q)


def _related_contract_family(rng: random.Random, m: int, p: int):
    """Contracts with refinement relations that hold by construction.

    Refinement needs the refined contract's assumptions *contained* in the
    refining one's, and the refining guarantees contained in the refined
    ones. Containment is manufactured two ways: stacking extra rows onto a
    kernel shrinks its behavior (the original is a projection of the stack),
    and left-multiplying by any polynomial matrix grows it.

    Returns (c_strong, c1, c2, c_weak) with: c_strong refines c1 and c2,
    c1 refines c_weak (hence c_strong refines c_weak by transitivity).
    """
    u, y = (("u", m),), (("y", p),)
    A_s = random_full_row_rank(rng, rng.randint(1, m), m, 2)
    G_s = random_full_row_rank(rng, rng.randint(1, p), p, 2)
    c_strong = Contract(KernelRep(A_s, u), KernelRep(G_s, y))
    pair = []
    for _ in range(2):
        extra = random_matrix(rng, rng.randint(1, 2), m, 2)
        L = random_matrix(rng, rng.randint(1, 2), G_s.rows, 1)
        pair.append(
            Contract(KernelRep(vstack(A_s, extra), u), KernelRep(L * G_s, y))
        )
    c1, c2 = pair
    extra = random_matrix(rng, rng.randint(1, 2), m, 2)
    Lg = random_matrix(rng, rng.randint(1, 2), c1.guarantees.R.rows, 1)
    c_weak = Contract(
        KernelRep(vstack(c1.assumptions.R, extra), u),
        KernelRep(Lg * c1.guarantees.R, y),
    )
    return c_strong, c1, c2, c_weak


def test_criterion_5d_contract_property_suite():
    with criterion("5d", "refinement preorder, conjunction and monotonicity on 100 contract pairs"):
        with budget(120.0, "100 contract-pair property checks"):
            rng = random.Random(20250812)
            for i in range(100):
                m, p = rng.randint(1, 2), rng.randint(1, 2)
                c_strong, c1, c2, c_weak = _related_contract_family(rng, m, p)

                # Preorder: reflexivity and (constructed) transitivity.
                assert refines(c1, c1).holds
                assert refines(c_strong, c1).holds
                assert refines(c1, c_weak).holds
                assert refines(c_strong, c_weak).holds

                # Conjunction refines both arguments...
                conj = conjunction(c1, c2)
                assert refines(conj, c1).holds
                assert refines(conj, c2).holds
                # ... and is the largest such contract at test scale.
                assert refines(c_strong, conj).holds

                # Compatibility anti-monotonicity: anything compatible with the
                # weaker contract is compatible with the refining one.
                env = c_weak.assumptions
                assert env_compatible(env, c_weak).holds
                assert env_compatible(env, c1).holds

                # Implementation monotonicity on every fourth iteration (the
                # state-space runs dominate the runtime).
                if i % 4 == 0:
                    sp = random_statespace(rng, max_n=2, max_m=m, max_p=p)
                    # Force m inputs, p outputs exactly.
                    while sp.m != m or sp.p != p:
                        sp = random_statespace(rng, max_n=2, max_m=m, max_p=p)
                    io = statespace_to_io(sp)
                    out = interconnect(c1.assumptions, io)
                    N = random_matrix(rng, rng.randint(1, 2), out.R.rows, 1)
                    g1 = KernelRep(N * out.R, (("y", p),))
                    ci = Contract(c1.assumptions, g1)
                    extra = random_matrix(rng, rng.randint(1, 2), m, 2)
                    Lg = random_matrix(rng, rng.randint(1, 2), ci.guarantees.R.rows, 1)
                    cw = Contract(
                        KernelRep(vstack(ci.assumptions.R, extra), (("u", m),)),
                        KernelRep(Lg * ci.guarantees.R, (("y", p),)),
                    )
                    assert implements(sp, ci).holds
                    assert refines(ci, cw).holds
                    assert implements(sp, cw).holds


def test_criterion_6_cli_round_trip(tmp_path, capsys):
    with criterion("6", "conjoin outputs re-parse and re-verify over the full corpus"):
        names = ["C", "C0", "C1", "C2"]
        for a in names:
            for b in names:
                if a == b:
                    continue
                out_file = tmp_path / f"{a}_{b}.ag"
                code = cli_main(["conjoin", a, b, "--out", str(out_file), *CORPUS_FILES])
                assert code == 0
                text = out_file.read_text()
                reparsed = parse_document(text, source=str(out_file))
                assert f"{a}_and_{b}" in reparsed.definitions
                for other in (a, b):
                    code = cli_main(
                        ["refines", f"{a}_and_{b}", other, str(out_file), *CORPUS_FILES]
                    )
                    assert code == 0, f"{a}_and_{b} should refine {other}"

        # Exit-code contract: 0 holds, 1 fails, 2 parse/validation error.
        assert cli_main(["refines", "C", "C0", *CORPUS_FILES]) == 0
        assert cli_main(["refines", "C0", "C", *CORPUS_FILES]) == 1
        bad = tmp_path / "bad.ag"
        bad.write_text("kernel K { vars y:1 R [[s^2+, 1]] }")
        assert cli_main(["include", "K", "K", str(bad)]) == 2
        assert cli_main(["implements", "missing", "C", *CORPUS_FILES]) == 2
        capsys.readouterr()
