"""Checks on the benchmark itself.

    python3 -m pytest perfbench
"""

import inspect
import json
import random
from pathlib import Path

import pytest

from run import END_TO_END_UNITS, PER_LAYER, TRACE_METRICS, import_checkout_package

agverify = import_checkout_package()

import workloads  # noqa: E402
from agverify import Contract, KernelRep, Poly, PolyMatrix, StateSpace, contracts  # noqa: E402
from checks import (  # noqa: E402
    Implementation,
    implementation_refuted,
    inclusion_refuted,
    p_add,
    program_matrix,
)
from support import inclusion_by_linear_solve  # noqa: E402
from tracer import Tracer  # noqa: E402

PROGRAM_MODULES = [agverify] + [
    getattr(agverify, name) for name in ("behavior", "cli", "contracts", "docparse", "polyalg", "polymatrix")
]

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_seed_gives_identical_instances(workload):
    generate = workloads.GENERATE[workload]
    assert generate(7) == generate(7)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_two_seeds_give_different_instances(workload):
    generate = workloads.GENERATE[workload]
    assert generate(7) != generate(8)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generation_runs_no_program_code(workload, monkeypatch):
    """Inputs and expected answers must not depend on the code under test,
    or a parent commit and a change would measure different work: with every
    function and method of agverify replaced by one that fails, generation
    still gives the same instance."""
    expected = workloads.GENERATE[workload](5)

    def refuse(*args, **kwargs):
        raise AssertionError("instance generation called agverify")

    for module in PROGRAM_MODULES:
        for name, value in list(vars(module).items()):
            if getattr(value, "__module__", "").startswith("agverify"):
                if inspect.isfunction(value):
                    monkeypatch.setattr(module, name, refuse)
                elif inspect.isclass(value):
                    for attr, member in list(vars(value).items()):
                        if inspect.isfunction(member) or isinstance(
                            member, (classmethod, staticmethod, property)
                        ):
                            monkeypatch.setattr(value, attr, refuse)
    assert workloads.GENERATE[workload](5) == expected


def _program_verdict(A, B, C, D, env, G) -> bool:
    def matrix(M):
        return PolyMatrix([[Poly(e) for e in row] for row in M], cols=len(M[0]))

    contract = Contract(KernelRep(matrix(env), (("u", 2),)), KernelRep(matrix(G), (("y", 2),)))
    return contracts.implements(StateSpace.from_lists(A, B, C, D), contract).holds


@pytest.mark.parametrize("kind", ("coupled", "decoupled", "common_factor"))
def test_implementation_oracle_agrees_with_program(kind):
    """On small systems, `checks.Implementation` and `contracts.implements`
    agree on rows that the oracle says hold and on perturbations of them."""
    rng = random.Random(f"oracle {kind}")
    checked = 0
    for trial in range(6):
        n = 2 + trial % 2
        A, B, C, D = ([[rng.randint(-3, 3) for _ in range(c)] for _ in range(r)]
                      for r, c in ((n, n), (n, 2), (2, n), (2, 2)))
        env = workloads.assumption_equation(rng, kind, free_input=trial % 2)
        imp = Implementation(A, B, C, D, env[0])
        good = workloads.holding_guarantee(rng, imp)
        if good is None:
            continue
        bad = [p_add(e, workloads.exact_poly(rng, 1)) for e in good]
        assert imp.holds([good]) and _program_verdict(A, B, C, D, env, [good])
        refuted = implementation_refuted(A, B, C, D, env, [bad])
        assert imp.holds([bad]) == _program_verdict(A, B, C, D, env, [bad])
        assert not (refuted and imp.holds([bad]))
        checked += 1
    assert checked >= 4


def test_implements_ss_expected_verdicts_are_exact():
    """Every contract of an instance gets its expected verdict from the
    exact oracle, not only from construction or the rank test."""
    instance = workloads.generate_implements_ss(3)
    doc = workloads.load_document(instance.document)
    systems = workloads.implements_systems()
    for op in instance.ops:
        A, B, C, D = systems[int(op.args[0][1:])]
        env = program_matrix(doc[f"{op.args[1]}_A"].value.R)
        G = program_matrix(doc[f"{op.args[1]}_G"].value.R)
        assert Implementation(A, B, C, D, env[0]).holds(G) == op.expect


def test_rank_refutation_agrees_with_linear_solve_oracle():
    """On the k = 4 sources, every expected verdict matches the
    coefficient-matching oracle of the test suite."""
    doc = workloads.load_document(workloads.generate_inclusion_kxk(3).document)
    checked = 0
    for op in workloads.generate_inclusion_kxk(3).ops:
        R1, R2 = doc[op.args[0]].value.R, doc[op.args[1]].value.R
        if R1.cols != 4:
            continue
        assert inclusion_by_linear_solve(R1, R2) == op.expect
        assert inclusion_refuted(program_matrix(R1), program_matrix(R2)) == (not op.expect)
        checked += 1
    assert checked == 8


def test_tracer_restores_every_original():
    modules = [m for name, m in sorted(vars(agverify).items()) if name in
               ("behavior", "cli", "contracts", "docparse", "polyalg", "polymatrix")]
    before = [dict(vars(m)) for m in modules] + [
        dict(vars(c)) for c in (agverify.Poly, agverify.PolyMatrix, agverify.Contract)
    ]
    tracer = Tracer()
    tracer.install()
    assert agverify.behavior.smith_form is agverify.cli.smith_form
    assert agverify.behavior.smith_form is not before[0]["smith_form"]
    tracer.uninstall()
    after = [dict(vars(m)) for m in modules] + [
        dict(vars(c)) for c in (agverify.Poly, agverify.PolyMatrix, agverify.Contract)
    ]
    assert after == before


def test_benchmark_json_names_what_run_reports():
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(END_TO_END_UNITS)
    assert [m["unit"] for m in BENCHMARK["end_to_end"]] == list(END_TO_END_UNITS.values())
    layer = [(m, u) for m, u, _, _ in PER_LAYER] + list(TRACE_METRICS)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == layer
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
