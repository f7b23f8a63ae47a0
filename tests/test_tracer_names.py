"""The benchmark's tracer (perfbench/tracer.py) patches functions and methods
of the package by name; a name it reads that the package no longer has is a
failure here, not only in the benchmark's own checks."""

import ast
import importlib.util
import inspect
from pathlib import Path

from agverify import behavior, cli, polymatrix
from agverify.polymatrix import PolyMatrix, smith_form

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACER = PERFBENCH / "tracer.py"

# Functions deleted from the package whose per-layer metrics the benchmark
# still lists; they read 0 until the benchmark drops them.
RETIRED = ("determinant", "rank_generic", "is_proper")


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)  # reads polyalg.RatFunc and poly_gcd
    return tracer_module


def per_layer_spans() -> list[tuple[str, str]]:
    """(span name, statistic) of each per-layer metric in perfbench/run.py,
    read from its source without importing it."""
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    value = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and [getattr(t, "id", None) for t in node.targets] == ["PER_LAYER"])
    return [(span, stat) for _, _, span, stat in ast.literal_eval(value)]


def test_per_layer_spans_name_live_functions():
    # A span the tracer can no longer open reads 0, which looks like a gain.
    modules = {"behavior": behavior, "polymatrix": polymatrix}
    methods = {name for _, _, name in load_tracer().METHOD_SPANS}
    named = set()
    for span, stat in per_layer_spans():
        module, _, rest = span.partition(".")
        if module not in modules or stat == "peak" or span in methods:
            continue
        attr = rest.split(".")[0]  # behavior_included.holds opens the span behavior_included
        fn = getattr(modules[module], attr, None)
        named.add(attr)
        assert attr in RETIRED or (
            inspect.isfunction(fn) and fn.__module__ == modules[module].__name__
        ), f"per-layer span {span} names no function of agverify.{module}"
    for attr in RETIRED:
        assert attr in named, f"{attr} is no longer measured; drop it from RETIRED"
        assert not any(hasattr(m, attr) for m in modules.values()), f"{attr} is defined again"


def test_tracer_installs_and_restores():
    tracer_module = load_tracer()
    original = vars(PolyMatrix)["__mul__"]
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        assert vars(PolyMatrix)["__mul__"] is not original
        # The benchmark's own checks find the Smith form in behavior as well.
        assert behavior.smith_form is cli.smith_form is not smith_form
    finally:
        tracer.uninstall()
    assert vars(PolyMatrix)["__mul__"] is original
    assert behavior.smith_form is smith_form
