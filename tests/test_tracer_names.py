"""The benchmark's tracer (perfbench/tracer.py) patches functions and methods
of the package by name; a name it reads that the package no longer has is a
failure here, not only in the benchmark's own checks."""

import importlib.util
from pathlib import Path

from agverify import behavior, cli
from agverify.polymatrix import PolyMatrix, smith_form

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_tracer_installs_and_restores():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)  # reads polyalg.RatFunc and poly_gcd
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
