"""Per-layer tracing from outside the program.

`Tracer.install()` replaces the public functions of each agverify module,
plus a few methods, with wrappers. A function imported by name into another
module is patched there too (for example `agverify.behavior.smith_form` and
`agverify.cli.smith_form`), and `uninstall()` puts every original back.

Timed wrappers open a span per call. A span's self time is its duration minus
the durations of the spans it encloses; the tracer's own bookkeeping is
measured and taken out of every enclosing span, so the self times of all
spans add up to the traced time of the outermost ones. Spans are aggregated
in memory per name. The small-object methods of `polyalg` get counting
wrappers only: timing each of their many calls would swamp what they do, so
their time stays in the enclosing span's self time and their wrapper cost
shows in the reported tracing overhead.
"""

from __future__ import annotations

import inspect
import sys
from collections import defaultdict
from time import perf_counter

from agverify import behavior, cli, contracts, docparse, polyalg, polymatrix

MODULES = (docparse, cli, contracts, behavior, polymatrix)

# (owner, attribute, span name) for methods and private entry points.
METHOD_SPANS = (
    (cli, "_build_parser", "cli.build_parser"),
    (cli.Report, "render_text", "cli.render"),
    (cli.Report, "render_json", "cli.render"),
    (contracts.Contract, "__init__", "contracts.Contract.init"),
    (polymatrix.PolyMatrix, "__mul__", "polymatrix.PolyMatrix.mul"),
    (behavior.InclusionWitness, "__post_init__", "behavior.witness_check"),
)
COUNTERS = (
    (polyalg.Poly, "__mul__", "polyalg.Poly.mul"),
    (polyalg.Poly, "__rmul__", "polyalg.Poly.mul"),
    (polyalg.Poly, "__divmod__", "polyalg.Poly.divmod"),
    (polyalg, "poly_gcd", "polyalg.poly_gcd"),
    (polyalg.RatFunc, "__init__", "polyalg.RatFunc.new"),
)


def coefficient_bits(*matrices) -> int:
    """Largest bit length of a numerator or denominator in the matrices."""
    best = 0
    for M in matrices:
        for row in M.entries:
            for e in row:
                for c in e.coeffs:
                    best = max(best, c.numerator.bit_length(), c.denominator.bit_length())
    return best


def _smith_bits(tracer: "Tracer", args, result) -> None:
    tracer.peak("polymatrix.smith_form.transform_max_bits", coefficient_bits(result.U_inv, result.V_inv))
    factors = polymatrix.PolyMatrix([result.invariant_factors], cols=result.rank)
    tracer.peak("polymatrix.smith_form.factor_max_bits", coefficient_bits(factors))


def _witness_bits(tracer: "Tracer", args, result) -> None:
    tracer.peak("behavior.witness.max_bits", coefficient_bits(args[0].multiplier))


def _inclusion_outcome(verdict) -> str:
    return ".holds" if verdict.holds else ".fails"


HOOKS = {
    "polymatrix.smith_form": dict(after=_smith_bits),
    "behavior.behavior_included": dict(outcome=_inclusion_outcome),
    "behavior.witness_check": dict(after=_witness_bits),
}


class Tracer:
    """Span and counter aggregation; wrappers pass straight through until
    `on` is set, so answer checks between operations stay untraced."""

    def __init__(self):
        self.on = False
        self.spans: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])  # calls, incl s, self s
        self.counts: dict[str, int] = defaultdict(int)
        self.peaks: dict[str, int] = defaultdict(int)
        self.root_seconds = 0.0
        self.bookkeeping = 0.0
        self._stack: list[list[float]] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []

    def peak(self, name: str, value: int) -> None:
        self.peaks[name] = max(self.peaks[name], value)

    def _span(self, name: str, fn, outcome=None, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            entered = perf_counter()
            frame = [0.0, 0.0, 0.0]  # start, enclosed span time, bookkeeping at start
            tracer._stack.append(frame)
            tracer._depth[name] += 1
            start = perf_counter()
            tracer.bookkeeping += start - entered
            frame[0], frame[2] = start, tracer.bookkeeping
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = perf_counter()
                tracer._close(name, name + ".error", frame, end)
                tracer.bookkeeping += perf_counter() - end
                raise
            end = perf_counter()
            tracer._close(name, name + outcome(result) if outcome else name, frame, end)
            if after is not None:
                after(tracer, args, result)
            tracer.bookkeeping += perf_counter() - end
            return result

        return wrapper

    def _close(self, name: str, record: str, frame: list[float], end: float) -> None:
        self._stack.pop()
        duration = (end - frame[0]) - (self.bookkeeping - frame[2])
        if self._stack:
            self._stack[-1][1] += duration
        else:
            self.root_seconds += duration
        self._depth[name] -= 1
        row = self.spans[record]
        row[0] += 1
        row[2] += duration - frame[1]
        if self._depth[name] == 0:  # inclusive time counts the outermost call only
            row[1] += duration

    def _counter(self, name: str, fn):
        tracer = self
        counts = self.counts

        def wrapper(*args, **kwargs):
            if tracer.on:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr: str, replacement) -> None:
        original = vars(owner)[attr]
        if not inspect.ismodule(owner):
            self._patches.append((owner, attr, original))
            setattr(owner, attr, replacement)
            return
        # A module-level function: patch every agverify module holding it.
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or mod_name.split(".")[0] != "agverify":
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, name, original))
                    setattr(mod, name, replacement)

    def install(self) -> None:
        for mod in MODULES:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                self._patch(mod, attr, self._span(name, fn, **HOOKS.get(name, {})))
        for owner, attr, name in METHOD_SPANS:
            self._patch(owner, attr, self._span(name, vars(owner)[attr], **HOOKS.get(name, {})))
        for owner, attr, name in COUNTERS:
            self._patch(owner, attr, self._counter(name, vars(owner)[attr]))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
