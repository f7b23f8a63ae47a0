"""agverify benchmark: one client, closed loop, three workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload implements_ss --seed 1 --seconds 30 --trace 0

The package is imported from this checkout's `src/`, never from an installed
copy. The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; the lines above it are a readable
summary. `--trace 0` reports end-to-end metrics, `--trace 1` per-layer ones
(see README.md in this directory).
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_OPS = 100  # so that at least ten measurements lie beyond p90
MIN_PASSES = 3  # so that each operation's median ignores one outlier
SETUP_REPEATS = 21  # odd, so the median is one measured probe
PROBE_TIMEOUT_S = 60

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "holds_p50_ms": "ms",
    "fails_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# (metric, unit, span or counter name, statistic). Times and calls are per
# operation of the traced phase; bit lengths are maxima over the phase.
PER_LAYER = (
    ("docparse.parse_documents.self_ms", "ms", "docparse.parse_documents", "self"),
    ("docparse.parse_documents.calls", "count", "docparse.parse_documents", "calls"),
    ("contracts.Contract.init_ms", "ms", "contracts.Contract.init", "incl"),
    ("cli.build_parser_ms", "ms", "cli.build_parser", "incl"),
    ("cli.run_command.self_ms", "ms", "cli.run_command", "self"),
    ("cli.render_ms", "ms", "cli.render", "incl"),
    ("behavior.check_io_form.ms", "ms", "behavior.check_io_form", "incl"),
    ("polymatrix.is_proper.ms", "ms", "polymatrix.is_proper", "incl"),
    ("polymatrix.smith_form.ms", "ms", "polymatrix.smith_form", "incl"),
    ("polymatrix.smith_form.calls", "count", "polymatrix.smith_form", "calls"),
    ("polymatrix.smith_form.transform_max_bits", "bits", "polymatrix.smith_form.transform_max_bits", "peak"),
    ("polymatrix.smith_form.factor_max_bits", "bits", "polymatrix.smith_form.factor_max_bits", "peak"),
    ("behavior.behavior_included.holds.self_ms", "ms", "behavior.behavior_included.holds", "self"),
    ("behavior.behavior_included.fails.self_ms", "ms", "behavior.behavior_included.fails", "self"),
    ("behavior.witness_check.ms", "ms", "behavior.witness_check", "incl"),
    ("behavior.witness.max_bits", "bits", "behavior.witness.max_bits", "peak"),
    ("behavior.statespace_to_io.self_ms", "ms", "behavior.statespace_to_io", "self"),
    ("behavior.interconnect.self_ms", "ms", "behavior.interconnect", "self"),
    ("behavior.eliminate_latent.self_ms", "ms", "behavior.eliminate_latent", "self"),
    ("behavior.minimal_kernel.self_ms", "ms", "behavior.minimal_kernel", "self"),
    ("contracts.implements.self_ms", "ms", "contracts.implements", "self"),
    ("contracts.refines.self_ms", "ms", "contracts.refines", "self"),
    ("contracts.conjunction.self_ms", "ms", "contracts.conjunction", "self"),
    ("contracts.env_compatible.self_ms", "ms", "contracts.env_compatible", "self"),
    ("polymatrix.determinant.ms", "ms", "polymatrix.determinant", "incl"),
    ("polymatrix.determinant.calls", "count", "polymatrix.determinant", "calls"),
    ("polymatrix.rank_generic.ms", "ms", "polymatrix.rank_generic", "incl"),
    ("polymatrix.rank_generic.calls", "count", "polymatrix.rank_generic", "calls"),
    ("polymatrix.PolyMatrix.mul.ms", "ms", "polymatrix.PolyMatrix.mul", "incl"),
    ("polymatrix.PolyMatrix.mul.calls", "count", "polymatrix.PolyMatrix.mul", "calls"),
    ("polyalg.Poly.mul.calls", "count", "polyalg.Poly.mul", "count"),
    ("polyalg.Poly.divmod.calls", "count", "polyalg.Poly.divmod", "count"),
    ("polyalg.poly_gcd.calls", "count", "polyalg.poly_gcd", "count"),
    ("polyalg.RatFunc.new.calls", "count", "polyalg.RatFunc.new", "count"),
)
TRACE_METRICS = (
    ("trace.ops_per_s", "1/s"),
    ("trace.untraced_ops_per_s", "1/s"),
    ("trace.overhead_pct", "%"),
    ("trace.op_ms", "ms"),
    ("trace.spans_ms", "ms"),
)


class BenchmarkError(Exception):
    """The benchmark cannot run here (missing sources, wrong package, ...)."""


def import_checkout_package():
    """Import agverify from this checkout's src/ and prove it is that copy."""
    if not (SRC / "agverify" / "__init__.py").is_file():
        raise BenchmarkError(f"no agverify sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import agverify

    if not Path(agverify.__file__).resolve().is_relative_to(SRC.resolve()):
        raise BenchmarkError(f"imported {agverify.__file__}, not the copy under {SRC}")
    return agverify


def probe_setup(workload: str, document: str) -> float:
    """Seconds from starting a fresh interpreter until it has imported
    agverify and loaded the workload's inputs into program objects."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "probe.py"), workload],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        proc.stdin.write(document)
        proc.stdin.close()
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or code != 0:
        raise BenchmarkError(f"set-up probe failed (exit {code}, said {line.strip()!r})")
    return elapsed


class SetupProbes:
    """`count` set-up probes spread over a run: one whenever another
    `interval` seconds have passed, between two operations. Taken back to
    back, they would all fall into the same second or two of a shared host,
    and their median would move with whatever that host did then."""

    def __init__(self, workload: str, document: str, count: int, interval: float):
        self.workload, self.document = workload, document
        self.count, self.interval = count, interval
        self.times: list[float] = []
        self.due = time.perf_counter()

    def __call__(self) -> None:
        if len(self.times) < self.count and time.perf_counter() >= self.due:
            self.times.append(probe_setup(self.workload, self.document))
            self.due = time.perf_counter() + self.interval

    def median(self) -> float:
        while len(self.times) < self.count:
            self.times.append(probe_setup(self.workload, self.document))
        return statistics.median(self.times)


def measure(workload: str, inputs, ops, seconds: float, min_ops: int = 1, min_passes: int = 1,
            tracer=None, between=None) -> dict:
    """Closed loop over whole passes of `ops` until `seconds` have passed,
    at least `min_ops` operations and `min_passes` passes ran. Only the call
    itself is timed; the answer check after it is not. `between` runs after
    each operation, and its time does not count towards `seconds`."""
    import workloads

    call, check = workloads.CALL[workload], workloads.CHECK[workload]
    passes, failures = [], []
    deadline = time.perf_counter() + seconds
    while (
        time.perf_counter() < deadline
        or len(passes) < min_passes
        or len(passes) * len(ops) < min_ops
    ):
        timings = []
        for op in ops:
            if tracer is not None:
                tracer.on = True
            t0 = time.perf_counter()
            try:
                result = call(inputs, op)
                error = None
            except Exception as exc:  # an operation that raises counts as failed
                error = f"raised {type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
            if tracer is not None:
                tracer.on = False
            if error is None:
                try:
                    error = check(inputs, op, result)
                except Exception as exc:  # output the check cannot read is wrong output
                    error = f"check raised {type(exc).__name__}: {exc}"
            timings.append(elapsed)
            if error is not None:
                failures.append(f"{' '.join(op.args)}: {error}")
            if between is not None:
                t0 = time.perf_counter()
                between()
                deadline += time.perf_counter() - t0
        passes.append(timings)
    return {"passes": passes, "failures": failures, "ops": len(passes) * len(ops)}


def end_to_end(run: dict, ops, setup_s: float, peak_rss_mb: float) -> dict:
    """Latency statistics over the operations of one pass, each operation
    taking its median over the run's passes: a spike in one measurement then
    cannot move a percentile that sits between two operations' costs."""
    per_op = [statistics.median(column) for column in zip(*run["passes"])]
    holds = [t for t, op in zip(per_op, ops) if op.expect]
    fails = [t for t, op in zip(per_op, ops) if not op.expect]
    values = {
        "ops_per_s": len(per_op) / sum(per_op),
        "op_p50_ms": statistics.median(per_op) * 1e3,
        "op_p90_ms": statistics.quantiles(per_op, n=10)[-1] * 1e3,
        "holds_p50_ms": statistics.median(holds) * 1e3,
        "fails_p50_ms": statistics.median(fails) * 1e3,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def per_layer(tracer, untraced: dict, traced: dict) -> dict:
    n = traced["ops"]
    traced_s, untraced_s = sum(map(sum, traced["passes"])), sum(map(sum, untraced["passes"]))
    values = {}
    for metric, unit, key, stat in PER_LAYER:
        if stat == "peak":
            value = tracer.peaks.get(key, 0)
        elif stat == "count":
            value = tracer.counts.get(key, 0) / n
        else:
            calls, incl, self_time = tracer.spans.get(key, (0, 0.0, 0.0))
            value = {"calls": calls / n, "incl": incl * 1e3 / n, "self": self_time * 1e3 / n}[stat]
        values[metric] = (value, unit)
    traced_rate = n / traced_s
    untraced_rate = untraced["ops"] / untraced_s
    trace_values = {
        "trace.ops_per_s": traced_rate,
        "trace.untraced_ops_per_s": untraced_rate,
        "trace.overhead_pct": (untraced_rate / traced_rate - 1) * 100,
        "trace.op_ms": traced_s * 1e3 / n,
        "trace.spans_ms": tracer.root_seconds * 1e3 / n,
    }
    for metric, unit in TRACE_METRICS:
        values[metric] = (trace_values[metric], unit)
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def print_span_table(tracer, n: int) -> None:
    print(f"spans per operation over {n} traced operations (ms; sorted by self time):")
    print(f"  {'span':48} {'calls':>10} {'incl':>10} {'self':>10}")
    for name, (calls, incl, self_time) in sorted(tracer.spans.items(), key=lambda kv: -kv[1][2]):
        print(f"  {name:48} {calls / n:10.3f} {incl * 1e3 / n:10.3f} {self_time * 1e3 / n:10.3f}")
    for name, count in sorted(tracer.counts.items()):
        print(f"  {name:48} {count / n:10.1f}")
    for name, bits in sorted(tracer.peaks.items()):
        print(f"  {name:48} {bits:10d} bits")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        import_checkout_package()
        import workloads

        if args.workload not in workloads.WORKLOADS:
            raise BenchmarkError(f"unknown workload {args.workload!r}; one of {workloads.WORKLOADS}")
        instance = workloads.GENERATE[args.workload](args.seed)
        inputs = workloads.LOAD[args.workload](instance.document)
        print(f"workload {args.workload} seed {args.seed}: {len(instance.ops)} operations per pass")
        if args.trace == 0:
            probes = SetupProbes(
                args.workload, instance.document, SETUP_REPEATS, args.seconds / SETUP_REPEATS
            )
            run = measure(
                args.workload, inputs, instance.ops, args.seconds, MIN_OPS, MIN_PASSES, between=probes
            )
            setup_s = probes.median()
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.trace == 0:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = end_to_end(run, instance.ops, setup_s, peak_rss_mb)
        failures = run["failures"]
        attempted = run["ops"]
    else:
        from tracer import Tracer

        untraced = measure(args.workload, inputs, instance.ops, args.seconds / 3)
        tracer = Tracer()
        tracer.install()
        try:
            traced = measure(args.workload, inputs, instance.ops, args.seconds * 2 / 3, tracer=tracer)
        finally:
            tracer.uninstall()
        print_span_table(tracer, traced["ops"])
        metrics = per_layer(tracer, untraced, traced)
        failures = untraced["failures"] + traced["failures"]
        attempted = untraced["ops"] + traced["ops"]

    for message in failures[:10]:
        print(f"FAILED {message}", file=sys.stderr)
    failed_ratio = len(failures) / attempted
    for name, m in metrics.items():
        print(f"  {name:48} {m['value']:14.6g} {m['unit']}")
    print(f"  {'failed_ratio':48} {failed_ratio:14.6g} ratio ({len(failures)} of {attempted})")
    correct = not failures
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": len(failures), "metrics": metrics}
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
