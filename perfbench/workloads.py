"""The three benchmark workloads: seeded inputs, the timed call, the answer check.

Each workload turns a seed into a text document in the agverify definition
format plus a list of operations with their expected verdicts. The program
only ever sees the parsed document, exactly as a user feeding files to the
tool would. Generation runs no agverify code: it builds the document from
coefficient lists with the helpers of `checks.py`, so one seed gives the same
bytes, and the same work, on every commit of the program. Expected verdicts
are fixed there too: positives hold by construction, negatives are refuted
by an independent rank test (see `checks.py`).

Instance cost in exact arithmetic is heavy-tailed in the structure of the
matrix that is reduced (one 7x7 source can cost ten times its neighbour).
Drawing those structures from the run seed would make run-to-run spread far
wider than any useful regression bound, so the expensive structures — the
source kernels of `inclusion_kxk` and the state-space systems of
`implements_ss` — come from a fixed catalogue, and the run seed draws
everything that is queried against them: targets, multipliers,
perturbations, assumption kernels and the order of operations.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path

import agverify
from agverify import behavior, cli, contracts, docparse
from checks import (
    Implementation,
    format_matrix,
    full_generic_rank,
    implementation_refuted,
    inclusion_refuted,
    m_mul,
    p_add,
    p_eval,
    p_gcdex,
    p_mul,
    product_equals,
    program_matrix,
    trim,
)

WORKLOADS = ("corpus_cli", "inclusion_kxk", "implements_ss")


@dataclass(frozen=True)
class Op:
    """One closed-loop operation and the verdict it must produce."""

    args: tuple[str, ...]
    expect: bool


@dataclass(frozen=True)
class Instance:
    """What a seed produces: the input document and the operations on it."""

    document: str
    ops: tuple[Op, ...]


# ---------------------------------------------------------------------------
# Seeded random polynomials and their document text
# ---------------------------------------------------------------------------


def rand_poly(rng: random.Random, max_deg: int) -> list:
    deg = rng.randint(0, max_deg)
    return trim([rng.randint(-3, 3) for _ in range(deg + 1)])


def exact_poly(rng: random.Random, deg: int) -> list:
    """A polynomial of exactly this degree."""
    return [rng.randint(-3, 3) for _ in range(deg)] + [rng.choice((-3, -2, -1, 1, 2, 3))]


def exact_matrix(rng: random.Random, rows: int, cols: int, deg: int) -> list:
    return [[exact_poly(rng, deg) for _ in range(cols)] for _ in range(rows)]


def rand_matrix(rng: random.Random, rows: int, cols: int, max_deg: int) -> list:
    while True:
        M = [[rand_poly(rng, max_deg) for _ in range(cols)] for _ in range(rows)]
        if all(any(row) for row in M):
            return M


def _kernel_def(name: str, R: list, label: str) -> str:
    return f"kernel {name} {{\n  vars {label}:{len(R[0])}\n  R {format_matrix(R)}\n}}"


# ---------------------------------------------------------------------------
# corpus_cli: the README's quarter-car commands through cli.main
# ---------------------------------------------------------------------------

# (argv names, expected exit code). The first three codes are stated in the
# README; the rest follow from the corpus (A0 adds a row to A, so ker A0 is
# inside ker A but not the reverse; S0 implements C0, see acceptance 2 and 6).
CORPUS_COMMANDS: tuple[tuple[tuple[str, ...], int], ...] = (
    (("implements", "S", "C"), 0),
    (("implements", "S0", "C"), 1),
    (("refines", "C", "C0"), 0),
    (("compatible", "A0", "C"), 0),
    (("smith", "A0"), 0),
    (("eliminate", "S"), 0),
    (("check-io", "S"), 0),
    (("conjoin", "C1", "C2"), 0),
    (("implements", "S0", "C0"), 0),
    (("refines", "C0", "C"), 1),
    (("compatible", "A", "C0"), 1),
    (("include", "A0", "A"), 0),
    (("include", "A", "A0"), 1),
)


def corpus_files() -> list[str]:
    return sorted(str(p) for p in agverify.corpus_dir().glob("*.ag"))


def generate_corpus_cli(seed: int) -> Instance:
    """Every command in both formats, in a seeded order.

    The pass runs the shuffled command list twice, alternating formats op by
    op and flipping them on the second half, so each pass holds every
    (command, format) pair exactly once.
    """
    rng = random.Random(f"corpus_cli:{seed}")
    order = list(CORPUS_COMMANDS)
    rng.shuffle(order)
    first = rng.choice(("text", "json"))
    other = "json" if first == "text" else "text"
    ops = []
    for half in range(2):
        for i, (names, code) in enumerate(order):
            fmt = first if (i + half) % 2 == 0 else other
            ops.append(Op((*names, "--format", fmt), code == 0))
    return Instance("", tuple(ops))


def load_corpus_cli(document: str) -> dict:
    """The corpus files, and the corpus parsed once into program objects as
    a user's first command would (the CLI re-reads the files per call)."""
    files = corpus_files()
    doc = docparse.parse_documents([(f, Path(f).read_text()) for f in files])
    return {"files": files, "doc": doc}


def call_corpus_cli(inputs: dict, op: Op):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main([*op.args, *inputs["files"]])
    return code, buf.getvalue()


def check_corpus_cli(inputs: dict, op: Op, result) -> str | None:
    code, out = result
    if code != (0 if op.expect else 1):
        return f"exit code {code}, expected {0 if op.expect else 1}"
    command = op.args[0]
    if op.args[-1] == "json":
        report = json.loads(out)
        if report["exit_code"] != code or report["command"] != command:
            return "JSON report disagrees with the exit code"
        document = report.get("document")
    else:
        verdict = {"holds": True, "FAILS": False}
        lines = out.splitlines()
        if command in ("implements", "refines", "compatible", "include"):
            shown = [verdict[l.split(": ", 1)[1]] for l in lines if l.startswith("result: ")]
            if shown != [op.expect]:
                return f"text report shows {shown}"
        document = None
        if command == "conjoin":
            start = lines.index("contract: ") + 1
            end = next(i for i in range(start, len(lines)) if lines[i].startswith("elapsed: "))
            document = "\n".join(lines[start:end]) + "\n"
    if command == "conjoin":
        c1, c2 = op.args[1], op.args[2]
        sources = [(f, Path(f).read_text()) for f in inputs["files"]]
        merged = docparse.parse_documents([*sources, ("<conjoin>", document)])
        conj = merged.get(f"{c1}_and_{c2}").value
        for other in (c1, c2):
            if not contracts.refines(conj, merged.get(other).value).holds:
                return f"conjunction does not refine {other}"
    return None


# ---------------------------------------------------------------------------
# inclusion_kxk: behavior_included on kernel pairs, k = 4..7
# ---------------------------------------------------------------------------

INCLUSION_KS = (4, 5, 6, 7)
# Every fourth source is rank-deficient; squares carry a planted rational
# point where they lose rank, so a failing divisibility test has a cheap
# independent refutation there.
INCLUSION_SHAPES = ("square", "wide", "square", "deficient")
# At k = 7 the cost of a source is heavy-tailed (0.04 to 2 s per decision),
# so it gets the shapes twice: more than one matrix then sets the pass time.
INCLUSION_ROUNDS = {7: 4}
INCLUSION_CATALOGUE = "inclusion_kxk catalogue 1"


def _plant_singular_point(rng: random.Random, R: list) -> list:
    """Shift the last row by a constant so it matches a combination of the
    other rows at a small integer point; degrees stay the same."""
    lam = rng.choice((-2, -1, 1, 2))
    rows = [list(r) for r in R]
    coef = [rng.randint(-2, 2) for _ in rows[:-1]]
    last = rows[-1]
    for j in range(len(last)):
        shift = -p_eval(last[j], lam) + sum(c * p_eval(r[j], lam) for c, r in zip(coef, rows[:-1]))
        last[j] = p_add(last[j], [shift])
    return rows


def inclusion_sources() -> list[list]:
    """The fixed source catalogue: four kernels per k (eight at k = 7),
    degree at most 2."""
    rng = random.Random(INCLUSION_CATALOGUE)
    sources = []
    for k in INCLUSION_KS:
        for shape in INCLUSION_SHAPES * INCLUSION_ROUNDS.get(k, 1):
            rows = k - 1 if shape == "wide" else k
            while True:
                R = rand_matrix(rng, rows, k, 2)
                if shape != "wide":
                    R = _plant_singular_point(rng, R)
                if full_generic_rank(R):
                    break
            if shape == "deficient":
                # The first k - 1 rows of a full-rank square are independent;
                # a last row combining two of them leaves rank k - 1.
                a, b = rand_poly(rng, 1), rand_poly(rng, 1)
                R[-1] = [p_add(p_mul(a, x), p_mul(b, y)) for x, y in zip(R[0], R[1])]
            sources.append(R)
    return sources


def generate_inclusion_kxk(seed: int) -> Instance:
    """Per source, one target that holds (R2 = M*R1) and one that fails
    (R2 = M*R1 with a perturbed first row, refuted at a rational point).

    Multipliers and perturbations have entries of exactly degree 1, so the
    seed changes coefficients but not the shape of the work."""
    rng = random.Random(f"inclusion_kxk:{seed}")
    parts, ops = [], []
    for i, R1 in enumerate(inclusion_sources()):
        parts.append(_kernel_def(f"R{i}", R1, "w"))
        good = m_mul(exact_matrix(rng, 2, len(R1), 1), R1)
        while True:
            bad = m_mul(exact_matrix(rng, 2, len(R1), 1), R1)
            bad[0] = [p_add(a, exact_poly(rng, 1)) for a in bad[0]]
            if inclusion_refuted(R1, bad):
                break
        parts.append(_kernel_def(f"H{i}", good, "w"))
        parts.append(_kernel_def(f"F{i}", bad, "w"))
        ops.append(Op((f"R{i}", f"H{i}"), True))
        ops.append(Op((f"R{i}", f"F{i}"), False))
    rng.shuffle(ops)
    return Instance("\n\n".join(parts) + "\n", tuple(ops))


def load_document(document: str) -> dict:
    return docparse.parse_document(document, source="<workload>").definitions


def call_inclusion_kxk(inputs: dict, op: Op):
    return behavior.behavior_included(inputs[op.args[0]].value, inputs[op.args[1]].value)


def check_inclusion_kxk(inputs: dict, op: Op, verdict) -> str | None:
    if verdict.holds != op.expect:
        return f"verdict {verdict.holds}, expected {op.expect}"
    if verdict.holds:
        w = verdict.witnesses[0]
        R1, R2 = inputs[op.args[0]].value.R, inputs[op.args[1]].value.R
        if w.source != R1 or w.target != R2 or not product_equals(
            program_matrix(w.multiplier), program_matrix(R1), program_matrix(R2)
        ):
            return "witness does not re-multiply to the target"
    return None


# ---------------------------------------------------------------------------
# implements_ss: contracts.implements on state-space systems, n = 5..8
# ---------------------------------------------------------------------------

IMPLEMENTS_NS = (5, 6, 7, 8)
SYSTEMS_PER_N = 3
# Assumption structure per contract of a small system; the last contract
# fails, so three in four hold.
DEGENERATE_KINDS = ("coupled", "decoupled", "common_factor", "coupled")
DEGENERATE_MAX_N = 6
IMPLEMENTS_CATALOGUE = "implements_ss catalogue 1"
MAX_GUARANTEE_DEGREE = 24


def implements_systems() -> list[tuple[list, list, list, list]]:
    """The fixed catalogue of two-input two-output systems (A, B, C, D)."""
    rng = random.Random(IMPLEMENTS_CATALOGUE)

    def grid(r, c):
        return [[rng.randint(-3, 3) for _ in range(c)] for _ in range(r)]

    return [
        (grid(n, n), grid(n, 2), grid(2, n), grid(2, 2))
        for n in IMPLEMENTS_NS
        for _ in range(SYSTEMS_PER_N)
    ]


def assumption_equation(rng: random.Random, kind: str, free_input: int) -> list:
    """One equation over (u1, u2) with entries of degree 2: coprime
    ("coupled"), sharing exactly a linear factor ("common_factor"), or with
    the entry of `free_input` zero ("decoupled")."""
    while True:
        if kind == "common_factor":
            f = exact_poly(rng, 1)
            a, b = p_mul(f, exact_poly(rng, 1)), p_mul(f, exact_poly(rng, 1))
        else:
            a, b = exact_poly(rng, 2), exact_poly(rng, 2)
        if kind == "decoupled":
            entries = [a, b]
            entries[free_input] = []
            return [entries]
        if len(p_gcdex(a, b)[0]) - 1 == (1 if kind == "common_factor" else 0):
            return [[a, b]]


def holding_guarantee(rng: random.Random, imp: Implementation) -> list | None:
    """A seeded guarantee row of one degree above the least degree at which
    any row holds (so, for a one-row output kernel R, a degree-one multiple
    of R), or None if no row of degree <= MAX_GUARANTEE_DEGREE holds."""
    degree = imp.n  # the least degree is near n; search from there
    if imp.annihilators(degree):
        while degree > 0 and imp.annihilators(degree - 1):
            degree -= 1
    else:
        while not imp.annihilators(degree):
            degree += 1
            if degree > MAX_GUARANTEE_DEGREE:
                return None
    row: list = [[], []]
    for basis_row in imp.annihilators(degree + 1):
        c = rng.choice((-3, -2, -1, 1, 2, 3))
        row = [p_add(x, [c * y for y in e]) for x, e in zip(row, basis_row)]
    return row


def _statespace_def(name: str, A, B, C, D) -> str:
    body = "\n".join(
        f"  {k} {format_matrix([[[x] if x else [] for x in r] for r in M])}"
        for k, M in (("A", A), ("B", B), ("C", C), ("D", D))
    )
    return f"statespace {name} {{\n{body}\n}}"


def generate_implements_ss(seed: int) -> Instance:
    """Per system, contracts over seeded single-equation input assumptions.

    Assumption equations have entries of exactly degree 2, coprime unless
    the contract is degenerate on purpose. Holding guarantees are drawn from
    the rows that provably hold (`checks.Implementation`); the failing one
    perturbs such a row and is refuted at a rational point.

    An assumption that leaves an input free (a zero entry) makes
    `implements` 1.4-3x slower than a coupled one at n = 6-7 and about 6x
    (3.5 s per operation) at n = 8. Drawn at random, degenerate assumptions
    would make the run-to-run spread depend on how many a seed happened to
    draw, so each system with n <= DEGENERATE_MAX_N has exactly one of each
    kind, and larger systems, where one would be most of the run, have none.
    """
    rng = random.Random(f"implements_ss:{seed}")
    parts, ops = [], []
    for i, (A, B, C, D) in enumerate(implements_systems()):
        parts.append(_statespace_def(f"S{i}", A, B, C, D))
        kinds = DEGENERATE_KINDS if len(A) <= DEGENERATE_MAX_N else ("coupled",) * 4
        for j, kind in enumerate(kinds):
            while True:
                env = assumption_equation(rng, kind, free_input=i % 2)
                imp = Implementation(A, B, C, D, env[0])
                target = holding_guarantee(rng, imp)
                if target is not None:
                    break
            holds = j < len(kinds) - 1
            while not holds:
                bad = [p_add(a, exact_poly(rng, 1)) for a in target]
                if implementation_refuted(A, B, C, D, env, [bad]):
                    target = bad
                    break
            name = f"C{i}_{j}"
            parts.append(_kernel_def(f"{name}_A", env, "u"))
            parts.append(_kernel_def(f"{name}_G", [target], "y"))
            parts.append(f"contract {name} {{\n  assumptions {name}_A\n  guarantees {name}_G\n}}")
            ops.append(Op((f"S{i}", name), holds))
    rng.shuffle(ops)
    return Instance("\n\n".join(parts) + "\n", tuple(ops))


def call_implements_ss(inputs: dict, op: Op):
    return contracts.implements(inputs[op.args[0]].value, inputs[op.args[1]].value)


def check_implements_ss(inputs: dict, op: Op, verdict) -> str | None:
    if verdict.holds != op.expect:
        return f"verdict {verdict.holds}, expected {op.expect}"
    if verdict.holds:
        w = verdict.witness("guarantees")
        if w.target != inputs[op.args[1]].value.guarantees.R:
            return "witness target is not the contract's guarantees"
        if not product_equals(*map(program_matrix, (w.multiplier, w.source, w.target))):
            return "witness does not re-multiply to the guarantees"
    return None


# ---------------------------------------------------------------------------

GENERATE = {
    "corpus_cli": generate_corpus_cli,
    "inclusion_kxk": generate_inclusion_kxk,
    "implements_ss": generate_implements_ss,
}
LOAD = {
    "corpus_cli": load_corpus_cli,
    "inclusion_kxk": load_document,
    "implements_ss": load_document,
}
CALL = {
    "corpus_cli": call_corpus_cli,
    "inclusion_kxk": call_inclusion_kxk,
    "implements_ss": call_implements_ss,
}
CHECK = {
    "corpus_cli": check_corpus_cli,
    "inclusion_kxk": check_inclusion_kxk,
    "implements_ss": check_implements_ss,
}
