"""Command-line front end.

Usage pattern: ``agverify COMMAND [names...] FILE [FILE...]`` where the files
hold definitions in the shared text format and the names refer to them. One
table, `_COMMANDS`, declares each command's help text, positionals and
handler; the argument parser is built from it and `run_command` dispatches
through it. Every positional that names a definition is looked up with the
kinds it may name before the handler runs.

Exit codes: 0 when the checked property holds (or output was produced),
1 when the property fails, 2 on parse or validation errors or an unwritable
``--out`` file, 3 on an internal fault (an inexact division, a failed
self-check or a report that cannot be rendered), which decides nothing.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass

from .behavior import (
    InclusionWitness,
    IoSystem,
    LatentRep,
    StateSpace,
    Verdict,
    behavior_included,
    check_io_form,
    eliminate_latent,
    minimal_kernel,
    statespace_to_io,
    statespace_to_kernel,
)
from .contracts import Contract, conjunction, env_compatible, implements, refines
from .docparse import (
    Definition,
    Document,
    contract_document,
    format_definition,
    format_document,
    format_matrix,
    format_varlist,
    matrix_coeffs,
    parse_documents,
    parse_matrix_text,
    poly_coeffs,
)
from .polymatrix import smith_form

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_ERROR = 2
EXIT_INTERNAL = 3


@dataclass
class Report:
    """Everything a command run produced, renderable as text or JSON."""

    command: str
    arguments: tuple[str, ...]
    holds: bool | None = None
    witnesses: tuple[InclusionWitness, ...] = ()
    diagnostics: tuple[str, ...] = ()
    # The command's output beyond the verdict: its text sections and its JSON
    # fields. Formatting runs at render time, under the guard in `main`.
    details: Callable[[], tuple[list[tuple[str, str]], dict]] = lambda: ([], {})
    elapsed: float = 0.0

    @property
    def exit_code(self) -> int:
        if self.holds is None or self.holds:
            return EXIT_OK
        return EXIT_FAIL

    def render_text(self, quiet: bool = False) -> str:
        lines = [f"command: {self.command} {' '.join(self.arguments)}".rstrip()]
        if self.holds is not None:
            lines.append(f"result: {'holds' if self.holds else 'FAILS'}")
        for label, text in self.details()[0]:
            lines.append(f"{label}: {text}")
        if not quiet:
            for w in self.witnesses:
                tag = f" ({w.label})" if w.label else ""
                lines.append(f"witness{tag}: M = {format_matrix(w.multiplier)}")
                lines.append(f"  checks M * {format_matrix(w.source)} = {format_matrix(w.target)}")
        for d in self.diagnostics:
            lines.append(f"diagnostic: {d}")
        lines.append(f"elapsed: {self.elapsed:.3f}s")
        return "\n".join(lines)

    def render_json(self, quiet: bool = False) -> str:
        import json  # only this format needs it, so a text report does not load it
        obj = {
            "command": self.command,
            "arguments": list(self.arguments),
            "holds": self.holds,
            "exit_code": self.exit_code,
            "witnesses": []
            if quiet
            else [
                {
                    "label": w.label,
                    "multiplier": matrix_coeffs(w.multiplier),
                    "source": matrix_coeffs(w.source),
                    "target": matrix_coeffs(w.target),
                }
                for w in self.witnesses
            ],
            "diagnostics": list(self.diagnostics),
            "elapsed_seconds": round(self.elapsed, 6),
        }
        obj.update(self.details()[1])
        return json.dumps(obj, indent=2)


def _check_io(report: Report, args, doc, system) -> Verdict:
    if isinstance(system, StateSpace):
        io = statespace_to_io(system)
    elif check_io_form(system):
        io = system
    else:
        return Verdict(False, diagnostics=("system is not in input-output form",))
    report.details = lambda: ([("P", format_matrix(io.P)), ("Q", format_matrix(io.Q))],
                              {"P": matrix_coeffs(io.P), "Q": matrix_coeffs(io.Q)})
    return Verdict(True)


def _eliminate(report: Report, args, doc, system) -> None:
    if isinstance(system, StateSpace):
        k = statespace_to_kernel(system)
    elif isinstance(system, IoSystem):
        k = system.kernel()
    elif isinstance(system, LatentRep):
        k = eliminate_latent(system)
    else:
        k = minimal_kernel(system)
    plain = Definition("kernel", f"{report.arguments[0]}_kernel", k)
    report.details = lambda: (
        [("kernel", "\n" + format_definition(plain))],
        {"kernel": {"vars": format_varlist(k.signal_labels), "R": matrix_coeffs(k.R)}},
    )


def _smith(report: Report, args, doc, matrix: str) -> None:
    if matrix.lstrip().startswith("["):
        M = parse_matrix_text(matrix)
    else:
        M = doc.get(matrix, kinds=_KERNEL).value.R
    sd = smith_form(M)
    report.details = lambda: (
        [("U", format_matrix(sd.U)),
         ("invariant factors", "[" + ", ".join(map(str, sd.invariant_factors)) + "]"),
         ("V", format_matrix(sd.V)), ("rank", str(sd.rank))],
        {
            "U": matrix_coeffs(sd.U),
            "invariant_factors": [poly_coeffs(p) for p in sd.invariant_factors],
            "V": matrix_coeffs(sd.V),
            "rank": sd.rank,
        },
    )


def _conjoin(report: Report, args, doc, c1: Contract, c2: Contract) -> None:
    name = "_and_".join(report.arguments)
    document = contract_document(name, conjunction(c1, c2))

    def details():
        # Formats and, with --out, writes the document when the report is
        # rendered, so an unprintable conjunction writes nothing.
        text = format_document(document)
        if args.out:
            with open(args.out, "w") as f:
                f.write(text)
            section = ("written", args.out)
        else:
            section = ("contract", "\n" + text.rstrip())
        return [section], {"contract_name": name, "document": text}

    report.details = details


_KERNEL = ("kernel",)
_CONTRACT = ("contract",)
_SYSTEM = ("statespace", "iosystem")

# Every command: its help text, its positionals with the definition kinds
# each may name (None passes the argument through as given), and its handler.
# A handler gets the report to fill in, the parsed arguments, the document
# and one value per positional; it returns the verdict of a decision, or
# None when the command only produces output. A decision's lambda reads the
# module-level name of its function at each call, so a replacement of that
# name takes effect.
_COMMANDS = {
    "check-io": ("validate (or derive) the input-output form of a system",
                 [("system", _SYSTEM)], _check_io),
    "eliminate": ("print a kernel representation of a system",
                  [("system", _SYSTEM + ("latent", "kernel"))], _eliminate),
    "smith": ("print the Smith form of a kernel's matrix or a matrix literal",
              [("matrix", None)], _smith),
    "include": ("decide kernel-behavior inclusion of R1 in R2",
                [("r1", _KERNEL), ("r2", _KERNEL)],
                lambda r, a, d, *v: behavior_included(*v)),
    "implements": ("decide whether a system implements a contract",
                   [("system", _SYSTEM), ("contract", _CONTRACT)],
                   lambda r, a, d, *v: implements(*v)),
    "compatible": ("decide whether an environment is compatible with a contract",
                   [("env", _KERNEL), ("contract", _CONTRACT)],
                   lambda r, a, d, *v: env_compatible(*v)),
    "refines": ("decide whether contract C1 refines contract C2",
                [("c1", _CONTRACT), ("c2", _CONTRACT)],
                lambda r, a, d, *v: refines(*v)),
    "conjoin": ("compute the conjunction of two contracts",
                [("c1", _CONTRACT), ("c2", _CONTRACT)], _conjoin),
}


def run_command(args: argparse.Namespace, doc: Document) -> Report:
    _, positionals, handler = _COMMANDS[args.command]
    names = tuple(getattr(args, dest) for dest, _ in positionals)
    values = [name if kinds is None else doc.get(name, kinds=kinds).value
              for name, (_, kinds) in zip(names, positionals)]
    report = Report(args.command, names)
    verdict = handler(report, args, doc, *values)
    if verdict is not None:
        report.holds = verdict.holds
        report.witnesses, report.diagnostics = verdict.witnesses, verdict.diagnostics
    return report


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "json"), default="text", help="report format"
    )
    common.add_argument(
        "--quiet", action="store_true", help="suppress witness matrices in reports"
    )

    parser = argparse.ArgumentParser(
        prog="agverify",
        description="Exact verification of assume-guarantee contracts on linear systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, positionals, handler) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text, parents=[common])
        for dest, _ in positionals:
            p.add_argument(dest)
        if handler is _conjoin:
            p.add_argument("--out", default=None, help="write the result to this file")
        p.add_argument("files", nargs="+", help="definition files")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        sources = []
        for path in args.files:
            try:
                with open(path) as f:
                    sources.append((path, f.read()))
            except OSError as exc:
                print(f"error: cannot read {path}: {exc}", file=sys.stderr)
                return EXIT_ERROR
        doc = parse_documents(sources)
        report = run_command(args, doc)
    except (ArithmeticError, RuntimeError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    report.elapsed = time.perf_counter() - start
    try:
        if args.format == "json":
            text = report.render_json(quiet=args.quiet)
        else:
            text = report.render_text(quiet=args.quiet)
    except ValueError as exc:  # e.g. an integer beyond Python's int-to-str digit limit
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except OSError as exc:  # only `conjoin --out` writes, and it writes at render time
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_ERROR
    print(text)
    return report.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
