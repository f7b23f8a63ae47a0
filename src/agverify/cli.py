"""Command-line front end.

Usage pattern: ``agverify COMMAND [names...] FILE [FILE...]`` where the files
hold definitions in the shared text format and the names refer to them.

Exit codes: 0 when the checked property holds (or output was produced),
1 when the property fails, 2 on parse or validation errors, 3 on an internal
fault (an inexact division or a failed self-check), which decides nothing.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from .behavior import (
    InclusionWitness,
    IoSystem,
    KernelRep,
    StateSpace,
    Verdict,
    behavior_included,
    check_io_form,
    eliminate_latent,
    minimal_kernel,
    statespace_to_io,
    statespace_to_kernel,
)
from .contracts import Contract, IoFormError, conjunction, env_compatible, implements, refines
from .docparse import (
    Definition,
    Document,
    DocumentError,
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
    sections: list[tuple[str, str]] = field(default_factory=list)
    payload: dict = field(default_factory=dict)
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
        for label, text in self.sections:
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
        obj.update(self.payload)
        return json.dumps(obj, indent=2)


def _verdict_report(command: str, arguments: tuple[str, ...], verdict: Verdict) -> Report:
    return Report(
        command=command,
        arguments=arguments,
        holds=verdict.holds,
        witnesses=verdict.witnesses,
        diagnostics=verdict.diagnostics,
    )


def _get_system(doc: Document, name: str) -> IoSystem | StateSpace:
    d = doc.get(name, kinds=("statespace", "iosystem"))
    return d.value


def _get_kernel(doc: Document, name: str) -> KernelRep:
    return doc.get(name, kinds=("kernel",)).value


def _get_contract(doc: Document, name: str) -> Contract:
    return doc.get(name, kinds=("contract",)).value


def _kernel_definition(name: str, k: KernelRep) -> str:
    plain = KernelRep(k.R, k.signal_labels)
    return format_definition(Definition("kernel", name, plain))


def run_command(args: argparse.Namespace, doc: Document) -> Report:
    cmd = args.command

    if cmd == "check-io":
        sys_def = doc.get(args.system, kinds=("statespace", "iosystem"))
        if isinstance(sys_def.value, StateSpace):
            io = statespace_to_io(sys_def.value)
            ok = True
        else:
            io = sys_def.value
            ok = check_io_form(io)
        report = Report(cmd, (args.system,), holds=ok)
        if ok:
            report.sections.append(("P", format_matrix(io.P)))
            report.sections.append(("Q", format_matrix(io.Q)))
            report.payload = {"P": matrix_coeffs(io.P), "Q": matrix_coeffs(io.Q)}
        else:
            report = Report(
                cmd,
                (args.system,),
                holds=False,
                diagnostics=("system is not in input-output form",),
            )

    elif cmd == "eliminate":
        d = doc.get(args.system, kinds=("statespace", "iosystem", "latent", "kernel"))
        if d.kind == "statespace":
            k = statespace_to_kernel(d.value)
        elif d.kind == "iosystem":
            k = d.value.kernel()
        elif d.kind == "latent":
            k = eliminate_latent(d.value)
        else:
            k = minimal_kernel(d.value)
        text = _kernel_definition(f"{args.system}_kernel", k)
        report = Report(cmd, (args.system,), sections=[("kernel", "\n" + text)])
        report.payload = {
            "kernel": {
                "vars": format_varlist(k.signal_labels),
                "R": matrix_coeffs(k.R),
            }
        }

    elif cmd == "smith":
        if args.matrix.lstrip().startswith("["):
            M = parse_matrix_text(args.matrix)
        else:
            M = _get_kernel(doc, args.matrix).R
        sd = smith_form(M)
        report = Report(cmd, (args.matrix,))
        report.sections.append(("U", format_matrix(sd.U)))
        report.sections.append(
            ("invariant factors", "[" + ", ".join(str(p) for p in sd.invariant_factors) + "]")
        )
        report.sections.append(("V", format_matrix(sd.V)))
        report.sections.append(("rank", str(sd.rank)))
        report.payload = {
            "U": matrix_coeffs(sd.U),
            "invariant_factors": [poly_coeffs(p) for p in sd.invariant_factors],
            "V": matrix_coeffs(sd.V),
            "rank": sd.rank,
        }

    elif cmd == "include":
        r1 = _get_kernel(doc, args.r1)
        r2 = _get_kernel(doc, args.r2)
        report = _verdict_report(cmd, (args.r1, args.r2), behavior_included(r1, r2))

    elif cmd == "implements":
        system = _get_system(doc, args.system)
        contract = _get_contract(doc, args.contract)
        report = _verdict_report(cmd, (args.system, args.contract), implements(system, contract))

    elif cmd == "compatible":
        env = _get_kernel(doc, args.env)
        contract = _get_contract(doc, args.contract)
        report = _verdict_report(cmd, (args.env, args.contract), env_compatible(env, contract))

    elif cmd == "refines":
        c1 = _get_contract(doc, args.c1)
        c2 = _get_contract(doc, args.c2)
        report = _verdict_report(cmd, (args.c1, args.c2), refines(c1, c2))

    elif cmd == "conjoin":
        c1 = _get_contract(doc, args.c1)
        c2 = _get_contract(doc, args.c2)
        name = f"{args.c1}_and_{args.c2}"
        out_doc = contract_document(name, conjunction(c1, c2))
        text = format_document(out_doc)
        report = Report(cmd, (args.c1, args.c2))
        if args.out:
            Path(args.out).write_text(text)
            report.sections.append(("written", args.out))
        else:
            report.sections.append(("contract", "\n" + text.rstrip()))
        report.payload = {"contract_name": name, "document": text}

    else:  # pragma: no cover - argparse restricts the choices
        raise ValueError(f"unknown command {cmd!r}")

    return report


def _build_parser() -> argparse.ArgumentParser:
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

    def add(name: str, help_text: str, *positionals: str, out_flag: bool = False):
        p = sub.add_parser(name, help=help_text, parents=[common])
        for pos in positionals:
            p.add_argument(pos)
        if out_flag:
            p.add_argument("--out", default=None, help="write the result to this file")
        p.add_argument("files", nargs="+", help="definition files")
        return p

    add("check-io", "validate (or derive) the input-output form of a system", "system")
    add("eliminate", "print a kernel representation of a system", "system")
    add("smith", "print the Smith form of a kernel's matrix or a matrix literal", "matrix")
    add("include", "decide kernel-behavior inclusion of R1 in R2", "r1", "r2")
    add("implements", "decide whether a system implements a contract", "system", "contract")
    add("compatible", "decide whether an environment is compatible with a contract", "env", "contract")
    add("refines", "decide whether contract C1 refines contract C2", "c1", "c2")
    add("conjoin", "compute the conjunction of two contracts", "c1", "c2", out_flag=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        sources = []
        for f in args.files:
            path = Path(f)
            try:
                sources.append((str(path), path.read_text()))
            except OSError as exc:
                print(f"error: cannot read {path}: {exc}", file=sys.stderr)
                return EXIT_ERROR
        doc = parse_documents(sources)
        report = run_command(args, doc)
    except (DocumentError, IoFormError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (ArithmeticError, RuntimeError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    report.elapsed = time.perf_counter() - start
    if args.format == "json":
        print(report.render_json(quiet=args.quiet))
    else:
        print(report.render_text(quiet=args.quiet))
    return report.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
