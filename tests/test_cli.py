"""Command-line interface: commands, exit codes, output formats."""

import json
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import agverify
from agverify import behavior, cli, polymatrix
from agverify.cli import main
from agverify.docparse import (
    MAX_COEFFICIENTS,
    MAX_DIGITS,
    MAX_DIMENSION,
    MAX_EXPONENT,
    parse_document,
    parse_documents,
    parse_matrix_text,
)
from agverify.polyalg import S, ZERO, Poly
from agverify.polymatrix import PolyMatrix
from support import budget

CORPUS = sorted(str(p) for p in agverify.corpus_dir().glob("*.ag"))

# The README's iosystem and latent examples, which the corpus does not hold.
README_SYSTEMS = """
iosystem IO { P [[s^2]] Q [[s^2 + s + 1, -s - 1]] }

latent L {
  vars w:2
  latent l:1
  R [[1, 0], [0, 1]]
  E [[s], [1]]
}
"""

# Contracts the corpus lacks: Cx over one input, Cv and Cw over inputs v
# and outputs w where the corpus contract C has u and y.
OTHER_CONTRACTS = """
kernel Ax { vars u:1 R [[s]] }
kernel Gx { vars y:1 R [[s]] }
contract Cx { assumptions Ax guarantees Gx }
kernel Av { vars v:2 R [[s, 1]] }
contract Cv { assumptions Av guarantees G }
kernel Gw { vars w:1 R [[s]] }
contract Cw { assumptions A guarantees Gw }
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_holds_is_zero(self, capsys):
        code, out, _ = run(capsys, "implements", "S", "C", *CORPUS)
        assert code == 0
        assert "result: holds" in out

    def test_fails_is_one(self, capsys):
        code, out, _ = run(capsys, "implements", "S0", "C", *CORPUS)
        assert code == 1
        assert "result: FAILS" in out
        assert "diagnostic:" in out

    def test_exponent_cap_is_two(self, capsys, tmp_path):
        at_cap = tmp_path / "at_cap.ag"
        at_cap.write_text(f"kernel K {{ vars y:1 R [[s^{MAX_EXPONENT}]] }}")
        code, out, _ = run(capsys, "include", "K", "K", str(at_cap))
        assert code == 0 and "result: holds" in out
        over = tmp_path / "over.ag"
        over.write_text(f"kernel K {{ vars y:1 R [[s^{MAX_EXPONENT + 1}]] }}")
        code, out, err = run(capsys, "include", "K", "K", str(over))
        assert code == 2 and out == ""
        assert f"{over}:1:27: exponent {MAX_EXPONENT + 1} exceeds the maximum" in err

    def test_coefficient_budget_is_two(self, capsys, tmp_path):
        # Densely stored, s^1000 takes about 8 KB for 7 bytes of text.
        power = f"s^{MAX_EXPONENT}"
        row = "[" + ", ".join([power] * MAX_DIMENSION) + "]"
        square = f"vars y:{MAX_DIMENSION} R [" + ", ".join([row] * MAX_DIMENSION) + "]"
        # One row of them stops at its entry past the column cap, before the
        # budget; three full kernels cross the budget in the third.
        texts = {
            "row.ag": ("kernel K { vars y:1 R [[" + ", ".join([power] * 40_000) + "]] }",
                       f":1:21: matrix column count {MAX_DIMENSION + 1} is above the maximum"),
            "three.ag": ("\n".join(f"kernel K{j} {{ {square} }}" for j in range(3)),
                         f":2:28: polynomial coefficients in this text exceed the maximum {MAX_COEFFICIENTS}"),
        }
        for name, (text, message) in texts.items():
            path = tmp_path / name
            path.write_text(text)
            with budget(1.0, f"{name}, {len(text) // 1000} KB of s^{MAX_EXPONENT}"):
                code, out, err = run(capsys, "check-io", "K", str(path))
            assert code == 2 and out == ""
            assert f"{path}{message}" in err

    def test_dimension_cap_is_two(self, capsys, tmp_path):
        at_cap = tmp_path / "at_cap.ag"
        at_cap.write_text(f"kernel K {{ vars a:{MAX_DIMENSION - 1}, b:1 R [] }}")
        code, out, _ = run(capsys, "include", "K", "K", str(at_cap))
        assert code == 0 and "result: holds" in out
        over = tmp_path / "over.ag"
        over.write_text(f"kernel K {{ vars a:{MAX_DIMENSION}, b:1 R [] }}")
        code, out, err = run(capsys, "include", "K", "K", str(over))
        assert code == 2 and out == ""
        col = len(f"kernel K {{ vars a:{MAX_DIMENSION}, b:") + 1
        assert f"{over}:1:{col}: signal dimensions add up to {MAX_DIMENSION + 1}" in err

    def test_state_dimension_cap_is_two(self, capsys, monkeypatch, tmp_path):
        def statespace(n):
            zeros = "[" + ", ".join(["0"] * n) + "]"
            A = "[" + ", ".join([zeros] * n) + "]"
            B = "[" + ", ".join(["[1]"] * n) + "]"
            return f"statespace S {{\n A {A}\n B {B}\n C [[1{', 0' * (n - 1)}]]\n D [[0]] }}"

        at_cap = tmp_path / "at_cap.ag"
        at_cap.write_text(statespace(MAX_DIMENSION))
        code, out, _ = run(capsys, "check-io", "S", str(at_cap))
        assert code == 0 and "P: [[s]]" in out

        def eliminated(*args):
            raise AssertionError("state elimination ran")

        monkeypatch.setattr(cli, "statespace_to_io", eliminated)
        over = tmp_path / "over.ag"
        over.write_text(statespace(MAX_DIMENSION + 1))
        code, out, err = run(capsys, "check-io", "S", str(over))
        assert code == 2 and out == ""
        assert err == (
            f"error: {over}:2:2: state dimension {MAX_DIMENSION + 1} is above the maximum "
            f"{MAX_DIMENSION}\n"
        )

    def test_digit_cap_is_two(self, capsys, tmp_path):
        at_cap = tmp_path / "at_cap.ag"
        at_cap.write_text(f"kernel K {{ vars y:1 R [[{'9' * MAX_DIGITS}]] }}")
        code, out, _ = run(capsys, "include", "K", "K", "--quiet", str(at_cap))
        assert code == 0 and "result: holds" in out
        over = tmp_path / "over.ag"
        over.write_text(f"kernel K {{ vars y:1 R [[s,\n 1/{'9' * (MAX_DIGITS + 1)}]] }}")
        code, out, err = run(capsys, "include", "K", "K", str(over))
        assert code == 2 and out == ""
        assert f"{over}:2:4: integer of {MAX_DIGITS + 1} digits exceeds the maximum" in err

    def test_matrix_size_cap_is_two(self, capsys, tmp_path):
        over = MAX_DIMENSION + 1
        tall = tmp_path / "tall.ag"
        tall.write_text("kernel T { vars y:1 R [" + ", ".join(["[s + 1]"] * over) + "] }")
        code, out, err = run(capsys, "include", "T", "T", str(tall))
        assert code == 2 and out == ""
        assert err == (
            f"error: {tall}:1:21: kernel row count {over} is above the maximum {MAX_DIMENSION}\n"
        )
        wide = "[[" + ", ".join(["1"] * over) + "]]"
        code, out, err = run(capsys, "smith", wide, *CORPUS)
        assert code == 2 and out == ""
        assert err == (
            f"error: <matrix>:1:1: matrix column count {over} is above the maximum {MAX_DIMENSION}\n"
        )

    def test_output_count_cap_is_two(self, capsys, tmp_path):
        over = MAX_DIMENSION + 1
        io = tmp_path / "io.ag"
        rows = ("[" + ", ".join("s + 1" if j == i else "0" for j in range(over)) + "]" for i in range(over))
        io.write_text("iosystem IO { P [" + ", ".join(rows) + "] Q [] }")
        code, out, err = run(capsys, "check-io", "IO", str(io))
        assert code == 2 and out == ""
        assert err == f"error: {io}:1:15: output count {over} is above the maximum {MAX_DIMENSION}\n"

    def test_eliminated_kernel_at_the_cap_reads_back(self, capsys, tmp_path):
        def statespace(p):
            C = "[" + ", ".join(["[1]"] * p) + "]"
            return f"statespace S {{ A [[0]] B [[1]] C {C} D [{', '.join(['[0]'] * p)}] }}"

        at_cap = tmp_path / "at_cap.ag"
        at_cap.write_text(statespace(MAX_DIMENSION - 1))
        code, out, _ = run(capsys, "eliminate", "S", str(at_cap))
        assert code == 0
        kernel = out.split("kernel: \n", 1)[1].rsplit("\nelapsed:", 1)[0]
        assert parse_document(kernel).get("S_kernel").value.dim == MAX_DIMENSION
        over = tmp_path / "over.ag"
        over.write_text(statespace(MAX_DIMENSION))
        code, out, err = run(capsys, "eliminate", "S", str(over))
        assert code == 2 and out == ""
        assert err == (
            f"error: {over}:1:16: inputs plus outputs {MAX_DIMENSION + 1} is above the maximum "
            f"{MAX_DIMENSION}\n"
        )

    @pytest.mark.parametrize(
        "text, col",
        [("statespace Z { A [[0]] B [] C [] D [] }", 16), ("iosystem Z { P [] Q [] }", 14)],
        ids=["statespace", "iosystem"],
    )
    def test_system_without_signals_is_two(self, capsys, tmp_path, text, col):
        # Its kernel would print as `vars ` and `R []`, which does not read back.
        f = tmp_path / "z.ag"
        f.write_text(text)
        code, out, err = run(capsys, "eliminate", "Z", str(f))
        assert code == 2 and out == ""
        assert err == f"error: {f}:1:{col}: inputs plus outputs 0 is below the minimum 1\n"

    def test_parse_error_is_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.ag"
        bad.write_text("kernel K { vars y:1 R [[s^2+, 1]] }")
        code, _, err = run(capsys, "include", "K", "K", str(bad))
        assert code == 2
        assert "error:" in err

    def test_non_ascii_digit_is_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.ag"
        bad.write_text("kernel K { vars w:1 R [[s^\u00b2]] }", encoding="utf-8")
        code, out, err = run(capsys, "smith", "K", str(bad))
        assert code == 2 and out == ""
        assert err == f"error: {bad}:1:27: unexpected character '\u00b2'\n"

    def test_unknown_name_is_two(self, capsys):
        code, _, err = run(capsys, "implements", "NOPE", "C", *CORPUS)
        assert code == 2
        assert "unknown name" in err

    def test_wrong_kind_is_two(self, capsys):
        code, _, err = run(capsys, "implements", "A", "C", *CORPUS)
        assert code == 2
        assert "expected" in err

    def test_missing_file_is_two(self, capsys):
        code, _, err = run(capsys, "implements", "S", "C", "/nonexistent/x.ag")
        assert code == 2

    @pytest.mark.parametrize(
        "text, argv, message",
        [
            ("kernel K { varz u:1 R [[s]] }", ("include", "K", "K"),
             "{f}:1:12: expected 'vars', found 'varz'"),
            ("kernel K { vars u:0 R [] }", ("include", "K", "K"),
             "{f}:1:19: signal dimension must be at least 1"),
            ("foo K {}", ("include", "K", "K"), "{f}:1:1: unknown definition kind 'foo'"),
            ("# only a comment\n", ("include", "K", "K"), "{f}:2:1: empty document"),
            (OTHER_CONTRACTS, ("smith", "[]"), "<matrix>:1:1: empty matrix literal has unknown column count"),
            (OTHER_CONTRACTS, ("implements", "S", "Cx"),
             "system is 2-input 1-output, contract expects 1-input 1-output"),
            (OTHER_CONTRACTS, ("refines", "Cx", "C"), "contracts have different input/output dimensions"),
            (OTHER_CONTRACTS, ("conjoin", "Cx", "C"), "contracts have different input/output dimensions"),
            # Same dimensions, other names: assumptions, then guarantees.
            (OTHER_CONTRACTS, ("conjoin", "C", "Cv"), "signal spaces differ: (('u', 2),) vs (('v', 2),)"),
            (OTHER_CONTRACTS, ("conjoin", "C", "Cw"), "signal spaces differ: (('y', 1),) vs (('w', 1),)"),
        ],
        ids=["varz", "vars-u0", "kind-foo", "comment-only", "smith-empty", "implements-dims",
             "refines-dims", "conjoin-dims", "conjoin-assumption-names", "conjoin-guarantee-names"],
    )
    def test_rejected_input_is_two(self, capsys, tmp_path, text, argv, message):
        f = tmp_path / "input.ag"
        f.write_text(text)
        code, out, err = run(capsys, *argv, str(f), *CORPUS)
        assert code == 2 and out == ""
        assert err == "error: " + message.format(f=f) + "\n"

    @pytest.mark.parametrize(
        "command, target, fault",
        [
            (("implements", "S", "C"), "implements", ArithmeticError("inexact division")),
            (("check-io", "S"), "statespace_to_io", RuntimeError("self-check failed")),
        ],
    )
    def test_internal_fault_is_three(self, capsys, monkeypatch, command, target, fault):
        def broken(*args):
            raise fault

        monkeypatch.setattr(cli, target, broken)
        code, out, err = run(capsys, *command, *CORPUS)
        assert code == 3
        assert out == ""
        assert err == f"internal error: {fault}\n"

    def test_failed_io_form_check_is_three(self, capsys, monkeypatch):
        # statespace_to_io checks its own result; a failure is a fault.
        monkeypatch.setattr(behavior, "check_io_form", lambda sys: False)
        code, out, err = run(capsys, "eliminate", "S", *CORPUS)
        assert code == 3 and out == ""
        assert err == "internal error: state elimination did not yield input-output form\n"

    def test_inexact_division_in_pass_is_three(self, capsys, monkeypatch):
        # Every integer division of the Bareiss pass reports a remainder, so
        # its exactness guard fires inside a real decision.
        def inexact(a, b):
            return (a // b, 1) if isinstance(a, int) else divmod(a, b)

        monkeypatch.setattr(polymatrix, "divmod", inexact, raising=False)
        code, out, err = run(capsys, "include", "A0", "A", *CORPUS)
        assert code == 3
        assert out == ""
        assert err == "internal error: inexact division in fraction-free elimination\n"

    def test_failed_self_check_is_three(self, capsys, monkeypatch):
        # A wrong multiplier (twice the true one) reaches the witness check.
        solve = behavior._left_quotient

        def doubled(src, target):
            M = solve(src, target)
            return M + M if isinstance(M, PolyMatrix) else M

        monkeypatch.setattr(behavior, "_left_quotient", doubled)
        code, out, err = run(capsys, "implements", "S", "C", *CORPUS)
        assert code == 3
        assert out == ""
        assert err == "internal error: invalid witness: multiplier * source != target\n"

    def test_smith_transform_without_inverse_is_three(self, capsys, monkeypatch):
        # The pass that inverts a Smith transform gets one that is not
        # unimodular: its first row times s.
        invert = polymatrix._unimodular_inverse
        monkeypatch.setattr(
            polymatrix, "_unimodular_inverse", lambda W: invert([[S * e for e in W[0]], *W[1:]])
        )
        code, out, err = run(capsys, "smith", "A0", *CORPUS)
        assert code == 3
        assert out == ""
        assert err == (
            "internal error: Smith transform has no polynomial inverse: rank 2 of 2, last pivot s\n"
        )

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit"
    )
    @pytest.mark.parametrize(
        "argv",
        [
            ("include", "R1", "R2"),
            ("include", "R1", "R2", "--format", "json"),
            ("include", "R2", "R1"),
        ],
    )
    def test_unprintable_report_is_three(self, capsys, tmp_path, argv):
        # The inclusion holds, but its witness has about 8,000 digits: beyond
        # Python's default limit (4,300) on int-to-str conversion.
        c = "7" * 4000
        f = tmp_path / "big.ag"
        f.write_text(f"kernel R1 {{ vars w:1 R [[1/{c}]] }}\nkernel R2 {{ vars w:1 R [[{c}]] }}\n")
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            code, out, err = run(capsys, *argv, str(f))
        finally:
            sys.set_int_max_str_digits(limit)
        assert code == 3
        assert out == ""
        assert err.startswith("internal error: ") and err.count("\n") == 1

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit"
    )
    @pytest.mark.parametrize(
        "argv",
        [("smith", "K"), ("smith", "K", "--format", "json"), ("eliminate", "K")],
    )
    def test_unprintable_section_is_three(self, capsys, tmp_path, argv):
        # A valid kernel whose Smith transform V and minimal kernel hold -1/c^2
        # and 1/c^2, about 8,000 digits: beyond the default int-to-str limit.
        c = "7" * 4000
        f = tmp_path / "big.ag"
        f.write_text(f"kernel K {{ vars w:2 R [[{c}, 1/{c}]] }}\n")
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            code, out, err = run(capsys, *argv, str(f))
        finally:
            sys.set_int_max_str_digits(limit)
        assert code == 3
        assert out == ""
        assert err.startswith("internal error: ") and err.count("\n") == 1

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit"
    )
    def test_lower_digit_limit_is_two(self, capsys, tmp_path):
        f = tmp_path / "lim.ag"
        f.write_text(f"kernel K {{ vars w:1\n  R [[s + {'7' * 700}]] }}\n")
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            code, out, err = run(capsys, "include", "K", "K", str(f))
        finally:
            sys.set_int_max_str_digits(limit)
        assert code == 2 and out == ""
        assert err == f"error: {f}:2:11: integer of 700 digits exceeds the maximum 640\n"


class TestCommands:
    def test_check_io(self, capsys):
        code, out, _ = run(capsys, "check-io", "S", *CORPUS)
        assert code == 0
        assert "P [[s^2]]" in out.replace("P: ", "P ")

    def test_check_io_memoryless(self, capsys, tmp_path):
        # With no states, C [] takes D's row count: y = 2 u1 + u2.
        f = tmp_path / "m.ag"
        f.write_text("statespace M { A [] B [] C [] D [[2, 1]] }")
        code, out, _ = run(capsys, "check-io", "M", str(f))
        assert code == 0
        assert "\nP: [[1]]\nQ: [[2, 1]]\n" in out

    def test_check_io_without_inputs_round_trip(self, capsys, tmp_path):
        # Q without columns prints as [] and reads back with P's rows.
        f = tmp_path / "n.ag"
        f.write_text("statespace N { A [[0]] B [] C [[1]] D [] }")
        code, out, _ = run(capsys, "check-io", "N", str(f))
        assert code == 0 and "\nP: [[s]]\nQ: []\n" in out
        P, Q = (line.split(": ", 1)[1] for line in out.splitlines()[2:4])
        g = tmp_path / "n2.ag"
        g.write_text(f"iosystem N2 {{ P {P} Q {Q} }}")
        code, out, _ = run(capsys, "check-io", "N2", str(g))
        assert code == 0 and "\nP: [[s]]\nQ: []\n" in out
        Q = parse_documents([("n2", g.read_text())]).get("N2").value.Q
        assert (Q.rows, Q.cols) == (1, 0)

    def test_check_io_rejects_non_io(self, capsys, tmp_path):
        f = tmp_path / "d.ag"
        f.write_text("iosystem D { P [[1]] Q [[s]] }")
        code, out, _ = run(capsys, "check-io", "D", str(f))
        assert code == 1

    @pytest.mark.parametrize(
        "argv, text, fields",
        [
            (
                ("eliminate", "S"),
                "kernel: \nkernel S_kernel {\n  vars u:2, y:1\n"
                "  R [[-s^2 - s - 1, s + 1, s^2]]\n}",
                {"kernel": {"vars": "u:2, y:1",
                            "R": [[["-1", "-1", "-1"], ["1", "1"], ["0", "0", "1"]]]}},
            ),
            (
                ("check-io", "S"),
                "result: holds\nP: [[s^2]]\nQ: [[s^2 + s + 1, -s - 1]]",
                {"P": [[["0", "0", "1"]]], "Q": [[["1", "1", "1"], ["-1", "-1"]]]},
            ),
            (
                ("check-io", "S0"),
                "result: holds\nP: [[s^2]]\nQ: [[-s - 1, s^2 + s + 2]]",
                {"P": [[["0", "0", "1"]]], "Q": [[["-1", "-1"], ["2", "1", "1"]]]},
            ),
            (
                ("implements", "S", "C"),
                "result: holds\nwitness (guarantees): M = [[1]]\n  checks M * [[s^2]] = [[s^2]]",
                {"witnesses": [{"label": "guarantees", "multiplier": [[["1"]]],
                                "source": [[["0", "0", "1"]]], "target": [[["0", "0", "1"]]]}]},
            ),
            (
                ("eliminate", "IO"),
                "kernel: \nkernel IO_kernel {\n  vars u:2, y:1\n"
                "  R [[-s^2 - s - 1, s + 1, s^2]]\n}",
                {"kernel": {"vars": "u:2, y:1",
                            "R": [[["-1", "-1", "-1"], ["1", "1"], ["0", "0", "1"]]]}},
            ),
            (
                ("eliminate", "L"),
                "kernel: \nkernel L_kernel {\n  vars w:2\n  R [[1, -s]]\n}",
                {"kernel": {"vars": "w:2", "R": [[["1"], ["0", "-1"]]]}},
            ),
        ],
    )
    def test_statespace_outputs_golden(self, capsys, tmp_path, argv, text, fields):
        # State-space systems are printed in the normal form read off their
        # observability indices: P row reduced with monic diagonal. README's
        # iosystem IO and latent L come from a file of their own.
        readme = tmp_path / "readme.ag"
        readme.write_text(README_SYSTEMS)
        files = (str(readme), *CORPUS)
        code, out, _ = run(capsys, *argv, *files)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "command: " + " ".join(argv) and lines[-1].startswith("elapsed: ")
        assert "\n".join(lines[1:-1]) == text
        code, out, _ = run(capsys, *argv, "--format", "json", *files)
        obj = json.loads(out)
        assert code == 0 and {k: obj[k] for k in fields} == fields

    def test_eliminate_output_reparses(self, capsys):
        code, out, _ = run(capsys, "eliminate", "S", *CORPUS)
        assert code == 0
        start = out.index("kernel S_kernel")
        end = out.index("}", start) + 1
        doc = parse_document(out[start:end])
        assert doc.get("S_kernel").value.R.cols == 3

    def test_smith_by_name(self, capsys):
        code, out, _ = run(capsys, "smith", "A0", *CORPUS)
        assert code == 0
        assert "invariant factors:" in out

    def test_smith_literal(self, capsys):
        code, out, _ = run(capsys, "smith", "[[s^2, 0], [0, s]]", *CORPUS)
        assert code == 0
        assert "invariant factors: [s, s^2]" in out

    @pytest.mark.parametrize(
        "matrix, U, V",
        [
            ("[[1/2*s, 1], [s^2, 2*s]]", "[[1/2, 0], [s, 1]]", "[[s, 2], [1/2, 0]]"),
            (
                "[[2*s, 4, 1/3], [s, 2, 1/6], [1/3, 1/5*s, 0]]",
                "[[2*s, -6/5, 1], [s, -3/5, 0], [1/3, 0, 0]]",
                "[[1, 3/5*s, 0], [0, s^2 - 10/3, -5/18], [0, 1/5, 0]]",
            ),
        ],
    )
    def test_smith_transforms_golden(self, capsys, matrix, U, V):
        # The echelon scans leave the rows below the rank that they update
        # primitive, and the rows they never touch in their input scaling;
        # the printed transforms depend on both.
        code, out, _ = run(capsys, "smith", matrix, *CORPUS)
        assert code == 0
        text = dict(line.split(": ", 1) for line in out.splitlines())
        assert (text["U"], text["V"]) == (U, V)

    @pytest.mark.parametrize("matrix", ["A0", "[[s^2, 0], [0, s]]"])
    def test_smith_transforms_reconstruct(self, capsys, matrix):
        # Smith transforms are not unique; whatever is printed must give back R.
        if matrix.startswith("["):
            R = parse_matrix_text(matrix)
        else:
            R = parse_documents([(p, Path(p).read_text()) for p in CORPUS]).get(matrix).value.R

        def middle(U, factors, V):
            return PolyMatrix(
                [[factors[i] if i == j and i < len(factors) else ZERO for j in range(V.rows)]
                 for i in range(U.rows)],
                cols=V.rows,
            )

        code, out, _ = run(capsys, "smith", matrix, *CORPUS)
        assert code == 0
        text = dict(line.split(": ", 1) for line in out.splitlines())
        U, V = parse_matrix_text(text["U"]), parse_matrix_text(text["V"])
        factors = parse_matrix_text("[" + text["invariant factors"] + "]").entries[0]
        assert U * middle(U, factors, V) * V == R

        code, out, _ = run(capsys, "smith", matrix, "--format", "json", *CORPUS)
        assert code == 0
        obj = json.loads(out)

        def poly(coeffs):
            return Poly([Fraction(c) for c in coeffs])

        def matrix_of(grid):
            return PolyMatrix([[poly(e) for e in row] for row in grid], cols=len(grid[0]))

        U, V = matrix_of(obj["U"]), matrix_of(obj["V"])
        factors = [poly(f) for f in obj["invariant_factors"]]
        assert U * middle(U, factors, V) * V == R

    def test_include(self, capsys, tmp_path):
        f = tmp_path / "k.ag"
        f.write_text("kernel R1 { vars w:1 R [[s]] }\nkernel R2 { vars w:1 R [[s^2]] }")
        code, out, _ = run(capsys, "include", "R1", "R2", str(f))
        assert code == 0
        assert "witness" in out
        code, out, _ = run(capsys, "include", "R2", "R1", str(f))
        assert code == 1

    def test_compatible(self, capsys):
        code, _, _ = run(capsys, "compatible", "A0", "C", *CORPUS)
        assert code == 0

    def test_refines(self, capsys):
        code, out, _ = run(capsys, "refines", "C", "C0", *CORPUS)
        assert code == 0
        assert out.count("witness") == 2
        code, _, _ = run(capsys, "refines", "C0", "C", *CORPUS)
        assert code == 1

    def test_quiet_suppresses_witnesses(self, capsys):
        code, out, _ = run(capsys, "refines", "C", "C0", "--quiet", *CORPUS)
        assert code == 0
        assert "witness" not in out


class TestConjoin:
    def test_writes_file_that_reverifies(self, capsys, tmp_path):
        out_file = tmp_path / "conj.ag"
        code, _, _ = run(capsys, "conjoin", "C1", "C2", "--out", str(out_file), *CORPUS)
        assert code == 0
        assert out_file.exists()
        for other in ("C1", "C2"):
            code, _, _ = run(
                capsys, "refines", "C1_and_C2", other, str(out_file), *CORPUS
            )
            assert code == 0

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("target", ["missing/conj.ag", "."])
    def test_unwritable_out_is_two(self, capsys, tmp_path, fmt, target):
        path = tmp_path / target
        code, out, err = run(
            capsys, "conjoin", "C1", "C2", "--out", str(path), "--format", fmt, *CORPUS
        )
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot write {path}: ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_stdout_document_parses(self, capsys):
        code, out, _ = run(capsys, "conjoin", "C1", "C2", *CORPUS)
        assert code == 0
        start = out.index("kernel")
        end = out.rindex("}") + 1
        doc = parse_document(out[start:end])
        assert "C1_and_C2" in doc.definitions


class TestJsonFormat:
    def test_structure_and_exactness(self, capsys):
        code, out, _ = run(capsys, "implements", "S", "C", "--format", "json", *CORPUS)
        assert code == 0
        obj = json.loads(out)
        assert obj["command"] == "implements"
        assert obj["holds"] is True
        assert obj["exit_code"] == 0
        w = obj["witnesses"][0]
        assert w["label"] == "guarantees"
        # Multiplier is [[1]]: one row, one entry, coefficient list ["1"].
        assert w["multiplier"] == [[["1"]]]
        assert w["target"] == [[["0", "0", "1"]]]

    def test_determinism(self, capsys):
        _, out1, _ = run(capsys, "refines", "C", "C0", "--format", "json", *CORPUS)
        _, out2, _ = run(capsys, "refines", "C", "C0", "--format", "json", *CORPUS)
        a, b = json.loads(out1), json.loads(out2)
        a.pop("elapsed_seconds"), b.pop("elapsed_seconds")
        assert a == b

    def test_elapsed_includes_parsing(self, capsys, monkeypatch):
        parse = cli.parse_documents

        def slow_parse(sources):
            time.sleep(0.05)
            return parse(sources)

        monkeypatch.setattr(cli, "parse_documents", slow_parse)
        _, out, _ = run(capsys, "check-io", "S", "--format", "json", *CORPUS)
        assert json.loads(out)["elapsed_seconds"] >= 0.05

    def test_quiet_json(self, capsys):
        _, out, _ = run(capsys, "refines", "C", "C0", "--format", "json", "--quiet", *CORPUS)
        assert json.loads(out)["witnesses"] == []

    @pytest.mark.parametrize(
        "argv, sides",
        [
            (("refines", "C", "C0"), {"assumptions": ("A0", "A"), "guarantees": ("G", "G")}),
            (("refines", "C2", "C0"), {"assumptions": ("A0", "A2"), "guarantees": ("G", "G")}),
            (("compatible", "A0", "C"), {"assumptions": ("A0", "A")}),
        ],
    )
    def test_witnesses_use_the_file_matrices(self, capsys, argv, sides):
        # A witness multiplies the kernels as written in the files, not a
        # transformed form of them, and re-multiplies to its target.
        doc = parse_documents([(p, Path(p).read_text()) for p in CORPUS])
        code, out, _ = run(capsys, *argv, "--format", "json", *CORPUS)
        assert code == 0
        witnesses = json.loads(out)["witnesses"]
        assert [w["label"] for w in witnesses] == list(sides)

        def matrix_of(grid):
            return PolyMatrix(
                [[Poly([Fraction(c) for c in e]) for e in row] for row in grid],
                cols=len(grid[0]),
            )

        for w in witnesses:
            source, target = (doc.get(name).value.R for name in sides[w["label"]])
            assert matrix_of(w["source"]) == source
            assert matrix_of(w["target"]) == target
            assert matrix_of(w["multiplier"]) * source == target


class TestWitnessTextRoundTrip:
    def test_witness_matrices_reparse(self, capsys):
        _, out, _ = run(capsys, "include", "A0", "A", *CORPUS)
        for line in out.splitlines():
            if line.startswith("witness"):
                literal = line.split("M = ", 1)[1]
                m = parse_matrix_text(literal)
                assert m.rows == 1
