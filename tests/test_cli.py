"""Command-line interface: commands, exit codes, output formats."""

import json
import time

import pytest

import agverify
from agverify import cli
from agverify.cli import main
from agverify.docparse import MAX_EXPONENT, parse_document, parse_matrix_text

CORPUS = sorted(str(p) for p in agverify.corpus_dir().glob("*.ag"))


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

    def test_parse_error_is_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.ag"
        bad.write_text("kernel K { vars y:1 R [[s^2+, 1]] }")
        code, _, err = run(capsys, "include", "K", "K", str(bad))
        assert code == 2
        assert "error:" in err

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


class TestCommands:
    def test_check_io(self, capsys):
        code, out, _ = run(capsys, "check-io", "S", *CORPUS)
        assert code == 0
        assert "P [[s^2]]" in out.replace("P: ", "P ")

    def test_check_io_rejects_non_io(self, capsys, tmp_path):
        f = tmp_path / "d.ag"
        f.write_text("iosystem D { P [[1]] Q [[s]] }")
        code, out, _ = run(capsys, "check-io", "D", str(f))
        assert code == 1

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


class TestWitnessTextRoundTrip:
    def test_witness_matrices_reparse(self, capsys):
        _, out, _ = run(capsys, "include", "A0", "A", *CORPUS)
        for line in out.splitlines():
            if line.startswith("witness"):
                literal = line.split("M = ", 1)[1]
                m = parse_matrix_text(literal)
                assert m.rows == 1
