"""Text format: lexing, parsing, validation, serialization round trips."""

import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from agverify.behavior import IoSystem, KernelRep, LatentRep, StateSpace
from agverify.contracts import Contract
from agverify.docparse import (
    MAX_DIGITS,
    MAX_DIMENSION,
    MAX_EXPONENT,
    Definition,
    Document,
    DocumentValidationError,
    DuplicateNameError,
    DimensionInconsistencyError,
    ParseError,
    UnresolvedReferenceError,
    _Parser,
    contract_document,
    format_document,
    format_matrix,
    matrix_coeffs,
    parse_document,
    parse_documents,
    parse_matrix_text,
    poly_coeffs,
)
from agverify.polyalg import S, Poly
from agverify.polymatrix import PolyMatrix
from support import budget, tokenize_reference


coefficients = st.fractions(min_value=-9, max_value=9, max_denominator=12)
polys = st.lists(coefficients, max_size=4).map(Poly)  # zero, negative and rational


@st.composite
def poly_matrices(draw, rows, cols):
    return PolyMatrix([[draw(polys) for _ in range(cols)] for _ in range(rows)], cols=cols)


@st.composite
def kernels(draw):
    labels = draw(
        st.lists(
            st.tuples(st.sampled_from(["u", "y", "w_1"]), st.integers(min_value=1, max_value=2)),
            min_size=1,
            max_size=2,
        )
    )
    dim = sum(d for _, d in labels)
    return KernelRep(draw(poly_matrices(draw(st.integers(0, 2)), dim)), labels)


@st.composite
def documents(draw):
    """Kernel definitions, then contracts over pairs of them."""
    doc = Document()
    names = [f"K{i}" for i in range(draw(st.integers(min_value=1, max_value=3)))]
    for name in names:
        doc.definitions[name] = Definition("kernel", name, draw(kernels()))
    for i in range(draw(st.integers(min_value=0, max_value=2))):
        refs = (draw(st.sampled_from(names)), draw(st.sampled_from(names)))
        value = Contract(*(doc.definitions[r].value for r in refs))
        doc.definitions[f"C{i}"] = Definition("contract", f"C{i}", value, refs=refs)
    return doc


class TestPolyParsing:
    def test_guarantee_example(self):
        doc = parse_document("kernel G { vars y:1  R [[s^2]] }")
        k = doc.get("G", kinds=("kernel",)).value
        assert k.R == PolyMatrix([[S**2]])
        assert k.signal_labels == (("y", 1),)

    def test_rational_coefficients_exact(self):
        m = parse_matrix_text("[[3/2*s^2 - s + 1]]")
        assert m[0, 0] == Poly([1, -1, Fraction(3, 2)])

    def test_term_variants(self):
        m = parse_matrix_text("[[2*s, s^3, -s, 7, 1/3, -2/5*s^2, s]]")
        assert m == PolyMatrix(
            [[2 * S, S**3, -S, Poly([7]), Poly([Fraction(1, 3)]),
              Poly([0, 0, Fraction(-2, 5)]), S]]
        )

    def test_repeated_powers_collect(self):
        m = parse_matrix_text("[[s + s + 1 - 1]]")
        assert m[0, 0] == 2 * S

    def test_whitespace_free_literal(self):
        m = parse_matrix_text("[[s^2+1, -s],[0, 1]]")
        assert m == PolyMatrix([[S**2 + 1, -S], [Poly([0]), Poly([1])]])

    def test_dangling_plus_is_syntax_error(self):
        with pytest.raises(ParseError) as exc:
            parse_matrix_text("[[s^2+, 1]]")
        assert "line" not in str(exc.value)  # position encoded as source:line:col
        assert ":1:7:" in str(exc.value)

    def test_unexpected_character(self):
        with pytest.raises(ParseError) as exc:
            parse_document("kernel K { vars y:1 R [[s$]] }")
        assert "unexpected character" in str(exc.value)

    @pytest.mark.parametrize(
        "text, col",
        [("kernel K { vars w:1 R [[s^\u00b2]] }", 27), ("kernel K { vars w:\u00b2 R [[s]] }", 19)],
    )
    def test_non_ascii_digit_is_unexpected_character(self, text, col):
        # str.isdigit() accepts a superscript two; only 0-9 make an integer.
        with pytest.raises(ParseError) as exc:
            parse_document(text)
        assert f":1:{col}: unexpected character '\u00b2'" in str(exc.value)

    @pytest.mark.parametrize(
        "text, name, error",
        [
            ("kernel K { vars y:\u0663 R [[s]] }", None, ":1:19: unexpected character '\u0663'"),
            ("kernel \u00e9t\u00e9 { vars y:1 R [[s]] }", "\u00e9t\u00e9", None),
            ("kernel K2\u00b2 { vars y:1 R [[s]] }", "K2\u00b2", None),
            ("kernel K {\r vars y:1 R [[s]] $ }", None, ":1:30: unexpected character '$'"),
            ("kernel K {\t\tvars y:1 R [[s]] } #x\n%", None, ":2:1: unexpected character '%'"),
            ("kernel K { vars y:1 R [[s]] # x", None, ":1:29: expected '}', found 'end of input'"),
            # A token is its text: a name reads as a name whatever it spells.
            ("kernel K { vars y:INT R [[s]] }", None, ":1:19: expected an integer, found 'INT'"),
            ("kernel EOF { vars NAME:1 R [[s]] }", "EOF", None),
            ("kernel end { vars y:1 R [[s]] }", "end", None),
        ],
    )
    def test_tokenizer_edge_cases(self, text, name, error):
        # A name may go on with any digit but start with none; tabs and \r are
        # one column each, and a comment does not advance the column.
        if error is None:
            assert list(parse_document(text).definitions) == [name]
            return
        with pytest.raises(ParseError) as exc:
            parse_document(text)
        assert error in str(exc.value)

    def test_name_where_s_is_expected(self):
        with pytest.raises(ParseError) as exc:
            parse_matrix_text("[[s, 2*INT]]")
        assert ":1:8: expected 's', found 'INT'" in str(exc.value)

    def test_zero_denominator(self):
        with pytest.raises(ParseError):
            parse_matrix_text("[[1/0]]")

    def test_exponent_cap_boundary(self):
        m = parse_matrix_text(f"[[2*s^{MAX_EXPONENT} + 1]]")
        assert m[0, 0].degree == MAX_EXPONENT
        with pytest.raises(ParseError) as exc:
            parse_matrix_text(f"[[1,\n 2*s^{MAX_EXPONENT + 1}]]")
        assert ":2:6:" in str(exc.value)
        assert f"exponent {MAX_EXPONENT + 1} exceeds the maximum {MAX_EXPONENT}" in str(exc.value)

    def test_digit_cap_boundary(self):
        big = int("8" * MAX_DIGITS)
        m = parse_matrix_text(f"[[{'8' * MAX_DIGITS}/7*s - 1]]")
        assert m[0, 0] == Poly([-1, Fraction(big, 7)])
        with pytest.raises(ParseError) as exc:
            parse_matrix_text(f"[[1,\n 2*s^{'0' * MAX_DIGITS}1]]")
        assert ":2:6:" in str(exc.value)
        assert f"integer of {MAX_DIGITS + 1} digits exceeds the maximum {MAX_DIGITS}" in str(
            exc.value
        )

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit"
    )
    def test_digit_cap_follows_interpreter_limit(self):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            at_cap = parse_matrix_text(f"[[{'9' * 640}]]")[0, 0]
            with pytest.raises(ParseError) as exc:
                parse_matrix_text(f"[[1,\n 2*s + {'7' * 700}]]")
        finally:
            sys.set_int_max_str_digits(limit)
        assert at_cap == Poly([10**640 - 1])
        assert ":2:8:" in str(exc.value)
        assert "integer of 700 digits exceeds the maximum 640" in str(exc.value)


class TestLexer:
    @settings(max_examples=400, deadline=None)
    @given(st.text(alphabet="[]{},:+-*^/ \t\r\n#sxyINT_019\u00b2\u00e9\u0663\u00bd\u01c5$", max_size=60))
    def test_matches_reference_lexer(self, text):
        try:
            expected = tokenize_reference(text, "<t>")
        except ParseError as exc:
            # Every character is checked before any syntax error is raised.
            with pytest.raises(ParseError) as got:
                parse_document(text, "<t>")
            assert str(got.value) == str(exc)
            return
        parser = _Parser(text, "<t>")
        assert parser.tokens == [t.text for t in expected[:-1]] + [""]
        assert [parser.line(i) for i in range(len(expected))] == [t.line for t in expected]
        assert [parser.position(i) for i in range(len(expected))] == [
            (t.line, t.col) for t in expected
        ]

    def test_lexing_is_linear(self):
        # The pattern nests a quantifier over blanks and comments; since one
        # of its alternatives matches at every position, it never backtracks.
        kernel = "kernel K { vars y:1 R [[s]] }"
        with budget(1.0, "a kernel and 1 MB of blanks"):
            assert list(parse_document(kernel + " \t" * 500_000).definitions) == ["K"]
        with budget(1.0, "50,000 comment lines and a kernel"):
            doc = parse_document("# a comment line\n" * 50_000 + kernel)
        assert doc.get("K").line == 50_001
        with budget(1.0, "100,000 blanks and a bad character"):
            with pytest.raises(ParseError) as exc:
                parse_document(" " * 100_000 + "$")
        assert ":1:100001: unexpected character '$'" in str(exc.value)


class TestDefinitions:
    def test_statespace(self):
        doc = parse_document(
            "statespace S { A [[0,1],[0,0]] B [[1,-1],[1,-1]] C [[1,0]] D [[1,0]] }"
        )
        ss = doc.get("S").value
        assert isinstance(ss, StateSpace)
        assert (ss.n, ss.m, ss.p) == (2, 2, 1)

    def test_statespace_empty_matrices(self):
        # `[]` takes the empty shape the other matrices imply.
        doc = parse_document(
            "statespace M { A [] B [] C [] D [[2, 1]] }\n"
            "statespace N { A [[0]] B [] C [[1]] D [] }"
        )
        M, N = doc.get("M").value, doc.get("N").value
        assert (M.n, M.m, M.p, M.B.cols, M.C.rows) == (0, 2, 1, 2, 1)
        assert (N.n, N.m, N.p, N.B.rows, N.D.rows) == (1, 0, 1, 1, 1)
        with pytest.raises(DimensionInconsistencyError):
            parse_document("statespace S { A [[0]] B [] C [[1]] D [[1]] }")

    def test_iosystem(self):
        doc = parse_document("iosystem IO { P [[s]] Q [[1]] }")
        io = doc.get("IO").value
        assert isinstance(io, IoSystem)
        assert io.P == PolyMatrix([[S]])

    def test_latent(self):
        doc = parse_document(
            "latent L { vars u:1, y:1 latent x:1 R [[1,0],[0,1]] E [[s],[1]] }"
        )
        lat = doc.get("L").value
        assert isinstance(lat, LatentRep)
        assert lat.latent_dim == 1

    def test_contract_resolution(self):
        doc = parse_document(
            """
            kernel A { vars u:1 R [[s]] }
            kernel G { vars y:1 R [[s^2]] }
            contract C { assumptions A guarantees G }
            """
        )
        c = doc.get("C", kinds=("contract",)).value
        assert isinstance(c, Contract)
        assert c.input_dim == 1 and c.output_dim == 1

    def test_forward_and_cross_file_references(self):
        doc = parse_documents(
            [
                ("a.ag", "contract C { assumptions A guarantees G }"),
                ("b.ag", "kernel A { vars u:1 R [[s]] }\nkernel G { vars y:1 R [[s]] }"),
            ]
        )
        assert isinstance(doc.get("C").value, Contract)

    def test_empty_matrix_kernel(self):
        doc = parse_document("kernel F { vars u:2 R [] }")
        k = doc.get("F").value
        assert k.R.rows == 0 and k.R.cols == 2

    def test_dimension_cap_boundary(self):
        doc = parse_document(f"kernel K {{ vars a:1, b:{MAX_DIMENSION - 1} R [] }}")
        assert doc.get("K").value.R.cols == MAX_DIMENSION
        lat = parse_document(f"latent L {{ vars w:{MAX_DIMENSION} latent l:1 R [] E [] }}")
        assert lat.get("L").value.manifest.cols == MAX_DIMENSION
        for source, col in [
            (f"kernel K {{\n vars a:1, b:{MAX_DIMENSION} R [] }}", 14),
            (f"latent L {{\n vars w:{MAX_DIMENSION + 1} latent l:1 R [] E [] }}", 9),
        ]:
            with pytest.raises(ParseError) as exc:
                parse_document(source)
            assert f":2:{col}: signal dimensions add up to {MAX_DIMENSION + 1}" in str(exc.value)

    def test_matrix_size_caps(self):
        def rows(n):
            return "[" + ", ".join(["[s]"] * n) + "]"

        def kernel(n):
            return f"kernel K {{\n vars y:1\n R {rows(n)} }}"

        assert parse_document(kernel(MAX_DIMENSION)).get("K").value.R.rows == MAX_DIMENSION
        assert parse_matrix_text(rows(MAX_DIMENSION)).rows == MAX_DIMENSION
        wide = "[[" + ", ".join(["1"] * MAX_DIMENSION) + "]]"
        assert parse_matrix_text(wide).cols == MAX_DIMENSION
        over = MAX_DIMENSION + 1
        for parse, text, message in [
            (parse_document, kernel(over), f":3:2: kernel row count {over} is above the maximum"),
            (parse_matrix_text, " " + rows(over), f":1:2: matrix row count {over} is above the maximum"),
            (parse_matrix_text, wide.replace("1", "1, 1", 1),
             f":1:1: matrix column count {over} is above the maximum"),
        ]:
            with pytest.raises(ParseError) as exc:
                parse(text)
            assert message in str(exc.value)

    @pytest.mark.parametrize(
        "parse, text, message",
        [
            (parse_document, "kernel K { vars y:1 R [{rows}] }",
             "<string>:1:21: kernel row count 20000 is above the maximum 100"),
            (parse_document, "statespace S { A [{rows}] B [[1]] C [[1]] D [[0]] }",
             "<string>:1:16: state dimension 20000 is above the maximum 100"),
            (parse_document, "iosystem IO { P [{rows}] Q [] }",
             "<string>:1:15: output count 20000 is above the maximum 100"),
            (parse_matrix_text, "[{rows}]", "<matrix>:1:1: matrix row count 20000 is above the maximum 100"),
            (parse_document, "latent L { vars w:1 latent l:1 R [{rows}] E [[1]] }",
             "<string>:1:32: latent row count 20000 is above the maximum 100"),
            (parse_document, "latent L { vars w:1 latent l:1 R [[1]] E [{rows}] }",
             "<string>:1:40: latent row count 20000 is above the maximum 100"),
        ],
        ids=["kernel", "statespace", "iosystem", "literal", "latent R", "latent E"],
    )
    def test_over_cap_rows_are_counted_not_parsed(self, monkeypatch, parse, text, message):
        parsed = []
        parse_poly = _Parser.parse_poly

        def counted(parser):
            parsed.append(parser.pos)
            return parse_poly(parser)

        monkeypatch.setattr(_Parser, "parse_poly", counted)
        with pytest.raises(ParseError) as exc:
            parse(text.replace("{rows}", ", ".join(["[s^2 + 3*s + 1]"] * 20000)))
        assert str(exc.value) == message
        assert len(parsed) <= MAX_DIMENSION + 1

    @pytest.mark.parametrize(
        "text, message",
        [
            ("statespace S { A [[0]] B [{rows}] C [[1]] D [[0]] }",
             "<string>:1: in statespace 'S': input matrix row count must match the state dimension"),
            ("statespace S { A [[0, 1]] B [{rows}] C [[1]] D [[0]] }",
             "<string>:1: in statespace 'S': state matrix must be square"),
            ("statespace S { A [[0]] B [[1]] C [{rows}] D [[0]] }",
             "<string>:1: in statespace 'S': feedthrough rows must match the output dimension"),
            ("statespace S { A [[0]] B [[1]] C [{rows}] D [{rows}, [1]] }",
             "<string>:1: in statespace 'S': feedthrough rows must match the output dimension"),
            ("statespace S { A [[0]] B [[1]] C [{rows}] D [{rows}] }",
             "<string>:1:16: inputs plus outputs 20001 is above the maximum 100"),
            ("statespace S { A [[0]] B [[1]] C [[1]] D [{rows}] }",
             "<string>:1: in statespace 'S': feedthrough rows must match the output dimension"),
            ("statespace S { A [] B [] C [] D [{rows}] }",
             "<string>:1:16: inputs plus outputs 20001 is above the maximum 100"),
            ("iosystem IO { P [[s]] Q [{rows}] }",
             "<string>:1: in iosystem 'IO': P and Q must have equal row counts"),
        ],
        ids=["B", "B, A not square", "C", "C and D apart", "C and D", "D", "D without states", "Q"],
    )
    def test_rows_past_the_shape_are_counted_not_parsed(self, monkeypatch, text, message):
        # Each message is the one the whole matrix gives; at most a cap's
        # worth of rows past a limit is parsed.
        parsed = []
        parse_poly = _Parser.parse_poly

        def counted(parser):
            parsed.append(parser.pos)
            return parse_poly(parser)

        monkeypatch.setattr(_Parser, "parse_poly", counted)
        with pytest.raises((ParseError, DimensionInconsistencyError)) as exc:
            parse_document(text.replace("{rows}", ", ".join(["[2]"] * 20000)))
        assert str(exc.value) == message
        assert len(parsed) <= 2 * (MAX_DIMENSION + 1) + 3

    def test_statespace_matrices_are_built_once(self, monkeypatch):
        built = []
        init = PolyMatrix.__init__

        def counted(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(PolyMatrix, "__init__", counted)
        s = parse_document("statespace S { A [[0]] B [[1, 2]] C [[1]] D [[0, 1]] }").get("S").value
        assert (s.n, s.m, s.p) == (1, 2, 1) and len(built) == 4

    def test_output_count_cap(self):
        def iosystem(n):
            P = ", ".join("[" + ", ".join("s" if j == i else "0" for j in range(n)) + "]" for i in range(n))
            return f"iosystem IO {{\n P [{P}] Q [] }}"

        assert parse_document(iosystem(MAX_DIMENSION)).get("IO").value.p == MAX_DIMENSION
        over = MAX_DIMENSION + 1
        with pytest.raises(ParseError) as exc:
            parse_document(iosystem(over))
        assert f":2:2: output count {over} is above the maximum {MAX_DIMENSION}" in str(exc.value)

    def test_inputs_plus_outputs_cap(self):
        # `eliminate` prints a system's inputs and outputs as one vars list,
        # so they obey the vars list's cap.
        def statespace(m, p):
            B = "[[" + ", ".join(["1"] * m) + "]]" if m else "[]"
            C = "[" + ", ".join(["[1]"] * p) + "]"
            D = "[" + ", ".join(["[" + ", ".join(["0"] * m) + "]"] * p) + "]" if m else "[]"
            return f"statespace S {{\n A [[0]] B {B} C {C} D {D} }}"

        def iosystem(m):
            return f"iosystem IO {{\n P [[s]] Q [[{', '.join(['1'] * m)}]] }}"

        s = parse_document(statespace(40, MAX_DIMENSION - 40)).get("S").value
        assert s.m + s.p == MAX_DIMENSION
        assert parse_document(iosystem(MAX_DIMENSION - 1)).get("IO").value.m == MAX_DIMENSION - 1
        over = MAX_DIMENSION + 1
        for text in (statespace(0, over), statespace(1, MAX_DIMENSION), iosystem(MAX_DIMENSION)):
            with pytest.raises(ParseError) as exc:
                parse_document(text)
            assert f":2:2: inputs plus outputs {over} is above the maximum {MAX_DIMENSION}" in str(exc.value)

    def test_comments_skipped(self):
        doc = parse_document("# heading\nkernel K { vars y:1 R [[s]] } # tail")
        assert "K" in doc.definitions


class TestValidation:
    def test_duplicate_name(self):
        with pytest.raises(DocumentValidationError) as exc:
            parse_document(
                "kernel K { vars y:1 R [[s]] }\nkernel K { vars y:1 R [[s]] }"
            )
        assert isinstance(exc.value.errors[0], DuplicateNameError)

    def test_unresolved_reference(self):
        with pytest.raises(DocumentValidationError) as exc:
            parse_document("contract C { assumptions A guarantees G }")
        assert all(isinstance(e, UnresolvedReferenceError) for e in exc.value.errors)
        assert len(exc.value.errors) == 2

    def test_wrong_kind_reference(self):
        with pytest.raises(DocumentValidationError) as exc:
            parse_document(
                """
                statespace A { A [[0]] B [[1]] C [[1]] D [[0]] }
                kernel G { vars y:1 R [[s]] }
                contract C { assumptions A guarantees G }
                """
            )
        assert "is a statespace" in str(exc.value)

    def test_dimension_inconsistency_kernel(self):
        with pytest.raises(DimensionInconsistencyError):
            parse_document("kernel K { vars y:2 R [[s]] }")

    def test_dimension_inconsistency_latent(self):
        with pytest.raises(DimensionInconsistencyError) as exc:
            parse_document("latent L { vars w:2 latent l:5 R [[1,0],[0,1]] E [[s],[1]] }")
        assert "in latent 'L': matrix E has 1 columns but l:5 is declared" in str(exc.value)

    def test_dimension_inconsistency_ragged_matrix(self):
        with pytest.raises(DimensionInconsistencyError):
            parse_document("kernel K { vars y:2 R [[s, 1], [s]] }")

    def test_statespace_entries_must_be_constant(self):
        with pytest.raises(DimensionInconsistencyError):
            parse_document("statespace S { A [[s]] B [[1]] C [[1]] D [[0]] }")

    def test_multiple_errors_reported_together(self):
        with pytest.raises(DocumentValidationError) as exc:
            parse_document(
                """
                kernel K { vars y:1 R [[s]] }
                kernel K { vars y:1 R [[s]] }
                contract C { assumptions missing guarantees K }
                """
            )
        kinds = {type(e) for e in exc.value.errors}
        assert DuplicateNameError in kinds and UnresolvedReferenceError in kinds


class TestRoundTrip:
    SOURCES = [
        "kernel K { vars u:2 R [[s^2 + 1, -s], [0, 1]] }",
        "kernel F { vars u:2 R [] }",
        "statespace S { A [[0,1],[0,0]] B [[1,-1],[1,-1]] C [[1,0]] D [[1,0]] }",
        "iosystem IO { P [[s^2]] Q [[s^2 + s + 1, -s - 1]] }",
        "latent L { vars w:2 latent l:1 R [[1,0],[0,1]] E [[s],[1]] }",
        """kernel A { vars u:1 R [[3/2*s^2 - s + 1]] }
           kernel G { vars y:1 R [[s^2]] }
           contract C { assumptions A guarantees G }""",
    ]

    @pytest.mark.parametrize("source", SOURCES)
    def test_parse_format_parse(self, source):
        doc = parse_document(source)
        text = format_document(doc)
        again = parse_document(text, source="<reprint>")
        assert again == doc

    def test_contract_document_round_trip(self):
        a = KernelRep(PolyMatrix([[S, 1]]), (("u", 2),))
        g = KernelRep(PolyMatrix([[S**2]]), (("y", 1),))
        doc = contract_document("X", Contract(a, g))
        again = parse_document(format_document(doc))
        assert again == doc

    def test_matrix_text_round_trip(self):
        m = PolyMatrix([[S**2 + 1, -S], [Poly([0]), Poly([Fraction(5, 3)])]])
        assert parse_matrix_text(format_matrix(m)) == m

    @given(st.tuples(st.integers(1, 3), st.integers(1, 3)).flatmap(lambda rc: poly_matrices(*rc)))
    def test_matrix_text_round_trip_property(self, m):
        assert parse_matrix_text(format_matrix(m)) == m

    @settings(deadline=None, max_examples=60)
    @given(documents())
    def test_document_round_trip_property(self, doc):
        assert parse_document(format_document(doc)) == doc


class TestMachineReadable:
    def test_poly_coeffs_exact(self):
        assert poly_coeffs(Poly([1, Fraction(-3, 2), 0, 2])) == ["1", "-3/2", "0", "2"]
        assert poly_coeffs(Poly([])) == []

    def test_matrix_coeffs_parse_back(self):
        m = PolyMatrix([[S**2 + 1, -S]])
        coeffs = matrix_coeffs(m)
        rebuilt = PolyMatrix(
            [[Poly([Fraction(c) for c in entry]) for entry in row] for row in coeffs]
        )
        assert rebuilt == m


def test_import_loads_no_unused_modules():
    # Each CLI call starts a fresh interpreter; importing the package and its
    # CLI should load only what they use: files are read and written with
    # `open`, and only `--format json` needs `json`. `-S` skips site hooks,
    # which may import these modules on their own.
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import agverify, agverify.cli; "
        "print(sorted({'typing', 'importlib.resources', 'pathlib', 'tempfile', 'json'} "
        "& set(sys.modules)))"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True
    )
    assert result.stdout == "[]\n"


def test_import_loads_only_the_standard_library():
    # The README promises no runtime dependencies outside the standard
    # library; the CLI is what a user runs, so it is imported as well.
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import agverify, agverify.cli; "
        "print(sorted(m for m in set(sys.modules) - {'__main__'} "
        "if m.partition('.')[0] not in sys.stdlib_module_names | {'agverify'}))"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True
    )
    assert result.stdout == "[]\n"
