"""Plain-text format for systems and contracts, shared by input and output.

Grammar (EBNF sketch, ``#`` starts a line comment):

    document   := definition+
    definition := "statespace" NAME "{" "A" matrix "B" matrix "C" matrix "D" matrix "}"
                | "iosystem"   NAME "{" "P" matrix "Q" matrix "}"
                | "kernel"     NAME "{" "vars" varlist "R" matrix "}"
                | "latent"     NAME "{" "vars" varlist "latent" NAME ":" INT
                                        "R" matrix "E" matrix "}"
                | "contract"   NAME "{" "assumptions" NAME "guarantees" NAME "}"
    varlist    := NAME ":" INT ("," NAME ":" INT)*
    matrix     := "[" "]" | "[" row ("," row)* "]"
    row        := "[" poly ("," poly)* "]"
    poly       := ["-"] term (("+" | "-") term)*
    term       := coef "*" "s" ["^" INT] | "s" ["^" INT] | coef
    coef       := INT | INT "/" INT

A NAME starts with a character for which `str.isalpha()` holds, or "_", and
goes on with characters for which `str.isalnum()` holds, or "_" (the word
characters of `re`). An INT is a run of the ASCII digits 0-9. Tabs and
carriage returns are one column each.

The exponent after "^" is at most `MAX_EXPONENT`, an integer has at most
`MAX_DIGITS` digits, and the dimensions of a varlist add up to at most
`MAX_DIMENSION`. The matrix A of a statespace, the matrix P of an iosystem
and the matrix R of a kernel have at most `MAX_DIMENSION` rows, the inputs
and outputs of a statespace or an iosystem add up to at most
`MAX_DIMENSION`, and a bare matrix literal (`parse_matrix_text`) has at most
`MAX_DIMENSION` rows and columns.

In a statespace a matrix written ``[]`` is empty and takes the shape the
others imply (`StateSpace.from_lists`), so ``A [] B [] C [] D [[2, 1]]`` is
a memoryless system. In an iosystem ``Q []`` has the rows of P and no
columns: a system without inputs. A matrix without columns prints as
``[]``. Coefficients are kept as exact rationals. Everything the toolkit
prints (witness matrices, eliminated kernels, conjoined contracts) uses this
same grammar, so outputs can be fed back in as inputs.
"""

from __future__ import annotations

import re
import sys
from collections import namedtuple
from dataclasses import dataclass, field, replace
from fractions import Fraction

from .behavior import IoSystem, KernelRep, LatentRep, StateSpace
from .contracts import Contract
from .polyalg import Poly, _coeff_text
from .polymatrix import PolyMatrix


# Largest N accepted in ``s^N``. The power is stored densely as N + 1
# coefficients, so an unbounded exponent would let a few bytes of input
# exhaust memory; a larger one is a `ParseError`.
MAX_EXPONENT = 1000

# Largest number of digits in an integer token. It matches CPython's default
# limit on int/str conversion, so every accepted integer also prints back;
# a longer token is a `ParseError`. Where the interpreter's limit is set
# lower, that limit applies instead.
MAX_DIGITS = 4300

# Largest total dimension of the signals in a ``vars`` list and of the inputs
# and outputs of a system (``eliminate`` prints them as one list), largest
# state dimension of a ``statespace``, largest row count of a kernel's R, and
# largest row or column count of a bare matrix literal. Several steps build
# an identity of the signal dimension, state elimination scans up to n rows
# of n entries, and the Smith form and inclusion reduce every row and column
# of a kernel, so time and memory grow at least with the square of each of
# these; a larger one is a `ParseError`.
MAX_DIMENSION = 100


class DocumentError(ValueError):
    """Base class for all errors raised while reading documents."""


class ParseError(DocumentError):
    """Lexical or syntax error, with source position."""

    def __init__(self, message: str, source: str, line: int, col: int):
        super().__init__(f"{source}:{line}:{col}: {message}")
        self.source = source
        self.line = line
        self.col = col


class DuplicateNameError(DocumentError):
    pass


class UnresolvedReferenceError(DocumentError):
    pass


class DimensionInconsistencyError(DocumentError):
    pass


class DocumentValidationError(DocumentError):
    """Aggregate of all validation problems found in a set of documents."""

    def __init__(self, errors: list[DocumentError]):
        super().__init__("\n".join(str(e) for e in errors))
        self.errors = tuple(errors)


@dataclass(frozen=True)
class Definition:
    kind: str
    name: str
    value: object
    refs: tuple[str, ...] = ()
    # Source locations are bookkeeping, not content.
    source: str = field(default="<string>", compare=False)
    line: int = field(default=0, compare=False)


@dataclass
class Document:
    """Named definitions, in declaration order."""

    definitions: dict[str, Definition] = field(default_factory=dict)

    def get(self, name: str, kinds: tuple[str, ...] | None = None) -> Definition:
        if name not in self.definitions:
            raise UnresolvedReferenceError(f"unknown name '{name}'")
        d = self.definitions[name]
        if kinds is not None and d.kind not in kinds:
            raise UnresolvedReferenceError(
                f"'{name}' is a {d.kind}, expected {' or '.join(kinds)}"
            )
        return d


# --------------------------------------------------------------------------
# Lexer
# --------------------------------------------------------------------------

# A symbol's kind is its own text. The EOF token's text is what error
# messages show for it.
Token = namedtuple("Token", "kind text line col")

# Blanks and comments match no group. `\w` holds exactly where `str.isalnum()`
# holds, or for "_"; it also takes digits such as "²" that may not start a
# name, so `_tokenize` checks a NAME's first character.
_TOKEN = re.compile(
    r"(?P<NL>\n)|[ \t\r]+|#.*|(?P<INT>[0-9]+)|(?P<NAME>\w+)"
    r"|(?P<SYMBOL>[][{},:+\-*^/])|(?P<BAD>.)"
)


def _tokenize(text: str, source: str) -> list[Token]:
    tokens = []
    line, start = 1, 0  # the current line and the offset where it starts
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind is None:
            continue
        tok, col = m.group(), m.start() - start + 1
        if kind == "NL":
            line, start = line + 1, m.end()
            continue
        if kind == "SYMBOL":
            kind = tok
        elif kind == "BAD" or kind == "NAME" and not (tok[0].isalpha() or tok[0] == "_"):
            raise ParseError(f"unexpected character {tok[0]!r}", source, line, col)
        tokens.append(Token(kind, tok, line, col))
    # A comment does not advance the column, so the end of a last line that
    # holds one is at its "#".
    end = text.find("#", start)
    end = len(text) if end < 0 else end
    tokens.append(Token("EOF", "end of input", line, end - start + 1))
    return tokens


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str, source: str):
        self.tokens = _tokenize(text, source)
        self.pos = 0
        self.source = source

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def accept(self, text: str) -> bool:
        """Step over the next token if it reads `text`: a symbol, or ``s``."""
        if self.tokens[self.pos].text != text:
            return False
        self.pos += 1
        return True

    def error(self, message: str, tok: Token | None = None) -> ParseError:
        tok = tok or self.peek()
        return ParseError(message, self.source, tok.line, tok.col)

    def expect(self, kind: str, what: str | None = None) -> Token:
        if self.peek().kind != kind:
            raise self.error(f"expected {what or repr(kind)}, found {self.peek().text!r}")
        return self.next()

    def expect_keyword(self, word: str) -> Token:
        # Only a NAME token reads as a word.
        if self.peek().text != word:
            raise self.error(f"expected '{word}', found {self.peek().text!r}")
        return self.next()

    def cap(self, what: str, size: int, tok: Token) -> None:
        if size > MAX_DIMENSION:
            raise self.error(f"{what} {size} is above the maximum {MAX_DIMENSION}", tok)

    # -- polynomial / matrix ------------------------------------------------

    def parse_int(self) -> int:
        tok = self.expect("INT", "an integer")
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        cap = min(MAX_DIGITS, limit or MAX_DIGITS)
        if len(tok.text) > cap:
            raise self.error(f"integer of {len(tok.text)} digits exceeds the maximum {cap}", tok)
        return int(tok.text)

    def parse_coef(self) -> int | Fraction:
        """An integer, or a `Fraction` when written ``a/b``."""
        num = self.parse_int()
        if not self.accept("/"):
            return num
        tok = self.peek()
        if (den := self.parse_int()) == 0:
            raise self.error("zero denominator", tok)
        return Fraction(num, den)

    def parse_term(self) -> tuple[int | Fraction, int]:
        """One monomial: returns (coefficient, power)."""
        if self.peek().kind == "INT":
            coef = self.parse_coef()
            if not self.accept("*"):
                return coef, 0
            self.expect_keyword("s")
        elif self.accept("s"):
            coef = 1
        else:
            raise self.error(f"expected a polynomial term, found {self.peek().text!r}")
        return coef, self.parse_power()

    def parse_power(self) -> int:
        if not self.accept("^"):
            return 1
        tok = self.peek()
        if (power := self.parse_int()) > MAX_EXPONENT:
            raise self.error(f"exponent {power} exceeds the maximum {MAX_EXPONENT}", tok)
        return power

    def parse_poly(self) -> Poly:
        coeffs: dict[int, int | Fraction] = {}
        sign = -1 if self.accept("-") else 1
        if sign == 1:
            self.accept("+")
        while True:
            coef, power = self.parse_term()
            coeffs[power] = coeffs.get(power, 0) + sign * coef
            if self.accept("+"):
                sign = 1
            elif self.accept("-"):
                sign = -1
            else:
                return Poly([coeffs.get(k, 0) for k in range(max(coeffs) + 1)])

    def parse_matrix(self) -> list[list[Poly]]:
        self.expect("[")
        if self.accept("]"):
            return []
        rows = [self.parse_row()]
        while self.accept(","):
            rows.append(self.parse_row())
        self.expect("]")
        return rows

    def parse_row(self) -> list[Poly]:
        self.expect("[")
        row = [self.parse_poly()]
        while self.accept(","):
            row.append(self.parse_poly())
        self.expect("]")
        return row

    def parse_varlist(self) -> list[tuple[str, int]]:
        labels, total = [], 0
        while True:
            name = self.expect("NAME", "a signal name").text
            self.expect(":")
            tok = self.peek()
            dim = self.parse_int()
            if dim < 1:
                raise self.error("signal dimension must be at least 1", tok)
            total += dim
            if total > MAX_DIMENSION:
                raise self.error(
                    f"signal dimensions add up to {total}, above the maximum {MAX_DIMENSION}", tok
                )
            labels.append((name, dim))
            if not self.accept(","):
                return labels

    # -- definitions -----------------------------------------------------------

    def parse_definition(self) -> Definition:
        kind_tok = self.expect("NAME", "a definition kind")
        kind = kind_tok.text
        body = getattr(self, f"parse_{kind}_body", None)
        if body is None:
            raise self.error(f"unknown definition kind '{kind}'", kind_tok)
        name_tok = self.expect("NAME", "a definition name")
        self.expect("{")
        try:
            value = body()
        except DocumentError:
            raise
        except (ValueError, TypeError) as exc:
            raise DimensionInconsistencyError(
                f"{self.source}:{name_tok.line}: in {kind} '{name_tok.text}': {exc}"
            ) from exc
        self.expect("}")
        # A contract holds the names of its kernels until `parse_documents`
        # resolves them.
        refs = value if kind == "contract" else ()
        return Definition(kind, name_tok.text, value, refs, self.source, name_tok.line)

    def field_matrix(self, keyword: str, cols: int | None = None) -> PolyMatrix:
        self.expect_keyword(keyword)
        tok = self.peek()
        rows = self.parse_matrix()
        try:
            return PolyMatrix(rows, cols=cols if not rows else None)
        except ValueError as exc:
            raise DimensionInconsistencyError(
                f"{self.source}:{tok.line}: matrix {keyword}: {exc}"
            ) from exc

    def parse_statespace_body(self) -> StateSpace:
        tok = self.peek()
        A = self.field_matrix("A")
        self.cap("state dimension", A.rows, tok)
        B, C, D = (self.field_matrix(keyword) for keyword in "BCD")
        s = StateSpace.from_lists(A.entries, B.entries, C.entries, D.entries)
        self.cap("inputs plus outputs", s.m + s.p, tok)
        return s

    def parse_iosystem_body(self) -> IoSystem:
        tok = self.peek()
        P = self.field_matrix("P")
        self.cap("output count", P.rows, tok)
        Q = self.field_matrix("Q")
        # Written ``[]``, Q has P's rows and no columns: a system without inputs.
        system = IoSystem(P, Q if Q.rows else PolyMatrix([()] * P.rows, cols=0))
        self.cap("inputs plus outputs", system.m + system.p, tok)
        return system

    def parse_kernel_body(self) -> KernelRep:
        self.expect_keyword("vars")
        labels = self.parse_varlist()
        tok = self.peek()
        R = self.field_matrix("R", cols=sum(d for _, d in labels))
        self.cap("kernel row count", R.rows, tok)
        return KernelRep(R, labels)

    def parse_latent_body(self) -> LatentRep:
        self.expect_keyword("vars")
        labels = self.parse_varlist()
        self.expect_keyword("latent")
        latent = self.expect("NAME", "a latent signal name").text
        self.expect(":")
        latent_dim = self.parse_int()
        R = self.field_matrix("R", cols=sum(d for _, d in labels))
        E = self.field_matrix("E", cols=latent_dim)
        if E.cols != latent_dim:
            raise ValueError(f"matrix E has {E.cols} columns but {latent}:{latent_dim} is declared")
        return LatentRep(R, E, labels)

    def parse_contract_body(self) -> tuple[str, str]:
        self.expect_keyword("assumptions")
        a = self.expect("NAME", "an assumptions kernel name").text
        self.expect_keyword("guarantees")
        g = self.expect("NAME", "a guarantees kernel name").text
        return (a, g)

    def parse_document(self) -> list[Definition]:
        defs = []
        while self.peek().kind != "EOF":
            defs.append(self.parse_definition())
        if not defs:
            raise self.error("empty document")
        return defs


def parse_document(text: str, source: str = "<string>") -> Document:
    """Parse and validate a single document."""
    return parse_documents([(source, text)])


def parse_documents(sources: list[tuple[str, str]]) -> Document:
    """Parse several documents into one namespace.

    Contract definitions may reference kernels declared in any of the files.
    Syntax errors abort immediately; semantic problems (duplicate names,
    unresolved or mistyped references) are collected and reported together,
    before any checking runs.
    """
    all_defs: list[Definition] = []
    for source, text in sources:
        all_defs.extend(_Parser(text, source).parse_document())

    errors: list[DocumentError] = []
    doc = Document()
    for d in all_defs:
        if d.name in doc.definitions:
            prev = doc.definitions[d.name]
            errors.append(
                DuplicateNameError(
                    f"{d.source}:{d.line}: duplicate name '{d.name}' "
                    f"(first defined at {prev.source}:{prev.line})"
                )
            )
        else:
            doc.definitions[d.name] = d

    for d in list(doc.definitions.values()):
        if d.kind != "contract":
            continue
        a_name, g_name = d.refs
        resolved = []
        for role, ref in (("assumptions", a_name), ("guarantees", g_name)):
            target = doc.definitions.get(ref)
            if target is None:
                errors.append(
                    UnresolvedReferenceError(
                        f"{d.source}:{d.line}: contract '{d.name}' references "
                        f"undefined {role} '{ref}'"
                    )
                )
            elif target.kind != "kernel":
                errors.append(
                    UnresolvedReferenceError(
                        f"{d.source}:{d.line}: contract '{d.name}' {role} '{ref}' "
                        f"is a {target.kind}, expected a kernel"
                    )
                )
            else:
                resolved.append(target.value)
        if len(resolved) == 2:
            doc.definitions[d.name] = replace(d, value=Contract(*resolved))

    if errors:
        raise DocumentValidationError(errors)
    return doc


# --------------------------------------------------------------------------
# Serialization
# --------------------------------------------------------------------------


def format_matrix(M: PolyMatrix) -> str:
    return str(M)


def format_varlist(labels) -> str:
    return ", ".join(f"{name}:{dim}" for name, dim in labels)


def format_definition(d: Definition) -> str:
    v = d.value
    if d.kind == "statespace":
        assert isinstance(v, StateSpace)
        body = "\n".join(
            f"  {k} {format_matrix(M)}" for k, M in (("A", v.A), ("B", v.B), ("C", v.C), ("D", v.D))
        )
    elif d.kind == "iosystem":
        assert isinstance(v, IoSystem)
        body = f"  P {format_matrix(v.P)}\n  Q {format_matrix(v.Q)}"
    elif d.kind == "kernel":
        assert isinstance(v, KernelRep)
        body = f"  vars {format_varlist(v.signal_labels)}\n  R {format_matrix(v.R)}"
    elif d.kind == "latent":
        assert isinstance(v, LatentRep)
        body = (
            f"  vars {format_varlist(v.signal_labels)}\n"
            f"  latent l:{v.latent_dim}\n"
            f"  R {format_matrix(v.manifest)}\n"
            f"  E {format_matrix(v.latent_map)}"
        )
    elif d.kind == "contract":
        a, g = d.refs
        body = f"  assumptions {a}\n  guarantees {g}"
    else:
        raise ValueError(f"unknown definition kind {d.kind!r}")
    return f"{d.kind} {d.name} {{\n{body}\n}}"


def format_document(doc: Document) -> str:
    return "\n\n".join(format_definition(d) for d in doc.definitions.values()) + "\n"


def contract_document(name: str, c: Contract) -> Document:
    """Package a contract value as a self-contained document: its two kernels
    plus a contract definition referencing them."""
    a_name, g_name = f"{name}_assumptions", f"{name}_guarantees"
    doc = Document()
    doc.definitions[a_name] = Definition("kernel", a_name, c.assumptions)
    doc.definitions[g_name] = Definition("kernel", g_name, c.guarantees)
    doc.definitions[name] = Definition("contract", name, c, refs=(a_name, g_name))
    return doc


# -- machine-readable (JSON-friendly) forms ---------------------------------


def poly_coeffs(p: Poly) -> list[str]:
    """Coefficients in ascending powers as exact fraction strings."""
    return [_coeff_text(c, p.den) for c in p.num]


def matrix_coeffs(M: PolyMatrix) -> list[list[list[str]]]:
    return [[poly_coeffs(e) for e in row] for row in M.entries]


def parse_matrix_text(text: str, source: str = "<matrix>") -> PolyMatrix:
    """Parse a bare matrix literal such as ``[[s^2+1, -s], [0, 1]]``."""
    parser = _Parser(text, source)
    rows = parser.parse_matrix()
    parser.expect("EOF", "end of input")
    if not rows:
        raise parser.error("empty matrix literal has unknown column count", parser.tokens[0])
    parser.cap("matrix row count", len(rows), parser.tokens[0])
    parser.cap("matrix column count", len(rows[0]), parser.tokens[0])
    return PolyMatrix(rows)
