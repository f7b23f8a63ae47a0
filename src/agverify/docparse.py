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

An INT is a run of the ASCII digits 0-9. The exponent after "^" is at most
`MAX_EXPONENT`, an integer has at most `MAX_DIGITS` digits, the dimensions
of a varlist add up to at most `MAX_DIMENSION`, and the matrix A of a
statespace has at most `MAX_DIMENSION` rows. Rational
coefficients are preserved exactly. Everything the toolkit prints (witness
matrices, eliminated kernels, conjoined contracts) uses this same grammar,
so outputs can be fed back in as inputs.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from fractions import Fraction

from .behavior import IoSystem, KernelRep, LatentRep, StateSpace
from .contracts import Contract
from .polyalg import Poly
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

# Largest total dimension of the signals in a ``vars`` list, and largest
# state dimension of a ``statespace``. Several steps build an identity of
# the signal dimension, and state elimination scans up to n rows of n
# entries, so time and memory grow at least with the square of either; a
# larger total or state dimension is a `ParseError`.
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

_SYMBOLS = {
    "{": "LBRACE",
    "}": "RBRACE",
    "[": "LBRACKET",
    "]": "RBRACKET",
    ",": "COMMA",
    ":": "COLON",
    "+": "PLUS",
    "-": "MINUS",
    "*": "STAR",
    "^": "CARET",
    "/": "SLASH",
}


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    col: int


def _tokenize(text: str, source: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch in _SYMBOLS:
            tokens.append(Token(_SYMBOLS[ch], ch, line, col))
            i += 1
            col += 1
            continue
        if "0" <= ch <= "9":
            j = i
            while j < n and "0" <= text[j] <= "9":
                j += 1
            tokens.append(Token("INT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("NAME", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", source, line, col)
    tokens.append(Token("EOF", "", line, col))
    return tokens


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------


class _Parser:
    def __init__(self, tokens: list[Token], source: str):
        self.tokens = tokens
        self.pos = 0
        self.source = source

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message: str, tok: Token | None = None) -> ParseError:
        tok = tok or self.peek()
        return ParseError(message, self.source, tok.line, tok.col)

    def expect(self, kind: str, what: str | None = None) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            shown = tok.text if tok.kind != "EOF" else "end of input"
            raise self.error(f"expected {what or kind}, found {shown!r}")
        return self.next()

    def expect_keyword(self, word: str) -> Token:
        tok = self.peek()
        if tok.kind != "NAME" or tok.text != word:
            shown = tok.text if tok.kind != "EOF" else "end of input"
            raise self.error(f"expected '{word}', found {shown!r}")
        return self.next()

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
        if self.peek().kind == "SLASH":
            self.next()
            den_tok = self.peek()
            den = self.parse_int()
            if den == 0:
                raise self.error("zero denominator", den_tok)
            return Fraction(num, den)
        return num

    def parse_term(self) -> tuple[int | Fraction, int]:
        """One monomial: returns (coefficient, power)."""
        tok = self.peek()
        if tok.kind == "INT":
            coef = self.parse_coef()
            if self.peek().kind == "STAR":
                self.next()
                self.expect_keyword("s")
                return coef, self.parse_power()
            return coef, 0
        if tok.kind == "NAME" and tok.text == "s":
            self.next()
            return 1, self.parse_power()
        shown = tok.text if tok.kind != "EOF" else "end of input"
        raise self.error(f"expected a polynomial term, found {shown!r}")

    def parse_power(self) -> int:
        if self.peek().kind == "CARET":
            self.next()
            tok = self.peek()
            power = self.parse_int()
            if power > MAX_EXPONENT:
                raise self.error(f"exponent {power} exceeds the maximum {MAX_EXPONENT}", tok)
            return power
        return 1

    def parse_poly(self) -> Poly:
        coeffs: dict[int, int | Fraction] = {}
        sign = 1
        if self.peek().kind == "MINUS":
            self.next()
            sign = -1
        elif self.peek().kind == "PLUS":
            self.next()
        while True:
            coef, power = self.parse_term()
            coeffs[power] = coeffs.get(power, 0) + sign * coef
            tok = self.peek()
            if tok.kind == "PLUS":
                sign = 1
                self.next()
            elif tok.kind == "MINUS":
                sign = -1
                self.next()
            else:
                break
        top = max(coeffs) if coeffs else -1
        return Poly([coeffs.get(k, 0) for k in range(top + 1)])

    def parse_matrix(self) -> list[list[Poly]]:
        self.expect("LBRACKET", "'['")
        rows: list[list[Poly]] = []
        if self.peek().kind == "RBRACKET":
            self.next()
            return rows
        while True:
            rows.append(self.parse_row())
            if self.peek().kind == "COMMA":
                self.next()
                continue
            break
        self.expect("RBRACKET", "']'")
        return rows

    def parse_row(self) -> list[Poly]:
        self.expect("LBRACKET", "'['")
        row = [self.parse_poly()]
        while self.peek().kind == "COMMA":
            self.next()
            row.append(self.parse_poly())
        self.expect("RBRACKET", "']'")
        return row

    def parse_varlist(self) -> list[tuple[str, int]]:
        out = []
        total = 0
        while True:
            name_tok = self.expect("NAME", "a signal name")
            self.expect("COLON", "':'")
            dim_tok = self.peek()
            dim = self.parse_int()
            if dim < 1:
                raise self.error("signal dimension must be at least 1", dim_tok)
            total += dim
            if total > MAX_DIMENSION:
                raise self.error(
                    f"signal dimensions add up to {total}, above the maximum {MAX_DIMENSION}",
                    dim_tok,
                )
            out.append((name_tok.text, dim))
            if self.peek().kind == "COMMA":
                self.next()
                continue
            break
        return out

    # -- definitions -----------------------------------------------------------

    def parse_definition(self) -> Definition:
        kind_tok = self.expect("NAME", "a definition kind")
        kind = kind_tok.text
        if kind not in ("statespace", "iosystem", "kernel", "latent", "contract"):
            raise self.error(f"unknown definition kind '{kind}'", kind_tok)
        name_tok = self.expect("NAME", "a definition name")
        self.expect("LBRACE", "'{'")
        try:
            if kind == "statespace":
                value, refs = self.parse_statespace_body(), ()
            elif kind == "iosystem":
                value, refs = self.parse_iosystem_body(), ()
            elif kind == "kernel":
                value, refs = self.parse_kernel_body(), ()
            elif kind == "latent":
                value, refs = self.parse_latent_body(), ()
            else:
                value, refs = None, self.parse_contract_body()
        except (ValueError, TypeError) as exc:
            if isinstance(exc, DocumentError):
                raise
            raise DimensionInconsistencyError(
                f"{self.source}:{name_tok.line}: in {kind} '{name_tok.text}': {exc}"
            ) from exc
        self.expect("RBRACE", "'}'")
        return Definition(
            kind=kind,
            name=name_tok.text,
            value=value,
            refs=refs,
            source=self.source,
            line=name_tok.line,
        )

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
        if A.rows > MAX_DIMENSION:
            raise self.error(
                f"state dimension {A.rows} is above the maximum {MAX_DIMENSION}", tok
            )
        B = self.field_matrix("B")
        C = self.field_matrix("C")
        D = self.field_matrix("D")
        return StateSpace(A, B, C, D)

    def parse_iosystem_body(self) -> IoSystem:
        P = self.field_matrix("P")
        Q = self.field_matrix("Q")
        return IoSystem(P, Q)

    def parse_kernel_body(self) -> KernelRep:
        self.expect_keyword("vars")
        labels = self.parse_varlist()
        dim = sum(d for _, d in labels)
        R = self.field_matrix("R", cols=dim)
        return KernelRep(R, labels)

    def parse_latent_body(self) -> LatentRep:
        self.expect_keyword("vars")
        labels = self.parse_varlist()
        dim = sum(d for _, d in labels)
        self.expect_keyword("latent")
        latent = self.expect("NAME", "a latent signal name").text
        self.expect("COLON", "':'")
        latent_dim = self.parse_int()
        R = self.field_matrix("R", cols=dim)
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
        parser = _Parser(_tokenize(text, source), source)
        all_defs.extend(parser.parse_document())

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
            doc.definitions[d.name] = Definition(
                kind="contract",
                name=d.name,
                value=Contract(resolved[0], resolved[1]),
                refs=d.refs,
                source=d.source,
                line=d.line,
            )

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
    return [str(c) for c in p.coeffs]


def matrix_coeffs(M: PolyMatrix) -> list[list[list[str]]]:
    return [[poly_coeffs(e) for e in row] for row in M.entries]


def parse_matrix_text(text: str, source: str = "<matrix>") -> PolyMatrix:
    """Parse a bare matrix literal such as ``[[s^2+1, -s], [0, 1]]``."""
    parser = _Parser(_tokenize(text, source), source)
    rows = parser.parse_matrix()
    parser.expect("EOF", "end of input")
    if not rows:
        raise DimensionInconsistencyError(
            f"{source}: empty matrix literal has unknown column count"
        )
    return PolyMatrix(rows)
