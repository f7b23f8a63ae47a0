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
carriage returns are one column each. The lexer keeps each token as its text,
and the line of each as the count of newlines before it; a column is
computed only for an error message.

The exponent after "^" is at most `MAX_EXPONENT`, an integer has at most
`MAX_DIGITS` digits, and the dimensions of a varlist add up to at most
`MAX_DIMENSION`. The matrix A of a statespace, the matrix P of an iosystem,
the matrix R of a kernel and the matrices R and E of a latent have at most
`MAX_DIMENSION` rows, the inputs and outputs of a statespace or an iosystem
add up to at most `MAX_DIMENSION`, and a bare matrix literal
(`parse_matrix_text`) has at most `MAX_DIMENSION` rows and columns. A matrix
with too many rows is refused as soon as its next row starts: the rows after
it are counted, not parsed. The other matrices stop being parsed one row
past what their shapes allow: B past the rows of A, Q past the rows of P,
D past the rows of C, and C past `MAX_DIMENSION`. Their rows after that are
counted, and the definition is refused with the message that the whole
matrix would have given. Of the errors in them, only a token that has no
place in a matrix literal, such as "}", is reported, as a whole parse would.

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
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress, islice

from .behavior import IoSystem, KernelRep, LatentRep, StateSpace
from .contracts import Contract
from .polyalg import Poly, _coeff_text, _poly
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
# state dimension of a ``statespace``, largest row count of a kernel's R and
# of a latent's R and E, and largest row or column count of a bare matrix
# literal. Several steps build an identity of the signal dimension, state
# elimination scans up to n rows of n entries, and the Smith form and
# inclusion reduce every row and column of a kernel, so time and memory grow
# at least with the square of each of these; a larger one is a `ParseError`.
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

# Each match skips blanks and comments, then captures one token: a newline,
# an INT, a run of word characters, a symbol, any other character or, at the
# end of the text, the empty string. Some alternative matches anywhere, so the
# nested quantifier never backtracks. Tokens are plain strings: a symbol reads
# as itself, an INT starts with 0-9 and a NAME with a letter or "_". `\w` holds
# exactly where `str.isalnum()` holds, or for "_"; it also takes digits such as
# "²" that may not start a name, so `_Parser` checks every first character. A
# token's line comes from where the newlines fell. Its column is computed only
# for an error, by matching its line again: no token spans a newline, so the
# line gives the same tokens.
_TOKEN = re.compile(r"(?:[ \t\r]+|#.*)*(\n|[0-9]+|\w+|[][{},:+\-*^/]|.|\Z)")
_DIGITS = frozenset("0123456789")
_STARTS = frozenset("0123456789_[]{},:+-*^/")
_BRACKETS = frozenset("[]")
_MATRIX_TOKENS = frozenset("[],+-*^/s")


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------


class _Parser:
    """Parses one text, over its tokens with the newlines taken out.

    ``tokens`` ends with "", the end of input, and ``breaks[k]`` is the index
    of the first token after the k-th newline. ``total`` is the row count of
    the last matrix read, with the rows counted past a limit.
    """

    def __init__(self, text: str, source: str):
        toks = _TOKEN.findall(text)
        del toks[toks.index(""):]
        newlines = [i for i, t in enumerate(toks) if t == "\n"]
        self.breaks = [i - k for k, i in enumerate(newlines)]
        self.tokens = tokens = [t for t in toks if t != "\n"] if newlines else toks
        self.text = text
        self.source = source
        self.pos = 0
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        self.max_digits = min(MAX_DIGITS, limit or MAX_DIGITS)
        bad = [t for t in set(tokens) if t[0] not in _STARTS and not t[0].isalpha()]
        if bad:
            i = min(map(tokens.index, bad))
            raise self.error(f"unexpected character {tokens[i][0]!r}", i)
        tokens.append("")

    def line(self, i: int) -> int:
        return bisect_right(self.breaks, i) + 1

    def position(self, i: int) -> tuple[int, int]:
        """The line and column of token i."""
        line = bisect_right(self.breaks, i)
        text = self.text.split("\n", line + 1)[line]
        if not self.tokens[i]:
            # A comment does not advance the column, so the end of a last
            # line that holds one is at its "#".
            col = text.find("#")
            return line + 1, (len(text) if col < 0 else col) + 1
        k = i - self.breaks[line - 1] if line else i
        return line + 1, next(islice(_TOKEN.finditer(text), k, None)).start(1) + 1

    def error(self, message: str, i: int | None = None) -> ParseError:
        return ParseError(message, self.source, *self.position(self.pos if i is None else i))

    def shown(self, i: int) -> str:
        return repr(self.tokens[i] or "end of input")

    def expect(self, text: str) -> None:
        """Step over the next token, which must read `text`: a symbol or a word."""
        if self.tokens[self.pos] != text:
            raise self.error(f"expected '{text}', found {self.shown(self.pos)}")
        self.pos += 1

    def name(self, what: str) -> str:
        t = self.tokens[self.pos]
        if not (t[:1].isalpha() or t[:1] == "_"):
            raise self.error(f"expected {what}, found {self.shown(self.pos)}")
        self.pos += 1
        return t

    def int_error(self, i: int) -> ParseError:
        t = self.tokens[i]
        if t[:1] not in _DIGITS:
            return self.error(f"expected an integer, found {self.shown(i)}", i)
        return self.error(f"integer of {len(t)} digits exceeds the maximum {self.max_digits}", i)

    def integer(self) -> int:
        t = self.tokens[self.pos]
        if t[:1] not in _DIGITS or len(t) > self.max_digits:
            raise self.int_error(self.pos)
        self.pos += 1
        return int(t)

    def cap(self, what: str, size: int, i: int) -> None:
        if size > MAX_DIMENSION:
            raise self.error(f"{what} {size} is above the maximum {MAX_DIMENSION}", i)

    # -- polynomial / matrix ------------------------------------------------

    def parse_poly(self) -> Poly:
        toks, i, max_digits = self.tokens, self.pos, self.max_digits
        coeffs: list = []  # the coefficient of s^k at index k
        rational = False
        sign = -1 if toks[i] == "-" else 1
        if toks[i] == "-" or toks[i] == "+":
            i += 1
        while True:
            t = toks[i]
            if t == "s":
                coef, power = sign, 1
            elif t[:1] in _DIGITS:
                if len(t) > max_digits:
                    raise self.int_error(i)
                coef, power = sign * int(t), 0
                if toks[i + 1] == "/":
                    i += 2
                    t = toks[i]
                    if t[:1] not in _DIGITS or len(t) > max_digits:
                        raise self.int_error(i)
                    if not (den := int(t)):
                        raise self.error("zero denominator", i)
                    coef, rational = Fraction(coef, den), True
                if toks[i + 1] == "*":
                    i += 2
                    if toks[i] != "s":
                        raise self.error(f"expected 's', found {self.shown(i)}", i)
                    power = 1
            else:
                raise self.error(f"expected a polynomial term, found {self.shown(i)}", i)
            i += 1
            if power and toks[i] == "^":
                i += 1
                t = toks[i]
                if t[:1] not in _DIGITS or len(t) > max_digits:
                    raise self.int_error(i)
                if (power := int(t)) > MAX_EXPONENT:
                    raise self.error(f"exponent {power} exceeds the maximum {MAX_EXPONENT}", i)
                i += 1
            if power >= len(coeffs):
                coeffs += [0] * (power + 1 - len(coeffs))
            coeffs[power] += coef
            t = toks[i]
            if t == "+":
                sign = 1
            elif t == "-":
                sign = -1
            else:
                self.pos = i
                return Poly(coeffs) if rational else _poly(coeffs, 1)
            i += 1

    def parse_matrix(self, cap: str = "", at: int = 0, limit: int = MAX_DIMENSION) -> list[list[Poly]]:
        """The rows of a matrix literal, with ``total`` set to their count.

        With a ``cap``, the name of its row count, a matrix of more than
        ``limit`` rows is refused at token ``at`` as soon as its next row
        starts. Without one, it keeps its first ``limit + 1`` rows, which
        compare with ``limit`` as all of them do. Either way the rows left
        are counted by bracket depth (`skip_rows`), not parsed."""
        toks = self.tokens
        self.expect("[")
        rows: list[list[Poly]] = []
        self.total = 0
        if toks[self.pos] == "]":
            self.pos += 1
            return rows
        keep = limit if cap else limit + 1
        while True:
            self.expect("[")
            row = [self.parse_poly()]
            while toks[self.pos] == ",":
                self.pos += 1
                row.append(self.parse_poly())
            self.expect("]")
            rows.append(row)
            if toks[self.pos] != ",":
                self.expect("]")
                self.total = len(rows)
                return rows
            self.pos += 1
            if len(rows) == keep and (skipped := self.skip_rows(not cap)) is not None:
                self.total = len(rows) + skipped
                if cap:
                    self.cap(cap, self.total, at)
                return rows

    def skip_rows(self, checked: bool) -> int | None:
        """Steps from the start of a row to after the "]" that closes the
        matrix, or to the end of input, counting the rows it opens by bracket
        depth. If ``checked``, it stops instead, with None, at the start of
        the first row that breaks the row structure or holds a token with no
        place in a matrix literal (or the end of input, if no "]" comes), so
        that parsing on raises the error that a whole parse would raise there.
        The structure is "[" after "]," for each row, no "[" inside a row, and
        "]]" to close the matrix; the rows' contents are not parsed."""
        toks, depth, count, start = self.tokens, 0, 0, self.pos
        end, row, broken = len(toks) - 1, start, False
        for i in compress(range(start, end), map(_BRACKETS.__contains__, islice(toks, start, end))):
            if toks[i] == "[":
                if checked and (depth or toks[i - 1] != "," or toks[i - 2] != "]"):
                    end, broken = i, True
                    break
                if not depth:
                    row, count = i, count + 1
                depth += 1
            elif depth:
                depth -= 1
            else:
                end, broken = i, checked and toks[i - 1] != "]"
                break
        if checked and (bad := {t for t in set(islice(toks, start, end + 1)) - _MATRIX_TOKENS
                                if t[:1] not in _DIGITS}):
            # The rows before the token are sound, so its row opens at the
            # last "[" before it.
            stop = next(i for i in range(start, end + 1) if toks[i] in bad)
            self.pos = max(compress(range(start, stop), map("[".__eq__, islice(toks, start, stop))), default=start)
            return None
        if broken:
            self.pos = row
            return None
        self.pos = min(end + 1, len(toks) - 1)
        return count

    def parse_varlist(self) -> list[tuple[str, int]]:
        labels, total = [], 0
        while True:
            name = self.name("a signal name")
            self.expect(":")
            i = self.pos
            dim = self.integer()
            if dim < 1:
                raise self.error("signal dimension must be at least 1", i)
            total += dim
            if total > MAX_DIMENSION:
                raise self.error(
                    f"signal dimensions add up to {total}, above the maximum {MAX_DIMENSION}", i
                )
            labels.append((name, dim))
            if self.tokens[self.pos] != ",":
                return labels
            self.pos += 1

    # -- definitions -----------------------------------------------------------

    def parse_definition(self) -> Definition:
        i = self.pos
        kind = self.name("a definition kind")
        body = getattr(self, f"parse_{kind}_body", None)
        if body is None:
            raise self.error(f"unknown definition kind '{kind}'", i)
        line = self.line(self.pos)
        name = self.name("a definition name")
        self.expect("{")
        try:
            value = body()
        except DocumentError:
            raise
        except (ValueError, TypeError) as exc:
            raise DimensionInconsistencyError(
                f"{self.source}:{line}: in {kind} '{name}': {exc}"
            ) from exc
        self.expect("}")
        # A contract holds the names of its kernels until `parse_documents`
        # resolves them.
        refs = value if kind == "contract" else ()
        return Definition(kind, name, value, refs, self.source, line)

    def field_matrix(
        self, keyword: str, cols: int | None = None, cap: str = "", limit: int = MAX_DIMENSION
    ) -> PolyMatrix:
        """The matrix after ``keyword``, as `parse_matrix` reads it; a ``cap``
        names its row count in the error for more than ``limit`` rows, at the
        keyword."""
        self.expect(keyword)
        line = self.line(self.pos)
        rows = self.parse_matrix(cap, self.pos - 1, limit)
        try:
            return PolyMatrix(rows, cols=cols if not rows else None)
        except ValueError as exc:
            raise DimensionInconsistencyError(
                f"{self.source}:{line}: matrix {keyword}: {exc}"
            ) from exc

    def parse_statespace_body(self) -> StateSpace:
        """B, C and D are read to one row past what their shapes allow, and
        C to one past the cap, so `StateSpace` refuses them as it would the
        whole matrices; the cap reads the output count off the rows counted."""
        i = self.pos
        A = self.field_matrix("A", cap="state dimension")
        B = self.field_matrix("B", limit=A.rows)
        C = self.field_matrix("C")
        p = self.total
        D = self.field_matrix("D", limit=min(p, MAX_DIMENSION) if p or A.rows else MAX_DIMENSION)
        if D.rows == C.rows and self.total != p:  # C was cut, and D has another row count
            D = PolyMatrix(D.entries[:-1])
        s = StateSpace.from_lists(A, B, C, D)
        self.cap("inputs plus outputs", s.m + (p or self.total), i)
        return s

    def parse_iosystem_body(self) -> IoSystem:
        i = self.pos
        P = self.field_matrix("P", cap="output count")
        Q = self.field_matrix("Q", limit=P.rows)
        # Written ``[]``, Q has P's rows and no columns: a system without inputs.
        system = IoSystem(P, Q if Q.rows else PolyMatrix([()] * P.rows, cols=0))
        self.cap("inputs plus outputs", system.m + system.p, i)
        return system

    def parse_kernel_body(self) -> KernelRep:
        self.expect("vars")
        labels = self.parse_varlist()
        R = self.field_matrix("R", cols=sum(d for _, d in labels), cap="kernel row count")
        return KernelRep(R, labels)

    def parse_latent_body(self) -> LatentRep:
        self.expect("vars")
        labels = self.parse_varlist()
        self.expect("latent")
        latent = self.name("a latent signal name")
        self.expect(":")
        latent_dim = self.integer()
        R = self.field_matrix("R", cols=sum(d for _, d in labels), cap="latent row count")
        E = self.field_matrix("E", cols=latent_dim, cap="latent row count")
        if E.cols != latent_dim:
            raise ValueError(f"matrix E has {E.cols} columns but {latent}:{latent_dim} is declared")
        return LatentRep(R, E, labels)

    def parse_contract_body(self) -> tuple[str, str]:
        self.expect("assumptions")
        a = self.name("an assumptions kernel name")
        self.expect("guarantees")
        g = self.name("a guarantees kernel name")
        return (a, g)

    def parse_document(self) -> list[Definition]:
        defs = []
        while self.tokens[self.pos]:
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
            c = Contract(*resolved)
            doc.definitions[d.name] = Definition(d.kind, d.name, c, d.refs, d.source, d.line)

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
    rows = parser.parse_matrix("matrix row count")
    if parser.tokens[parser.pos]:
        raise parser.error(f"expected end of input, found {parser.shown(parser.pos)}")
    if not rows:
        raise parser.error("empty matrix literal has unknown column count", 0)
    parser.cap("matrix column count", len(rows[0]), 0)
    return PolyMatrix(rows)
