"""Plain-text format for documents of named monomial ideals.

Grammar (whitespace-insensitive):

    ring <n> vars <name>(,<name>)*;
    ideal <name> = <mono>(, <mono>)*;   (one or more)

where <mono> is a *-separated product of var(^exp)? factors, or the
literal 1 for the unit monomial.  Errors carry exact line/column.

Tokens come from one regular expression, `_TOKEN`: only a line feed starts
a new line, and any other whitespace character is one column.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .ideals import EXPONENT_LIMIT, MonomialIdeal, Monomial


class ParseError(ValueError):
    def __init__(self, line: int, col: int, message: str):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class Token:
    kind: str  # ident | int | punct | end
    value: str
    line: int
    col: int


# one token per match: a decimal run, a name, a punctuation mark, a line
# break, or other whitespace (skipped); `\w` also matches the digits and
# numerals that are not decimal, such as "\u00b2", so a name must start
# with a letter or "_"
_TOKEN = re.compile(r"(?P<int>\d+)|(?P<ident>\w+)|(?P<punct>[,;=^*])|(?P<nl>\n)|\s")


def _tokenize(text: str) -> list[Token]:
    out = []
    line, line_start, pos = 1, 0, 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        col = pos - line_start + 1
        ch = text[pos]
        kind = m.lastgroup if m else None
        if m is None or kind == "ident" and not (ch.isalpha() or ch == "_"):
            raise ParseError(line, col, f"unexpected character {ch!r}")
        pos = m.end()
        if kind == "nl":
            line, line_start = line + 1, pos
        elif kind:
            out.append(Token(kind, m.group(), line, col))
    out.append(Token("end", "", line, pos - line_start + 1))
    return out


@dataclass(frozen=True)
class IdealDocument:
    """A ring declaration plus named ideals, in declaration order."""

    names: tuple[str, ...]
    ideals: tuple[tuple[str, MonomialIdeal], ...]

    @property
    def n(self) -> int:
        return len(self.names)

    def ideal(self, name: str) -> MonomialIdeal:
        for nm, ideal in self.ideals:
            if nm == name:
                return ideal
        raise KeyError(name)


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.pos = 0

    def peek(self) -> Token:
        return self.toks[self.pos]

    def take(self) -> Token:
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def fail(self, tok: Token, message: str):
        raise ParseError(tok.line, tok.col, message)

    def at(self, mark: str) -> bool:
        return self.peek().value == mark

    def expect(self, want: str, kind: str = "") -> Token:
        """Take the next token: one of `kind`, described as `want`, or with
        no kind the punctuation mark or keyword `want` itself."""
        tok = self.take()
        if tok.kind != kind if kind else tok.value != want:
            shown = want if kind else repr(want)
            self.fail(tok, f"expected {shown}, found {tok.value!r}")
        return tok

    def expect_int(self, what: str) -> tuple[int, Token]:
        tok = self.expect(what, "int")
        # every integer the grammar accepts is below EXPONENT_LIMIT, and
        # int() refuses very long strings, so the length past the leading
        # zeros (of any script) decides first
        digits = tok.value
        lead = next((i for i, ch in enumerate(digits) if int(ch)), len(digits))
        if len(digits) - lead > len(str(EXPONENT_LIMIT)):
            self.fail(tok, f"{what} of {len(digits)} digits is too large")
        return int(digits), tok

    def monomial(self, index: dict[str, int], n: int) -> Monomial:
        exps = [0] * n
        if self.peek().kind == "int":
            value, tok = self.expect_int("a monomial")
            if value != 1:
                self.fail(tok, f"expected a monomial, found {tok.value!r}")
            return tuple(exps)
        while True:
            tok = self.expect("a variable", "ident")
            if tok.value not in index:
                self.fail(tok, f"unknown variable {tok.value}")
            e, etok = 1, tok
            if self.at("^"):
                self.take()
                e, etok = self.expect_int("an exponent")
            # repeated factors add up, so the limit applies to the running sum
            i = index[tok.value]
            exps[i] += e
            if exps[i] >= EXPONENT_LIMIT:
                self.fail(etok, f"exponent {exps[i]} is too large")
            if self.at("*"):
                self.take()
                continue
            return tuple(exps)

    def document(self) -> IdealDocument:
        self.expect("ring")
        n, ntok = self.expect_int("a variable count")
        if n < 1:
            self.fail(ntok, "a ring needs at least one variable")
        self.expect("vars")
        names = []
        for k in range(n):
            tok = self.expect("a variable name", "ident")
            if tok.value in names:
                self.fail(tok, f"duplicate variable {tok.value}")
            names.append(tok.value)
            if k + 1 < n:
                self.expect(",")
        self.expect(";")
        index = {nm: i for i, nm in enumerate(names)}
        ideals = []
        seen = set()
        while self.peek().kind != "end":
            self.expect("ideal")
            name_tok = self.expect("an ideal name", "ident")
            if name_tok.value in seen:
                self.fail(name_tok, f"duplicate ideal {name_tok.value}")
            seen.add(name_tok.value)
            self.expect("=")
            monos = [self.monomial(index, n)]
            while self.at(","):
                self.take()
                monos.append(self.monomial(index, n))
            self.expect(";")
            ideals.append((name_tok.value, MonomialIdeal.of(n, monos)))
        if not ideals:
            self.fail(self.peek(), "expected at least one ideal declaration")
        return IdealDocument(tuple(names), tuple(ideals))


def parse_document(text: str) -> IdealDocument:
    return _Parser(text).document()


def format_monomial(mono: Monomial, names) -> str:
    parts = [
        nm if e == 1 else f"{nm}^{e}" for nm, e in zip(names, mono) if e
    ]
    return "*".join(parts) if parts else "1"


def format_document(doc: IdealDocument) -> str:
    lines = [f"ring {doc.n} vars {','.join(doc.names)};"]
    for name, ideal in doc.ideals:
        gens = ", ".join(format_monomial(g, doc.names) for g in ideal.gens)
        lines.append(f"ideal {name} = {gens};")
    return "\n".join(lines) + "\n"
