"""Plain-text format for documents of named monomial ideals.

Grammar (whitespace-insensitive):

    ring <n> vars <name>(,<name>)*;
    ideal <name> = <mono>(, <mono>)*;   (one or more)

where <mono> is a *-separated product of var(^exp)? factors, or the
literal 1 for the unit monomial.  Errors carry exact line/column.
"""

from __future__ import annotations

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


_PUNCT = set(",;=^*")


def _tokenize(text: str) -> list[Token]:
    out = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line, col = line + 1, 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch in _PUNCT:
            out.append(Token("punct", ch, line, col))
            col += 1
            i += 1
            continue
        if ch.isdecimal():
            j = i
            while j < len(text) and text[j].isdecimal():
                j += 1
            out.append(Token("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(Token("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise ParseError(line, col, f"unexpected character {ch!r}")
    out.append(Token("end", "", line, col))
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

    def expect_punct(self, ch: str) -> Token:
        tok = self.take()
        if tok.kind != "punct" or tok.value != ch:
            self.fail(tok, f"expected {ch!r}, found {tok.value!r}")
        return tok

    def expect_keyword(self, word: str) -> Token:
        tok = self.take()
        if tok.kind != "ident" or tok.value != word:
            self.fail(tok, f"expected {word!r}, found {tok.value!r}")
        return tok

    def expect_ident(self, what: str) -> Token:
        tok = self.take()
        if tok.kind != "ident":
            self.fail(tok, f"expected {what}, found {tok.value!r}")
        return tok

    def expect_int(self, what: str) -> tuple[int, Token]:
        tok = self.take()
        if tok.kind != "int":
            self.fail(tok, f"expected {what}, found {tok.value!r}")
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
            tok = self.expect_ident("a variable")
            if tok.value not in index:
                self.fail(tok, f"unknown variable {tok.value}")
            e, etok = 1, tok
            if self.peek().kind == "punct" and self.peek().value == "^":
                self.take()
                e, etok = self.expect_int("an exponent")
            # repeated factors add up, so the limit applies to the running sum
            i = index[tok.value]
            exps[i] += e
            if exps[i] >= EXPONENT_LIMIT:
                self.fail(etok, f"exponent {exps[i]} is too large")
            if self.peek().kind == "punct" and self.peek().value == "*":
                self.take()
                continue
            return tuple(exps)

    def document(self) -> IdealDocument:
        self.expect_keyword("ring")
        n, ntok = self.expect_int("a variable count")
        if n < 1:
            self.fail(ntok, "a ring needs at least one variable")
        self.expect_keyword("vars")
        names = []
        for k in range(n):
            tok = self.expect_ident("a variable name")
            if tok.value in names:
                self.fail(tok, f"duplicate variable {tok.value}")
            names.append(tok.value)
            if k + 1 < n:
                self.expect_punct(",")
        self.expect_punct(";")
        index = {nm: i for i, nm in enumerate(names)}
        ideals = []
        seen = set()
        while self.peek().kind != "end":
            self.expect_keyword("ideal")
            name_tok = self.expect_ident("an ideal name")
            if name_tok.value in seen:
                self.fail(name_tok, f"duplicate ideal {name_tok.value}")
            seen.add(name_tok.value)
            self.expect_punct("=")
            monos = [self.monomial(index, n)]
            while self.peek().kind == "punct" and self.peek().value == ",":
                self.take()
                monos.append(self.monomial(index, n))
            self.expect_punct(";")
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
