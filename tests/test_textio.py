"""Text format: grammar, error positions, formatting roundtrips, and the
lexer against the hand scanner of `oracles`."""

import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from gideal import (
    IdealDocument,
    MonomialIdeal,
    ParseError,
    format_document,
    format_monomial,
    parse_document,
)
from gideal.textio import _tokenize
from oracles import tokenize_by_scanning


class TestParse:
    def test_six_generator_ideal(self):
        doc = parse_document(
            "ring 3 vars x,y,z; ideal I = x^3,y^3,z^3,x*y,y*z,x*z;"
        )
        assert doc.names == ("x", "y", "z")
        assert doc.ideal("I") == MonomialIdeal.of(
            3, [(3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 0), (0, 1, 1), (1, 0, 1)]
        )

    def test_two_variable_squares(self):
        doc = parse_document("ring 2 vars x,y; ideal J = x^2, y^2;")
        assert doc.ideal("J") == MonomialIdeal.of(2, [(2, 0), (0, 2)])

    def test_unknown_variable(self):
        with pytest.raises(ParseError) as exc:
            parse_document("ring 3 vars x,y,z; ideal K = w;")
        assert "unknown variable w" in str(exc.value)

    def test_whitespace_insensitive(self):
        a = parse_document("ring 2 vars x,y; ideal I = x*y, x^3;")
        b = parse_document("ring 2 vars\n  x , y ;\nideal I =\n  x * y ,\n  x^3;")
        assert a == b

    def test_zero_exponent_accepted(self):
        doc = parse_document("ring 2 vars x,y; ideal I = x^0, y;")
        assert doc.ideal("I") == MonomialIdeal.unit(2)

    def test_unit_monomial_literal(self):
        doc = parse_document("ring 2 vars x,y; ideal I = 1;")
        assert doc.ideal("I") == MonomialIdeal.unit(2)

    def test_decimal_digits_of_any_script(self):
        doc = parse_document("ring 2 vars x,y; ideal I = x^\u0663, y;")
        assert doc.ideal("I") == MonomialIdeal.of(2, [(3, 0), (0, 1)])

    def test_repeated_variable_multiplies(self):
        doc = parse_document("ring 2 vars x,y; ideal I = x*x*y^2*x;")
        assert doc.ideal("I") == MonomialIdeal.of(2, [(3, 2)])

    def test_multiple_ideals_ordered(self):
        doc = parse_document("ring 2 vars x,y; ideal A = x; ideal B = y;")
        assert [name for name, _ in doc.ideals] == ["A", "B"]


class TestParseErrors:
    def test_error_carries_position(self):
        with pytest.raises(ParseError) as exc:
            parse_document("ring 3 vars x,y,z;\nideal K = w;")
        assert exc.value.line == 2
        assert exc.value.col == 11

    def test_missing_semicolon(self):
        with pytest.raises(ParseError):
            parse_document("ring 2 vars x,y ideal I = x;")

    def test_duplicate_variable(self):
        with pytest.raises(ParseError) as exc:
            parse_document("ring 2 vars x,x; ideal I = x;")
        assert "duplicate variable" in str(exc.value)

    def test_duplicate_ideal_name(self):
        with pytest.raises(ParseError) as exc:
            parse_document("ring 2 vars x,y; ideal I = x; ideal I = y;")
        assert "duplicate ideal" in str(exc.value)

    def test_no_ideals(self):
        with pytest.raises(ParseError):
            parse_document("ring 2 vars x,y;")

    def test_bad_variable_count(self):
        with pytest.raises(ParseError):
            parse_document("ring 0 vars ; ideal I = 1;")

    def test_stray_character(self):
        with pytest.raises(ParseError) as exc:
            parse_document("ring 2 vars x,y; ideal I = x?;")
        assert "unexpected character" in str(exc.value)

    @pytest.mark.parametrize(
        "text, position",
        [
            ("ring \u00b3 vars x; ideal I = x;", (1, 6)),
            ("ring 1 vars x;\nideal I = x^2\u00b2;", (2, 14)),
        ],
    )
    def test_superscript_digit_is_unexpected(self, text, position):
        with pytest.raises(ParseError) as exc:
            parse_document(text)
        assert "unexpected character" in str(exc.value)
        assert (exc.value.line, exc.value.col) == position

    def test_number_other_than_one(self):
        with pytest.raises(ParseError):
            parse_document("ring 2 vars x,y; ideal I = 2;")

    def test_huge_exponent(self):
        with pytest.raises(ParseError) as exc:
            parse_document("ring 2 vars x,y; ideal I = x^99999999999;")
        assert "too large" in str(exc.value)

    @pytest.mark.parametrize(
        "text, position",
        [
            ("ring 2 vars x,y;\nideal I = x^" + "9" * 5000 + ", y;", (2, 13)),
            ("ring " + "1" * 5000 + " vars x; ideal I = x;", (1, 6)),
        ],
        ids=["exponent", "variable count"],
    )
    def test_overlong_integer(self, text, position):
        # longer than int() converts: rejected by its length, at its position
        with pytest.raises(ParseError) as exc:
            parse_document(text)
        assert "5000 digits is too large" in str(exc.value)
        assert (exc.value.line, exc.value.col) == position

    @pytest.mark.parametrize("zero", ["0", "\u0660"])
    def test_leading_zeros_accepted(self, zero):
        doc = parse_document("ring 2 vars x,y; ideal I = x^" + zero * 20 + "3, y;")
        assert doc.ideal("I").gens == ((0, 1), (3, 0))

    def test_repeated_factors_exceeding_limit(self):
        with pytest.raises(ParseError) as exc:
            parse_document(
                "ring 2 vars x,y; ideal I = x^2147483647*x^2147483647, y;"
            )
        assert "too large" in str(exc.value)
        assert (exc.value.line, exc.value.col) == (1, 43)


class TestFormat:
    def test_format_monomial(self):
        assert format_monomial((2, 1, 0), ("x", "y", "z")) == "x^2*y"
        assert format_monomial((0, 0, 0), ("x", "y")) == "1"

    def test_format_then_parse_is_identity(self):
        doc = parse_document("ring 3 vars x,y,z; ideal I = x^3,y^3,z^3,x*y;")
        assert parse_document(format_document(doc)) == doc

    def test_parse_then_format_idempotent(self):
        text = "ring 2 vars u,v; ideal A = u^2, u*v^3; ideal B = v;"
        once = format_document(parse_document(text))
        assert format_document(parse_document(once)) == once


exps = st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5)).filter(
    lambda t: sum(t) > 0
)


class TestRoundtripProperty:
    @settings(max_examples=60, derandomize=True)
    @given(st.lists(exps, min_size=1, max_size=6))
    def test_random_documents_roundtrip(self, gens):
        doc = IdealDocument(
            ("x", "y", "z"), (("I", MonomialIdeal.of(3, gens)),)
        )
        assert parse_document(format_document(doc)) == doc


# the grammar's marks, letters, ASCII and Arabic-Indic digits, "_", a
# superscript digit and a vulgar fraction (word characters that are not
# letters), a stray "?", and whitespace: a line feed and seven others that
# take one column each
LEXER_ALPHABET = (
    ",;=^*" + "xyzIé" + "0123" + "\u0660\u0661\u0663" + "_\u00b2\u00bd?"
    + " \t\n\r\x0b\x1c\u2028\u00a0"
)


def lexed(tokenize, text):
    """The tokens of text, or the message and position of its parse error."""
    try:
        return tokenize(text)
    except ParseError as err:
        return str(err), err.line, err.col


class TestLexer:
    def test_matches_hand_scanner_on_random_strings(self):
        rng = random.Random(7919)
        for _ in range(20_000):
            text = "".join(rng.choices(LEXER_ALPHABET, k=rng.randint(0, 24)))
            assert lexed(_tokenize, text) == lexed(tokenize_by_scanning, text), text

    def test_character_classes_match_str_predicates(self):
        # `_TOKEN` relies on these three agreeing on every code point
        digit, word, space = re.compile(r"\d"), re.compile(r"\w"), re.compile(r"\s")
        for cp in range(0x10000):
            ch = chr(cp)
            assert bool(digit.match(ch)) == ch.isdecimal(), hex(cp)
            assert bool(word.match(ch)) == (ch.isalnum() or ch == "_"), hex(cp)
            assert bool(space.match(ch)) == ch.isspace(), hex(cp)
