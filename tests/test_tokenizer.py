"""The formula tokenizer against the character loop it replaced, and the
`/\\` that a name used to swallow."""

import re

import pytest
from hypothesis import given, settings, strategies as st

from gradedmt.cli import main
from gradedmt.errors import ParseError
from gradedmt.parser import SourceSpan, _Token, _tokenize, infer_signature, parse_formula, parse_theory
from gradedmt.syntax import Signature
from test_fuzz import _TOKENS

_SYMBOLS = ["<->", "->", "/\\", "\\/", "&", "~", "(", ")", ",", "."]


def reference_tokenize(text: str) -> list[_Token]:
    tokens = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        matched = None
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                matched = sym
                break
        if matched:
            tokens.append(_Token("sym", matched, SourceSpan(line, col)))
            i += len(matched)
            col += len(matched)
            continue
        if ch.isalnum() or ch in "_'/":
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_'/"):
                j += 1
            tokens.append(_Token("name", text[i:j], SourceSpan(line, col)))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r} at {SourceSpan(line, col)}")
    tokens.append(_Token("end", "", SourceSpan(line, col)))
    return tokens


# where the reference could take the `/` of a `/\` into the name before it
_SWALLOWED = re.compile(r"[\w'/]/\\")
_PIECES = [*_TOKENS, " ", "\t", "\n", "#", "\xa0", "é", "²"]
_texts = (st.lists(st.sampled_from(_PIECES), max_size=24).map("".join)
          | st.text(alphabet=sorted(set("".join(_PIECES))), max_size=24))


def _outcome(tokenize, text):
    try:
        return [(t.kind, t.text, t.span) for t in tokenize(text)]
    except ParseError as err:
        return str(err)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(text=_texts)
def test_tokens_spans_and_errors_match_the_reference(text):
    if not _SWALLOWED.search(text):
        assert _outcome(_tokenize, text) == _outcome(reference_tokenize, text)


def test_a_name_keeps_its_slashes_up_to_the_one_that_begins_a_conjunction():
    assert _outcome(reference_tokenize, "P/\\Q") == "unexpected character '\\\\' at line 1, column 3"
    assert [t.text for t in _tokenize("3/4//\\x")] == ["3/4/", "/\\", "x", ""]


def test_a_trailing_comment_leaves_the_end_token_at_the_hash():
    assert _tokenize("P(x)  # note")[-1] == _Token("end", "", SourceSpan(1, 7))


_CASES = [  # (text without spaces around /\, the same text spaced, a signature for it)
    ("P/\\Q", "P /\\ Q", Signature(predicates={"P": 0, "Q": 0})),
    ("val(3/4)/\\P", "val(3/4) /\\ P", Signature(predicates={"P": 0}, truth_constants=frozenset({"3/4"}))),
    ("P/\\val(3/4)", "P /\\ val(3/4)", Signature(predicates={"P": 0}, truth_constants=frozenset({"3/4"}))),
    ("x ~ y/\\P(x)", "x ~ y /\\ P(x)", Signature(predicates={"P": 1})),
]


@pytest.mark.parametrize("tight, spaced, sig", _CASES)
def test_a_name_stops_before_a_conjunction(tight, spaced, sig):
    assert parse_formula(tight, sig) == parse_formula(spaced, sig)
    assert parse_theory(f"{tight}\n{tight}  # again", sig) == parse_theory(f"{spaced}\n{spaced}", sig)
    sentence = "forall x y . ({})"
    assert (infer_signature(sentence.format(tight), ("3/4",))
            == infer_signature(sentence.format(spaced), ("3/4",)))


def test_classify_reads_a_conjunction_after_a_name(capsys):
    assert main(["classify", "--formula", "P/\\Q"]) == 0
    assert capsys.readouterr().out == "QuantifierFree\n"
