"""Signature inference against a frozen copy of the token walk it replaced.

`parser.infer_signature` reads each line once with the formula parser in
recording mode.  `reference_infer_signature` below is the earlier
implementation, kept verbatim: a walk over the token list of the whole
text with its own stack of frames, and `_count_args`.  The two are run on
the bundled theories, on multi-line renderings of random formulas over
random signatures and on strings of `test_fuzz`'s tokens.  Both must raise
`ParseError` or both must give the same truth constants, the same
predicates in the same order, the same applied functions in the same order
and the same set of constants.  The one difference allowed is the walk's
cross-line reading: it runs over line breaks, so a line that ends in a name
followed by a line that starts with `(` reads as one application, and the
walk raises where the parser infers a signature.
"""

import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from gradedmt.corpus import data_dir
from gradedmt.errors import ParseError
from gradedmt.parser import _KEYWORDS, _tokenize, infer_signature, parse_formula, render_formula
from gradedmt.randomgen import random_formula
from gradedmt.syntax import Signature, forall_block, free_variables
from test_fuzz import _TOKENS

LABELS = ("3/4",)


def reference_infer_signature(text: str, licensed_labels=()) -> Signature:
    """Guess a signature from theory text.

    An applied name is a function when any occurrence sits inside another
    application or next to `~`, otherwise a predicate.  Quantified names
    are variables; remaining bare names in term position become object
    constants.  Assumes the text consists of sentences.
    """
    tokens = [t for t in _tokenize(text) if t.kind != "end"]
    n = len(tokens)
    bound: set[str] = set()
    i = 0
    while i < n:
        if tokens[i].text in ("forall", "exists"):
            i += 1
            while i < n and tokens[i].kind == "name" and tokens[i].text not in _KEYWORDS:
                bound.add(tokens[i].text)
                i += 1
        else:
            i += 1

    applied: dict[str, int] = {}
    term_named: set[str] = set()
    bare_in_term: set[str] = set()
    frames: list[tuple[str, str | None]] = []  # ("app", name) or ("group", None)

    def inside_app() -> bool:
        return any(kind == "app" for kind, _ in frames)

    i = 0
    while i < n:
        tok = tokens[i]
        word = tok.text
        if word == "(":
            frames.append(("group", None))
            i += 1
            continue
        if word == ")":
            if not frames:
                raise ParseError(f"unbalanced ')' at {tok.span}")
            kind, name = frames.pop()
            if kind == "app" and name is not None:
                if i + 1 < n and tokens[i + 1].text == "~":
                    term_named.add(name)
            i += 1
            continue
        if word == "val":
            i += 4  # val ( label )
            continue
        if tok.kind == "name" and word not in _KEYWORDS:
            is_call = i + 1 < n and tokens[i + 1].text == "("
            near_tilde = (i + 1 < n and tokens[i + 1].text == "~") or (
                i > 0 and tokens[i - 1].text == "~"
            )
            if is_call:
                count = _count_args(tokens, i + 1)
                if word in applied and applied[word] != count:
                    raise ParseError(f"{word!r} used with arities {applied[word]} and {count}")
                applied[word] = count
                if inside_app() or near_tilde:
                    term_named.add(word)
                frames.append(("app", word))
                i += 2  # skip the opening paren, frame already pushed
                continue
            if word in bound:
                i += 1
                continue
            if inside_app() or near_tilde:
                bare_in_term.add(word)
            else:
                applied.setdefault(word, 0)
            i += 1
            continue
        if word == ",":
            i += 1
            continue
        i += 1

    predicates: dict[str, int] = {}
    functions: dict[str, int] = {}
    for name, arity in applied.items():
        if name in term_named:
            functions[name] = arity
        else:
            predicates[name] = arity
    for name in bare_in_term:
        if name not in predicates and name not in functions:
            functions[name] = 0
    sig = Signature(
        predicates=predicates,
        functions=functions,
        truth_constants=frozenset(licensed_labels),
    )
    # sanity: everything must now parse as sentences
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        phi = parse_formula(line, sig)
        loose = free_variables(phi)
        if loose:
            raise ParseError(
                f"line {lineno}: cannot infer role of free name(s) {sorted(loose)}"
            )
    return sig


def _count_args(tokens, open_idx) -> int:
    depth = 0
    count = 0
    saw_any = False
    j = open_idx
    while j < len(tokens):
        t = tokens[j].text
        if t == "(":
            depth += 1
        elif t == ")":
            depth -= 1
            if depth == 0:
                return count + 1 if saw_any else 0
        elif depth == 1 and t == ",":
            count += 1
        elif depth >= 1:
            saw_any = True
        j += 1
    raise ParseError("unbalanced parentheses")


def _line_tokens(text: str) -> list[list]:
    """The tokens of each line that is not blank once its comment is cut, or
    None when a line does not tokenize."""
    lines = [raw.split("#", 1)[0].strip() for raw in text.splitlines()]
    try:
        return [[t for t in _tokenize(line) if t.kind != "end"] for line in lines if line]
    except ParseError:
        return None


def _cross_line(text: str) -> bool:
    """A line ends in a name and the next line starts with `(`."""
    lines = _line_tokens(text) or []
    return any(a[-1].kind == "name" and b[0].text == "(" for a, b in zip(lines, lines[1:]))


def _outcome(infer, text: str):
    """None when `infer` raises `ParseError`; otherwise the truth constants,
    the predicates in order, the applied functions in order and the set of
    constants.  For the parser, functions must list the applied ones first
    and then the constants in order of first occurrence."""
    try:
        sig = infer(text, LABELS)
    except ParseError:
        return None
    lines = _line_tokens(text)
    applied = {a.text for line in lines for a, b in zip(line, line[1:]) if b.text == "("}
    functions = [(name, arity) for name, arity in sig.functions.items() if name in applied]
    constants = [name for name in sig.functions if name not in applied]
    if infer is infer_signature:
        tokens, first = [t for line in lines for t in line], {}
        for index, tok in enumerate(tokens):
            if index < 2 or tokens[index - 2].text != "val":  # not the label of a truth constant
                first.setdefault(tok.text, index)
        assert list(sig.functions) == [name for name, _ in functions] + sorted(constants, key=first.get)
    return sig.truth_constants, list(sig.predicates.items()), functions, set(constants)


def _check(text: str) -> bool:
    """Whether the walk and the parser agree on `text`; they may differ
    only by the walk's cross-line reading.  Returns whether the parser
    inferred a signature."""
    reference, outcome = _outcome(reference_infer_signature, text), _outcome(infer_signature, text)
    if reference != outcome:
        assert reference is None and outcome is not None and _cross_line(text), text
    return outcome is not None


def test_the_bundled_theories_infer_as_the_walk_did():
    paths = sorted(data_dir().glob("*.thy"))
    assert len(paths) == 3
    for path in paths:
        text = path.read_text(encoding="utf-8")
        assert not _cross_line(text)
        assert _outcome(infer_signature, text) == _outcome(reference_infer_signature, text) is not None


def _random_signature(rnd: random.Random) -> Signature:
    """A few predicates, functions and constants; a constant may share a
    name with one of `random_formula`'s variables."""
    predicates = {name: rnd.randrange(3) for name in rnd.sample("PQRS", rnd.randint(1, 3))}
    functions = {name: rnd.randint(1, 2) for name in rnd.sample("fgh", rnd.randrange(3))}
    functions.update((name, 0) for name in rnd.sample(["a", "b", "c", "x", "u"], rnd.randrange(3)))
    return Signature(predicates=predicates, functions=functions, truth_constants=frozenset(LABELS))


def _random_text(rnd: random.Random) -> str:
    """Two to four rendered random formulas, most of them closed, on their own lines."""
    sig = _random_signature(rnd)
    lines = []
    for _ in range(rnd.randint(2, 4)):
        phi = random_formula(rnd, sig, ("0", "1") + LABELS, depth=rnd.randint(0, 4))
        if rnd.random() < 0.8:
            phi = forall_block(sorted(free_variables(phi)), phi)
        lines.append(render_formula(phi))
        if rnd.random() < 0.1:
            lines.append(rnd.choice(["", "# a comment", "   "]))
    return "\n".join(lines)


def test_random_theories_infer_as_the_walk_did():
    rnd = random.Random(5)
    inferred = crossed = 0
    for _ in range(600):
        text = _random_text(rnd)
        inferred += _check(text)
        crossed += _cross_line(text)
    assert inferred > 300 and crossed > 0  # the comparison reaches signatures and the cross-line reading


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(tokens=st.lists(st.sampled_from(_TOKENS), max_size=16), separator=st.sampled_from(["", " "]))
def test_token_strings_infer_as_the_walk_did(tokens, separator):
    _check(separator.join(tokens))


def test_the_walk_read_a_line_break_as_part_of_an_application():
    text = "forall x . R(x, x) -> Q\n(Q -> val(0))"
    assert _cross_line(text)
    assert _outcome(reference_infer_signature, text) is None
    sig = infer_signature(text)
    assert sig.predicates == {"R": 2, "Q": 0} and sig.functions == {}
    _check(text)


def test_inferred_functions_list_applications_then_constants_in_first_occurrence_order():
    sig = infer_signature("P(a)\nR(b, c) /\\ (d ~ e)\nforall x . g(f(x), k) ~ f(x)\nS(h())")
    assert list(sig.predicates) == ["P", "R", "S"]
    assert list(sig.functions.items()) == [("g", 2), ("f", 1), ("h", 0), ("a", 0), ("b", 0), ("c", 0), ("d", 0),
                                           ("e", 0), ("k", 0)]
    # a truth constant's label is not an occurrence of a name
    text = "val(1) /\\ P(0) /\\ P(1)"
    assert list(infer_signature(text).functions) == ["0", "1"]
    _check(text)


def test_the_inferred_function_order_does_not_depend_on_the_hash_seed():
    code = ("from gradedmt.parser import infer_signature; "
            "print(list(infer_signature('P(a)\\nR(b, c) /\\\\ (d ~ e)').functions))")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    outputs = set()
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        outputs.add(subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                                   check=True).stdout)
    assert outputs == {"['a', 'b', 'c', 'd', 'e']\n"}


def test_a_bound_name_is_a_variable_on_every_line():
    # `c` is bound on line 1, so on line 2 it is a free variable, not a constant
    text = "forall c . P(c)\nQ(c)"
    assert _outcome(reference_infer_signature, text) is None
    with pytest.raises(ParseError) as err:
        infer_signature(text)
    assert str(err.value) == "line 2: cannot infer role of free name(s) ['c']"


def test_an_application_followed_by_tilde_is_a_function():
    text = "forall x . P(x) ~ x"
    assert _outcome(infer_signature, text) == _outcome(reference_infer_signature, text)
    sig = infer_signature(text)
    assert sig.functions == {"P": 1} and sig.predicates == {}
