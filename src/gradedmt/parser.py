"""Concrete grammar for formulas and theories.

Binding from tight to loose: atoms and `not`, `&`, `/\\`, `\\/`, `->`
(right associative), `<->`.  Quantifiers `forall x y . phi` and
`exists x . phi` scope to the end of phi and elaborate to nested single
quantifiers.  `val(LABEL)` is a truth constant and `t1 ~ t2` is crisp
identity.  A name may hold `/`, but not directly before `\\`: `P/\\Q`
is `P /\\ Q`.  Whitespace is insignificant; `#` starts a comment in
theory text.
"""

import re
from dataclasses import dataclass

from .errors import ParseError
from .syntax import (
    And,
    App,
    Atom,
    Eq,
    Exists,
    Forall,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    Signature,
    Strong,
    Val,
    Var,
    exists_block,
    forall_block,
    free_variables,
)


@dataclass(frozen=True)
class SourceSpan:
    line: int
    column: int

    def __str__(self):
        return f"line {self.line}, column {self.column}"


_KEYWORDS = {"forall", "exists", "not", "val"}
_BINARY = ((Iff, "<->"), (Implies, "->"), (Or, "\\/"), (And, "/\\"), (Strong, "&"))  # loosest first
# one lexeme per match, alternatives tried in order; a name stops before `/\`
_LEXEME = re.compile(r"(?P<newline>\n)|(?P<space>[^\S\n]+)|(?P<comment>#.*)"
                     r"|(?P<sym><->|->|/\\|\\/|[&~(),.])|(?P<name>(?:[\w']|/(?!\\))+)")


@dataclass(frozen=True)
class _Token:
    kind: str  # "sym" | "name" | "end"
    text: str
    span: SourceSpan


def _tokenize(text: str) -> list[_Token]:
    """The tokens of `text` and a closing "end" token.  Columns count
    characters from 1; a comment does not advance the column."""
    tokens, pos, line, col = [], 0, 1, 1
    while pos < len(text):
        match = _LEXEME.match(text, pos)
        if match is None:
            raise ParseError(f"unexpected character {text[pos]!r} at {SourceSpan(line, col)}")
        kind, pos = match.lastgroup, match.end()
        if kind == "newline":
            line, col = line + 1, 1
        elif kind != "comment":
            if kind != "space":
                tokens.append(_Token(kind, match.group(), SourceSpan(line, col)))
            col += len(match.group())
    tokens.append(_Token("end", "", SourceSpan(line, col)))
    return tokens


class _Parser:
    def __init__(self, text: str, sig: Signature, notes: list | None = None):
        self.sig = sig
        self.tokens = _tokenize(text)
        self.pos = 0
        # recording mode (`infer_signature`): names are not looked up in `sig` but
        # noted as (name, arity or None when bare, "term" | "formula" | "bound")
        self.notes = notes

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.take()
        if tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text!r} at {tok.span}")
        return tok

    def fail(self, message: str, tok: _Token):
        raise ParseError(f"{message} at {tok.span}")

    def parse(self) -> Formula:
        """The whole text as one formula."""
        try:
            phi = self.formula()
        except RecursionError:
            raise ParseError("formula nested too deeply") from None
        tail = self.peek()
        if tail.kind != "end":
            raise ParseError(f"trailing input {tail.text!r} at {tail.span}")
        return phi

    def formula(self) -> Formula:
        return self.binary(0)

    def binary(self, level: int) -> Formula:
        """The connectives of `_BINARY[level:]` over `unary`: implication
        groups to the right, the others to the left."""
        ctor, symbol = _BINARY[level]
        left = self.binary(level + 1) if level + 1 < len(_BINARY) else self.unary()
        while self.peek().text == symbol:
            self.take()
            left = ctor(left, self.binary(level) if ctor is Implies else
                        self.binary(level + 1) if level + 1 < len(_BINARY) else self.unary())
        return left

    def unary(self) -> Formula:
        tok = self.peek()
        if tok.text == "not":
            self.take()
            return Not(self.unary())
        if tok.text in ("forall", "exists"):
            return self.quantified()
        return self.atom()

    def quantified(self) -> Formula:
        tok = self.take()
        variables = []
        while self.peek().kind == "name" and self.peek().text not in _KEYWORDS:
            variables.append(self.take().text)
        if not variables:
            self.fail("quantifier needs at least one variable", self.peek())
        if self.notes is not None:
            self.notes += [(v, None, "bound") for v in variables]
        self.expect(".")
        body = self.formula()
        return (forall_block if tok.text == "forall" else exists_block)(variables, body)

    def atom(self) -> Formula:
        tok = self.peek()
        if tok.text == "(":
            self.take()
            inner = self.formula()
            self.expect(")")
            if self.peek().text == "~":
                self.fail("parenthesized formulas cannot be identity operands", self.peek())
            return inner
        if tok.text == "val":
            self.take()
            self.expect("(")
            label_tok = self.take()
            if label_tok.kind != "name":
                self.fail("val needs an element label", label_tok)
            self.expect(")")
            if not self.sig.allows_truth_constant(label_tok.text):
                self.fail(f"unknown truth constant val({label_tok.text})", label_tok)
            return Val(label_tok.text)
        if tok.kind != "name":
            self.fail(f"expected a formula, found {tok.text!r}", tok)
        # predicate application, or a term followed by ~
        if self.notes is None and tok.text in self.sig.predicates:
            name_tok = self.take()
            args = self.argument_list(self.sig.predicates[name_tok.text], name_tok)
            if self.peek().text == "~":
                self.fail("a predicate application is not a term", self.peek())
            return Atom(name_tok.text, tuple(args or ()))
        left = self.term("formula")
        if isinstance(left, Atom):  # recording mode, and no `~` follows
            return left
        self.expect("~")
        return Eq(left, self.term())

    def noted(self, name: str, place: str):
        """Recording mode: note the name just taken, then read its optional
        arguments; at formula position it is a term when `~` follows."""
        slot = len(self.notes)
        args = self.argument_list()
        if self.peek().text == "~":
            place = "term"
        self.notes.insert(slot, (name, None if args is None else len(args), place))
        if place == "formula":
            return Atom(name, tuple(args or ()))
        return Var(name) if args is None else App(name, tuple(args))

    def argument_list(self, arity: int | None = None, name_tok: _Token | None = None) -> list | None:
        """The parenthesized terms after a name, or None when no `(` follows;
        unless `arity` is None, there must be that many."""
        args = None
        if self.peek().text == "(":
            self.take()
            args = []
            if self.peek().text != ")":
                args.append(self.term())
                while self.peek().text == ",":
                    self.take()
                    args.append(self.term())
            self.expect(")")
        if arity is not None and len(args or ()) != arity:
            self.fail(
                f"{name_tok.text!r} expects {arity} arguments, got {len(args or ())}", name_tok
            )
        return args

    def term(self, place: str = "term"):
        tok = self.take()
        if tok.kind != "name" or tok.text in _KEYWORDS:
            self.fail(f"expected a term, found {tok.text!r}", tok)
        if self.notes is not None:
            return self.noted(tok.text, place)
        if tok.text in self.sig.functions:
            args = self.argument_list(self.sig.functions[tok.text], tok)
            return App(tok.text, tuple(args or ()))
        if tok.text in self.sig.predicates:
            self.fail(f"{tok.text!r} is a predicate, not a term", tok)
        if self.peek().text == "(":
            self.fail(f"unknown function symbol {tok.text!r}", tok)
        return Var(tok.text)


def parse_formula(text: str, sig: Signature) -> Formula:
    """Parse one formula against a signature."""
    return _Parser(text, sig).parse()


def parse_theory(text: str, sig: Signature) -> list[Formula]:
    """Parse newline-separated formulas; # starts a comment."""
    return _each_line(text, lambda line: parse_formula(line, sig))


def _each_line(text: str, parse) -> list:
    """`parse` of each line that has text before any `#` comment; an error names its line."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            out.append(parse(line))
        except ParseError as err:
            raise ParseError(f"line {lineno}: {err}") from err
    return out


# --- rendering ---

_PREC = {ctor: prec for prec, (ctor, _) in enumerate(_BINARY, 1)}  # how tightly each connective binds
_PREC_UNARY = len(_BINARY) + 1


def render_term(t) -> str:
    if isinstance(t, Var):
        return t.name
    if not t.args:
        return t.name
    return f"{t.name}({', '.join(render_term(a) for a in t.args)})"


def render_formula(phi: Formula) -> str:
    """Render a formula so that parsing it back yields an equal tree."""
    return _render(phi, 0)


def _render(phi: Formula, outer: int) -> str:
    if isinstance(phi, Atom):
        if not phi.args:
            return phi.name
        return f"{phi.name}({', '.join(render_term(a) for a in phi.args)})"
    if isinstance(phi, Eq):
        return f"{render_term(phi.left)} ~ {render_term(phi.right)}"
    if isinstance(phi, Val):
        return f"val({phi.label})"
    if isinstance(phi, Not):
        return _wrap(f"not {_render(phi.body, _PREC_UNARY)}", _PREC_UNARY, outer)
    if isinstance(phi, (Forall, Exists)):
        ctor = type(phi)
        variables = [phi.var]
        body = phi.body
        while isinstance(body, ctor):
            variables.append(body.var)
            body = body.body
        word = "forall" if ctor is Forall else "exists"
        text = f"{word} {' '.join(variables)} . {_render(body, 0)}"
        return f"({text})" if outer > 0 else text
    if type(phi) in _PREC:
        prec, right = _PREC[type(phi)], type(phi) is Implies  # implication groups to the right
        text = f"{_render(phi.left, prec + right)} {_BINARY[prec - 1][1]} {_render(phi.right, prec + 1 - right)}"
        return _wrap(text, prec, outer)
    raise TypeError(f"not a formula: {phi!r}")


def _wrap(text: str, prec: int, outer: int) -> str:
    return f"({text})" if prec < outer else text


# --- signature inference for standalone theory text ---


def infer_signature(text: str, licensed_labels=()) -> Signature:
    """Infer a signature from theory text whose lines are sentences.

    The parser reads each line once in recording mode.  At formula position
    `name(args)` is a predicate unless `~` follows it; an application in
    term position is a function; a bare name is a variable if a quantifier
    anywhere in the text binds it, else a constant in term position and a
    0-ary predicate at formula position; two arities for one name raise
    ParseError.  Predicates keep their order of first occurrence; functions
    list the applied ones, then the constants, each in that order.  Every
    line is then parsed against the signature, and a free name raises
    ParseError naming its line."""
    return _infer_theory(text, licensed_labels)[1]


def _infer_theory(text: str, licensed_labels=()) -> tuple[list[Formula], Signature]:
    """The sentences of theory text and the signature `infer_signature` infers for them."""
    licensed, notes = Signature(truth_constants=licensed_labels), []
    _each_line(text, lambda line: _Parser(line, licensed, notes).parse())
    bound = {name for name, _, place in notes if place == "bound"}
    applied = {}  # applications and bare 0-ary predicates
    for name, arity, place in notes:
        if arity is None and (place == "term" or name in bound):
            continue  # a constant or a variable
        arity = arity or 0
        if applied.setdefault(name, arity) != arity:
            raise ParseError(f"{name!r} used with arities {applied[name]} and {arity}")
    functional = {name for name, arity, place in notes if arity is not None and place == "term"}
    constants = {name: 0 for name, arity, place in notes
                 if arity is None and place == "term" and name not in bound and name not in applied}
    sig = Signature(predicates={name: a for name, a in applied.items() if name not in functional},
                    functions={**{name: a for name, a in applied.items() if name in functional}, **constants},
                    truth_constants=licensed.truth_constants)

    def sentence(line: str) -> Formula:
        phi = parse_formula(line, sig)
        loose = free_variables(phi)
        if loose:
            raise ParseError(f"cannot infer role of free name(s) {sorted(loose)}")
        return phi

    return _each_line(text, sentence), sig
