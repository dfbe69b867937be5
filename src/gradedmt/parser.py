"""Concrete grammar for formulas and theories.

Binding from tight to loose: atoms and `not`, `&`, `/\\`, `\\/`, `->`
(right associative), `<->`.  Quantifiers `forall x y . phi` and
`exists x . phi` scope to the end of phi and elaborate to nested single
quantifiers.  `val(LABEL)` is a truth constant and `t1 ~ t2` is crisp
identity.  Whitespace is insignificant; `#` starts a comment in theory
text.
"""

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
)


@dataclass(frozen=True)
class SourceSpan:
    line: int
    column: int

    def __str__(self):
        return f"line {self.line}, column {self.column}"


_SYMBOLS = ["<->", "->", "/\\", "\\/", "&", "~", "(", ")", ",", "."]
_KEYWORDS = {"forall", "exists", "not", "val"}
_BINARY = ((Iff, "<->"), (Implies, "->"), (Or, "\\/"), (And, "/\\"), (Strong, "&"))  # loosest first


@dataclass(frozen=True)
class _Token:
    kind: str  # "sym" | "name" | "end"
    text: str
    span: SourceSpan


def _tokenize(text: str) -> list[_Token]:
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


class _Parser:
    def __init__(self, text: str, sig: Signature):
        self.sig = sig
        self.tokens = _tokenize(text)
        self.pos = 0

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
        self.expect(".")
        body = self.formula()
        return (forall_block if tok.text == "forall" else exists_block)(variables, body)

    def atom(self) -> Formula:
        tok = self.peek()
        if tok.text == "(":
            self.take()
            inner = self.formula()
            self.expect(")")
            return self.maybe_identity_formula(inner)
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
        if tok.text in self.sig.predicates:
            name_tok = self.take()
            args = self.argument_list(self.sig.predicates[name_tok.text], name_tok)
            if self.peek().text == "~":
                self.fail("a predicate application is not a term", self.peek())
            return Atom(name_tok.text, tuple(args))
        left = self.term()
        self.expect("~")
        right = self.term()
        return Eq(left, right)

    def maybe_identity_formula(self, inner: Formula) -> Formula:
        if self.peek().text == "~":
            self.fail("parenthesized formulas cannot be identity operands", self.peek())
        return inner

    def argument_list(self, arity: int, name_tok: _Token) -> list:
        args = []
        if self.peek().text == "(":
            self.take()
            if self.peek().text != ")":
                args.append(self.term())
                while self.peek().text == ",":
                    self.take()
                    args.append(self.term())
            self.expect(")")
        if len(args) != arity:
            self.fail(
                f"{name_tok.text!r} expects {arity} arguments, got {len(args)}", name_tok
            )
        return args

    def term(self):
        tok = self.take()
        if tok.kind != "name" or tok.text in _KEYWORDS:
            self.fail(f"expected a term, found {tok.text!r}", tok)
        if tok.text in self.sig.functions:
            args = self.argument_list(self.sig.functions[tok.text], tok)
            return App(tok.text, tuple(args))
        if tok.text in self.sig.predicates:
            self.fail(f"{tok.text!r} is a predicate, not a term", tok)
        if self.peek().text == "(":
            self.fail(f"unknown function symbol {tok.text!r}", tok)
        return Var(tok.text)


def parse_formula(text: str, sig: Signature) -> Formula:
    """Parse one formula against a signature."""
    parser = _Parser(text, sig)
    try:
        phi = parser.formula()
    except RecursionError:
        raise ParseError("formula nested too deeply") from None
    tail = parser.peek()
    if tail.kind != "end":
        raise ParseError(f"trailing input {tail.text!r} at {tail.span}")
    return phi


def parse_theory(text: str, sig: Signature) -> list[Formula]:
    """Parse newline-separated formulas; # starts a comment."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            out.append(parse_formula(line, sig))
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
    from .syntax import free_variables

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
