"""Predicate languages and formula trees.

Formulas are immutable trees over predicate atoms, crisp identity,
truth constants, the connectives strong conjunction, min-conjunction,
max-disjunction and implication, the derived negation and equivalence,
and single-variable quantifiers.  Multi-variable quantification is
surface syntax only and elaborates to nested single quantifiers.
"""

from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping

from .algebra import FiniteChain
from .errors import SignatureError

BOTTOM_LABEL = "0"
TOP_LABEL = "1"


@dataclass(frozen=True)
class Signature:
    """Predicate and function symbols with arities.

    Arity-0 predicates denote structure-interpreted truth values;
    arity-0 functions are object constants.  `truth_constants` lists the
    element labels licensed for val(...) beyond the always-available
    "0" and "1".  Two signatures are equal when they declare the same
    symbols: a constant added for a domain element is an ordinary one.
    """

    predicates: Mapping[str, int] = field(default_factory=dict)
    functions: Mapping[str, int] = field(default_factory=dict)
    truth_constants: frozenset = frozenset()

    def __post_init__(self):
        preds = dict(self.predicates)
        funcs = dict(self.functions)
        clash = set(preds) & set(funcs)
        if clash:
            raise SignatureError(f"names used as both predicate and function: {sorted(clash)}")
        for name, ar in list(preds.items()) + list(funcs.items()):
            if not isinstance(ar, int) or ar < 0:
                raise SignatureError(f"arity of {name!r} must be a nonnegative int")
        object.__setattr__(self, "predicates", preds)
        object.__setattr__(self, "functions", funcs)
        object.__setattr__(self, "truth_constants", frozenset(self.truth_constants))

    def constants(self) -> list[str]:
        return sorted(n for n, a in self.functions.items() if a == 0)

    def proper_functions(self) -> list[str]:
        return sorted(n for n, a in self.functions.items() if a > 0)

    def allows_truth_constant(self, label: str) -> bool:
        return label in (BOTTOM_LABEL, TOP_LABEL) or label in self.truth_constants

    def is_relational_with_constants(self) -> bool:
        return all(a == 0 for a in self.functions.values())


def expand_with_domain_constants(sig: Signature, domain_labels: Iterable[str]) -> Signature:
    """Add one fresh constant c_<label> per domain element."""
    labels = list(domain_labels)
    if not labels:
        raise SignatureError("cannot expand over an empty domain")
    funcs = dict(sig.functions)
    for label in labels:
        name = constant_name_for(label)
        if name in funcs or name in sig.predicates:
            raise SignatureError(f"constant name {name!r} already in use")
        funcs[name] = 0
    return replace(sig, functions=funcs)


def constant_name_for(label: str) -> str:
    return f"c_{label}"


def expand_with_truth_constants(sig: Signature, chain: FiniteChain) -> Signature:
    """License one truth constant per chain element."""
    labels = set(chain.elements)
    clash = labels & sig.truth_constants
    if clash:
        raise SignatureError(f"truth constants already present: {sorted(clash)}")
    return replace(sig, truth_constants=frozenset(sig.truth_constants | labels))


# --- terms ---


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class App:
    """Function application; constants are applications with no arguments."""

    name: str
    args: tuple = ()


Term = Var | App


def term_variables(t: Term) -> set[str]:
    if isinstance(t, Var):
        return {t.name}
    out: set[str] = set()
    for a in t.args:
        out |= term_variables(a)
    return out


# --- formulas ---


@dataclass(frozen=True)
class Atom:
    name: str
    args: tuple = ()


@dataclass(frozen=True)
class Eq:
    """Crisp identity between two terms; value is top iff they coincide."""

    left: Term
    right: Term


@dataclass(frozen=True)
class Val:
    """Truth constant naming a chain element."""

    label: str


@dataclass(frozen=True)
class Strong:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Implies:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Not:
    body: "Formula"


@dataclass(frozen=True)
class Iff:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Forall:
    var: str
    body: "Formula"


@dataclass(frozen=True)
class Exists:
    var: str
    body: "Formula"


Formula = Atom | Eq | Val | Strong | And | Or | Implies | Not | Iff | Forall | Exists

_BINARY = (Strong, And, Or, Implies, Iff)
_QUANT = (Forall, Exists)


def free_variables(phi: Formula) -> set[str]:
    if isinstance(phi, Atom):
        out: set[str] = set()
        for t in phi.args:
            out |= term_variables(t)
        return out
    if isinstance(phi, Eq):
        return term_variables(phi.left) | term_variables(phi.right)
    if isinstance(phi, Val):
        return set()
    if isinstance(phi, _BINARY):
        return free_variables(phi.left) | free_variables(phi.right)
    if isinstance(phi, Not):
        return free_variables(phi.body)
    if isinstance(phi, _QUANT):
        return free_variables(phi.body) - {phi.var}
    raise TypeError(f"not a formula: {phi!r}")


def is_sentence(phi: Formula) -> bool:
    return not free_variables(phi)


def is_quantifier_free(phi: Formula) -> bool:
    if isinstance(phi, (Atom, Eq, Val)):
        return True
    if isinstance(phi, _BINARY):
        return is_quantifier_free(phi.left) and is_quantifier_free(phi.right)
    if isinstance(phi, Not):
        return is_quantifier_free(phi.body)
    if isinstance(phi, _QUANT):
        return False
    raise TypeError(f"not a formula: {phi!r}")


def elaborate(phi: Formula) -> Formula:
    """Rewrite Not and Iff into the core connectives, recursively.

    not p becomes (p -> val(0)); (p <-> q) becomes (p -> q) /\\ (q -> p).
    Idempotent: elaborating an already elaborated tree changes nothing.
    """
    if isinstance(phi, (Atom, Eq, Val)):
        return phi
    if isinstance(phi, Not):
        return Implies(elaborate(phi.body), Val(BOTTOM_LABEL))
    if isinstance(phi, Iff):
        left, right = elaborate(phi.left), elaborate(phi.right)
        return And(Implies(left, right), Implies(right, left))
    if isinstance(phi, _BINARY):
        return type(phi)(elaborate(phi.left), elaborate(phi.right))
    if isinstance(phi, _QUANT):
        return type(phi)(phi.var, elaborate(phi.body))
    raise TypeError(f"not a formula: {phi!r}")


# --- prenex fragments ---

QUANTIFIER_FREE = "QuantifierFree"
FORALL = "Forall"
EXISTS = "Exists"
NOT_PRENEX = "NotPrenex"


@dataclass(frozen=True)
class PrenexClass:
    """Prenex fragment of a formula: lead quantifier and block count."""

    kind: str
    blocks: int = 0

    def __str__(self):
        if self.kind in (QUANTIFIER_FREE, NOT_PRENEX):
            return self.kind
        return f"{self.kind}({self.blocks})"

    def within(self, other: "PrenexClass") -> bool:
        """True when this fragment is admissible wherever `other` is required.

        A prefix of n blocks is a degenerate n+1-block prefix, so
        Forall(n) fits within Forall(m) for m >= n and within Exists(m)
        for m >= n + 1, and symmetrically.  Quantifier-free formulas fit
        everywhere; NotPrenex fits nowhere.
        """
        if self.kind == NOT_PRENEX or other.kind == NOT_PRENEX:
            return False
        if self.kind == QUANTIFIER_FREE:
            return True
        if other.kind == QUANTIFIER_FREE:
            return False
        if self.kind == other.kind:
            return self.blocks <= other.blocks
        return self.blocks + 1 <= other.blocks


def quantifier_free_class() -> PrenexClass:
    return PrenexClass(QUANTIFIER_FREE, 0)


def classify_prenex(phi: Formula) -> PrenexClass:
    """Scan the maximal quantifier prefix and count alternating blocks.

    The body after the prefix must be quantifier-free, otherwise the
    formula is NotPrenex.
    """
    blocks = 0
    current = None
    node = phi
    while isinstance(node, _QUANT):
        lead = FORALL if isinstance(node, Forall) else EXISTS
        if lead != current:
            blocks += 1
            current = lead
        node = node.body
    if not is_quantifier_free(node):
        return PrenexClass(NOT_PRENEX, 0)
    if blocks == 0:
        return quantifier_free_class()
    first = FORALL if isinstance(phi, Forall) else EXISTS
    return PrenexClass(first, blocks)


def forall_block(variables: Iterable[str], body: Formula) -> Formula:
    out = body
    for v in reversed(list(variables)):
        out = Forall(v, out)
    return out


def exists_block(variables: Iterable[str], body: Formula) -> Formula:
    out = body
    for v in reversed(list(variables)):
        out = Exists(v, out)
    return out
