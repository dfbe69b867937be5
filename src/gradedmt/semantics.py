"""Structures over a finite chain and formula evaluation.

A structure pairs a chain algebra with a finite domain, total function
tables and total predicate tables into the chain.  Evaluation is the
standard recursion: connectives through the chain tables, the universal
quantifier as a minimum over the domain and the existential one as a
maximum.  Over a finite domain both are attained, so quantified values
always have witnesses.
"""

from dataclasses import dataclass, field, replace
from itertools import product
from typing import Mapping, Sequence

from .algebra import FiniteChain
from .errors import ChainMismatchError, FormatError, GradedmtError, SignatureError
from .syntax import (
    And,
    App,
    Atom,
    BOTTOM_LABEL,
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
    TOP_LABEL,
    Val,
    Var,
    free_variables,
    is_sentence,
)

Assignment = Mapping[str, str]


@dataclass(frozen=True)
class Structure:
    """A finite domain with fuzzy predicate tables over a chain.

    Predicate tables map argument tuples (domain labels) to chain element
    indices; function tables map argument tuples to domain labels.
    Tables must be total and in range, predicates checked first
    (`_total_tables`); a failure raises FormatError.
    """

    chain: FiniteChain
    sig: Signature
    domain: tuple[str, ...]
    predicates: Mapping[str, Mapping[tuple, int]] = field(default_factory=dict)
    functions: Mapping[str, Mapping[tuple, str]] = field(default_factory=dict)
    name: str = ""

    def __post_init__(self):
        if not self.domain:
            raise FormatError("structure domain must be nonempty")
        dom = tuple(str(d) for d in self.domain)
        if len(set(dom)) != len(dom):
            raise FormatError("domain labels must be distinct")
        object.__setattr__(self, "domain", dom)
        preds = _total_tables("predicate", self.sig.predicates, self.predicates, dom, range(self.chain.size))
        funcs = _total_tables("function", self.sig.functions, self.functions, dom, set(dom))
        object.__setattr__(self, "predicates", preds)
        object.__setattr__(self, "functions", funcs)

    @property
    def size(self) -> int:
        return len(self.domain)

    def with_constant(self, name: str, value: str) -> "Structure":
        """Expansion by one fresh constant interpreted as `value`."""
        if value not in self.domain:
            raise FormatError(f"{value!r} is not a domain element")
        if name in self.sig.functions or name in self.sig.predicates:
            raise SignatureError(f"symbol {name!r} already in use")
        sig = replace(self.sig, functions={**self.sig.functions, name: 0})
        functions = dict(self.functions)
        functions[name] = {(): value}
        return replace(self, sig=sig, functions=functions)

    def rename_domain(self, mapping: Mapping[str, str]) -> "Structure":
        """Relabel domain elements; mapping must be a bijection on the domain."""
        if sorted(mapping) != sorted(self.domain) or len(set(mapping.values())) != self.size:
            raise FormatError("renaming must be a bijection on the domain")
        ren = lambda d: mapping[d]
        preds = {
            n: {tuple(ren(a) for a in args): v for args, v in t.items()}
            for n, t in self.predicates.items()
        }
        funcs = {
            n: {tuple(ren(a) for a in args): ren(v) for args, v in t.items()}
            for n, t in self.functions.items()
        }
        return replace(
            self,
            domain=tuple(ren(d) for d in self.domain),
            predicates=preds,
            functions=funcs,
        )


def _total_tables(kind: str, arities: Mapping[str, int], tables: Mapping, dom: tuple, valid) -> dict:
    """Each declared symbol's table, total on `dom` with values in `valid`
    (function values read as labels, predicate values ints), and no other
    table; the first failure in declaration and `product` order raises FormatError."""
    functions = kind == "function"
    out = {}
    for name, arity in arities.items():
        table = tables.get(name)
        if table is None:
            raise FormatError(f"missing table for {kind} {name!r}")
        fixed = {}
        for args in product(dom, repeat=arity):
            if args not in table:
                raise FormatError(f"{kind} {name!r} table not total at {args}")
            v = str(table[args]) if functions else table[args]
            if v not in valid or not (functions or isinstance(v, int)):
                raise FormatError(f"function {name!r} maps {args} outside the domain" if functions
                                  else f"predicate {name!r} value at {args} out of range")
            fixed[args] = v
        if len(table) != len(fixed):
            raise FormatError(f"{kind} {name!r} has entries outside the domain: {set(table) - set(fixed)}")
        out[name] = fixed
    unknown = set(tables) - set(arities)
    if unknown:
        raise FormatError(f"tables for undeclared {kind}s: {sorted(unknown)}")
    return out


class UnassignedVariable(GradedmtError):
    pass


def eval_term(t, structure: Structure, assignment: Assignment) -> str:
    """Value of a term: a domain label."""
    if isinstance(t, Var):
        try:
            return assignment[t.name]
        except KeyError:
            raise UnassignedVariable(f"variable {t.name!r} has no value")
    if isinstance(t, App):
        table = structure.functions.get(t.name)
        if table is None:
            raise SignatureError(f"structure does not interpret function {t.name!r}")
        args = tuple(eval_term(a, structure, assignment) for a in t.args)
        return table[args]
    raise TypeError(f"not a term: {t!r}")


def _truth_constant_index(chain: FiniteChain, label: str) -> int:
    if chain.has_label(label):
        return chain.index(label)
    if label == BOTTOM_LABEL:
        return chain.bottom
    if label == TOP_LABEL:
        return chain.top
    raise ChainMismatchError(f"truth constant val({label}) has no element in this chain")


def eval_formula(phi: Formula, structure: Structure, assignment: Assignment = None) -> int:
    """Truth value of a formula: a chain element index.  A connective's value
    depends only on its operands' values under the same assignment, so two
    structures that agree there on a formula's leaves agree on the formula."""
    v = {} if assignment is None else dict(assignment)
    return _eval(phi, structure, v)


def _eval(phi, s: Structure, v: dict) -> int:
    try:
        handler = _HANDLERS[type(phi)]
    except KeyError:
        raise TypeError(f"not a formula: {phi!r}") from None
    return handler(phi, s, v)


def _atom(phi: Atom, s: Structure, v: dict) -> int:
    table = s.predicates.get(phi.name)
    if table is None:
        raise SignatureError(f"structure does not interpret predicate {phi.name!r}")
    return table[tuple([eval_term(a, s, v) for a in phi.args])]


def _iff(phi: Iff, s: Structure, v: dict) -> int:
    a, b = _eval(phi.left, s, v), _eval(phi.right, s, v)
    return min(s.chain.implies[a][b], s.chain.implies[b][a])


def _quantifier(phi, s: Structure, v: dict) -> int:
    forall = type(phi) is Forall
    best, stop = (s.chain.top, s.chain.bottom) if forall else (s.chain.bottom, s.chain.top)
    saved = v.get(phi.var, _MISSING)
    for d in s.domain:
        v[phi.var] = d
        value = _eval(phi.body, s, v)
        if (value < best) if forall else (value > best):
            best = value
            if best == stop:
                break
    _restore(v, phi.var, saved)
    return best


_HANDLERS = {  # node class -> handler; operands are evaluated left to right
    Atom: _atom,
    Eq: lambda phi, s, v: (s.chain.bottom, s.chain.top)[eval_term(phi.left, s, v) == eval_term(phi.right, s, v)],
    Val: lambda phi, s, v: _truth_constant_index(s.chain, phi.label),
    And: lambda phi, s, v: min(_eval(phi.left, s, v), _eval(phi.right, s, v)),
    Or: lambda phi, s, v: max(_eval(phi.left, s, v), _eval(phi.right, s, v)),
    Strong: lambda phi, s, v: s.chain.star[_eval(phi.left, s, v)][_eval(phi.right, s, v)],
    Implies: lambda phi, s, v: s.chain.implies[_eval(phi.left, s, v)][_eval(phi.right, s, v)],
    Not: lambda phi, s, v: s.chain.implies[_eval(phi.body, s, v)][s.chain.bottom],
    Iff: _iff,
    Forall: _quantifier, Exists: _quantifier,
}


_MISSING = object()


def _restore(v: dict, name: str, saved):
    if saved is _MISSING:
        v.pop(name, None)
    else:
        v[name] = saved


def satisfies(phi: Formula, structure: Structure, values: Sequence[str] = ()) -> bool:
    """True when the formula takes the top value at the given tuple.

    The tuple is matched against the free variables of the formula in
    sorted name order and must cover them exactly.
    """
    names = sorted(free_variables(phi))
    if len(names) != len(values):
        raise FormatError(
            f"formula has {len(names)} free variables, got {len(values)} values"
        )
    assignment = dict(zip(names, values))
    return eval_formula(phi, structure, assignment) == structure.chain.top


@dataclass(frozen=True)
class ModelReport:
    ok: bool
    failing: Formula | None = None
    value: int | None = None


def is_model(theory: Sequence[Formula], structure: Structure) -> ModelReport:
    """Check that every sentence of the theory takes value top."""
    for phi in theory:
        if not is_sentence(phi):
            raise FormatError("theories must consist of sentences")
        value = eval_formula(phi, structure)
        if value != structure.chain.top:
            return ModelReport(False, phi, value)
    return ModelReport(True)
