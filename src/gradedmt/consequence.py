"""Bounded semantic consequence and depth-bounded sentence equivalence.

Consequence over all models is not decidable in general; both checks
here quantify over finite, canonically enumerated candidate spaces and
say so in their results.
"""

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .errors import FormatError, InternalError, SignatureError
from .generation import AssignmentGrid, ValueClasses, sentence_family, structure_space
from .morphisms import _check_interprets, _check_one_chain
from .semantics import Structure, eval_formula, is_model
from .syntax import Formula, Signature, is_sentence


@dataclass(frozen=True)
class ConsequenceResult:
    holds: bool
    countermodel: Structure | None
    structures_checked: int
    max_domain: int

    def __bool__(self):
        return self.holds


def bounded_consequence(theory: Sequence[Formula], phi: Formula, sig: Signature, chain,
                        max_domain: int) -> ConsequenceResult:
    """Check that every model of the theory with domain size <= max_domain
    satisfies phi; return the first countermodel in canonical order otherwise.

    Each block of the structure space is read at once: the countermodel is
    the lowest bit of models & ~phi, and the one `Structure` built, for it,
    is replayed through `is_model` and `eval_formula`.
    """
    for sentence in list(theory) + [phi]:
        if not is_sentence(sentence):
            raise FormatError("bounded consequence needs sentences")
    blocks = structure_space(sig, chain, max_domain)
    for block in blocks:
        models = block.models(theory)
        refuted = models and models & ~block.planes(phi)[-1]
        if refuted:
            index = (refuted & -refuted).bit_length() - 1
            s = block.at(index)
            if not is_model(theory, s).ok or eval_formula(phi, s) == chain.top:
                raise InternalError("structure planes and evaluator disagree on a countermodel")
            return ConsequenceResult(False, s, block.position(index) + 1, max_domain)
    return ConsequenceResult(True, None, blocks.size, max_domain)


@dataclass(frozen=True)
class EquivResult:
    equal: bool
    separator: Formula | None
    sentences_checked: int
    depth: int

    def __bool__(self):
        return self.equal


def equiv_up_to_depth(s1: Structure, s2: Structure, depth: int, sig: Signature | None = None) -> EquivResult:
    """Compare which generated sentences of level <= depth the two
    structures satisfy (take the top value), over the variables x1..x(depth).

    This approximates elementary equivalence: two structures are
    reported equal when no generated sentence separates them.  The
    signature argument selects the sentence language, so the same pair
    can be compared over a base language and over an expansion with
    truth constants.  The sentences are the closed positions of
    `sentence_family`, read by one value-class table over both structures'
    grids, grown only up to the separator: the first that takes top on one
    side only, replayed through `eval_formula`.  The family is built (and
    charged) first; it is not read when the grids' cells, coloured by
    `ValueClasses.refinements`, have one colour set in every round, since
    cells of one colour agree on every sentence over the grid variables.
    """
    _check_one_chain(s1, s2)
    if sig is None:
        if s1.sig != s2.sig:
            raise SignatureError("structures disagree on the signature; pass one explicitly")
        sig = s1.sig
    _check_interprets(sig, s1, "structure")
    _check_interprets(sig, s2, "structure")
    family = sentence_family(sig, s1.chain.elements, depth)
    xs = [f"x{i}" for i in range(1, depth + 1)]
    table = ValueClasses(family, [AssignmentGrid(s1, xs), AssignmentGrid(s2, xs)])
    top, closed, cut = s1.chain.top, family.closed(), table.grids[0].size
    unread = all(set(colour[:cut]) == set(colour[cut:]) for colour in table.refinements())
    sat = lru_cache(maxsize=None)(lambda c: (table.read(c, 0)[0] == top, table.read(c, 1)[0] == top))
    k = None if unread else next((k for k, c in zip(closed, table.classes(closed)) if sat(c)[0] != sat(c)[1]), None)
    if k is None:
        return EquivResult(True, None, len(closed), depth)
    separator = family.matrix(k)
    if (eval_formula(separator, s1) == top, eval_formula(separator, s2) == top) != sat(table.cls[k]):
        raise InternalError("value classes and evaluator disagree on a separator")
    return EquivResult(False, separator, len(closed), depth)
