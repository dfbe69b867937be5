"""Seeded random formula trees for round-trip and robustness testing."""

import random
from typing import Sequence

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
)

_VARIABLES = ("x", "y", "z", "u", "v")


def random_term(rnd: random.Random, sig: Signature, depth: int):
    if depth > 0 and sig.proper_functions() and rnd.random() < 0.4:
        name = rnd.choice(sig.proper_functions())
        arity = sig.functions[name]
        return App(name, tuple(random_term(rnd, sig, depth - 1) for _ in range(arity)))
    constants = sig.constants()
    if constants and rnd.random() < 0.3:
        return App(rnd.choice(constants))
    return Var(rnd.choice(_VARIABLES))


def random_formula(
    rnd: random.Random,
    sig: Signature,
    labels: Sequence[str] = ("0", "1"),
    depth: int = 4,
) -> Formula:
    """A random well-formed formula over the signature.

    Shapes are drawn uniformly enough to exercise every connective,
    both quantifiers, nested terms and truth constants.
    """
    if depth <= 0:
        roll = rnd.random()
        if roll < 0.15:
            return Val(rnd.choice(list(labels)))
        if roll < 0.35:
            return Eq(random_term(rnd, sig, 1), random_term(rnd, sig, 1))
        name = rnd.choice(sorted(sig.predicates))
        arity = sig.predicates[name]
        return Atom(name, tuple(random_term(rnd, sig, 1) for _ in range(arity)))
    roll = rnd.random()
    if roll < 0.18:
        ctor = Forall if rnd.random() < 0.5 else Exists
        return ctor(rnd.choice(_VARIABLES), random_formula(rnd, sig, labels, depth - 1))
    if roll < 0.30:
        return Not(random_formula(rnd, sig, labels, depth - 1))
    ctor = rnd.choice((And, Or, Strong, Implies, Iff))
    return ctor(
        random_formula(rnd, sig, labels, depth - 1),
        random_formula(rnd, sig, labels, rnd.randint(0, depth - 1)),
    )


def roundtrip_suite(seed: int, count: int) -> dict:
    """Render and re-parse `count` random formulas of depth 4; report mismatches."""
    from .parser import parse_formula, render_formula

    sig = Signature(
        predicates={"P": 1, "R": 2, "Q": 0},
        functions={"f": 1, "g": 2, "c": 0},
        truth_constants=frozenset({"1/2", "3/4"}),
    )
    rnd = random.Random(seed)
    mismatches = []
    for index in range(count):
        phi = random_formula(rnd, sig, ("0", "1/2", "3/4", "1"))
        text = render_formula(phi)
        back = parse_formula(text, sig)
        if back != phi:
            mismatches.append({"index": index, "text": text})
    return {
        "claim": "parser-roundtrip",
        "seed": seed,
        "instances": count,
        "violations": mismatches,
        "ok": not mismatches,
    }
