"""The cell colouring that certifies "no separator" without reading a family.

`ValueClasses.refinements` colours the cells of a table's grids jointly by
the family's leaf rows, then refines each colour by the set of colours along
each axis through the cell, until the count stops growing.  Cells of equal
final colour take equal values on every formula over the grid variables, at
any quantifier depth (Immerman & Lander, "Describing graphs: a first-order
approach to graph canonization", 1990; for graded structures, Dellunde,
García-Cerdaña & Noguera, "Back-and-forth systems for fuzzy first-order
models", FSS 345, 2018).  `reference_colouring` computes the same colouring
on the structures' own tuples, with no grids and no tables.  These tests pin:
the library's partition of the cells is the reference's, round by round; a
pair the reference certifies is never separated by `eval_formula` over the
closed family; an inclusion it certifies passes the per-candidate transfer
loop; and every isomorphism is certified.
"""

import random
from itertools import product
from pathlib import Path

import pytest

from gradedmt import corpus
from gradedmt.consequence import equiv_up_to_depth
from gradedmt.generation import AssignmentGrid, ValueClasses, elementary_plan, fragment, generate_sentences
from gradedmt.morphisms import inclusion_map, induced_substructure, is_elementary_up_to_depth
from gradedmt.semantics import Structure, eval_formula
from gradedmt.syntax import EXISTS, FORALL, App, PrenexClass, Signature
from test_transfer import reference_stream, reference_transfer_failure

CHAINS = {name: getattr(corpus, name)() for name in ("bool2", "godel3", "lukasiewicz3")}
SIGNATURES = {"P": Signature(predicates={"P": 1}), "R": Signature(predicates={"R": 2}),
              "P c": Signature(predicates={"P": 1}, functions={"c": 0})}
VARIABLES = ["x1", "x2"]


def reference_colouring(sides, k):
    """Each round's colours of the k-tuples of each (structure, named
    elements) side in turn, tuples in `product` order.  Round 0 colours a
    tuple by its atomic values over the tuple's entries followed by the named
    elements: each predicate at each argument list, and each identity.  Each
    next round adds, for each place, the set of colours met by changing that
    entry to each element of the domain.  The rounds stop when the count
    stops growing, so the last is stable."""
    tuples = [[entries + named for entries in product(s.domain, repeat=k)] for s, named in sides]
    colour = [(tuple(s.predicates[p][tuple(e[i] for i in args)] for p in sorted(s.sig.predicates)
                     for args in product(range(len(e)), repeat=s.sig.predicates[p]))
               + tuple(e[i] == e[j] for i, j in product(range(len(e)), repeat=2)))
              for (s, _), side in zip(sides, tuples) for e in side]
    rounds = []
    while not rounds or len(set(colour)) > len(set(rounds[-1])):
        rounds.append(colour)
        of = dict(zip([(n, e) for n, side in enumerate(tuples) for e in side], colour))
        colour = [(of[n, e], tuple(frozenset(of[n, e[:i] + (d,) + e[i + 1:]] for d in s.domain) for i in range(k)))
                  for n, ((s, _), side) in enumerate(zip(sides, tuples)) for e in side]
    return rounds


def partition(colour):
    """The colours renamed by first occurrence: equal exactly when the partitions are."""
    first: dict = {}
    return [first.setdefault(c, len(first)) for c in colour]


def constants(s) -> tuple:
    return tuple(s.functions[c][()] for c in s.sig.constants())


def carried(left, right, h) -> bool:
    """Each 2-tuple of `left` ends with the colour of its image under h in `right`, the constants named."""
    final = reference_colouring([(left, constants(left)), (right, constants(right))], 2)[-1]
    where = {e: left.size ** 2 + i for i, e in enumerate(product(right.domain, repeat=2))}
    return all(final[i] == final[where[tuple(map(h.get, e))]] for i, e in enumerate(product(left.domain, repeat=2)))


def random_structure(rnd, chain, sig, size, labels="abc"):
    domain = tuple(labels[:size])
    return Structure(chain=chain, sig=sig, domain=domain,
                     predicates={p: {args: rnd.randrange(chain.size) for args in product(domain, repeat=a)}
                                 for p, a in sorted(sig.predicates.items())},
                     functions={c: {(): rnd.choice(domain)} for c in sig.constants()})


def twin_extension(s, of, fresh="t"):
    """s with a fresh element that copies `of` everywhere, the fresh element against `of` included."""
    domain, back = s.domain + (fresh,), {d: d for d in s.domain} | {fresh: of}
    return Structure(chain=s.chain, sig=s.sig, domain=domain, functions=s.functions,
                     predicates={p: {args: table[tuple(map(back.get, args))]
                                     for args in product(domain, repeat=s.sig.predicates[p])}
                                 for p, table in s.predicates.items()})


def seeded_pair(seed):
    """A seeded pair over one chain and signature, 1-3 elements each: two
    draws, a structure and a relabelled copy, or a structure and its twin
    extension; and whether to fix a parameter."""
    rnd = random.Random(seed)
    chain, sig = CHAINS[rnd.choice(sorted(CHAINS))], SIGNATURES[rnd.choice(sorted(SIGNATURES))]
    left = random_structure(rnd, chain, sig, rnd.randint(1, 3))
    mode = rnd.choice(("draw", "relabelled", "twin"))
    if mode == "relabelled":
        right = left.rename_domain(dict(zip(left.domain, "uvw")))
    elif mode == "twin" and left.size < 3:
        right = twin_extension(left, rnd.choice(left.domain))
    else:
        right = random_structure(rnd, chain, sig, rnd.randint(1, 3), "uvw")
    return left, right, rnd.random() < 0.5


def library_rounds(left, right, fixed):
    """The colours of `ValueClasses.refinements` over grids on x1, x2, with p1
    fixed to each side's first element when `fixed`: the family's leaves are
    over the variables, p1 and the constants."""
    family = fragment(left.sig, left.chain.elements, VARIABLES + ["p1"] * fixed, 0,
                      [App(c) for c in left.sig.constants()])
    grids = [AssignmentGrid(s, VARIABLES, fixed={"p1": s.domain[0]} if fixed else None) for s in (left, right)]
    return list(ValueClasses(family, grids).refinements())


@pytest.mark.parametrize("seed", range(40))
def test_the_library_partition_is_the_reference_partition_in_every_round(seed):
    left, right, fixed = seeded_pair(seed)
    named = lambda s: (s.domain[0],) * fixed + constants(s)
    reference = reference_colouring([(left, named(left)), (right, named(right))], 2)
    assert list(map(partition, library_rounds(left, right, fixed))) == list(map(partition, reference))


def test_a_certified_pair_is_never_separated_and_is_equal():
    # equiv's family has atoms over its variables only, so the reference names no constant
    certified = 0
    for seed in range(60):
        left, right, _ = seeded_pair(seed)
        depth = 1 + (seed % 2 and "R" not in left.sig.predicates)
        final = reference_colouring([(left, ()), (right, ())], depth)[-1]
        if set(final[:left.size ** depth]).isdisjoint(final[left.size ** depth:]):
            continue
        certified += 1
        assert all(eval_formula(phi, left) == eval_formula(phi, right)
                   for phi in generate_sentences(left.sig, left.chain.elements, depth)), seed
        assert equiv_up_to_depth(left, right, depth).equal, seed
    assert certified >= 15


def test_a_certified_inclusion_passes_the_per_candidate_transfer_loop():
    # a one- or two-element substructure of a seeded structure into it, or a structure with a twin t of
    # some x into the extension by a second twin of x
    certified = 0
    for seed in range(24):
        rnd = random.Random(seed)
        chain, sig = CHAINS[rnd.choice(sorted(CHAINS))], SIGNATURES[rnd.choice(sorted(SIGNATURES))]
        big = random_structure(rnd, chain, sig, 3)
        sub = induced_substructure(big, {*constants(big), rnd.choice(big.domain)})
        if seed % 2:
            x = rnd.choice(sub.domain)
            sub = twin_extension(sub, x)
            sup = twin_extension(sub, x, "t2")
        else:
            sup = big
        identity = {d: d for d in sub.domain}
        plan = elementary_plan(sig, chain.elements, 1, 2, 0, [App(c) for c in sig.constants()])
        steps = [(VARIABLES[n:], PrenexClass(lead, 1)) for n in range(3) for lead in (FORALL, EXISTS)]
        triples = (triple[2:] for triple in reference_stream(plan.family, steps))
        checked, separator, _ = reference_transfer_failure(
            AssignmentGrid(sub, VARIABLES), AssignmentGrid(sup, VARIABLES), triples, tuple(range(chain.size)),
            identity, lambda params: product(sub.domain, repeat=len(params)))
        if carried(sub, sup, identity):
            certified += 1
            assert separator is None, seed
        report = is_elementary_up_to_depth(inclusion_map(sub, sup), sub, sup, 1, matrix_depth=0)
        assert (report.ok, report.formulas_checked, report.separator) == (separator is None, checked, separator)
    assert certified >= 8


@pytest.mark.parametrize("chain", sorted(CHAINS))
@pytest.mark.parametrize("sig", sorted(SIGNATURES))
def test_every_isomorphism_is_certified(chain, sig):
    # the identity, an automorphism (a swap of a and b, the constant at c) and a relabelling: each
    # 2-tuple ends with the colour of its image, by the reference and by the library's table
    rnd = random.Random(f"{chain} {sig}")
    s = random_structure(rnd, CHAINS[chain], SIGNATURES[sig], 3)
    swap = {"a": "b", "b": "a", "c": "c"}
    symmetric = Structure(chain=s.chain, sig=s.sig, domain=s.domain,
                          functions={c: {(): "c"} for c in s.sig.constants()},
                          predicates={p: {args: min(table[args], table[tuple(map(swap.get, args))]) for args in table}
                                      for p, table in s.predicates.items()})
    rename = dict(zip(s.domain, "uvw"))
    for left, right, h in ((s, s, {d: d for d in s.domain}), (symmetric, symmetric, swap),
                           (s, s.rename_domain(rename), rename)):
        assert carried(left, right, h)
        final = library_rounds(left, right, False)[-1]
        cells = {e: i for i, e in enumerate(product(right.domain, repeat=2))}
        assert all(final[i] == final[left.size ** 2 + cells[tuple(map(h.get, e))]]
                   for i, e in enumerate(product(left.domain, repeat=2)))


def test_an_equal_pair_that_is_not_isomorphic_is_decided_unread(monkeypatch):
    # edgeless R/2 structures of sizes 3 and 4 over bool2 (the second in tests/data): no sentence over
    # one or two variables tells them apart, and equiv builds the family but reads none of it
    from gradedmt.corpus import data_dir
    from gradedmt.files import load_structure

    three = load_structure(data_dir() / "edgeless3.json")
    four = load_structure(Path(__file__).parent / "data" / "edgeless4.json")
    reads = []
    monkeypatch.setattr(ValueClasses, "classes", lambda table, positions: reads.append(positions) or iter(()))
    for depth in (1, 2):
        res = equiv_up_to_depth(three, four, depth)
        assert res.equal and res.separator is None and res.sentences_checked > 0
    assert reads == []
