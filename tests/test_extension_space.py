"""Amalgam candidates as structure blocks: `extension_space(base, max_size)`
holds the structures that extend `base` by fresh elements, one block per
size, with the base's tables pinned.  Checked against a copy of the
candidate loop `search_amalgam` ran before and against `eval_formula` on
the structures the blocks decode to."""

import random
from itertools import count, islice, product

import pytest
from hypothesis import given, settings, strategies as st

from gradedmt import corpus, randomgen
from gradedmt.generation import extension_space
from gradedmt.semantics import Structure, eval_formula
from gradedmt.syntax import Exists, Forall, Signature, free_variables

B2, G3 = corpus.bool2(), corpus.godel3()
P_C = Signature(predicates={"P": 1}, functions={"c": 0})
PR_C = Signature(predicates={"P": 1, "R": 2}, functions={"c": 0})
BASES = {
    "edgeless2": corpus.edgeless2(),
    "P+c-godel3": Structure(chain=G3, sig=P_C, domain=("d0", "d1"),
                            predicates={"P": {("d0",): 2, ("d1",): 0}}, functions={"c": {(): "d1"}}),
    "PR+c-bool2": Structure(chain=B2, sig=PR_C, domain=("a",), predicates={"P": {("a",): 1},
                            "R": {("a", "a"): 0}}, functions={"c": {(): "a"}}),
    "w-labels-godel3": Structure(chain=G3, sig=Signature(predicates={"P": 1}), domain=("w0", "a"),
                                 predicates={"P": {("w0",): 1, ("a",): 2}}),
}


def reference_extensions(base, extra):
    """The generator `search_amalgam` read its candidates from before
    extension blocks, without its budget meter."""
    labels = (f"w{i}" for i in count())
    fresh = list(islice((label for label in labels if label not in base.domain), extra))
    domain = tuple(base.domain) + tuple(fresh)
    slots = []
    for name in sorted(base.sig.predicates):
        for args in product(domain, repeat=base.sig.predicates[name]):
            if any(a in fresh for a in args):
                slots.append((name, args))
    for values in product(range(base.chain.size), repeat=len(slots)):
        predicates = {name: dict(table) for name, table in base.predicates.items()}
        for (name, args), v in zip(slots, values):
            predicates[name][args] = v
        yield Structure(chain=base.chain, sig=base.sig, domain=domain, predicates=predicates,
                        functions=base.functions, name="amalgam-candidate")


def _tables(s):
    return s.domain, s.predicates, s.functions


@pytest.mark.parametrize("name", sorted(BASES))
def test_extension_blocks_list_the_reference_candidates_in_order(name):
    base = BASES[name]
    space = extension_space(base, base.size + 2)
    assert [len(block.domain) for block in space] == [base.size, base.size + 1, base.size + 2]
    for extra, block in enumerate(space):
        expected = list(map(_tables, reference_extensions(base, extra)))
        assert list(map(_tables, block)) == expected
        assert block.count == len(expected)
        for i in random.Random(extra).sample(range(block.count), min(block.count, 20)):
            assert _tables(block.at(i)) == _tables(space.at(block.position(i))) == expected[i]
    assert space.size == sum(block.count for block in space)


def test_extension_space_below_the_base_size_is_empty():
    base = BASES["edgeless2"]
    assert extension_space(base, base.size - 1) == () and extension_space(base, 0).size == 0


def _sentence(rnd, sig, chain, depth):
    phi = randomgen.random_formula(rnd, sig, chain.elements, depth)
    for v in sorted(free_variables(phi)):
        phi = (Forall if rnd.random() < 0.5 else Exists)(v, phi)
    return phi


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), name=st.sampled_from(sorted(BASES)), extra=st.integers(0, 2))
def test_extension_planes_match_the_plain_evaluator(seed, name, extra):
    base, rnd = BASES[name], random.Random(seed)
    block = extension_space(base, base.size + extra)[-1]
    phi = _sentence(rnd, base.sig, base.chain, 3)
    planes = block.planes(phi)
    assert len(planes) == base.chain.size and planes[0] == block.all
    for i in rnd.sample(range(block.count), min(block.count, 30)):
        value = eval_formula(phi, block.at(i))
        assert [plane >> i & 1 for plane in planes] == [int(value >= v) for v in range(base.chain.size)]
