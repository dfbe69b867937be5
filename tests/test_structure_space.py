"""The structure-space evaluator: threshold planes over every candidate
structure of a block, checked against the plain evaluator `eval_formula`
on the structures they decode to."""

import os
import random
from itertools import product
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from gradedmt import consequence, corpus, diagrams, generation, randomgen
from gradedmt.cli import _suite_bounded_consequence, main
from gradedmt.consequence import ConsequenceResult, bounded_consequence
from gradedmt.diagrams import DIAG, build_diagram, diagram_model_exists
from gradedmt.errors import InternalError
from gradedmt.generation import StructureBlock, enumerate_structures, structure_space
from gradedmt.parser import parse_formula
from gradedmt.preservation import FormulaBounds, _family, universal_consequences_bounded
from gradedmt.semantics import eval_formula, is_model, satisfies
from gradedmt.syntax import Exists, Forall, FORALL, Implies, PrenexClass, Signature, free_variables

CHAINS = {name: getattr(corpus, name)() for name in ("bool2", "godel3", "lukasiewicz3", "godel4")}
SIGNATURES = (
    Signature(predicates={"P": 1}, functions={"c": 0}),
    Signature(predicates={"R": 2}),
    Signature(predicates={"P": 1, "R": 2}),
)
MAX_BITS = 20_000  # blocks evaluated in full; the largest has 3**9 structures


def _sentence(rnd, sig, chain, depth):
    phi = randomgen.random_formula(rnd, sig, chain.elements, depth)
    for v in sorted(free_variables(phi)):
        phi = (Forall if rnd.random() < 0.5 else Exists)(v, phi)
    return phi


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), chain=st.sampled_from(sorted(CHAINS)),
       sig=st.sampled_from(SIGNATURES), size=st.integers(1, 3))
def test_every_plane_matches_the_plain_evaluator(seed, chain, sig, size):
    chain = CHAINS[chain]
    rnd = random.Random(seed)
    with patch.dict(os.environ, {"GRADEDMT_BUDGET": str(10**9)}):
        space = structure_space(sig, chain, size)  # blocks hold no planes until asked
    blocks = [b for b in space if len(b.domain) == size and b.count <= MAX_BITS]
    if not blocks:
        return
    block = rnd.choice(blocks)
    phi = _sentence(rnd, sig, chain, 3)
    planes = block.planes(phi)
    assert len(planes) == chain.size and planes[0] == block.all
    indices = range(block.count) if block.count <= 256 else rnd.sample(range(block.count), 40)
    for i in indices:
        value = eval_formula(phi, block.at(i))
        assert [plane >> i & 1 for plane in planes] == [int(value >= v) for v in range(chain.size)]


def test_bit_index_is_stream_position(b2, g3):
    for sig, chain, size in ((SIGNATURES[0], g3, 2), (SIGNATURES[2], b2, 2)):
        blocks = structure_space(sig, chain, size)
        decoded = [b.at(i) for b in blocks for i in range(b.count)]
        assert decoded == list(enumerate_structures(sig, chain, size))
        assert [b.offset for b in blocks[1:]] == [b.offset + b.count for b in blocks[:-1]]


def _reference_consequence(theory, phi, sig, chain, max_domain):
    """The per-structure loop `bounded_consequence` ran before the planes."""
    checked = 0
    for s in enumerate_structures(sig, chain, max_domain):
        checked += 1
        if not is_model(theory, s).ok:
            continue
        if eval_formula(phi, s) != chain.top:
            return ConsequenceResult(False, s, checked, max_domain)
    return ConsequenceResult(True, None, checked, max_domain)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), chain=st.sampled_from(sorted(CHAINS)),
       sig=st.sampled_from(SIGNATURES), axioms=st.integers(0, 2))
def test_bounded_consequence_matches_the_per_structure_loop(seed, chain, sig, axioms):
    chain = CHAINS[chain]
    rnd = random.Random(seed)
    max_domain = 3 if chain.size == 2 else 2
    theory = [_sentence(rnd, sig, chain, 2) for _ in range(axioms)]
    phi = _sentence(rnd, sig, chain, 2)
    assert bounded_consequence(theory, phi, sig, chain, max_domain) == (
        _reference_consequence(theory, phi, sig, chain, max_domain))


def test_countermodel_replay_disagreement_raises(monkeypatch, sig_r, b2):
    symmetry = [parse_formula("forall x y. (R(x,y) -> R(y,x))", sig_r)]
    irreflexivity = parse_formula("forall x. (R(x,x) -> val(0))", sig_r)
    assert not bounded_consequence(symmetry, irreflexivity, sig_r, b2, 1).holds
    monkeypatch.setattr(consequence, "eval_formula", lambda phi, s: s.chain.top)
    with pytest.raises(InternalError):
        bounded_consequence(symmetry, irreflexivity, sig_r, b2, 1)


def _implies_swapped(original):
    def combine(self, kind, a, b=None):
        return original(self, kind, b, a) if kind is Implies else original(self, kind, a, b)
    return combine


def _levels_from_two(original):
    return lambda *args, **kwargs: generation.StructureStream(
        b for b in original(*args, **kwargs) if len(b.domain) > 1)


@pytest.mark.parametrize("target, name, fault", [
    (StructureBlock, "_combine", _implies_swapped),
    (consequence, "structure_space", _levels_from_two),
])
def test_bounded_consequence_suite_fails_on_a_seeded_fault(monkeypatch, capsys, target, name, fault):
    assert _suite_bounded_consequence(None)["ok"]
    monkeypatch.setattr(target, name, fault(getattr(target, name)))
    assert not _suite_bounded_consequence(None)["ok"]
    assert main(["verify", "--suite", "bounded-consequence"]) == 1
    capsys.readouterr()


def test_universal_consequences_match_the_per_structure_loop(sig_r, b2, g3):
    theory = [parse_formula("forall x. (R(x,x) -> val(0))", sig_r),
              parse_formula("forall x y. (R(x,y) -> R(y,x))", sig_r)]
    bounds = FormulaBounds()
    for chain in (b2, g3):
        models = [s for s in enumerate_structures(sig_r, chain, 2)
                  if all(satisfies(phi, s) for phi in theory)]
        qvars, _, family = _family(sig_r, chain, 0, bounds)
        expected = [generation.prenex_formula(matrix, prefix)
                    for matrix, prefix, _ in family.plan([(qvars, PrenexClass(FORALL, 1))]) if prefix]
        expected = [phi for phi in expected if all(satisfies(phi, s) for s in models)]
        assert universal_consequences_bounded(theory, sig_r, chain, 2, bounds) == expected


def test_diagram_side_matches_the_definition(b2, sig_r):
    blocks = structure_space(sig_r, b2, 2, "t")
    targets = list(enumerate_structures(sig_r, b2, 2, label_prefix="t"))
    for source in enumerate_structures(sig_r, b2, 2):
        diagram = build_diagram(source, DIAG)
        bits = [bit == "1" for b in blocks
                for bit in format(diagrams._diagram_side(b, diagram), f"0{b.count}b")[::-1]]
        assert bits == [diagram_model_exists(t, diagram)[0] for t in targets]


def test_diagram_model_exists_returns_the_first_embedding_in_product_order(b2, sig_r):
    # an atomic diagram's images are an injective map carrying R exactly: listed independently here
    found = set()
    for source in [s for s in enumerate_structures(sig_r, b2, 2) if s.size == 2][::3]:
        diagram = build_diagram(source, DIAG)
        pairs = [((i, j), source.predicates["R"][(a, b)])
                 for i, a in enumerate(source.domain) for j, b in enumerate(source.domain)]
        for target in list(enumerate_structures(sig_r, b2, 3, label_prefix="t"))[-512::7]:
            expected = next((images for images in product(target.domain, repeat=2)
                             if images[0] != images[1]
                             and all(target.predicates["R"][(images[i], images[j])] == v
                                     for (i, j), v in pairs)), None)
            assert diagram_model_exists(target, diagram) == (expected is not None, expected)
            found.add(expected)
    assert len(found) > 3
