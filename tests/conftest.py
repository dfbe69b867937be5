import itertools
from collections import OrderedDict

import pytest

from gradedmt import corpus, generation
from gradedmt.semantics import Structure
from gradedmt.syntax import Signature


@pytest.fixture(scope="session")
def g4():
    return corpus.godel4()


@pytest.fixture(scope="session")
def g3():
    return corpus.godel3()


@pytest.fixture(scope="session")
def l3():
    return corpus.lukasiewicz3()


@pytest.fixture(scope="session")
def b2():
    return corpus.bool2()


@pytest.fixture(scope="session")
def sig_p():
    return Signature(predicates={"P": 1})


@pytest.fixture(scope="session")
def sig_r():
    return Signature(predicates={"R": 2})


@pytest.fixture(scope="session")
def struct_m():
    return corpus.structure_m()


@pytest.fixture(scope="session")
def struct_n():
    return corpus.structure_n()


def crisp_complete(chain, names, sig=None):
    """Complete loopless graph with crisp edge values."""
    sig = sig or Signature(predicates={"R": 2})
    dom = tuple(names)
    table = {}
    for a, b in itertools.product(dom, repeat=2):
        table[(a, b)] = 0 if a == b else chain.top
    return Structure(chain=chain, sig=sig, domain=dom, predicates={"R": table}, name=f"K{len(dom)}")


@pytest.fixture(scope="session")
def complete_graphs(g4):
    return {n: crisp_complete(g4, [f"v{i}" for i in range(n)]) for n in (2, 3, 4, 5)}


@pytest.fixture
def fresh_fragments(monkeypatch):
    """An empty fragment cache, and the keys of every family built into it;
    a quantified family (`sentence_family`, never cached) is recorded with
    a trailing "quantified"."""
    monkeypatch.setattr(generation, "_fragments", OrderedDict())
    built = []
    build = generation._build_fragment

    def counting(sig, labels, variables, depth, extra_terms, quantified=False):
        built.append((tuple(labels), tuple(variables), depth) + (("quantified",) if quantified else ()))
        return build(sig, labels, variables, depth, extra_terms, quantified)

    monkeypatch.setattr(generation, "_build_fragment", counting)
    return built
