import itertools
from array import array
from bisect import bisect_right
from collections import OrderedDict

import pytest

from gradedmt import corpus, generation
from gradedmt.errors import BudgetError
from gradedmt.semantics import Structure
from gradedmt.syntax import EXISTS, FORALL, PrenexClass, Signature, free_variables


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


def assert_coded_family(family, monkeypatch):
    """Differential checks of a family's free-set codes and its plans' 4-byte
    offsets.  Each row's decoded free set is its formula's.  A plan over
    every split of the family's variables, under both leads, holds as rows,
    indexed by code, the (prefixes, params) of each free set in a
    frozenset-keyed table built here, and ranks its candidates as the plans did
    while they summed row lengths over one frozenset a row into 8-byte 'q'
    offsets.  Its offset guard raises BudgetError exactly when a step holds
    more positions than the guard's limit."""
    memo = {}
    free = [frozenset(free_variables(family.matrix(k, memo))) for k in range(len(family.codes))]
    assert [family.sets[c] for c in family.codes] == free and family.sets[0] == frozenset()
    assert family.codes.typecode == "H" and list(family.sets) == list(dict.fromkeys([frozenset(), *free]))
    assert list(family.closed()) == [k for k, fv in enumerate(free) if not fv]
    variables = sorted(set().union(*family.sets))
    steps = tuple((tuple(variables[n:]), PrenexClass(lead, 2)) for n in range(len(variables) + 1)
                  for lead in (FORALL, EXISTS))
    plan = family.plan(steps)
    by_set, seen = [], {fv: set() for fv in set(free)}  # the plan's rows keyed by free set, built here
    for quantifiable, target in steps:
        by_set.append({})
        for fv, pairs in seen.items():
            to_bind = tuple(v for v in quantifiable if v in fv)
            params = tuple(sorted(fv.difference(to_bind)))
            new = tuple(p for p in generation._prefixes(to_bind, target) if (p, params) not in pairs)
            pairs.update((p, params) for p in new)
            by_set[-1][fv] = new, params
    assert all(type(rows) is tuple and len(rows) == len(family.sets) for rows in plan.rows)
    assert [{fv: rows[family.sets.index(fv)] for fv in step} for step, rows in zip(by_set, plan.rows)] == by_set
    lengths = [{fv: len(prefixes) for fv, (prefixes, _) in step.items()} for step in by_set]
    starts = [array("q", itertools.accumulate(map(step.__getitem__, free), initial=0)) for step in lengths]
    offsets = list(itertools.accumulate((step[-1] for step in starts), initial=0))
    assert [step.typecode for step in plan.starts] == ["I"] * len(steps)
    assert list(map(list, plan.starts)) == list(map(list, starts)) and plan.offsets == offsets
    for i, step in enumerate(lengths):
        for k in [*range(0, len(free), max(1, len(free) // 300)), len(free) - 1]:
            for p in range(step[free[k]]):
                assert plan.position(i, k, p) == offsets[i] + starts[i][k] + p
    for end in {*range(0, plan.size + 2, max(1, plan.size // 300)), *offsets, *(o + 1 for o in offsets)}:
        assert plan.reach(end) == max((bisect_right(starts[i], min(end, offsets[i + 1]) - 1 - offset)
                                       for i, offset in enumerate(offsets[:-1]) if offset < end), default=0)
    biggest = max(step[-1] for step in starts)
    assert biggest <= generation._OFFSET_MAX == 2**32 - 1
    if not biggest:
        return
    first = next(i for i, step in enumerate(starts) if step[-1] == biggest)
    with monkeypatch.context() as patch:
        patch.setattr(generation, "_OFFSET_MAX", biggest - 1)
        with pytest.raises(BudgetError) as err:
            generation.StreamPlan(family, steps)
        assert str(err.value) == (f"stream plan step {first + 1} of {len(steps)} over {len(free)} matrices has"
                                  f" {biggest} positions, over the {biggest - 1} its offsets hold")
        assert (err.value.required, err.value.budget) == (biggest, biggest - 1)
        patch.setattr(generation, "_OFFSET_MAX", biggest)
        assert generation.StreamPlan(family, steps).size == plan.size
