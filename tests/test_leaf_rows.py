"""Leaf rows of a value-class table against the plain evaluator.

A `ValueClasses` table reads each leaf once for all its grids
(`ValueClasses._leaf_row`): an atom or identity is one getter over the
grids' tables joined, keyed by each grid's domain size and variable count
and the leaf's arguments there (an axis, or the element a fixed parameter
or a constant names); a truth constant is its byte on each run of grids
over one chain (equal labels and tables: a chain relabelled is another
run).  Every row is compared with `eval_formula` at every cell, and the
table must read each leaf once.
"""

import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from gradedmt import corpus
from gradedmt.algebra import FiniteChain, enumerate_mtl_chains
from gradedmt.generation import AssignmentGrid, Fragment, ValueClasses, atoms_over
from gradedmt.morphisms import enumerate_substructures
from gradedmt.semantics import Structure, eval_formula
from gradedmt.syntax import FORALL, App, Signature, Var, expand_with_truth_constants, free_variables

CHAINS = [chain for k in (2, 3, 4) for chain in enumerate_mtl_chains(k)]
PREDICATES = {"N": 0, "P": 1, "R": 2, "T": 3}
LABELS = ("0", "e1", "1")  # bottom and top by name in every chain, and e1 in each
MODES = ("shared", "fixed", "constant", "permuted", "two chains", "relabelled")


def _relabelled(chain):
    """The chain with its second and third elements' labels swapped: the same tables, e1 elsewhere."""
    labels = chain.elements
    return FiniteChain(elements=(labels[0], labels[2], labels[1], *labels[3:]), star=chain.star, implies=chain.implies)


def _structure(rnd, chain, sig, size):
    domain = tuple(f"d{i}" for i in range(size))
    return Structure(chain=chain, sig=sig, domain=domain, predicates={
        name: {args: rnd.randrange(chain.size) for args in product(domain, repeat=arity)}
        for name, arity in sig.predicates.items()},
        functions={name: {(): rnd.choice(domain)} for name in sig.functions})


@st.composite
def tables(draw):
    """1-16 grids of 1-4 elements over 1-3 variables, and the leaves over
    them: nullary to ternary atoms (repeated variables among them),
    identities and truth constants.  Each mode but "shared" draws a table
    whose grids read some argument differently: a fixed p1, a constant c,
    a grid with its variables reversed, a second chain, or the chain
    relabelled."""
    mode, rnd = draw(st.sampled_from(MODES)), random.Random(draw(st.integers(0, 2**32)))
    variables = tuple(f"x{i}" for i in range(1, draw(st.integers(2 if mode == "permuted" else 1, 3)) + 1))
    chain = draw(st.sampled_from([c for c in CHAINS if c.size > 2 or mode != "relabelled"]))
    other = _relabelled(chain) if mode == "relabelled" else draw(st.sampled_from([c for c in CHAINS if c != chain]))
    sig = Signature(predicates=PREDICATES, functions={"c": 0} if mode == "constant" else {})
    grids = []
    for i in range(draw(st.integers(1 if mode in ("shared", "fixed", "constant") else 2, 16))):
        s = _structure(rnd, other if mode in ("two chains", "relabelled") and i % 2 else chain, sig,
                       draw(st.integers(1, 4)))
        fixed = {"p1": rnd.choice(s.domain[:2])} if mode == "fixed" else None
        grids.append(AssignmentGrid(s, variables[::-1] if mode == "permuted" and i % 2 else variables, fixed=fixed))
    terms = [Var(v) for v in variables] + {"fixed": [Var("p1")], "constant": [App("c")]}.get(mode, [])
    return grids, atoms_over(sig, terms, LABELS)


def _check(grids, leaves) -> None:
    """Each leaf's row against `eval_formula` at every cell, and one leaf read a leaf."""
    family = Fragment(leaves, [frozenset(free_variables(leaf)) for leaf in leaves])
    reads, row = [], ValueClasses._leaf_row
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(ValueClasses, "_leaf_row", lambda table, phi: reads.append(phi) or row(table, phi))
        table = ValueClasses(family, grids)
        table.extend()
    assert reads == list(leaves)
    for k, phi in enumerate(leaves):
        want = [eval_formula(phi, g.structure, {**dict(zip(g.variables, cell)), **g.fixed})
                for g in grids for cell in product(g.structure.domain, repeat=len(g.variables))]
        assert list(table.vecs[table.cls[k]]) == want, phi


@settings(max_examples=60, deadline=None)
@given(case=tables())
def test_table_wide_leaf_rows_match_the_evaluator_at_every_cell(case):
    _check(*case)


@pytest.mark.parametrize("mode", MODES)
def test_each_mode_reads_each_leaf_once_over_both_grids(mode):
    # two grids of 2 and 3 elements, seeded, so each mode runs whatever hypothesis draws
    chain, rnd, variables = CHAINS[3], random.Random(mode), ("x1", "x2")
    sig = Signature(predicates=PREDICATES, functions={"c": 0} if mode == "constant" else {})
    second = {"two chains": CHAINS[1], "relabelled": _relabelled(chain)}.get(mode, chain)
    structures = [_structure(rnd, second if i else chain, sig, 2 + i) for i in range(2)]
    grids = [AssignmentGrid(s, variables[::-1] if mode == "permuted" and i else variables,
                            fixed={"p1": s.domain[i]} if mode == "fixed" else None) for i, s in enumerate(structures)]
    leaves = atoms_over(sig, [Var("x1"), Var("x2")] + {"fixed": [Var("p1")], "constant": [App("c")]}.get(mode, []),
                        LABELS)
    _check(grids, leaves)


def test_a_los_tarski_instance_reads_each_leaf_once_for_its_15_grids(monkeypatch):
    from gradedmt.preservation import (
        PreservationReport, _SUITE_BOUNDS, _SUITE_SIG, _check_instance, _sentences,
    )

    chain = corpus.godel4()
    big = _structure(random.Random(4), chain, _SUITE_SIG, 4)
    targets = [(s, str(s.domain)) for s in enumerate_substructures(big) if s.size < big.size]
    counts = {"tables": 0, "_leaf_row": 0}
    for owner, name, key in ((ValueClasses, "__init__", "tables"), (ValueClasses, "_leaf_row", "_leaf_row")):
        def counted(*args, original=getattr(owner, name), key=key):
            counts[key] += 1
            return original(*args)
        monkeypatch.setattr(owner, name, counted)
    report = PreservationReport("pin")
    _check_instance(report, chain, FORALL, 1, [big], targets)
    family = _sentences(expand_with_truth_constants(_SUITE_SIG, chain), chain, FORALL, 1, _SUITE_BOUNDS)[1]
    # one table over the structure and its 14 proper substructures: one row a leaf, and no one-grid table
    assert len(targets) == 14 and report.ok and report.checks > 0
    assert counts == {"tables": 1, "_leaf_row": len(family.leaves)} and len(family.leaves) == 14
