"""Acceptance suite: one test per criterion, each timed against its
stated budget and printing a pass line.  Run with `pytest -v -s
tests/test_acceptance.py` to see the per-criterion lines.
"""

import time
from dataclasses import replace

from gradedmt import corpus
from gradedmt.algebra import derive_residuum, validate_chain
from gradedmt.consequence import bounded_consequence, equiv_up_to_depth
from gradedmt.diagrams import cor1_sweep
from gradedmt.errors import PreconditionError
from gradedmt.morphisms import (
    induced_substructure,
    is_elementary_up_to_depth,
    is_embedding,
    is_substructure,
)
from gradedmt.parser import parse_formula, render_formula
from gradedmt.preservation import (
    AmalgamInstance,
    reproduce_counterexample,
    search_amalgam,
    substructure_preservation_suite,
    union_preservation_suite,
)
from gradedmt.randomgen import roundtrip_suite
from gradedmt.semantics import eval_formula
from gradedmt.syntax import EXISTS, Signature, expand_with_truth_constants


def _report(number: int, label: str, started: float, budget: float):
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"criterion {number} took {elapsed:.1f}s, budget {budget}s"
    print(f"ACCEPTANCE {number} ({label}): PASS in {elapsed:.1f}s (budget {budget:.0f}s)")


def test_criterion_1_counterexample_reproduction():
    started = time.perf_counter()
    m, n = corpus.structure_m(), corpus.structure_n()
    chain = m.chain
    forall_p = parse_formula("forall x . P(x)", m.sig)
    assert chain.label(eval_formula(forall_p, m)) == "3/4"
    assert chain.label(eval_formula(forall_p, n)) == "1/2"
    expanded = expand_with_truth_constants(m.sig, chain)
    sentence = parse_formula("val(3/4) -> forall x . P(x)", expanded)
    assert chain.label(eval_formula(sentence, replace(m, sig=expanded))) == "1"
    assert chain.label(eval_formula(sentence, replace(n, sig=expanded))) == "1/2"
    assert equiv_up_to_depth(m, n, 2, sig=m.sig).equal
    full = reproduce_counterexample()
    assert full.ok
    _report(1, "counterexample reproduction", started, 10.0)


def test_criterion_2_algebra_soundness():
    started = time.perf_counter()
    for chain in (corpus.godel4(), corpus.lukasiewicz3(), corpus.bool2()):
        assert validate_chain(chain).ok
        k = chain.size
        for x in range(k):
            for y in range(k):
                for z in range(k):
                    assert (chain.star[x][z] <= y) == (z <= chain.implies[x][y])
        assert derive_residuum(chain.elements, chain.star) == chain.implies
    _report(2, "algebra soundness", started, 1.0)


def test_criterion_3_universal_preservation_suite():
    started = time.perf_counter()
    positive = substructure_preservation_suite(7, 200)
    assert positive.instances == 200
    assert positive.ok, positive.violations[:3]
    control = substructure_preservation_suite(
        7, 200, lead=EXISTS, claim="exists(1)-negative-control"
    )
    assert len(control.violations) >= 1
    _report(3, "universal preservation suite", started, 120.0)


def test_criterion_4_union_preservation_suite():
    started = time.perf_counter()
    report = union_preservation_suite(11, 100)
    assert report.instances == 100
    assert report.ok, report.violations[:3]
    _report(4, "two-block universal union suite", started, 120.0)


def test_criterion_5_diagram_embedding_sweep():
    started = time.perf_counter()
    sweep = cor1_sweep(corpus.godel3(), Signature(predicates={"R": 2}), 2, 3)
    assert sweep.instances == 1_660_428
    assert sweep.ok, sweep.disagreements[:1]
    assert sweep.agreements == sweep.instances
    _report(5, "diagram/embedding equivalence sweep", started, 300.0)


def test_criterion_6_amalgam_certificates():
    started = time.perf_counter()
    p3 = corpus.path3()
    # n = 1: trivial and growing instances, certificates re-verified
    trivial = search_amalgam(
        AmalgamInstance(left=p3, right=p3, common=p3, generators=tuple(p3.domain)), 1, 3
    )
    assert trivial.found
    growth = search_amalgam(AmalgamInstance(left=corpus.edgeless3(), right=p3), 1, 4)
    assert growth.found and growth.amalgam.size == 4
    # n = 2 with a one-point common part
    common = induced_substructure(p3, ["n0"])
    two = search_amalgam(
        AmalgamInstance(left=p3, right=p3, common=common, generators=("n0",)), 2, 3
    )
    assert two.found
    for result, left in ((trivial, p3), (growth, corpus.edgeless3()), (two, p3)):
        assert is_embedding(result.left_map, left, result.amalgam).ok
        assert is_substructure(p3, result.amalgam).ok
        assert is_elementary_up_to_depth(
            result.right_map, p3, result.amalgam, result.elementary_depth
        ).ok
    # the truth-constant pair must fail the precondition with the documented sentence
    m, n = corpus.structure_m(), corpus.structure_n()
    sig = expand_with_truth_constants(m.sig, m.chain)
    m, n = replace(m, sig=sig), replace(n, sig=sig)
    try:
        search_amalgam(AmalgamInstance(left=m, right=n), 1, 3)
        raise AssertionError("expected the existential-transfer precondition to fail")
    except PreconditionError as err:
        assert render_formula(err.witness.separator) == "exists x1 . P(x1) <-> val(3/4)"
    _report(6, "amalgam certificates", started, 60.0)


def test_criterion_7_parser_roundtrip():
    started = time.perf_counter()
    report = roundtrip_suite(seed=7, count=1000)
    assert report["ok"], report["violations"][:3]
    _report(7, "parser round-trip", started, 10.0)


def test_criterion_8_bounded_consequence_sanity():
    started = time.perf_counter()
    theory, sig = corpus.weighted_graph_theory()
    chain = corpus.godel4()
    reversed_symmetry = parse_formula("forall x y . (R(y, x) -> R(x, y))", sig)
    assert bounded_consequence(theory, reversed_symmetry, sig, chain, 3).holds
    symmetry = [parse_formula("forall x y . (R(x, y) -> R(y, x))", sig)]
    irreflexivity = parse_formula("forall x . (R(x, x) -> val(0))", sig)
    refuted = bounded_consequence(symmetry, irreflexivity, sig, corpus.bool2(), 1)
    assert not refuted.holds
    assert refuted.countermodel.size == 1
    assert refuted.countermodel.predicates["R"][("d0", "d0")] == corpus.bool2().top
    _report(8, "bounded consequence sanity", started, 30.0)
