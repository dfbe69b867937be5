import itertools

import pytest
from hypothesis import given, settings, strategies as st

from gradedmt import corpus
from gradedmt.errors import BudgetError, InternalError, SignatureError
from gradedmt.generation import (
    AssignmentGrid,
    enumerate_structures,
    generate_sentences,
    ground_terms,
    prenex_candidates,
    qf_matrices,
)
from gradedmt.morphisms import inclusion_map, is_elementary_up_to_depth
from gradedmt.parser import parse_formula
from gradedmt.preservation import implies_exists_n
from gradedmt.semantics import Structure, all_assignments, eval_formula
from gradedmt.syntax import (
    EXISTS,
    FORALL,
    PrenexClass,
    Signature,
    classify_prenex,
    expand_with_truth_constants,
    free_variables,
    is_sentence,
)


def test_sentences_are_closed_and_deterministic(sig_p, g4):
    first = generate_sentences(sig_p, g4.elements, 2)
    second = generate_sentences(sig_p, g4.elements, 2)
    assert first == second
    assert all(is_sentence(phi) for phi in first)
    assert len(set(first)) == len(first)


def test_sentence_membership(sig_p, g4):
    depth1 = generate_sentences(sig_p, g4.elements, 1)
    assert parse_formula("forall x1. P(x1)", sig_p) in depth1
    expanded = expand_with_truth_constants(sig_p, g4)
    depth2 = generate_sentences(expanded, g4.elements, 2)
    assert parse_formula("val(3/4) -> forall x1. P(x1)", expanded) in depth2
    assert parse_formula("forall x1. P(x1)", expanded) in depth2


def test_truth_constants_licensed_only(sig_p, g4):
    base = generate_sentences(sig_p, g4.elements, 1)
    assert parse_formula("val(1)", sig_p) in base
    expanded_sig = expand_with_truth_constants(sig_p, g4)
    licensed = parse_formula("val(3/4)", expanded_sig)
    assert licensed not in base
    assert licensed in generate_sentences(expanded_sig, g4.elements, 1)


def test_generation_budget(sig_r, g4):
    with pytest.raises(BudgetError):
        generate_sentences(sig_r, g4.elements, 3, budget=500)


def test_qf_matrices_are_quantifier_free(sig_r, g4):
    mats = qf_matrices(sig_r, g4.elements, ["x1", "x2"], 1)
    assert all(str(classify_prenex(m)) == "QuantifierFree" for m in mats)
    assert len(set(mats)) == len(mats)


def test_prenex_candidates_fit_target(sig_r, g4):
    mats = qf_matrices(sig_r, g4.elements, ["x1", "x2"], 1)
    target = PrenexClass(EXISTS, 2)
    for cand in prenex_candidates(mats, ["x1", "x2"], target):
        assert cand.prenex_class.within(target)
        got = classify_prenex(cand.formula)
        if cand.blocks > 0:
            assert got.kind == cand.lead and got.blocks == cand.blocks
        assert set(cand.params) == free_variables(cand.formula)


def test_prenex_candidates_include_degenerate_lead(sig_r, g4):
    mats = qf_matrices(sig_r, g4.elements, ["x1", "x2"], 0)
    leads = {(c.lead, c.blocks) for c in prenex_candidates(mats, ["x1", "x2"], PrenexClass(EXISTS, 2))}
    assert (EXISTS, 1) in leads and (EXISTS, 2) in leads and (FORALL, 1) in leads
    assert (FORALL, 2) not in leads


def test_grid_matches_plain_evaluator(g4, sig_r):
    table = {}
    values = [0, 1, 2, 3, 1, 2, 0, 3, 2]
    for (a, b), v in zip(itertools.product(("a", "b", "c"), repeat=2), values):
        table[(a, b)] = v
    s = Structure(chain=g4, sig=sig_r, domain=("a", "b", "c"), predicates={"R": table})
    grid = AssignmentGrid(s, ("x1", "x2"))
    sig = expand_with_truth_constants(sig_r, g4)
    for phi in qf_matrices(sig, g4.elements, ["x1", "x2"], 1)[:300]:
        vals = grid.values(phi)
        for asg in all_assignments(("x1", "x2"), s.domain):
            assert grid.value_at(vals, asg) == eval_formula(phi, s, asg)


def test_grid_fold_matches_quantifier(g4, sig_r):
    table = {p: (hash(p) % 4) for p in itertools.product(("a", "b"), repeat=2)}
    s = Structure(chain=g4, sig=sig_r, domain=("a", "b"), predicates={"R": table})
    grid = AssignmentGrid(s, ("x1", "x2"))
    matrix = parse_formula("R(x1,x2)", sig_r)
    folded = grid.fold(grid.values(matrix), "x2", FORALL)
    phi = parse_formula("forall x2. R(x1,x2)", sig_r)
    for d in s.domain:
        assert grid.value_at(folded, {"x1": d}) == eval_formula(phi, s, {"x1": d})


G3 = corpus.godel3()
SIG_PR = Signature(predicates={"P": 1, "R": 2})
GRID_VARS = ("x1", "x2", "x3")
PR_MATRICES = qf_matrices(SIG_PR, G3.elements, GRID_VARS, 1)


@st.composite
def pr_structures(draw):
    domain = tuple(f"d{i}" for i in range(draw(st.integers(1, 3))))
    values = st.integers(0, G3.size - 1)
    predicates = {
        name: {args: draw(values) for args in itertools.product(domain, repeat=arity)}
        for name, arity in SIG_PR.predicates.items()
    }
    return Structure(chain=G3, sig=SIG_PR, domain=domain, predicates=predicates)


@settings(max_examples=60, deadline=None)
@given(
    s=pr_structures(),
    matrices=st.lists(st.sampled_from(PR_MATRICES), min_size=1, max_size=4),
    order=st.permutations(GRID_VARS),
)
def test_prefix_folds_match_plain_evaluator(s, matrices, order):
    # x1 and x2 are quantified, x3 stays a parameter; the drawn axis order
    # puts every stride under a fold
    grid = AssignmentGrid(s, order)
    sliced = {d: AssignmentGrid(s, [v for v in order if v != "x3"], fixed={"x3": d})
              for d in s.domain}
    for target in (PrenexClass(FORALL, 2), PrenexClass(EXISTS, 2)):
        for cand in prenex_candidates(matrices, ["x1", "x2"], target):
            vals = grid.fold_prefix(grid.values(cand.matrix), cand.prefix)
            assert grid.fold_prefix(grid.values(cand.matrix), cand.prefix) is vals
            for asg in all_assignments(GRID_VARS, s.domain):
                assert grid.value_at(vals, asg) == eval_formula(cand.formula, s, asg)
            for d, part in sliced.items():
                part_vals = part.fold_prefix(part.values(cand.matrix), cand.prefix)
                for asg in all_assignments(part.variables, s.domain):
                    assert part.value_at(part_vals, asg) == grid.value_at(vals, {**asg, "x3": d})


def test_swapped_fold_is_caught_by_the_evaluator_replays(monkeypatch):
    sig = Signature(predicates={"P": 1})
    point = Structure(chain=G3, sig=sig, domain=("a",), predicates={"P": {("a",): G3.top}})
    pair = Structure(chain=G3, sig=sig, domain=("a", "b"),
                     predicates={"P": {("a",): G3.top, ("b",): 0}})
    incl = inclusion_map(point, pair)
    # existential sentences go up to a superstructure; the inclusion is not
    # elementary, but "exists x1 . P(x1)" takes top on both sides
    assert implies_exists_n(point, pair, (), 1).ok
    assert implies_exists_n(point, pair, ("a",), 1).ok
    assert not is_elementary_up_to_depth(incl, point, pair, 1).ok
    fold = AssignmentGrid.fold

    def swapped(self, values, var, kind):
        return fold(self, values, var, EXISTS if kind == FORALL else FORALL)

    monkeypatch.setattr(AssignmentGrid, "fold", swapped)
    with pytest.raises(InternalError):
        implies_exists_n(point, pair, (), 1)
    with pytest.raises(InternalError):
        implies_exists_n(point, pair, ("a",), 1)
    with pytest.raises(InternalError):
        is_elementary_up_to_depth(incl, point, pair, 1)


def test_ground_terms_nesting():
    sig = Signature(functions={"f": 1, "c": 0, "d": 0})
    terms = ground_terms(sig, ["c", "d"], term_depth=2)
    names = {t.name for t in terms}
    assert {"c", "d", "f"} <= names
    assert len(terms) == 6  # c, d, f(c), f(d), f(f(c)), f(f(d))


def test_enumerate_structures_counts(b2, sig_r):
    structures = list(enumerate_structures(sig_r, b2, 2))
    assert len(structures) == 2 + 2**4
    assert structures[0].domain == ("d0",)
    # canonical order: the first structure has the all-bottom table
    assert set(structures[0].predicates["R"].values()) == {0}


def test_enumerate_structures_with_constants(b2):
    sig = Signature(predicates={"P": 1}, functions={"c": 0})
    structures = list(enumerate_structures(sig, b2, 2))
    assert len(structures) == 2 * 1 + 4 * 2
    assert structures[0].functions["c"][()] == "d0"


def test_enumerate_structures_rejects_proper_functions(b2):
    sig = Signature(functions={"f": 1})
    with pytest.raises(SignatureError):
        list(enumerate_structures(sig, b2, 1))


def test_enumerate_structures_budget(g4, sig_r):
    with pytest.raises(BudgetError):
        list(enumerate_structures(sig_r, g4, 3, budget=1000))
