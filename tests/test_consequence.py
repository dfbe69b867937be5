from dataclasses import replace

import pytest

from gradedmt.consequence import bounded_consequence, equiv_up_to_depth
from gradedmt.errors import BudgetError, ChainMismatchError, FormatError, SignatureError
from gradedmt.generation import enumerate_structures
from gradedmt.parser import parse_formula, parse_theory
from gradedmt.preservation import FormulaBounds, universal_consequences_bounded
from gradedmt.semantics import satisfies
from gradedmt.syntax import Atom, Forall, Signature, Val, Var, expand_with_truth_constants


@pytest.fixture()
def weighted_graph(sig_r):
    return parse_theory(
        "forall x. (R(x,x) -> val(0))\nforall x y. (R(x,y) -> R(y,x))", sig_r
    )


def test_member_of_theory_always_holds(weighted_graph, sig_r, b2, g4):
    for chain in (b2, g4):
        for n in (1, 2):
            for phi in weighted_graph:
                assert bounded_consequence(weighted_graph, phi, sig_r, chain, n).holds


def test_symmetry_does_not_entail_irreflexivity(weighted_graph, sig_r, b2, g4):
    symmetry = [weighted_graph[1]]
    irreflexivity = weighted_graph[0]
    res = bounded_consequence(symmetry, irreflexivity, sig_r, b2, 1)
    assert not res.holds
    assert res.countermodel.size == 1
    assert b2.label(res.countermodel.predicates["R"][("d0", "d0")]) == "1"
    # over the four-element chain the canonical order reaches 1/2 first
    res4 = bounded_consequence(symmetry, irreflexivity, sig_r, g4, 1)
    assert g4.label(res4.countermodel.predicates["R"][("d0", "d0")]) == "1/2"


def test_weighted_graphs_entail_reversed_symmetry(weighted_graph, sig_r, g4):
    reversed_symmetry = parse_formula("forall x y. (R(y,x) -> R(x,y))", sig_r)
    assert bounded_consequence(weighted_graph, reversed_symmetry, sig_r, g4, 2).holds


def test_countermodel_is_canonical_first(sig_r, b2):
    # independent oracle: scan the canonical enumeration directly
    phi = parse_formula("forall x. (R(x,x) -> val(0))", sig_r)
    expected = None
    for s in enumerate_structures(sig_r, b2, 2):
        if not satisfies(phi, s):
            expected = s
            break
    got = bounded_consequence([], phi, sig_r, b2, 2).countermodel
    assert got == expected


def test_bounded_consequence_requires_sentences(sig_r, b2):
    open_formula = parse_formula("R(x,y)", sig_r)
    with pytest.raises(FormatError):
        bounded_consequence([], open_formula, sig_r, b2, 1)
    with pytest.raises(FormatError):
        bounded_consequence([open_formula], parse_formula("val(1)", sig_r), sig_r, b2, 1)


def test_equiv_reflexive(struct_m):
    for depth in (1, 2):
        assert equiv_up_to_depth(struct_m, struct_m, depth).equal


def test_equiv_counterexample_pair_base_language(struct_m, struct_n):
    res = equiv_up_to_depth(struct_m, struct_n, 2, sig=struct_m.sig)
    assert res.equal and res.separator is None


def test_equiv_counterexample_pair_expanded(struct_m, struct_n, g4):
    sig = expand_with_truth_constants(struct_m.sig, g4)
    m = replace(struct_m, sig=sig)
    n = replace(struct_n, sig=sig)
    res = equiv_up_to_depth(m, n, 2, sig=sig)
    assert not res.equal
    # the returned separator genuinely separates
    assert satisfies(res.separator, m) != satisfies(res.separator, n)
    # and the documented sentence is among the generated separators
    documented = parse_formula("val(3/4) -> forall x1. P(x1)", sig)
    assert satisfies(documented, m) and not satisfies(documented, n)
    from gradedmt.generation import generate_sentences

    assert documented in generate_sentences(sig, g4.elements, 2)


def test_equiv_separates_different_sizes_at_depth_two(g4, sig_p):
    from gradedmt.semantics import Structure

    one = Structure(chain=g4, sig=sig_p, domain=("a",), predicates={"P": {("a",): 3}})
    two = Structure(
        chain=g4, sig=sig_p, domain=("a", "b"), predicates={"P": {("a",): 3, ("b",): 3}}
    )
    res = equiv_up_to_depth(one, two, 2)
    assert not res.equal
    assert satisfies(res.separator, one) != satisfies(res.separator, two)


def test_equiv_needs_every_predicate_of_the_signature(struct_m, g4):
    from gradedmt.semantics import Structure

    sig = Signature(predicates={"P": 1, "Q": 1})
    with pytest.raises(SignatureError, match="structure does not interpret predicate 'Q'/1"):
        equiv_up_to_depth(struct_m, struct_m, 1, sig=sig)
    both = Structure(chain=g4, sig=sig, domain=("a",), predicates={"P": {("a",): 0}, "Q": {("a",): 0}})
    with pytest.raises(SignatureError, match="structure does not interpret predicate 'Q'/1"):
        equiv_up_to_depth(both, struct_m, 1, sig=sig)


def test_equiv_chain_mismatch(struct_m, b2, sig_p):
    from gradedmt.semantics import Structure

    other = Structure(chain=b2, sig=sig_p, domain=("a",), predicates={"P": {("a",): 1}})
    with pytest.raises(ChainMismatchError):
        equiv_up_to_depth(struct_m, other, 1)


# --- error pins: which exception each malformed input raises, and when ---

_x = Var("x")
_unknown = Forall("x", Atom("Q", (_x,)))  # Q is not in the signature
_foreign = Val("3/4")  # no element of godel3 has this label


@pytest.mark.parametrize("theory, phi, error", [
    ([], _unknown, SignatureError),
    ([_unknown], Val("1"), SignatureError),
    ([], _foreign, ChainMismatchError),
    ([Forall("x", Atom("R", (_x, _x)))], _foreign, ChainMismatchError),
])
def test_bounded_consequence_error_pins(theory, phi, error, sig_r, g3):
    with pytest.raises(error):
        bounded_consequence(theory, phi, sig_r, g3, 2)


@pytest.mark.parametrize("check", [
    lambda sig, chain: bounded_consequence([], Forall("x", Atom("R", (_x, _x))), sig, chain, 0),
    lambda sig, chain: universal_consequences_bounded([], sig, chain, 0),
], ids=["consequence", "universal-consequences"])
def test_an_empty_structure_space_is_a_format_error(check, sig_r, g3):
    # no structure of size 0 exists, so no countermodel could refute anything
    with pytest.raises(FormatError, match="^max_domain must be at least 1$"):
        check(sig_r, g3)


def test_bounded_consequence_skips_sentences_no_structure_reaches(sig_r, g3):
    # no structure models val(0), so neither the later axiom nor phi is evaluated
    res = bounded_consequence([Val("0"), _unknown], _foreign, sig_r, g3, 2)
    assert res.holds and res.structures_checked == 3 + 3**4


def test_bounded_consequence_rejects_proper_functions(g3):
    sig = Signature(predicates={"R": 2}, functions={"f": 1})
    with pytest.raises(SignatureError):
        bounded_consequence([], Val("1"), sig, g3, 1)


def test_bounded_consequence_budget_names_its_phase(monkeypatch, sig_r, g3):
    monkeypatch.setenv("GRADEDMT_BUDGET", "50")
    with pytest.raises(BudgetError, match="structure enumeration") as err:
        bounded_consequence([], Val("1"), sig_r, g3, 2)
    assert (err.value.required, err.value.budget) == (3 + 3**4, 50)


@pytest.mark.parametrize("theory, error", [
    ([_unknown], SignatureError),
    ([Forall("x", Atom("R", (_x, _x))), _foreign], ChainMismatchError),
    ([Atom("R", (_x, _x))], FormatError),
])
def test_universal_consequences_error_pins(theory, error, sig_r, g3):
    with pytest.raises(error):
        universal_consequences_bounded(theory, sig_r, g3, 2)


def test_universal_consequences_skip_unreached_sentences(sig_r, g3):
    # no structure models val(0): the later members are never evaluated, every candidate holds
    out = universal_consequences_bounded([Val("0"), _unknown, Atom("R", (_x, _x))], sig_r, g3, 1,
                                         FormulaBounds(max_candidates=5))
    assert len(out) == 5


def test_universal_consequences_budget_names_its_phase(monkeypatch, sig_r, g3):
    monkeypatch.setenv("GRADEDMT_BUDGET", "50")
    with pytest.raises(BudgetError, match="structure enumeration"):
        universal_consequences_bounded([], sig_r, g3, 2)
    sig = Signature(predicates={"R": 2}, functions={"f": 1})
    with pytest.raises(SignatureError):
        universal_consequences_bounded([], sig, g3, 1)
