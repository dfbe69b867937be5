import pytest

from gradedmt.errors import SignatureError
from gradedmt.parser import parse_formula
from gradedmt.semantics import eval_formula
from gradedmt.syntax import (
    EXISTS,
    FORALL,
    NOT_PRENEX,
    QUANTIFIER_FREE,
    And,
    Atom,
    Iff,
    Not,
    PrenexClass,
    Signature,
    Val,
    Var,
    classify_prenex,
    elaborate,
    expand_with_domain_constants,
    expand_with_truth_constants,
    free_variables,
)


def test_signature_name_clash():
    with pytest.raises(SignatureError):
        Signature(predicates={"f": 1}, functions={"f": 0})


def test_classify_prenex_examples(sig_r):
    symmetric = parse_formula("forall x y. (R(x,y) -> R(y,x))", sig_r)
    assert str(classify_prenex(symmetric)) == "Forall(1)"
    open_atom = parse_formula("R(x,y)", sig_r)
    assert str(classify_prenex(open_atom)) == "QuantifierFree"
    degree = parse_formula("forall x. exists y z. (not (y ~ z) /\\ R(x,y) /\\ R(x,z))", sig_r)
    assert str(classify_prenex(degree)) == "Forall(2)"
    not_prenex = parse_formula("forall x. not exists y. R(x,y)", sig_r)
    assert str(classify_prenex(not_prenex)) == "NotPrenex"
    assert str(classify_prenex(parse_formula("exists x. forall y. exists z. R(y,z)", sig_r))) == "Exists(3)"


def test_prenex_class_monotonicity():
    qf = PrenexClass(QUANTIFIER_FREE, 0)
    f1, f2 = PrenexClass(FORALL, 1), PrenexClass(FORALL, 2)
    e1, e2 = PrenexClass(EXISTS, 1), PrenexClass(EXISTS, 2)
    assert f1.within(f2) and not f2.within(f1)
    assert qf.within(f1) and qf.within(e1)
    # an n-block prefix is a degenerate n+1-block prefix of the other lead
    assert f1.within(e2) and e1.within(f2)
    assert not f1.within(e1) and not e1.within(f1)
    assert not PrenexClass(NOT_PRENEX, 0).within(f2)


def test_expand_domain_constants(sig_p):
    expanded = expand_with_domain_constants(sig_p, ["a", "b"])
    assert expanded.functions == {"c_a": 0, "c_b": 0}
    with pytest.raises(SignatureError):
        expand_with_domain_constants(sig_p, [])
    with pytest.raises(SignatureError):
        expand_with_domain_constants(expanded, ["a"])


def test_expand_truth_constants(sig_p, g4, b2):
    expanded = expand_with_truth_constants(sig_p, g4)
    assert expanded.truth_constants == {"0", "1/2", "3/4", "1"}
    two = expand_with_truth_constants(sig_p, b2)
    assert two.truth_constants == {"0", "1"}
    with pytest.raises(SignatureError):
        expand_with_truth_constants(expanded, g4)


def test_free_variables(sig_p, sig_r):
    assert free_variables(parse_formula("forall x. P(x)", sig_p)) == set()
    assert free_variables(parse_formula("R(x,y) -> R(y,x)", sig_r)) == {"x", "y"}
    assert free_variables(parse_formula("exists y. R(x,y)", sig_r)) == {"x"}


def test_elaborate_idempotent_and_value_preserving(sig_p, struct_m):
    phi = Iff(Not(Atom("P", (Var("x"),))), Val("0"))
    once = elaborate(phi)
    assert elaborate(once) == once
    assert isinstance(once, And)
    for d in struct_m.domain:
        assert eval_formula(phi, struct_m, {"x": d}) == eval_formula(once, struct_m, {"x": d})
