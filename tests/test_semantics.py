import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from gradedmt import corpus
from gradedmt.diagrams import expansion_sharp
from gradedmt.errors import ChainMismatchError, FormatError, SignatureError
from gradedmt.parser import parse_formula, parse_theory
from gradedmt.randomgen import random_formula
from gradedmt.semantics import (
    Structure,
    UnassignedVariable,
    _truth_constant_index,
    eval_formula,
    eval_term,
    is_model,
    satisfies,
)
from gradedmt.syntax import (
    And,
    App,
    Atom,
    Eq,
    Exists,
    Forall,
    Iff,
    Implies,
    Not,
    Or,
    Signature,
    Strong,
    Val,
    Var,
    expand_with_truth_constants,
    free_variables,
)
from tests.conftest import crisp_complete


def test_eval_term_variable_and_cycle(b2):
    sig = Signature(predicates={"P": 1}, functions={"f": 1})
    s = Structure(
        chain=b2,
        sig=sig,
        domain=("a", "b"),
        predicates={"P": {("a",): 1, ("b",): 0}},
        functions={"f": {("a",): "b", ("b",): "a"}},
    )
    assert eval_term(Var("x"), s, {"x": "a"}) == "a"
    assert eval_term(App("f", (App("f", (Var("x"),)),)), s, {"x": "a"}) == "a"
    with pytest.raises(UnassignedVariable):
        eval_term(Var("y"), s, {})


def test_expansion_constant_names_itself(struct_m):
    sharp = expansion_sharp(struct_m)
    assert eval_term(App("c_n0"), sharp, {}) == "n0"
    phi = parse_formula("P(c_n1)", sharp.sig)
    assert eval_formula(phi, sharp) == struct_m.predicates["P"][("n1",)]


def test_constant_forall_value(struct_m, struct_n, g4, sig_p):
    phi = parse_formula("forall x. P(x)", sig_p)
    assert g4.label(eval_formula(phi, struct_m)) == "3/4"
    assert g4.label(eval_formula(phi, struct_n)) == "1/2"


def test_val_evaluates_everywhere(struct_m, g4):
    assert eval_formula(parse_formula("val(1)", struct_m.sig), struct_m) == g4.top
    assert satisfies(parse_formula("val(1)", struct_m.sig), struct_m)


def test_val_chain_mismatch(b2, sig_p):
    from gradedmt.syntax import Val

    s = Structure(chain=b2, sig=sig_p, domain=("a",), predicates={"P": {("a",): 1}})
    sig = expand_with_truth_constants(sig_p, b2)
    assert eval_formula(parse_formula("val(1)", sig), s) == b2.top
    with pytest.raises(ChainMismatchError):
        eval_formula(Val("3/4"), s)


def test_lukasiewicz_strong_witness(l3, sig_p):
    s = Structure(
        chain=l3, sig=sig_p, domain=("a", "b"), predicates={"P": {("a",): 1, ("b",): 2}}
    )
    phi = parse_formula("exists x. (P(x) & P(x))", sig_p)
    assert l3.label(eval_formula(phi, s)) == "1"
    # brute force over the domain: a gives star(1/2,1/2) = 0, b gives 1
    values = [l3.star[s.predicates["P"][(d,)]][s.predicates["P"][(d,)]] for d in s.domain]
    assert values == [0, 2]


def test_satisfies_symmetry_and_irreflexivity(g4, sig_r):
    sym = parse_formula("forall x y. (R(x,y) -> R(y,x))", sig_r)
    k3 = crisp_complete(g4, ["u", "v", "w"])
    assert satisfies(sym, k3)
    loop = Structure(
        chain=g4, sig=sig_r, domain=("a",), predicates={"R": {("a", "a"): 1}}
    )
    irr = parse_formula("forall x. (R(x,x) -> val(0))", sig_r)
    assert not satisfies(irr, loop)
    assert eval_formula(irr, loop) == g4.index("0")


def test_satisfies_arity_check(struct_m, sig_p):
    phi = parse_formula("P(x)", sig_p)
    with pytest.raises(FormatError):
        satisfies(phi, struct_m)
    assert satisfies(phi, struct_m, ("n0",)) is False


def test_is_model_weighted_graphs(g4, sig_r):
    theory = parse_theory(
        "forall x. (R(x,x) -> val(0))\nforall x y. (R(x,y) -> R(y,x))", sig_r
    )
    k3 = crisp_complete(g4, ["u", "v", "w"])
    assert is_model(theory, k3).ok
    lopsided = Structure(
        chain=g4,
        sig=sig_r,
        domain=("a", "b"),
        predicates={
            "R": {("a", "a"): 0, ("b", "b"): 0, ("a", "b"): g4.index("3/4"), ("b", "a"): g4.index("1/2")}
        },
    )
    report = is_model(theory, lopsided)
    assert not report.ok
    assert g4.label(report.value) == "1/2"
    assert is_model([], k3).ok


def test_is_model_rejects_open_formulas(struct_m, sig_p):
    with pytest.raises(FormatError):
        is_model([parse_formula("P(x)", sig_p)], struct_m)


def test_fuzzy_subgroup_model(b2):
    from gradedmt.corpus import fuzzy_subgroup_theory

    theory, sig = fuzzy_subgroup_theory()
    dom = tuple(str(i) for i in range(5))
    mul = {(a, b): str((int(a) + int(b)) % 5) for a, b in itertools.product(dom, repeat=2)}
    inv = {(a,): str((-int(a)) % 5) for a in dom}
    s = Structure(
        chain=b2,
        sig=sig,
        domain=dom,
        predicates={"G": {(a,): 1 for a in dom}},
        functions={"mul": mul, "inv": inv, "e": {(): "0"}},
    )
    assert is_model(theory, s).ok


def test_quantifier_witnessing(g4, sig_r):
    rnd = random.Random(5)
    s = Structure(
        chain=g4,
        sig=sig_r,
        domain=("a", "b", "c"),
        predicates={
            "R": {pair: rnd.randrange(4) for pair in itertools.product(("a", "b", "c"), repeat=2)}
        },
    )
    body = parse_formula("exists y. R(x,y)", sig_r).body
    for quantifier in (Exists, Forall):
        phi = quantifier("y", body)
        for d in s.domain:
            value = eval_formula(phi, s, {"x": d})
            witnessed = [eval_formula(body, s, {"x": d, "y": w}) for w in s.domain]
            assert value == (max(witnessed) if quantifier is Exists else min(witnessed))
            assert value in witnessed


def test_iff_tops_exactly_on_equal_values(g4, sig_r):
    rnd = random.Random(11)
    s = Structure(
        chain=g4,
        sig=sig_r,
        domain=("a", "b"),
        predicates={"R": {p: rnd.randrange(4) for p in itertools.product(("a", "b"), repeat=2)}},
    )
    sig = expand_with_truth_constants(sig_r, g4)
    for _ in range(200):
        left = random_formula(rnd, sig, g4.elements, depth=3)
        right = random_formula(rnd, sig, g4.elements, depth=3)
        names = sorted(free_variables(left) | free_variables(right))
        assignment = {v: rnd.choice(s.domain) for v in names}
        lv = eval_formula(left, s, assignment)
        rv = eval_formula(right, s, assignment)
        iff_value = eval_formula(Iff(left, right), s, assignment)
        assert (iff_value == g4.top) == (lv == rv)


def test_bound_variable_renaming(g4, sig_r, complete_graphs):
    phi = parse_formula("forall x. exists y. (R(x,y) -> R(y,x))", sig_r)
    psi = parse_formula("forall u. exists v. (R(u,v) -> R(v,u))", sig_r)
    k3 = complete_graphs[3]
    assert eval_formula(phi, k3) == eval_formula(psi, k3)


def test_domain_permutation_invariance(g4, sig_r):
    rnd = random.Random(23)
    dom = ("a", "b", "c")
    s = Structure(
        chain=g4,
        sig=sig_r,
        domain=dom,
        predicates={"R": {p: rnd.randrange(4) for p in itertools.product(dom, repeat=2)}},
    )
    permuted = s.rename_domain({"a": "b", "b": "c", "c": "a"})
    sig = expand_with_truth_constants(sig_r, g4)
    for _ in range(100):
        phi = random_formula(rnd, sig, g4.elements, depth=3)
        if free_variables(phi):
            continue
        assert eval_formula(phi, s) == eval_formula(phi, permuted)


_P_OK = {("a",): 0, ("b",): 1}
_F_OK = {("a",): "b", ("b",): "a"}


@pytest.mark.parametrize("domain, predicates, functions, message", [
    ((), {"P": _P_OK}, {"f": _F_OK}, "structure domain must be nonempty"),
    (("a", "a"), {"P": _P_OK}, {"f": _F_OK}, "domain labels must be distinct"),
    (("a", "b"), {}, {"f": _F_OK}, "missing table for predicate 'P'"),
    (("a", "b"), {"P": {("a",): 0}}, {"f": _F_OK}, "predicate 'P' table not total at ('b',)"),
    (("a", "b"), {"P": {("a",): 0, ("b",): 4}}, {"f": _F_OK}, "predicate 'P' value at ('b',) out of range"),
    (("a", "b"), {"P": {("a",): 0, ("b",): 1.0}}, {"f": _F_OK}, "predicate 'P' value at ('b',) out of range"),
    (("a", "b"), {"P": {("a",): 0, ("b",): "1"}}, {"f": _F_OK}, "predicate 'P' value at ('b',) out of range"),
    (("a", "b"), {"P": {**_P_OK, ("c",): 0}}, {"f": _F_OK},
     "predicate 'P' has entries outside the domain: {('c',)}"),
    (("a", "b"), {"P": _P_OK, "Q": {}}, {"f": _F_OK}, "tables for undeclared predicates: ['Q']"),
    (("a", "b"), {"P": _P_OK}, {}, "missing table for function 'f'"),
    (("a", "b"), {"P": _P_OK}, {"f": {("a",): "b"}}, "function 'f' table not total at ('b',)"),
    (("a", "b"), {"P": _P_OK}, {"f": {("a",): "b", ("b",): "c"}}, "function 'f' maps ('b',) outside the domain"),
    (("a", "b"), {"P": _P_OK}, {"f": {**_F_OK, ("c",): "a"}},
     "function 'f' has entries outside the domain: {('c',)}"),
    (("a", "b"), {"P": _P_OK}, {"f": _F_OK, "g": {}}, "tables for undeclared functions: ['g']"),
    (("a", "b"), {"Q": {}}, {}, "missing table for predicate 'P'"),  # predicates are checked first
])
def test_structure_construction_messages(g4, domain, predicates, functions, message):
    sig = Signature(predicates={"P": 1}, functions={"f": 1})
    with pytest.raises(FormatError) as err:
        Structure(chain=g4, sig=sig, domain=domain, predicates=predicates, functions=functions)
    assert str(err.value) == message


def test_structure_tables_are_stored_normalised(g4):
    sig = Signature(predicates={"P": 1}, functions={"f": 1})
    s = Structure(chain=g4, sig=sig, domain=("1", "2"), predicates={"P": {("1",): 0, ("2",): 3}},
                  functions={"f": {("1",): 2, ("2",): "1"}})
    assert s.functions == {"f": {("1",): "2", ("2",): "1"}}
    assert s.predicates == {"P": {("1",): 0, ("2",): 3}}


def test_structure_table_validation(g4, sig_r):
    with pytest.raises(FormatError):
        Structure(chain=g4, sig=sig_r, domain=(), predicates={"R": {}})
    with pytest.raises(FormatError):
        Structure(chain=g4, sig=sig_r, domain=("a",), predicates={"R": {}})
    with pytest.raises(FormatError):
        Structure(
            chain=g4, sig=sig_r, domain=("a",), predicates={"R": {("a", "a"): 7}}
        )


# --- the evaluator against an isinstance-chain reference ---

_MISSING = object()


def _reference_eval(phi, s: Structure, v: dict) -> int:
    """The evaluator as one chain of isinstance tests, one loop per quantifier."""
    chain = s.chain
    if isinstance(phi, Atom):
        table = s.predicates.get(phi.name)
        if table is None:
            raise SignatureError(f"structure does not interpret predicate {phi.name!r}")
        args = tuple(eval_term(a, s, v) for a in phi.args)
        return table[args]
    if isinstance(phi, Eq):
        return chain.top if eval_term(phi.left, s, v) == eval_term(phi.right, s, v) else chain.bottom
    if isinstance(phi, Val):
        return _truth_constant_index(chain, phi.label)
    if isinstance(phi, And):
        a = _reference_eval(phi.left, s, v)
        b = _reference_eval(phi.right, s, v)
        return a if a < b else b
    if isinstance(phi, Or):
        a = _reference_eval(phi.left, s, v)
        b = _reference_eval(phi.right, s, v)
        return a if a > b else b
    if isinstance(phi, Strong):
        return chain.star[_reference_eval(phi.left, s, v)][_reference_eval(phi.right, s, v)]
    if isinstance(phi, Implies):
        return chain.implies[_reference_eval(phi.left, s, v)][_reference_eval(phi.right, s, v)]
    if isinstance(phi, Not):
        return chain.implies[_reference_eval(phi.body, s, v)][chain.bottom]
    if isinstance(phi, Iff):
        a = _reference_eval(phi.left, s, v)
        b = _reference_eval(phi.right, s, v)
        fwd = chain.implies[a][b]
        bwd = chain.implies[b][a]
        return fwd if fwd < bwd else bwd
    if isinstance(phi, Forall):
        saved = v.get(phi.var, _MISSING)
        best = chain.top
        for d in s.domain:
            v[phi.var] = d
            value = _reference_eval(phi.body, s, v)
            if value < best:
                best = value
                if best == chain.bottom:
                    break
        _restore(v, phi.var, saved)
        return best
    if isinstance(phi, Exists):
        saved = v.get(phi.var, _MISSING)
        best = chain.bottom
        for d in s.domain:
            v[phi.var] = d
            value = _reference_eval(phi.body, s, v)
            if value > best:
                best = value
                if best == chain.top:
                    break
        _restore(v, phi.var, saved)
        return best
    raise TypeError(f"not a formula: {phi!r}")


def _restore(v: dict, name: str, saved):
    if saved is _MISSING:
        v.pop(name, None)
    else:
        v[name] = saved


def _outcome(evaluate, phi, s, assignment):
    """The value, or the exception's class and message."""
    try:
        return evaluate(phi, s, dict(assignment))
    except Exception as err:  # any class, so that a KeyError for a TypeError shows too
        return type(err), str(err)


def _eval_structures():
    sig = Signature(predicates={"P": 1, "R": 2}, functions={"c": 0, "f": 1})
    rnd = random.Random(5)
    out = []
    for chain, domain in ((corpus.lukasiewicz3(), ("a", "b", "c")), (corpus.godel4(), ("a", "b")),
                          (corpus.bool2(), ("a",))):
        out.append(Structure(
            chain=chain, sig=sig, domain=domain,
            predicates={"P": {(d,): rnd.randrange(chain.size) for d in domain},
                        "R": {args: rnd.randrange(chain.size) for args in itertools.product(domain, repeat=2)}},
            functions={"c": {(): domain[-1]}, "f": {(d,): rnd.choice(domain) for d in domain}}))
    return out


_EVAL_STRUCTURES = _eval_structures()
_terms = st.recursive(st.sampled_from([Var("x"), Var("y"), App("c")]),
                      lambda t: t.map(lambda a: App("f", (a,))), max_leaves=3)
_leaves = st.one_of(
    st.builds(lambda a: Atom("P", (a,)), _terms),
    st.builds(lambda a, b: Atom("R", (a, b)), _terms, _terms),
    st.builds(Eq, _terms, _terms),
    st.sampled_from([Val("0"), Val("1")]),
)
# an unassigned variable, an undeclared predicate and function, an unknown
# truth constant (val(1/2) too, but on Lukasiewicz-3), a term for a formula
_BAD_LEAVES = [Atom("P", (Var("z"),)), Atom("Q", (Var("x"),)), Atom("P", (App("g"),)), Val("7/8"), Val("1/2"),
               Var("x")]


def _formulas(leaves):
    return st.recursive(leaves, lambda f: st.one_of(
        st.builds(Not, f),
        *(st.builds(kind, f, f) for kind in (And, Or, Strong, Implies, Iff)),
        *(st.builds(kind, st.sampled_from(["x", "y"]), f) for kind in (Forall, Exists)),
    ), max_leaves=8)


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(phi=_formulas(_leaves), index=st.integers(0, len(_EVAL_STRUCTURES) - 1))
def test_eval_formula_matches_the_isinstance_reference(phi, index):
    s = _EVAL_STRUCTURES[index]
    assignment = {"x": "a", "y": s.domain[-1]}
    assert eval_formula(phi, s, assignment) == _reference_eval(phi, s, assignment)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(phi=_formulas(_leaves | st.sampled_from(_BAD_LEAVES)), index=st.integers(0, len(_EVAL_STRUCTURES) - 1))
def test_eval_formula_fails_like_the_isinstance_reference(phi, index):
    s = _EVAL_STRUCTURES[index]
    assignment = {"x": "a", "y": s.domain[-1]}
    assert _outcome(eval_formula, phi, s, assignment) == _outcome(_reference_eval, phi, s, assignment)


@pytest.mark.parametrize("phi, error, message", [
    (Exists("x", Atom("P", (Var("z"),))), UnassignedVariable, "variable 'z' has no value"),
    (And(Atom("Q", (Var("x"),)), Val("7/8")), SignatureError, "structure does not interpret predicate 'Q'"),
    (Forall("x", Atom("P", (App("g", (Var("x"),)),))), SignatureError,
     "structure does not interpret function 'g'"),
    (Iff(Val("1"), Val("7/8")), ChainMismatchError, "truth constant val(7/8) has no element in this chain"),
    (Not(Var("x")), TypeError, "not a formula: Var(name='x')"),
])
def test_eval_formula_errors_match_the_reference(phi, error, message):
    s, assignment = _EVAL_STRUCTURES[1], {"x": "a"}
    assert _outcome(eval_formula, phi, s, assignment) == (error, message)
    assert _outcome(_reference_eval, phi, s, assignment) == (error, message)
