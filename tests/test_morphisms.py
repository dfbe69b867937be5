import itertools
import random
from dataclasses import replace

import pytest

from gradedmt import corpus, morphisms
from gradedmt.algebra import enumerate_mtl_chains, generated_subalgebra, identity_map, subalgebra_inclusion
from gradedmt.errors import ChainMismatchError, InternalError
from gradedmt.generation import qf_matrices
from gradedmt.morphisms import (
    StructureMap,
    enumerate_substructures,
    inclusion_map,
    induced_substructure,
    is_elementary_up_to_depth,
    is_embedding,
    is_strong_homomorphism,
    is_substructure,
    search_structure_map,
)
from gradedmt.semantics import Structure, eval_formula
from gradedmt.syntax import Signature
from tests.conftest import crisp_complete


def test_identity_is_strong_homomorphism(struct_m):
    m = inclusion_map(struct_m, struct_m)
    assert is_strong_homomorphism(m, struct_m, struct_m).ok
    assert is_embedding(m, struct_m, struct_m).ok


def test_value_mismatch_is_never_strong(struct_m, struct_n, g4):
    for g in ({"n0": "n0", "n1": "n1", "n2": "n2"}, {"n0": "n2", "n1": "n0", "n2": "n1"}):
        m = StructureMap(identity_map(g4), g)
        report = is_strong_homomorphism(m, struct_m, struct_n)
        assert not report.ok
        assert report.reason == "predicate value not transported"


def test_collapsing_equal_rows(g4, sig_p):
    s = Structure(
        chain=g4,
        sig=sig_p,
        domain=("a", "b"),
        predicates={"P": {("a",): 2, ("b",): 2}},
    )
    t = Structure(chain=g4, sig=sig_p, domain=("c",), predicates={"P": {("c",): 2}})
    collapse = StructureMap(identity_map(g4), {"a": "c", "b": "c"})
    assert is_strong_homomorphism(collapse, s, t).ok
    assert not is_embedding(collapse, s, t).ok


def test_function_commutation_checked(b2):
    sig = Signature(functions={"f": 1}, predicates={"P": 1})
    s = Structure(
        chain=b2,
        sig=sig,
        domain=("a", "b"),
        predicates={"P": {("a",): 1, ("b",): 1}},
        functions={"f": {("a",): "b", ("b",): "a"}},
    )
    t = Structure(
        chain=b2,
        sig=sig,
        domain=("a", "b"),
        predicates={"P": {("a",): 1, ("b",): 1}},
        functions={"f": {("a",): "a", ("b",): "b"}},
    )
    m = inclusion_map(s, s)
    report = is_strong_homomorphism(m, s, t)
    assert not report.ok and report.reason == "function commutation fails"


def test_inclusion_of_induced_substructure_is_embedding(complete_graphs):
    k2, k3 = complete_graphs[2], complete_graphs[3]
    incl = inclusion_map(k2, k3)
    assert is_embedding(incl, k2, k3).ok


def test_chain_mismatch_raises(struct_m, b2, sig_p):
    other = Structure(chain=b2, sig=sig_p, domain=("a",), predicates={"P": {("a",): 1}})
    with pytest.raises(ChainMismatchError):
        is_strong_homomorphism(inclusion_map(struct_m, struct_m), struct_m, other)


def test_elementarity_identity(complete_graphs):
    k3 = complete_graphs[3]
    for depth in (1, 2):
        assert is_elementary_up_to_depth(inclusion_map(k3, k3), k3, k3, depth).ok


def test_k2_into_k3_not_elementary_at_depth_two(complete_graphs):
    k2, k3 = complete_graphs[2], complete_graphs[3]
    report = is_elementary_up_to_depth(inclusion_map(k2, k3), k2, k3, 2)
    assert not report.ok
    # replay the separator independently: the inclusion is the identity on
    # labels, so values must differ outright at the reported tuple
    from gradedmt.syntax import free_variables

    params = sorted(free_variables(report.separator))
    assignment = dict(zip(params, report.params))
    assert eval_formula(report.separator, k2, assignment) != eval_formula(
        report.separator, k3, assignment
    )


def test_constant_row_growth_is_elementary_from_size_three(g4, sig_p):
    big = Structure(
        chain=g4,
        sig=sig_p,
        domain=("a", "b", "c", "d"),
        predicates={"P": {(x,): 2 for x in "abcd"}},
    )
    mid = induced_substructure(big, ["a", "b", "c"])
    small = induced_substructure(big, ["a", "b"])
    assert is_elementary_up_to_depth(inclusion_map(mid, big), mid, big, 2).ok
    # one size lower, the counting formulas see the difference
    report = is_elementary_up_to_depth(inclusion_map(small, mid), small, mid, 2)
    assert not report.ok


def test_substructure_clauses(complete_graphs, g4, sig_r):
    k2, k3 = complete_graphs[2], complete_graphs[3]
    assert is_substructure(k3, k3).ok
    assert is_substructure(k2, k3).ok
    tweaked_tables = dict(k2.predicates["R"])
    tweaked_tables[("v0", "v1")] = g4.index("1/2")
    tweaked = Structure(
        chain=g4, sig=sig_r, domain=k2.domain, predicates={"R": tweaked_tables}
    )
    report = is_substructure(tweaked, k3)
    assert not report.ok and report.clause == 4
    disjoint = crisp_complete(g4, ["z0", "z1"])
    assert is_substructure(disjoint, k3).clause == 2


def _reference_chain_is_subalgebra(sub, sup):
    """Reference copy of the former `morphisms.chain_is_subalgebra`: label positions, checked by hand."""
    if sub == sup:
        return True
    if not all(sup.has_label(label) for label in sub.elements):
        return False
    positions = [sup.index(label) for label in sub.elements]
    if positions != sorted(positions):
        return False
    if positions[0] != sup.bottom or positions[-1] != sup.top:
        return False
    for i, pi in enumerate(positions):
        for j, pj in enumerate(positions):
            if sup.star[pi][pj] != positions[sub.star[i][j]]:
                return False
            if sup.implies[pi][pj] != positions[sub.implies[i][j]]:
                return False
    return True


def _reference_is_substructure(sub, sup):
    """Reference copy of the former clauses 0-4 of `is_substructure`, table loops written out:
    (ok, clause, detail)."""
    if not _reference_chain_is_subalgebra(sub.chain, sup.chain):
        return False, 1, "chain is not a subalgebra"
    for a, b in ((sub, sup), (sup, sub)):
        for kind, arities, other in (("predicate", a.sig.predicates, b.sig.predicates),
                                     ("function", a.sig.functions, b.sig.functions)):
            for name, arity in arities.items():
                if other.get(name) != arity:
                    return False, 0, f"target does not interpret {kind} {name!r}/{arity}"
    missing = [d for d in sub.domain if d not in sup.domain]
    if missing:
        return False, 2, f"domain element {missing[0]!r} not in the superstructure"
    for name in sorted(sub.sig.functions):
        for args, value in sorted(sub.functions[name].items()):
            if sup.functions[name][args] != value:
                return False, 3, f"function {name}{args} is {value!r} below, {sup.functions[name][args]!r} above"
    for name in sorted(sub.sig.predicates):
        for args, value in sorted(sub.predicates[name].items()):
            below, above = sub.chain.label(value), sup.chain.label(sup.predicates[name][args])
            if below != above:
                return False, 4, f"predicate {name}{args} is {below!r} below, {above!r} above"
    return True, 0, ""


def _cyclic_fuzzy_subgroup(chain):
    """Z/3 in the fuzzy-subgroup signature, G graded: 1 at the identity, 1/2 elsewhere."""
    _, sig = corpus.fuzzy_subgroup_theory()
    dom = ("0", "1", "2")
    return Structure(
        chain=chain, sig=sig, domain=dom,
        predicates={"G": {(d,): chain.top if d == "0" else chain.index("1/2") for d in dom}},
        functions={"mul": {(a, b): str((int(a) + int(b)) % 3) for a in dom for b in dom},
                   "inv": {(a,): str(-int(a) % 3) for a in dom}, "e": {(): "0"}},
        name="Z3",
    )


def _one_entry_changed(s):
    """One copy of `s` per table entry, with that entry moved to the next value."""
    for kind in ("predicates", "functions"):
        for name, table in sorted(getattr(s, kind).items()):
            for args, value in sorted(table.items()):
                if kind == "predicates":
                    moved = (value + 1) % s.chain.size
                else:
                    moved = s.domain[(s.domain.index(value) + 1) % s.size]
                yield replace(s, **{kind: {**getattr(s, kind), name: {**table, args: moved}}})


def test_is_substructure_matches_the_reference_clauses(g3):
    corpus_structures = [corpus.structure_m(), corpus.structure_n(), corpus.triangle(), corpus.path3(),
                         corpus.edgeless2(), corpus.edgeless3(), _cyclic_fuzzy_subgroup(g3)]
    cases = 0
    for s in corpus_structures:
        for sub in enumerate_substructures(s, include_subalgebra_reducts=True):
            for below in [sub, *_one_entry_changed(sub)]:
                for pair in ((below, s), (s, below)):
                    got = is_substructure(*pair)
                    assert (got.ok, got.clause, got.detail) == _reference_is_substructure(*pair)
                    cases += 1
    for pair in itertools.product(corpus_structures, repeat=2):  # signatures and chains differ here
        got = is_substructure(*pair)
        assert (got.ok, got.clause, got.detail) == _reference_is_substructure(*pair)
    assert cases > 500


def test_subalgebra_inclusion_matches_the_reference():
    pool = []
    for k in (2, 3, 4):
        for chain in enumerate_mtl_chains(k):
            pool.append(chain)
            closed = {generated_subalgebra(chain, seed) for n in range(k) for seed in
                      itertools.combinations(range(k), n)}
            pool += [chain.restrict(indices) for indices in sorted(closed) if len(indices) < k]
    pool += [corpus.godel4(), corpus.godel3(), corpus.lukasiewicz3(), corpus.bool2()]
    hits = 0
    for sub, sup in itertools.product(pool, repeat=2):
        found = subalgebra_inclusion(sub, sup)
        assert (found is not None) == _reference_chain_is_subalgebra(sub, sup)
        if found is not None:
            assert found.map == tuple(sup.index(label) for label in sub.elements)
            hits += sub != sup
    assert hits > 20


def test_substructure_iff_quantifier_free_agreement(g4, sig_r):
    # both directions of the quantifier-free characterization, on small cases
    rnd = random.Random(17)
    dom = ("a", "b", "c")
    matrices = qf_matrices(sig_r, g4.elements, ["x1", "x2"], 1)[:150]
    for _ in range(20):
        big_table = {p: rnd.randrange(4) for p in itertools.product(dom, repeat=2)}
        big = Structure(chain=g4, sig=sig_r, domain=dom, predicates={"R": big_table})
        small_table = {
            p: rnd.randrange(4) for p in itertools.product(("a", "b"), repeat=2)
        }
        small = Structure(
            chain=g4, sig=sig_r, domain=("a", "b"), predicates={"R": small_table}
        )
        agrees = all(
            eval_formula(phi, small, asg) == eval_formula(phi, big, asg)
            for phi in matrices
            for asg in (dict(zip(("x1", "x2"), pair)) for pair in itertools.product(small.domain, repeat=2))
        )
        assert agrees == is_substructure(small, big).ok


def test_enumerate_substructures_triangle(complete_graphs):
    k3 = complete_graphs[3]
    subs = list(enumerate_substructures(k3))
    assert len(subs) == 7
    sizes = [s.size for s in subs]
    assert sizes == sorted(sizes)
    for s in subs:
        assert is_substructure(s, k3).ok


def test_enumerate_substructures_respects_constants(b2):
    sig = Signature(predicates={"P": 1}, functions={"c": 0})
    s = Structure(
        chain=b2,
        sig=sig,
        domain=("a", "b"),
        predicates={"P": {("a",): 1, ("b",): 0}},
        functions={"c": {(): "a"}},
    )
    domains = [sub.domain for sub in enumerate_substructures(s)]
    assert domains == [("a",), ("a", "b")]


def test_enumerate_substructures_function_cycle(b2):
    sig = Signature(predicates={"P": 1}, functions={"f": 1})
    s = Structure(
        chain=b2,
        sig=sig,
        domain=("a", "b", "c"),
        predicates={"P": {(x,): 1 for x in "abc"}},
        functions={"f": {("a",): "b", ("b",): "c", ("c",): "a"}},
    )
    assert [sub.domain for sub in enumerate_substructures(s)] == [("a", "b", "c")]


def test_subalgebra_reducts_flag(g4, sig_p):
    s = Structure(
        chain=g4,
        sig=sig_p,
        domain=("a",),
        predicates={"P": {("a",): g4.index("3/4")}},
    )
    plain = list(enumerate_substructures(s))
    with_reducts = list(enumerate_substructures(s, include_subalgebra_reducts=True))
    assert len(plain) == 1
    assert len(with_reducts) > 1
    for sub in with_reducts[1:]:
        assert sub.chain.size < g4.size
        assert sub.chain.label(sub.predicates["P"][("a",)]) == "3/4"


def test_search_embedding_examples(complete_graphs, struct_m, struct_n, g4, sig_p):
    k2, k3 = complete_graphs[2], complete_graphs[3]
    found = search_structure_map(k2, k3, injective=True)
    assert found is not None
    assert is_embedding(found, k2, k3).ok
    one_m = Structure(chain=g4, sig=sig_p, domain=("a",), predicates={"P": {("a",): 2}})
    one_n = Structure(chain=g4, sig=sig_p, domain=("a",), predicates={"P": {("a",): 1}})
    assert search_structure_map(one_m, one_n, injective=True) is None


def test_search_agrees_with_brute_force(g4, sig_r):
    # oracle: independent full enumeration of injective maps
    rnd = random.Random(29)
    dom_s, dom_t = ("a", "b"), ("u", "v", "w")
    for _ in range(25):
        s = Structure(
            chain=g4,
            sig=sig_r,
            domain=dom_s,
            predicates={"R": {p: rnd.randrange(4) for p in itertools.product(dom_s, repeat=2)}},
        )
        t = Structure(
            chain=g4,
            sig=sig_r,
            domain=dom_t,
            predicates={"R": {p: rnd.randrange(4) for p in itertools.product(dom_t, repeat=2)}},
        )
        brute = None
        for images in itertools.permutations(dom_t, len(dom_s)):
            g = dict(zip(dom_s, images))
            if all(
                t.predicates["R"][(g[a], g[b])] == s.predicates["R"][(a, b)]
                for a in dom_s
                for b in dom_s
            ):
                brute = g
                break
        found = search_structure_map(s, t, injective=True)
        if brute is None:
            assert found is None
        else:
            assert found is not None and found.domain_map == brute


def test_search_homomorphism_allows_collapse(g4, sig_p):
    s = Structure(
        chain=g4, sig=sig_p, domain=("a", "b"), predicates={"P": {("a",): 2, ("b",): 2}}
    )
    t = Structure(chain=g4, sig=sig_p, domain=("c",), predicates={"P": {("c",): 2}})
    assert search_structure_map(s, t, injective=True) is None
    hom = search_structure_map(s, t)
    assert hom is not None and hom.domain_map == {"a": "c", "b": "c"}


def test_search_with_free_algebra_map(g4, b2, sig_p):
    s = Structure(chain=g4, sig=sig_p, domain=("a",), predicates={"P": {("a",): 2}})
    t = Structure(chain=b2, sig=sig_p, domain=("u",), predicates={"P": {("u",): 1}})
    found = search_structure_map(s, t, fix_algebra_identity=False)
    assert found is not None
    assert found.algebra_map.map == (0, 1, 1, 1)


def test_composition_of_strong_homomorphisms(complete_graphs):
    k2, k3, k4 = complete_graphs[2], complete_graphs[3], complete_graphs[4]
    first = inclusion_map(k2, k3)
    second = inclusion_map(k3, k4)
    assert is_strong_homomorphism(first, k2, k3).ok and is_strong_homomorphism(second, k3, k4).ok
    composite = StructureMap(identity_map(k2.chain), {d: second.domain_map[v] for d, v in first.domain_map.items()})
    assert is_strong_homomorphism(composite, k2, k4).ok


def test_strong_homomorphism_witness_follows_sorted_order(g4, b2):
    # domain labels listed out of sorted order: the reported failure is the
    # least failing entry in sorted order, functions before predicates
    sig = Signature(predicates={"R": 2, "P": 1})
    s = Structure(
        chain=g4,
        sig=sig,
        domain=("b", "a"),
        predicates={
            "P": {("b",): 1, ("a",): 2},
            "R": {("b", "b"): 0, ("b", "a"): 1, ("a", "b"): 2, ("a", "a"): 3},
        },
    )
    reversed_r = {("y", "y"): 3, ("y", "x"): 2, ("x", "y"): 1, ("x", "x"): 0}
    t = Structure(
        chain=g4,
        sig=sig,
        domain=("y", "x"),
        predicates={"P": {("y",): 1, ("x",): 2}, "R": reversed_r},
    )
    m = StructureMap(identity_map(g4), {"b": "y", "a": "x"})
    report = is_strong_homomorphism(m, s, t)
    assert report.reason == "predicate value not transported"
    assert report.witness == ("R", ("a", "a"), 3, 0)
    swapped = Structure(
        chain=g4,
        sig=sig,
        domain=("y", "x"),
        predicates={"P": {("y",): 2, ("x",): 1}, "R": reversed_r},
    )
    assert is_strong_homomorphism(m, s, swapped).witness == ("P", ("a",), 2, 1)
    fsig = Signature(functions={"h": 1}, predicates={"P": 1})
    fs = Structure(
        chain=b2,
        sig=fsig,
        domain=("b", "a"),
        predicates={"P": {("b",): 1, ("a",): 0}},
        functions={"h": {("b",): "a", ("a",): "b"}},
    )
    ft = Structure(
        chain=b2,
        sig=fsig,
        domain=("y", "x"),
        predicates={"P": {("y",): 0, ("x",): 1}},
        functions={"h": {("y",): "y", ("x",): "x"}},
    )
    report = is_strong_homomorphism(StructureMap(identity_map(b2), m.domain_map), fs, ft)
    assert report.reason == "function commutation fails"
    assert report.witness == ("h", ("a",), "y", "x")


def test_elementarity_replay_disagreement_raises(monkeypatch, g4, sig_r):
    point = Structure(chain=g4, sig=sig_r, domain=("a",), predicates={"R": {("a", "a"): 0}})
    k2 = crisp_complete(g4, ["a", "b"])
    incl = inclusion_map(point, k2)
    assert not is_elementary_up_to_depth(incl, point, k2, 1).ok
    monkeypatch.setattr(morphisms, "eval_formula", lambda *args: 0)
    with pytest.raises(InternalError):
        is_elementary_up_to_depth(incl, point, k2, 1)
