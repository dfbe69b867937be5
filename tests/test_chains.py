import random
from itertools import product

import pytest

from gradedmt import chains, corpus, preservation
from gradedmt.chains import (
    ChainValidationError,
    check_tarski_vaught,
    normalize_chain,
    union_of_chain,
    validate_chain_of_structures,
)
from gradedmt.errors import InternalError
from gradedmt.generation import AssignmentGrid, ValueClasses, fragment, qf_matrices
from gradedmt.morphisms import induced_substructure, is_substructure
from gradedmt.semantics import Structure, eval_formula
from gradedmt.syntax import App, Signature
from tests.conftest import crisp_complete


def nested_complete_graphs(graphs):
    return [graphs[3], graphs[4], graphs[5]]


def test_valid_chain_of_complete_graphs(complete_graphs):
    chain = validate_chain_of_structures(nested_complete_graphs(complete_graphs))
    assert len(chain) == 3


def test_single_structure_chain(complete_graphs):
    chain = validate_chain_of_structures([complete_graphs[3]])
    union = union_of_chain(chain)
    assert union.domain == complete_graphs[3].domain
    assert union.predicates == complete_graphs[3].predicates


def test_reversed_chain_invalid(complete_graphs):
    with pytest.raises(ChainValidationError):
        validate_chain_of_structures([complete_graphs[4], complete_graphs[3]])


def _chain_over_two_algebras():
    """m0 over bool2 with P(a) = 1; m1 over godel3 with P(a) = 1 and P(b) = 1/2:
    m0 is a substructure of m1 (bool2 is a subalgebra of godel3), but the two
    members are over different algebras."""
    sig, b2, g3 = Signature(predicates={"P": 1}), corpus.bool2(), corpus.godel3()
    m0 = Structure(chain=b2, sig=sig, domain=("a",), predicates={"P": {("a",): b2.index("1")}})
    m1 = Structure(chain=g3, sig=sig, domain=("a", "b"),
                   predicates={"P": {("a",): g3.index("1"), ("b",): g3.index("1/2")}})
    return m0, m1


def test_a_member_over_another_algebra_is_rejected():
    m0, m1 = _chain_over_two_algebras()
    assert is_substructure(m0, m1).ok
    with pytest.raises(ChainValidationError, match="^member 1 is not over the algebra of member 0$"):
        validate_chain_of_structures([m0, m1])


@pytest.mark.parametrize("command", ["union", "check-chain"])
def test_the_cli_rejects_a_chain_over_two_algebras(command, tmp_path, capsys):
    from gradedmt.cli import main
    from gradedmt.files import save_structure

    for name, member in zip(("m0", "m1"), _chain_over_two_algebras()):
        save_structure(member, tmp_path / f"{name}.json")
    (tmp_path / "chain.json").write_text('["m0.json", "m1.json"]')
    assert main([command, "--chain", str(tmp_path / "chain.json")]) == 2
    assert capsys.readouterr().err == "error: member 1 is not over the algebra of member 0\n"


def test_union_is_last_member(complete_graphs):
    chain = validate_chain_of_structures(nested_complete_graphs(complete_graphs))
    union = union_of_chain(chain)
    k5 = complete_graphs[5]
    assert union.domain == k5.domain
    assert union.predicates == k5.predicates


def test_union_of_constant_predicate_chain(g4, sig_p):
    big = Structure(
        chain=g4,
        sig=sig_p,
        domain=("a", "b", "c"),
        predicates={"P": {(x,): 2 for x in "abc"}},
    )
    members = [induced_substructure(big, ["a"]), induced_substructure(big, ["a", "b"]), big]
    union = union_of_chain(validate_chain_of_structures(members))
    assert set(union.predicates["P"].values()) == {2}


def test_members_are_substructures_of_union(complete_graphs):
    chain = validate_chain_of_structures(nested_complete_graphs(complete_graphs))
    union = union_of_chain(chain)
    for member in chain.members:
        assert is_substructure(member, union).ok


def test_tarski_vaught_quantifier_free_clause(complete_graphs):
    chain = validate_chain_of_structures(nested_complete_graphs(complete_graphs))
    report = check_tarski_vaught(chain)
    assert report.quantifier_free_ok
    assert report.quantifier_free_checked > 0
    assert report.ok


def test_tarski_vaught_precheck_failure_skips_depth_clause(complete_graphs):
    chain = validate_chain_of_structures([complete_graphs[2], complete_graphs[3]])
    report = check_tarski_vaught(chain, depth=2)
    assert report.quantifier_free_ok
    assert report.elementary_precheck_ok is False
    assert report.depth_ok is None
    assert report.ok


def test_tarski_vaught_depth_clause_on_constant_chain(g4, sig_p):
    big = Structure(
        chain=g4,
        sig=sig_p,
        domain=("a", "b", "c", "d"),
        predicates={"P": {(x,): 2 for x in "abcd"}},
    )
    mid = induced_substructure(big, ["a", "b", "c"])
    chain = validate_chain_of_structures([mid, big], elementary_depth=2)
    report = check_tarski_vaught(chain, depth=2)
    assert report.elementary_precheck_ok and report.depth_ok and report.ok


def test_elementary_validation_rejects_counting_jump(g4, sig_p):
    big = Structure(
        chain=g4,
        sig=sig_p,
        domain=("a", "b"),
        predicates={"P": {(x,): 2 for x in "ab"}},
    )
    small = induced_substructure(big, ["a"])
    with pytest.raises(ChainValidationError):
        validate_chain_of_structures([small, big], elementary_depth=2)


def test_normalize_chain_relabels(complete_graphs, g4):
    other = crisp_complete(g4, ["x", "y", "z"])
    members = normalize_chain([complete_graphs[2], other])
    chain = validate_chain_of_structures(members)
    assert chain.members[0].domain == complete_graphs[2].domain
    assert set(chain.members[0].domain) <= set(chain.members[1].domain)


def test_normalize_chain_unembeddable(complete_graphs, g4, sig_r):
    edgeless = Structure(
        chain=g4,
        sig=sig_r,
        domain=("a", "b"),
        predicates={"R": {p: 0 for p in (("a", "a"), ("a", "b"), ("b", "a"), ("b", "b"))}},
    )
    with pytest.raises(ChainValidationError):
        normalize_chain([edgeless, complete_graphs[2]])


def test_tarski_vaught_replay_disagreement_raises(monkeypatch, complete_graphs):
    k2, k3 = complete_graphs[2], complete_graphs[3]
    chain = validate_chain_of_structures([k2, k3])
    # a union that differs from the last member reaches the replay, where
    # the stubbed evaluator cannot match both grid values
    looped = Structure(
        chain=k3.chain,
        sig=k3.sig,
        domain=k3.domain,
        predicates={"R": {p: k3.chain.top for p in k3.predicates["R"]}},
    )
    monkeypatch.setattr(chains, "union_of_chain", lambda c: looped)
    monkeypatch.setattr(chains, "eval_formula", lambda *args: 0)
    with pytest.raises(InternalError):
        check_tarski_vaught(chain)


def test_tarski_vaught_violations_match_a_per_tuple_recount(monkeypatch, complete_graphs):
    k2, k3 = complete_graphs[2], complete_graphs[3]
    chain = validate_chain_of_structures([k2, k3])
    # a union off its last member at a loop inside k2 and at an edge outside it
    table = dict(k3.predicates["R"])
    table[("v0", "v0")] = 1
    table[("v2", "v1")] = 2
    union = Structure(chain=k3.chain, sig=k3.sig, domain=k3.domain, predicates={"R": table})
    monkeypatch.setattr(chains, "union_of_chain", lambda c: union)
    report = check_tarski_vaught(chain)
    variables = ("x1", "x2")
    expected, checked = [], 0
    for index, member in enumerate(chain.members):
        for phi in qf_matrices(k3.sig, k3.chain.elements, variables, 1):
            for tup in product(member.domain, repeat=2):
                asg = dict(zip(variables, tup))
                checked += 1
                a, b = eval_formula(phi, member, asg), eval_formula(phi, union, asg)
                if a != b:
                    expected.append((index, phi, tup, a, b))
    assert {v[0] for v in expected} == {0, 1}
    assert report.qf_violations == expected
    assert report.quantifier_free_checked == checked
    assert not report.quantifier_free_ok and not report.ok


# --- part (a) against the whole-family check it replaced ---


def _reference_part_a(chain, matrix_depth=1, num_vars=2):
    """Part (a) run over the whole family: (violations, checked)."""
    union = chains.union_of_chain(chain)
    variables = tuple(f"x{i}" for i in range(1, num_vars + 1))
    first = chain.members[0]
    family = fragment(first.sig, first.chain.elements, variables, matrix_depth,
                      [App(c) for c in first.sig.constants()])
    grids = [AssignmentGrid(s, variables) for s in (*chain.members, union)]
    table = ValueClasses(family, grids)
    table.extend()
    cls, vecs = table.cls, table.vecs
    tuples = [tup for member in chain.members for tup in product(member.domain, repeat=num_vars)]
    n = len(tuples)
    cells = [n + grids[-1].cell(dict(zip(variables, tup))) for tup in tuples]
    bad = {c for c, vec in enumerate(vecs) if [vec[j] for j in cells] != list(vec[:n])}
    violations, end = [], 0
    for index in range(len(chain.members)):
        start, end = end, end + grids[index].size
        for k, c in enumerate(cls):
            if c in bad:
                row = vecs[c]
                violations += [(index, family.matrix(k), tuples[p], row[p], row[cells[p]])
                               for p in range(start, end) if row[p] != row[cells[p]]]
    return violations, n * len(cls)


def _assert_part_a_matches_the_whole_family(chain):
    report = check_tarski_vaught(chain)
    violations, checked = _reference_part_a(chain)
    assert report.qf_violations == violations
    assert report.quantifier_free_checked == checked
    assert report.quantifier_free_ok == (not violations) == report.ok
    return violations


def _with_fault(monkeypatch, chain, name, args):
    """Serve a union that is off the true one at one entry of one predicate."""
    true = union_of_chain(chain)
    table = dict(true.predicates[name])
    table[args] = (table[args] + 1) % true.chain.size
    union = Structure(chain=true.chain, sig=true.sig, domain=true.domain,
                      predicates={**true.predicates, name: table}, functions=true.functions)
    monkeypatch.setattr(chains, "union_of_chain", lambda c: union)


@pytest.fixture(scope="module")
def suite_chains():
    """The first chain `union_preservation_suite` builds for each of seeds 0-9."""
    built = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(preservation, "_check_instance", lambda *args: None)
        mp.setattr(preservation, "check_tarski_vaught",
                   lambda chain, **kw: built.append(chain) or check_tarski_vaught(chain, **kw))
        for seed in range(10):
            preservation.union_preservation_suite(seed, 1)
    return built


def _constant_chain():
    """P/1, R/2 and a constant c, over three nested domains that all hold c."""
    g3 = corpus.godel3()
    sig = Signature(predicates={"P": 1, "R": 2}, functions={"c": 0})
    rnd, domain = random.Random(3), ("a", "b", "c")
    big = Structure(chain=g3, sig=sig, domain=domain,
                    predicates={"P": {(d,): rnd.randrange(3) for d in domain},
                                "R": {args: rnd.randrange(3) for args in product(domain, repeat=2)}},
                    functions={"c": {(): "b"}})
    return validate_chain_of_structures([induced_substructure(big, ["b"]), induced_substructure(big, "ab"), big])


@pytest.mark.parametrize("sizes", [(2, 3), (3, 4, 5), (2, 3, 4, 5)])
def test_part_a_on_complete_graph_chains_matches_the_whole_family(complete_graphs, sizes):
    chain = validate_chain_of_structures([complete_graphs[k] for k in sizes])
    assert _assert_part_a_matches_the_whole_family(chain) == []


def test_part_a_on_suite_chains_matches_the_whole_family(suite_chains):
    assert len(suite_chains) == 10
    for chain in suite_chains + [_constant_chain()]:
        assert _assert_part_a_matches_the_whole_family(chain) == []


@pytest.mark.parametrize("args", [("v0", "v0"), ("v0", "v1"), ("v2", "v1")])  # a loop, an edge in k2, one out
def test_part_a_with_a_faulted_union_matches_the_whole_family(monkeypatch, complete_graphs, args):
    chain = validate_chain_of_structures([complete_graphs[2], complete_graphs[3]])
    _with_fault(monkeypatch, chain, "R", args)
    assert _assert_part_a_matches_the_whole_family(chain)


@pytest.mark.parametrize("name, place", [("R", "loop"), ("R", "edge"), ("P", "first")])
def test_part_a_with_faulted_suite_and_constant_unions_matches_the_whole_family(monkeypatch, suite_chains,
                                                                               name, place):
    for chain in suite_chains[:3] + [_constant_chain()]:
        first, last = chain.members[0].domain[0], chain.members[-1].domain[-1]
        args = {"loop": (first, first), "edge": (last, first), "first": (first,)}[place]
        _with_fault(monkeypatch, chain, name, args)
        assert _assert_part_a_matches_the_whole_family(chain)


def test_tarski_vaught_evaluates_only_the_leaves_of_a_valid_chain(monkeypatch, suite_chains):
    asked, extend = [], ValueClasses.extend

    def recording(table, n=None):
        asked.append((len(table.family.codes), n))
        return extend(table, n)

    monkeypatch.setattr(ValueClasses, "extend", recording)
    chain = suite_chains[0]
    report = check_tarski_vaught(chain)
    assert asked == [(1518, 12)]  # P/1, R/2, two variables, depth 1: the first 12 matrices are its leaves
    assert report.quantifier_free_ok
    assert report.quantifier_free_checked == 1518 * sum(m.size ** 2 for m in chain.members)


def test_the_union_suite_validates_each_chain_once(monkeypatch):
    """Five chains of three members: two substructure checks each, made once,
    by `StructureChain`."""
    calls, check = [], chains.is_substructure
    monkeypatch.setattr(chains, "is_substructure", lambda sub, sup: calls.append(1) or check(sub, sup))
    preservation.union_preservation_suite(0, 5)
    assert len(calls) == 10
