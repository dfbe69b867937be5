import itertools
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from gradedmt import corpus, morphisms
from gradedmt.chains import union_of_chain, validate_chain_of_structures
from gradedmt.errors import FormatError, InternalError, PreconditionError, SignatureError
from gradedmt.generation import qf_matrices
from gradedmt.morphisms import (
    enumerate_substructures,
    induced_substructure,
    is_elementary_up_to_depth,
    is_embedding,
    is_substructure,
)
from gradedmt.parser import parse_formula, render_formula
from gradedmt.preservation import (
    AmalgamInstance,
    FormulaBounds,
    implies_exists_n,
    reproduce_counterexample,
    search_amalgam,
    substructure_preservation_suite,
    union_preservation_suite,
    universal_consequences_bounded,
    universal_transport_ok,
)
from gradedmt.semantics import Structure, eval_formula, satisfies
from gradedmt.syntax import EXISTS, FORALL, Forall, Signature, expand_with_truth_constants, free_variables


def expanded_pair():
    m, n = corpus.structure_m(), corpus.structure_n()
    sig = expand_with_truth_constants(m.sig, m.chain)
    return replace(m, sig=sig), replace(n, sig=sig)


def test_exists_flow_reflexive(struct_m):
    assert implies_exists_n(struct_m, struct_m, (), 1).ok


def test_exists_flow_documented_separator():
    m, n = expanded_pair()
    report = implies_exists_n(m, n, (), 1)
    assert not report.ok
    assert render_formula(report.separator) == "exists x1 . P(x1) <-> val(3/4)"
    assert satisfies(report.separator, m) and not satisfies(report.separator, n)


def test_exists_flow_substructure_property(g4, sig_r):
    # a substructure with its own elements as parameters always flows into
    # the superstructure: quantifier-free values agree and sup grows
    rnd = random.Random(13)
    dom = ("a", "b", "c")
    for _ in range(15):
        table = {p: rnd.randrange(4) for p in itertools.product(dom, repeat=2)}
        big = Structure(chain=g4, sig=sig_r, domain=dom, predicates={"R": table})
        small = induced_substructure(big, ["a", "b"])
        report = implies_exists_n(small, big, ("a", "b"), 1)
        assert report.ok, render_formula(report.separator)


def test_exists_flow_forces_quantifier_free_agreement(g4, sig_p):
    # when the relation holds with truth constants in the signature,
    # quantifier-free formulas take equal values at the parameters
    sig = expand_with_truth_constants(sig_p, g4)
    rnd = random.Random(31)
    bounds = FormulaBounds(matrix_depth=2, num_vars=1)
    matrices = qf_matrices(sig, g4.elements, ["p1"], 1)
    hits = 0
    for _ in range(40):
        left = Structure(
            chain=g4, sig=sig, domain=("a",), predicates={"P": {("a",): rnd.randrange(4)}}
        )
        right = Structure(
            chain=g4, sig=sig, domain=("a",), predicates={"P": {("a",): rnd.randrange(4)}}
        )
        if not implies_exists_n(left, right, ("a",), 1, bounds).ok:
            continue
        hits += 1
        for phi in matrices:
            assert eval_formula(phi, left, {"p1": "a"}) == eval_formula(
                phi, right, {"p1": "a"}
            )
    assert hits > 0


def test_preserved_under_substructures_checker(g4, sig_p, complete_graphs):
    # satisfaction above must carry to every substructure at its own tuples:
    # it fails for an existential sentence, holds for a universal one and an open one
    exists_p = parse_formula("exists x. P(x)", sig_p)
    witness_structure = Structure(
        chain=g4,
        sig=sig_p,
        domain=("a", "b"),
        predicates={"P": {("a",): g4.top, ("b",): 0}},
    )
    assert satisfies(exists_p, witness_structure)
    assert not satisfies(exists_p, induced_substructure(witness_structure, ["b"]))
    universal = parse_formula("forall x y. (R(x,y) -> R(y,x))", Signature(predicates={"R": 2}))
    assert satisfies(universal, complete_graphs[4])
    assert all(satisfies(universal, small) for small in enumerate_substructures(complete_graphs[4]))
    open_qf = parse_formula("P(x) -> P(x)", sig_p)
    assert all(satisfies(open_qf, small, (d,)) for small in enumerate_substructures(witness_structure)
               for d in small.domain)


def test_preserved_under_unions_checker(complete_graphs, sig_r):
    degree_two = parse_formula(
        "forall x. exists y z. (not (y ~ z) /\\ R(x,y) /\\ R(x,z))", sig_r
    )
    chain = validate_chain_of_structures(
        [complete_graphs[3], complete_graphs[4], complete_graphs[5]]
    )
    union = union_of_chain(chain)
    assert all(satisfies(degree_two, member) for member in chain.members)
    assert satisfies(degree_two, union)
    # members not all satisfying: the hypothesis of union preservation fails
    all_edges = parse_formula("forall x y. R(x,y)", sig_r)
    assert not all(satisfies(all_edges, member) for member in chain.members)


def test_universal_consequences(g4, b2, sig_r):
    theory, sig = corpus.weighted_graph_theory()
    out = universal_consequences_bounded(
        theory, sig, g4, 2, FormulaBounds(matrix_depth=1, num_vars=2)
    )
    reversed_symmetry = parse_formula("forall x1 x2. (R(x2,x1) -> R(x1,x2))", sig)
    assert reversed_symmetry in out
    # the theory members themselves are within the generated family
    assert parse_formula("forall x1. (R(x1,x1) -> val(0))", sig) in out
    assert parse_formula(
        "forall x1 x2. (R(x1,x2) -> R(x2,x1))", sig
    ) in out
    empty_out = universal_consequences_bounded(
        [], Signature(predicates={"R": 2}), b2, 2, FormulaBounds(num_vars=1)
    )
    reflexivity = parse_formula("forall x1. (x1 ~ x1)", sig)
    assert reflexivity in empty_out
    for phi in empty_out:
        from gradedmt.consequence import bounded_consequence

        assert bounded_consequence([], phi, Signature(predicates={"R": 2}), b2, 2).holds


def test_amalgam_trivial_instance():
    p3 = corpus.path3()
    instance = AmalgamInstance(left=p3, right=p3, common=p3, generators=tuple(p3.domain))
    result = search_amalgam(instance, 1, 3)
    assert result.found and result.amalgam.size == 3
    assert result.left_map.domain_map == {d: d for d in p3.domain}
    assert is_embedding(result.left_map, p3, result.amalgam).ok
    assert is_substructure(p3, result.amalgam).ok
    assert is_elementary_up_to_depth(result.right_map, p3, result.amalgam, 2).ok


def test_amalgam_collapse_into_right():
    pair, p3 = corpus.edgeless2(), corpus.path3()
    result = search_amalgam(AmalgamInstance(left=pair, right=p3), 1, 4)
    assert result.found and result.amalgam.size == 3
    assert result.left_map.domain_map == {"m0": "n0", "m1": "n2"}


def test_amalgam_growth_instance():
    triple, p3 = corpus.edgeless3(), corpus.path3()
    result = search_amalgam(AmalgamInstance(left=triple, right=p3), 1, 4)
    assert result.found and result.amalgam.size == 4
    # the fresh element attaches to the path's middle vertex, keeping the
    # inclusion of the path elementary at depth 2
    amalgam = result.amalgam
    fresh = [d for d in amalgam.domain if d not in p3.domain][0]
    assert amalgam.predicates["R"][(fresh, "n1")] == amalgam.chain.top
    assert is_embedding(result.left_map, triple, amalgam).ok
    assert is_elementary_up_to_depth(result.right_map, p3, amalgam, 2).ok


def test_amalgam_identical_rows_collapses_to_size_one(b2):
    sig = Signature(predicates={"P": 1})
    left = Structure(chain=b2, sig=sig, domain=("m",), predicates={"P": {("m",): 1}})
    right = Structure(chain=b2, sig=sig, domain=("n",), predicates={"P": {("n",): 1}})
    result = search_amalgam(AmalgamInstance(left=left, right=right), 1, 2)
    assert result.found and result.amalgam.size == 1
    assert result.left_map.domain_map == {"m": "n"}


def test_amalgam_n2_with_common_point():
    p3 = corpus.path3()
    common = induced_substructure(p3, ["n0"])
    instance = AmalgamInstance(left=p3, right=p3, common=common, generators=("n0",))
    result = search_amalgam(instance, 2, 3)
    assert result.found
    assert result.left_map.domain_map["n0"] == "n0"
    assert is_embedding(result.left_map, p3, result.amalgam).ok
    assert is_elementary_up_to_depth(result.right_map, p3, result.amalgam, 2).ok


def test_amalgam_precondition_error_with_documented_sentence():
    m, n = expanded_pair()
    with pytest.raises(PreconditionError) as err:
        search_amalgam(AmalgamInstance(left=m, right=n), 1, 3)
    witness = err.value.witness
    assert render_formula(witness.separator) == "exists x1 . P(x1) <-> val(3/4)"


def test_amalgam_inconclusive_is_not_refutation(b2):
    # two-block transfer within the default bounds holds for this pair even
    # though no amalgam exists at these sizes: the search must stay agnostic
    result = search_amalgam(
        AmalgamInstance(left=corpus.edgeless2(), right=corpus.edgeless3()), 2, 2
    )
    assert result.status == "none-within-bounds"
    assert result.amalgam is None


def test_amalgam_right_side_with_a_proper_function_is_an_input_error(b2, tmp_path, capsys):
    from gradedmt.cli import main
    from gradedmt.errors import GradedmtError
    from gradedmt.files import save_structure

    left, edgeless = corpus.edgeless2(), corpus.edgeless3()
    sig = Signature(predicates={"R": 2}, functions={"f": 1})
    right = Structure(chain=b2, sig=sig, domain=edgeless.domain, predicates=edgeless.predicates,
                      functions={"f": {(d,): d for d in edgeless.domain}})
    with pytest.raises(GradedmtError):
        search_amalgam(AmalgamInstance(left=left, right=right), 1, 4)
    save_structure(right, tmp_path / "right.json")
    argv = ["amalgamate", "--left", str(corpus.data_dir() / "edgeless2.json"),
            "--right", str(tmp_path / "right.json"), "--n", "1", "--max-size", "4"]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_amalgam_instance_validation(b2):
    sig = Signature(predicates={"P": 1})
    left = Structure(chain=b2, sig=sig, domain=("m",), predicates={"P": {("m",): 1}})
    right = Structure(chain=b2, sig=sig, domain=("n",), predicates={"P": {("n",): 0}})
    with pytest.raises(FormatError):
        AmalgamInstance(left=left, right=right, generators=("m",))
    with pytest.raises(FormatError):
        AmalgamInstance(left=left, right=right, common=left)  # no generators
    with pytest.raises(FormatError):
        AmalgamInstance(left=left, right=right, common=left, generators=("m",))


def test_counterexample_report():
    report = reproduce_counterexample()
    assert report.ok
    assert report.value_in_m == "3/4" and report.value_in_n == "1/2"
    assert report.expanded_value_in_m == "1" and report.expanded_value_in_n == "1/2"
    assert report.base_equivalence_holds
    assert report.substructures_of_m == 7 == report.substructures_satisfying
    assert report.expanded_separator is not None


def test_suites_small():
    positive = substructure_preservation_suite(3, 25)
    assert positive.ok and positive.instances == 25
    negative = substructure_preservation_suite(3, 25, lead=EXISTS, claim="control")
    assert len(negative.violations) >= 1
    unions = union_preservation_suite(3, 10)
    assert unions.ok and unions.instances == 10


def test_union_suite_builds_each_union_once(monkeypatch):
    from gradedmt import chains, preservation

    union_of_chain, built = chains.union_of_chain, []

    def counted(chain):
        built.append(chain)
        return union_of_chain(chain)

    monkeypatch.setattr(chains, "union_of_chain", counted)  # the one module that builds unions
    assert "union_of_chain" not in vars(preservation)
    assert union_preservation_suite(3, 4).instances == len(built) == 4


def test_union_suite_fails_on_a_union_with_one_flipped_entry(monkeypatch, capsys):
    from gradedmt import chains
    from gradedmt.cli import main

    union_of_chain = chains.union_of_chain

    def flipped(chain):
        union = union_of_chain(chain)
        table = dict(union.predicates["P"])
        args = min(table)
        table[args] = (table[args] + 1) % union.chain.size
        return replace(union, predicates={**union.predicates, "P": table})

    monkeypatch.setattr(chains, "union_of_chain", flipped)
    report = union_preservation_suite(3, 4)
    assert not report.ok
    assert any(v.context.startswith("quantifier-free union clause") for v in report.violations)
    assert main(["verify", "--suite", "unions-chain-lemma", "--seed", "3", "--instances", "4"]) == 1
    assert "suite unions-chain-lemma: FAIL" in capsys.readouterr().out


def test_amalgamation_suite_fails_when_no_transfer_check_separates(monkeypatch, capsys):
    import json

    from gradedmt import preservation
    from gradedmt.cli import main

    first_transfer_failure = morphisms.first_transfer_failure

    def never_separates(*args, **kwargs):
        return first_transfer_failure(*args, **kwargs)[0], None, None

    for module in (morphisms, preservation):
        monkeypatch.setattr(module, "first_transfer_failure", never_separates)
    assert main(["verify", "--suite", "amalgamation", "--format", "json"]) == 1
    report = json.loads(capsys.readouterr().out)["report"]
    assert report["ok"] is False and report["checks"]["truth_constant_precondition_fails"] is False


def test_suite_reports_serialize():
    import json

    report = substructure_preservation_suite(5, 5)
    payload = report.as_dict()
    assert json.dumps(payload, sort_keys=True)
    assert payload["seed"] == 5 and payload["ok"] is True


def test_suite_sentences_classify_within_target():
    from gradedmt.preservation import _SUITE_SIG, _sentences
    from gradedmt.syntax import FORALL, PrenexClass, classify_prenex

    chain = corpus.godel4()
    sig = expand_with_truth_constants(_SUITE_SIG, chain)
    for lead, blocks in ((FORALL, 1), (FORALL, 2)):
        for _, _, phi in _sentences(sig, chain, lead, blocks, FormulaBounds(max_candidates=40))[2]:
            assert classify_prenex(phi).within(PrenexClass(lead, blocks))


@pytest.mark.parametrize("cap", [0, 1, 7])
def test_fragment_suites_read_one_sentence_list(cap):
    from gradedmt.preservation import _SUITE_SIG, _sentences
    from gradedmt.syntax import FORALL, Val

    chain, bounds = corpus.godel3(), FormulaBounds(max_candidates=cap)
    sig = expand_with_truth_constants(_SUITE_SIG, chain)
    sentences = [phi for _, _, phi in _sentences(sig, chain, FORALL, 1, bounds)[2]]
    assert len(sentences) == cap
    # a theory without models has every candidate sentence as a consequence
    assert universal_consequences_bounded([Val("0")], sig, chain, 1, bounds) == sentences


@pytest.mark.parametrize("lead, blocks", [(FORALL, 1), (EXISTS, 1), (FORALL, 2)])
def test_suite_value_class_reads_match_plain_evaluator(lead, blocks):
    """Each (sentence, structure) pair the suites read by value class is top
    exactly when `eval_formula` says so: seeded structures of 1-4 elements
    over all 9 suite chains, and on one chain its members and their union."""
    from gradedmt.preservation import (
        PreservationReport, _SUITE_BOUNDS, _SUITE_SIG, _chain_pool, _check_instance, _sentences,
    )

    rnd = random.Random(23)
    for n, chain in enumerate(_chain_pool()):
        structures = []
        for size in (4, 3, 2, 1):
            domain = tuple(f"d{i}" for i in range(size))
            structures.append(Structure(chain=chain, sig=_SUITE_SIG, domain=domain, predicates={
                name: {args: rnd.randrange(chain.size) for args in itertools.product(domain, repeat=arity)}
                for name, arity in _SUITE_SIG.predicates.items()}))
        if n == 4:
            members = [induced_substructure(structures[0], ("d0", "d1")[:j]) for j in (1, 2)] + structures[:1]
            structures += [*members, union_of_chain(validate_chain_of_structures(members))]
        rows = _sentences(expand_with_truth_constants(_SUITE_SIG, chain), chain, lead, blocks, _SUITE_BOUNDS)[2]
        # with no source every row is read on every target, and each one not top is a violation
        report = PreservationReport("differential")
        _check_instance(report, chain, lead, blocks, [], [(s, str(i)) for i, s in enumerate(structures)])
        assert report.checks == len(rows) * len(structures)
        assert [(v.context, v.formula) for v in report.violations] == [
            (str(i), phi) for i, s in enumerate(structures) for _, _, phi in rows if eval_formula(phi, s) != chain.top]
        # with a source, a target is read only for the rows top on the source
        big, rest = structures[0], structures[1:]
        report = PreservationReport("differential")
        _check_instance(report, chain, lead, blocks, [big], [(s, str(i)) for i, s in enumerate(rest)])
        kept = [phi for _, _, phi in rows if eval_formula(phi, big) == chain.top]
        assert report.checks == len(kept) * len(rest)
        assert [(v.context, v.formula) for v in report.violations] == [
            (str(i), phi) for i, s in enumerate(rest) for phi in kept if eval_formula(phi, s) != chain.top]


def test_exists_flow_replay_disagreement_raises(monkeypatch, g4, sig_p):
    left = Structure(chain=g4, sig=sig_p, domain=("a",), predicates={"P": {("a",): g4.top}})
    right = Structure(chain=g4, sig=sig_p, domain=("a",), predicates={"P": {("a",): 0}})
    assert not implies_exists_n(left, right, (), 1).ok
    monkeypatch.setattr(morphisms, "eval_formula", lambda *args: g4.top)
    with pytest.raises(InternalError):
        implies_exists_n(left, right, (), 1)


def test_exists_flow_needs_the_right_side_to_interpret_the_left_signature(g4, capsys, tmp_path):
    from gradedmt.cli import main
    from gradedmt.files import save_structure

    left = Structure(chain=g4, sig=Signature(predicates={"P": 1, "Q": 1}), domain=("a",),
                     predicates={"P": {("a",): g4.top}, "Q": {("a",): 0}})
    right = Structure(chain=g4, sig=Signature(predicates={"P": 1}), domain=("a",),
                      predicates={"P": {("a",): 0}})
    with pytest.raises(SignatureError):
        implies_exists_n(left, right, (), 1)
    save_structure(left, tmp_path / "left.json")
    save_structure(right, tmp_path / "right.json")
    assert main(["implies-exists", "--left", str(tmp_path / "left.json"),
                 "--right", str(tmp_path / "right.json")]) == 2
    assert "does not interpret predicate 'Q'" in capsys.readouterr().err


def test_universal_transport_replay_disagreement_raises(monkeypatch, g4, sig_p):
    point = Structure(chain=g4, sig=sig_p, domain=("a",), predicates={"P": {("a",): g4.top}})
    pair = Structure(chain=g4, sig=sig_p, domain=("a", "b"),
                     predicates={"P": {("a",): g4.top, ("b",): 0}})
    # "forall x1 . P(x1)" is top on the point only
    assert universal_transport_ok({"a": "a"}, point, point, FormulaBounds())
    assert not universal_transport_ok({"a": "a"}, point, pair, FormulaBounds())
    monkeypatch.setattr(morphisms, "eval_formula", lambda *args: g4.top)
    with pytest.raises(InternalError):
        universal_transport_ok({"a": "a"}, point, pair, FormulaBounds())


SIG_PR = Signature(predicates={"P": 1, "R": 2})


@st.composite
def transport_instances(draw):
    """A source and a target P/R structure of 1-3 elements over one chain,
    and a map between their domains.  Half the targets are the source with
    at most one entry changed, and half of those maps are the identity, so
    that both verdicts occur."""
    chain = draw(st.sampled_from([corpus.bool2(), corpus.godel3()]))
    values = st.integers(0, chain.size - 1)

    def structure():
        domain = tuple(f"d{i}" for i in range(draw(st.integers(1, 3))))
        predicates = {name: {args: draw(values) for args in itertools.product(domain, repeat=arity)}
                      for name, arity in SIG_PR.predicates.items()}
        return Structure(chain=chain, sig=SIG_PR, domain=domain, predicates=predicates)

    source = structure()
    if not draw(st.booleans()):
        target = structure()
    else:
        name = draw(st.sampled_from(sorted(SIG_PR.predicates)))
        table = dict(source.predicates[name])
        table[draw(st.sampled_from(sorted(table)))] = draw(values)
        target = replace(source, predicates={**source.predicates, name: table})
        if draw(st.booleans()):
            return {d: d for d in source.domain}, source, target
    return {d: draw(st.sampled_from(target.domain)) for d in source.domain}, source, target


def universal_transport_reference(g, source, target, bounds) -> bool:
    """Each generated matrix under one universal block over the quantifiable
    variables it contains, evaluated tuple by tuple with `eval_formula`."""
    qvars = [f"x{i}" for i in range(1, bounds.num_vars + 1)]
    pvars = [f"p{i}" for i in range(1, bounds.num_vars + 1)]
    top = source.chain.top
    for matrix in qf_matrices(source.sig, source.chain.elements, qvars + pvars, bounds.matrix_depth):
        free = free_variables(matrix)
        bound = [v for v in qvars if v in free]
        if not bound:
            continue
        phi = matrix
        for v in reversed(bound):
            phi = Forall(v, phi)
        params = sorted(free.difference(bound))
        for tup in itertools.product(source.domain, repeat=len(params)):
            asg = dict(zip(params, tup))
            if (eval_formula(phi, source, asg) == top
                    and eval_formula(phi, target, {p: g[d] for p, d in asg.items()}) != top):
                return False
    return True


@settings(max_examples=60, deadline=None)
@given(instance=transport_instances(),
       bounds=st.sampled_from([FormulaBounds(num_vars=2, matrix_depth=0), FormulaBounds(num_vars=1)]))
def test_universal_transport_matches_plain_evaluator(instance, bounds):
    g, source, target = instance
    assert universal_transport_ok(g, source, target, bounds) == universal_transport_reference(
        g, source, target, bounds)
