from itertools import permutations, product

import pytest

from gradedmt import corpus, diagrams
from gradedmt.algebra import identity_map
from gradedmt.diagrams import (
    DIAG,
    ELDIAG,
    DiagramBounds,
    build_diagram,
    cor1_sweep,
    diagram_embedding_equivalence,
    diagram_model_exists,
    expansion_sharp,
    interpret_constants,
    models_diagram,
    render_diagram,
)
from gradedmt.errors import BudgetError, SignatureError
from gradedmt.generation import structure_space
from gradedmt.morphisms import StructureMap, is_elementary_up_to_depth, is_embedding, search_structure_map
from gradedmt.parser import parse_formula, parse_theory
from gradedmt.semantics import Structure, eval_formula
from gradedmt.syntax import Eq, Signature


@pytest.fixture()
def one_element(g4, sig_p):
    return Structure(
        chain=g4, sig=sig_p, domain=("m",), predicates={"P": {("m",): g4.index("3/4")}}
    )


def test_expansion_sharp(struct_m):
    sharp = expansion_sharp(struct_m)
    assert set(sharp.sig.constants()) == {"c_n0", "c_n1", "c_n2"}
    for d in struct_m.domain:
        assert sharp.functions[f"c_{d}"][()] == d
    with pytest.raises(SignatureError):
        expansion_sharp(sharp)
    # the generated constants are ordinary ones: the signature equals one declaring them
    declared = Signature(predicates=struct_m.sig.predicates,
                         functions={**struct_m.sig.functions, "c_n0": 0, "c_n1": 0, "c_n2": 0})
    assert sharp.sig == declared


def test_diag_contains_atomic_entry(one_element, g4):
    diagram = build_diagram(one_element, DIAG)
    atom = parse_formula("P(c_m)", expansion_sharp(one_element).sig)
    entries = {e.sentence: e.value for e in diagram.entries}
    assert entries[atom] == g4.index("3/4")
    identity = parse_formula("c_m ~ c_m", expansion_sharp(one_element).sig)
    assert entries[identity] == g4.top


def test_eldiag_contains_quantified_entry(one_element, g4):
    diagram = build_diagram(one_element, ELDIAG, DiagramBounds(quantifier_depth=1))
    target = parse_formula("forall x1. P(x1)", expansion_sharp(one_element).sig)
    entries = {e.sentence: e.value for e in diagram.entries}
    assert entries[target] == g4.index("3/4")


def test_crisp_diagram_values(complete_graphs, g4):
    diagram = build_diagram(complete_graphs[3], DIAG)
    assert {e.value for e in diagram.entries} <= {g4.bottom, g4.top}


def test_diag_subset_of_eldiag(one_element):
    bounds = DiagramBounds(connective_depth=1, quantifier_depth=1)
    diag = build_diagram(one_element, DIAG, bounds)
    eldiag = build_diagram(one_element, ELDIAG, bounds)
    diag_entries = {(e.sentence, e.value) for e in diag.entries}
    eldiag_entries = {(e.sentence, e.value) for e in eldiag.entries}
    assert diag_entries <= eldiag_entries


def test_entries_reevaluate(one_element):
    sharp = expansion_sharp(one_element)
    for kind in (DIAG, ELDIAG):
        diagram = build_diagram(one_element, kind)
        for entry in diagram.entries:
            assert eval_formula(entry.sentence, sharp) == entry.value


def test_structure_models_own_diagram(struct_m):
    diagram = build_diagram(struct_m, DIAG)
    sharp = expansion_sharp(struct_m)
    assert models_diagram(sharp, diagram).ok


def test_other_value_fails_diagram(struct_m, struct_n, g4):
    diagram = build_diagram(struct_m, DIAG)
    for images in (("n0", "n1", "n2"), ("n0", "n0", "n0")):
        expanded = interpret_constants(struct_n, diagram, images)
        report = models_diagram(expanded, diagram)
        assert not report.ok
    found, _ = diagram_model_exists(struct_n, diagram)
    assert not found


def test_a_target_must_interpret_every_diagram_constant(struct_m, struct_n):
    diagram = build_diagram(struct_m, DIAG)
    with pytest.raises(SignatureError, match=r"target does not interpret function 'c_n0'/0"):
        models_diagram(struct_n, diagram)
    with pytest.raises(SignatureError, match=r"target does not interpret function 'c_n2'/0"):
        models_diagram(struct_n.with_constant("c_n0", "n0").with_constant("c_n1", "n0"), diagram)


def test_supergraph_models_subgraph_diagram(complete_graphs):
    k2, k3 = complete_graphs[2], complete_graphs[3]
    diagram = build_diagram(k2, DIAG)
    expanded = interpret_constants(k3, diagram, ("v0", "v1"))
    assert models_diagram(expanded, diagram).ok


def test_diagram_embedding_equivalence_examples(complete_graphs, g4, sig_p):
    k2, k3 = complete_graphs[2], complete_graphs[3]
    report = diagram_embedding_equivalence(k2, k3)
    assert report.diagram_side and report.embedding_side and report.agree
    one_m = Structure(chain=g4, sig=sig_p, domain=("a",), predicates={"P": {("a",): 2}})
    one_n = Structure(chain=g4, sig=sig_p, domain=("a",), predicates={"P": {("a",): 1}})
    report2 = diagram_embedding_equivalence(one_m, one_n)
    assert not report2.diagram_side and not report2.embedding_side and report2.agree


def test_elementary_kind_equivalence(complete_graphs):
    k2, k3 = complete_graphs[2], complete_graphs[3]
    bounds = DiagramBounds(quantifier_depth=1)
    report = diagram_embedding_equivalence(k2, k3, kind=ELDIAG, bounds=bounds)
    assert report.agree


def test_mini_sweep_agrees(b2, sig_r):
    report = cor1_sweep(b2, sig_r, 2, 2)
    assert report.ok
    assert report.instances == (2 + 2**4) ** 2
    assert report.both_true > 0 and report.both_false > 0


def test_render_diagram_parses_back(one_element):
    diagram = build_diagram(one_element, DIAG)
    text = render_diagram(diagram)
    sig = expansion_sharp(one_element).sig
    from gradedmt.syntax import expand_with_truth_constants

    licensed = expand_with_truth_constants(sig, one_element.chain)
    parsed = parse_theory(text, licensed)
    assert len(parsed) == len(diagram.entries)


def test_eldiag_returns_first_elementary_embedding(b2, sig_r):
    # a -> b into the transitive tournament t0 -> t1 -> t2: three edges
    # embed it, but only the one from the source to the sink is elementary
    def digraph(domain, edges):
        table = {(x, y): int((x, y) in edges) for x in domain for y in domain}
        return Structure(chain=b2, sig=sig_r, domain=domain, predicates={"R": table})

    s = digraph(("a", "b"), {("a", "b")})
    t = digraph(("t0", "t1", "t2"), {("t0", "t1"), ("t1", "t2"), ("t0", "t2")})
    embeddings = []
    for combo in permutations(t.domain, len(s.domain)):
        m = StructureMap(identity_map(b2), dict(zip(s.domain, combo)))
        if is_embedding(m, s, t).ok:
            embeddings.append((m, is_elementary_up_to_depth(m, s, t, 1).ok))
    first = next(m for m, elementary in embeddings if elementary)
    assert first.domain_map != embeddings[0][0].domain_map
    report = diagram_embedding_equivalence(s, t, kind=ELDIAG, bounds=DiagramBounds(quantifier_depth=1))
    assert report.diagram_side and report.embedding_side and report.agree
    assert report.embedding.domain_map == first.domain_map == {"a": "t0", "b": "t2"}
    assert report.embedding.kind == "embedding"


def test_eldiag_search_builds_its_family_once(fresh_fragments, b2, sig_r):
    # every candidate embedding is certified against one elementary family
    def digraph(domain, edges):
        table = {(x, y): int((x, y) in edges) for x in domain for y in domain}
        return Structure(chain=b2, sig=sig_r, domain=domain, predicates={"R": table})

    s = digraph(("a", "b"), {("a", "b")})
    t = digraph(("t0", "t1", "t2"), {("t0", "t1"), ("t1", "t2"), ("t0", "t2")})
    report = diagram_embedding_equivalence(s, t, kind=ELDIAG, bounds=DiagramBounds(quantifier_depth=1))
    assert report.embedding.domain_map == {"a": "t0", "b": "t2"}
    # the diagram's atoms and sentence family, then the one unquantified family every candidate reads
    assert fresh_fragments == [(("0", "1"), (), 0), (("0", "1"), ("x1", "x2"), 1, "quantified"),
                               (("0", "1"), ("x1", "x2"), 1)]
    incl = StructureMap(identity_map(b2), {"a": "t0", "b": "t2"})
    first = is_elementary_up_to_depth(incl, s, t, 1)
    assert is_elementary_up_to_depth(incl, s, t, 1) == first
    assert len(fresh_fragments) == 3


def _with_repeated_tuples(monkeypatch):
    # the fault: the pull-back reads every tuple of the target's domain, repeats included
    monkeypatch.setattr(diagrams, "permutations", lambda domain, m: product(domain, repeat=m))


def test_sweep_fails_when_map_search_drops_injectivity(monkeypatch, b2, sig_r):
    _with_repeated_tuples(monkeypatch)
    report = cor1_sweep(b2, sig_r, 2, 2)
    assert not report.ok
    assert all(emb and not diag for _, _, diag, emb in report.disagreements)


def test_sweep_fails_when_diagram_scan_skips_identity_checks(monkeypatch, b2, sig_r):
    entries = diagrams.Diagram.entries.fget

    def without_identities(d):
        return tuple(e for e in entries(d) if not isinstance(e.sentence, Eq))

    monkeypatch.setattr(diagrams.Diagram, "entries", property(without_identities))
    report = cor1_sweep(b2, sig_r, 2, 2)
    assert not report.ok
    assert all(diag and not emb for _, _, diag, emb in report.disagreements)


def test_sweep_fault_disagreements_are_pinned(monkeypatch, b2, sig_r):
    # the pairs the injectivity fault exposes, source-major in stream order
    def digraph(domain, values):
        pairs = [(x, y) for x in domain for y in domain]
        return Structure(chain=b2, sig=sig_r, domain=domain, predicates={"R": dict(zip(pairs, values))})

    _with_repeated_tuples(monkeypatch)
    report = cor1_sweep(b2, sig_r, 2, 2)
    assert len(report.disagreements) == 24
    assert (report.instances, report.both_true, report.both_false) == (324, 54, 246)
    assert report.disagreements[0] == (digraph(("d0", "d1"), (0, 0, 0, 0)), digraph(("t0",), (0,)), False, True)
    assert report.disagreements[-1] == (
        digraph(("d0", "d1"), (1, 1, 1, 1)), digraph(("t0", "t1"), (1, 1, 1, 0)), False, True
    )


def test_sweep_fails_when_the_pull_back_reads_arguments_reversed(monkeypatch, b2, sig_r):
    def reversed_arguments(block, t, where):
        g = dict(zip(block.domain, t))
        return [where[p, tuple(g[a] for a in reversed(args))] for p, args in block.slots]

    monkeypatch.setattr(diagrams, "_slot_positions", reversed_arguments)
    report = cor1_sweep(b2, sig_r, 2, 2)
    assert not report.ok


def _orbit_map(block):
    """Entry i is the least index of a structure that a relabelling of the
    domain fixing the constants makes of structure i."""
    k, n = block.chain.size, len(block.slots)
    weight = {slot: k ** (n - 1 - s) for s, slot in enumerate(block.slots)}
    fixed = {table[()] for table in block.functions.values()}
    free = [d for d in block.domain if d not in fixed]
    least = list(range(block.count))
    for image in permutations(free):
        pi = {**{d: d for d in block.domain}, **dict(zip(free, image))}
        index = [0]
        for p, args in block.slots:
            w = weight[p, tuple(pi[a] for a in args)]
            index = [x + d * w for x in index for d in range(k)]
        least = list(map(min, least, index))
    return least


def _class_pair_embedding_side(sources, targets):
    """The embedding side as the sweep decided it before: one map search per
    pair of relabelling classes, read back to every member pair."""
    classes = []
    for block in targets:
        members: dict = {}
        for i, least in enumerate(_orbit_map(block)):
            members[least] = members.get(least, 0) | 1 << block.position(i)
        classes += [(block.at(r), bits) for r, bits in members.items()]
    out = []
    for block in sources:
        embeds: dict = {}
        for least in _orbit_map(block):
            if least not in embeds:
                rep = block.at(least)
                embeds[least] = sum(bits for t, bits in classes
                                    if search_structure_map(rep, t, injective=True) is not None)
            out.append(embeds[least])
    return out


@pytest.mark.parametrize("chain, sig, sizes", [
    pytest.param("godel3", {"R": 2}, (1, 3), id="criterion-5-godel3-R/2"),
    pytest.param("bool2", {"R": 2}, (2, 2), id="bool2-R/2"),
    pytest.param("bool2", {"P": 1, "R": 2}, (2, 2), id="bool2-P/1+R/2"),
    pytest.param("godel3", {"P": 1, "R": 2}, (1, 2), id="godel3-P/1+R/2"),
    pytest.param("bool2", {"R": 2, "c": 0}, (2, 2), id="bool2-R/2+c"),
    pytest.param("godel3", {"P": 1, "c": 0, "e": 0}, (2, 3), id="godel3-P/1+c+e"),
])
def test_pull_back_pass_matches_the_class_pair_searches(chain, sig, sizes):
    chain = getattr(corpus, chain)()
    sig = Signature(predicates={p: a for p, a in sig.items() if a},
                    functions={c: 0 for c, a in sig.items() if not a})
    sources, targets = structure_space(sig, chain, sizes[0]), structure_space(sig, chain, sizes[1], "t")
    found = diagrams._embedding_side(sources, targets, sizes[0])
    assert found == _class_pair_embedding_side(sources, targets)
    assert 0 < sum(e.bit_count() for e in found) < len(found) * targets.size


def test_diagrams_name_the_signature_constants(b2):
    sig = Signature(predicates={"R": 2}, functions={"c": 0})
    s = Structure(chain=b2, sig=sig, domain=("a", "b"), functions={"c": {(): "b"}},
                  predicates={"R": {("a", "a"): 0, ("a", "b"): 1, ("b", "a"): 0, ("b", "b"): 0}})
    entries = {e.sentence: e.value for e in build_diagram(s, DIAG).entries}
    sharp = expansion_sharp(s).sig
    assert entries[parse_formula("c ~ c_b", sharp)] == b2.top
    assert entries[parse_formula("c ~ c_a", sharp)] == b2.bottom
    assert entries[parse_formula("R(c_a, c)", sharp)] == b2.top
    # without the constant's entries the diagram side missed 64 embeddings here
    report = cor1_sweep(b2, sig, 2, 2)
    assert report.ok
    assert (report.instances, report.both_true) == (1156, 98)


@pytest.mark.parametrize("sizes, phase, required", [
    ((2, 2), "diagram sweep", 324),
    ((1, 2), "structure enumeration", 18),
])
def test_sweep_budget_names_its_phase(monkeypatch, b2, sig_r, sizes, phase, required):
    # 18 structures of R/2 over bool2 up to size 2: the pair count, then the targets, overrun
    monkeypatch.setenv("GRADEDMT_BUDGET", str(required - 1))
    with pytest.raises(BudgetError) as err:
        cor1_sweep(b2, sig_r, *sizes)
    assert str(err.value) == f"{phase} needs {required} candidates, budget is {required - 1}"
    assert (err.value.required, err.value.budget) == (required, required - 1)
