"""Diagrams read over their family's program.

A `Diagram` keeps family positions and their value bytes; `build_diagram`
and `models_diagram` read them through one value-class table per part.
These tests compare both with a copy of the tree path they replaced (one
formula per entry, deduplicated by hashing it into a `seen` set and valued
by `eval_formula`), and pin that the reader builds no tree per entry.
"""

import random
import sys
from dataclasses import replace
from itertools import product

import pytest

from gradedmt import corpus, diagrams, generation
from gradedmt.diagrams import (DIAG, ELDIAG, DiagramBounds, build_diagram, diagram_model_exists, expansion_sharp,
                               interpret_constants, models_diagram)
from gradedmt.errors import ChainMismatchError, SignatureError
from gradedmt.generation import atoms_over, generate_sentences, ground_terms, qf_matrices
from gradedmt.semantics import Structure, eval_formula
from gradedmt.syntax import Not, Signature, constant_name_for

SIG_PFC = Signature(predicates={"P": 1}, functions={"f": 1, "c": 0})  # a constant and a unary function
SIG_PF = Signature(predicates={"P": 1}, functions={"f": 1})


def tree_diagram(s, kind, bounds):
    """The (sentence, value) entries `build_diagram` recorded before it read
    family positions: atoms, then the quantifier-free family and for the
    elementary kind the generated sentences, each built as a tree, skipped
    when `seen` holds it, and valued by `eval_formula` on the expansion."""
    sharp = expansion_sharp(s)
    constants = tuple(constant_name_for(d) for d in s.domain)
    terms = ground_terms(sharp.sig, constants + tuple(s.sig.constants()), bounds.term_depth)
    entries, seen = [], set()

    def push(phi):
        if phi not in seen:
            seen.add(phi)
            entries.append((phi, eval_formula(phi, sharp)))

    for atom in atoms_over(s.sig, terms, labels=()):
        push(atom)
    if bounds.connective_depth > 0:
        for phi in qf_matrices(s.sig, s.chain.elements, [], bounds.connective_depth, extra_terms=terms):
            push(phi)
    if kind == ELDIAG:
        for phi in generate_sentences(sharp.sig, s.chain.elements, bounds.quantifier_depth, bounds.num_vars, terms):
            push(phi)
    return entries


def tree_models(t_expanded, entries):
    """(failing entry, actual value) of the first entry `eval_formula` values otherwise, or None."""
    for phi, value in entries:
        actual = eval_formula(phi, t_expanded)
        if actual != value:
            return (phi, value), actual
    return None


def random_structure(rnd, chain, sig, size):
    domain = tuple(f"a{i}" for i in range(size))
    return Structure(chain=chain, sig=sig, domain=domain,
                     predicates={p: {args: rnd.randrange(chain.size) for args in product(domain, repeat=a)}
                                 for p, a in sig.predicates.items()},
                     functions={f: {args: rnd.choice(domain) for args in product(domain, repeat=a)}
                                for f, a in sig.functions.items()})


# (signature, chain, domain size, term depth, connective depth, quantifier depth, variables), each up to ~10k entries
CASES = [
    (SIG_PFC, "godel3", 1, 0, 0, 0, 1),
    (SIG_PFC, "godel3", 2, 0, 0, 1, 1),
    (SIG_PFC, "godel3", 2, 0, 1, 1, 1),
    (SIG_PFC, "godel3", 1, 1, 0, 1, 1),
    (SIG_PFC, "godel3", 1, 1, 1, 0, 1),
    (SIG_PFC, "godel3", 2, 2, 0, 0, 1),
    (SIG_PF, "bool2", 1, 0, 2, 1, 1),
    (SIG_PF, "bool2", 1, 2, 1, 0, 1),
    (SIG_PF, "bool2", 1, 0, 1, 2, 1),
    (SIG_PF, "bool2", 1, 0, 0, 2, 2),
]


@pytest.mark.parametrize("case", range(len(CASES)))
def test_positions_read_match_the_tree_path(case):
    sig, chain, size, term_depth, connective_depth, quantifier_depth, num_vars = CASES[case]
    chain, rnd = getattr(corpus, chain)(), random.Random(case)
    source, target = random_structure(rnd, chain, sig, size), random_structure(rnd, chain, sig, 2)
    bounds = DiagramBounds(term_depth, connective_depth, quantifier_depth, num_vars)
    for kind in (DIAG, ELDIAG):
        diagram, want = build_diagram(source, kind, bounds), tree_diagram(source, kind, bounds)
        assert [(e.sentence, e.value) for e in diagram.entries] == want, kind
        assert len(diagram.values) == len(want)
        for _ in range(3):
            images = tuple(rnd.choice(target.domain) for _ in diagram.constants)
            expanded = interpret_constants(target, diagram, images)
            got, reference = models_diagram(expanded, diagram), tree_models(expanded, want)
            assert got.ok == (reference is None), (kind, images)
            if reference is not None:
                assert ((got.failing.sentence, got.failing.value), got.actual) == reference, (kind, images)


def test_entries_share_their_operands(g3, sig_p):
    s = Structure(chain=g3, sig=sig_p, domain=("a",), predicates={"P": {("a",): 1}})
    diagram = build_diagram(s, DIAG, DiagramBounds(connective_depth=1))
    (family, _, positions), = diagram.parts
    entries = diagram.entries
    assert list(positions) == list(range(len(entries)))
    rows = [(e.sentence, *row) for e, row in zip(entries, family.rows()) if row[0] is not None]
    assert rows and all(phi.body is entries[i].sentence if kind is Not else
                        phi.left is entries[i].sentence and phi.right is entries[j].sentence
                        for phi, kind, i, j in rows)


def test_the_reader_builds_and_evaluates_no_tree(monkeypatch, g3):
    rnd = random.Random(7)
    source, target = random_structure(rnd, g3, SIG_PFC, 2), random_structure(rnd, g3, SIG_PFC, 2)
    ran = []

    def recorded(name, original):
        return lambda *args, **kwargs: ran.append(name) or original(*args, **kwargs)

    for module in [m for n, m in sys.modules.items() if n.startswith("gradedmt")]:
        for name, original in (("eval_formula", eval_formula), ("qf_matrices", qf_matrices)):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, recorded(name, original))
    checks = []
    for kind, bounds in ((DIAG, DiagramBounds(connective_depth=1)), (ELDIAG, DiagramBounds(term_depth=1))):
        diagram = build_diagram(source, kind, bounds)
        checks.append(models_diagram(expansion_sharp(source), diagram).ok)
        checks.append(models_diagram(interpret_constants(target, diagram, ("a1", "a1")), diagram).ok)
        checks.append(diagram_model_exists(target, diagram)[0])
    # each own expansion models its diagram; sending both constants to a1 breaks c_a0 ~ c_a1
    assert ran == [] and checks[0] and checks[3] and not checks[1] and not checks[4]


def test_a_failing_check_reads_only_the_front_of_the_family(monkeypatch, g3, sig_p):
    # a target with P at bottom fails the first atom: the table names its 8 leaves, not the 52k-row family
    s = Structure(chain=g3, sig=sig_p, domain=("a", "b"), predicates={"P": {("a",): 2, ("b",): 0}})
    diagram = build_diagram(s, DIAG, DiagramBounds(connective_depth=2))
    (family, _, positions), = diagram.parts
    tables = []
    monkeypatch.setattr(diagrams, "ValueClasses", lambda *args: tables.append(generation.ValueClasses(*args))
                        or tables[-1])
    t = Structure(chain=g3, sig=sig_p, domain=("a", "b"), predicates={"P": {("a",): 0, ("b",): 0}})
    check = models_diagram(interpret_constants(t, diagram, ("a", "b")), diagram)
    assert not check.ok and check.failing == diagram.entries[0] and check.actual == 0
    assert len(positions) > 50_000 and len(tables[0].cls) == len(family.leaves) == 8


def _without_predicate(sig_p, g3):
    source = Structure(chain=g3, sig=sig_p, domain=("a",), predicates={"P": {("a",): 1}})
    target = Structure(chain=g3, sig=Signature(predicates={"Q": 1}), domain=("x",), predicates={"Q": {("x",): 1}})
    return source, target


def test_a_target_without_the_predicate_is_a_signature_error(g3, sig_p):
    source, target = _without_predicate(sig_p, g3)
    diagram = build_diagram(source, DIAG)
    with pytest.raises(SignatureError, match="structure does not interpret predicate 'P'"):
        models_diagram(interpret_constants(target, diagram, ("x",)), diagram)
    with pytest.raises(SignatureError, match="structure does not interpret predicate 'P'"):
        diagram_model_exists(target, diagram)


def test_check_diagram_map_on_a_target_without_the_predicate_exits_2(tmp_path, capsys, g3, sig_p):
    from gradedmt.cli import main
    from gradedmt.files import save_structure

    source, target = _without_predicate(sig_p, g3)
    save_structure(source, tmp_path / "s.json")
    save_structure(target, tmp_path / "t.json")
    argv = ["check-diagram", "--source", str(tmp_path / "s.json"), "--target", str(tmp_path / "t.json"), "--map", "a=x"]
    assert main(argv) == 2
    assert "structure does not interpret predicate 'P'" in capsys.readouterr().err


def _relabelled_chain(g3, sig_p):
    """P(a) = 1/2 over godel3, and P(x) = a over the same Goedel tables labelled 0 < a < 1."""
    source = Structure(chain=g3, sig=sig_p, domain=("a",), predicates={"P": {("a",): 1}})
    relabelled = replace(g3, elements=("0", "a", "1"), name="godel3-relabelled")
    return source, Structure(chain=relabelled, sig=sig_p, domain=("x",), predicates={"P": {("x",): 1}})


def test_a_target_over_other_chain_labels_is_a_chain_mismatch(g3, sig_p):
    source, target = _relabelled_chain(g3, sig_p)
    diagram = build_diagram(source, DIAG)
    with pytest.raises(ChainMismatchError, match="both structures must share one chain"):
        models_diagram(interpret_constants(target, diagram, ("x",)), diagram)
    with pytest.raises(ChainMismatchError, match="both structures must share one chain"):
        diagram_model_exists(target, diagram)


def _other_algebra(g3, l3, sig_p):
    """P(a) = 1/2 over godel3, and P(x) = 1/2 over lukasiewicz3: equal labels, other tables."""
    assert l3.elements == g3.elements and l3 != g3
    return tuple(Structure(chain=chain, sig=sig_p, domain=(d,), predicates={"P": {(d,): 1}})
                 for chain, d in ((g3, "a"), (l3, "x")))


def test_a_target_over_another_algebra_with_equal_labels_is_a_chain_mismatch(g3, l3, sig_p):
    source, target = _other_algebra(g3, l3, sig_p)
    diagram = build_diagram(source, DIAG, DiagramBounds(connective_depth=1))
    with pytest.raises(ChainMismatchError, match="both structures must share one chain"):
        models_diagram(interpret_constants(target, diagram, ("x",)), diagram)
    with pytest.raises(ChainMismatchError, match="both structures must share one chain"):
        diagram_model_exists(target, diagram)
    assert diagram.chain is g3 and models_diagram(interpret_constants(source, diagram, ("a",)), diagram)


def test_check_diagram_map_across_chains_exits_2(tmp_path, capsys, g3, sig_p):
    from gradedmt.cli import main
    from gradedmt.files import save_structure

    source, target = _relabelled_chain(g3, sig_p)
    save_structure(source, tmp_path / "s.json")
    save_structure(target, tmp_path / "t.json")
    argv = ["check-diagram", "--source", str(tmp_path / "s.json"), "--target", str(tmp_path / "t.json")]
    for extra in ([], ["--map", "a=x"]):  # the same verdict with and without a map
        assert main(argv + extra) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "both structures must share one chain" in captured.err


def test_check_diagram_map_across_algebras_with_equal_labels_exits_2(tmp_path, capsys, g3, l3, sig_p):
    from gradedmt.cli import main
    from gradedmt.files import save_structure

    for structure, name in zip(_other_algebra(g3, l3, sig_p), ("s.json", "t.json")):
        save_structure(structure, tmp_path / name)
    argv = ["check-diagram", "--source", str(tmp_path / "s.json"), "--target", str(tmp_path / "t.json"),
            "--connective-depth", "1"]
    for extra in ([], ["--map", "a=x"]):  # a Goedel diagram is never read with Lukasiewicz negation
        assert main(argv + extra) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "both structures must share one chain" in captured.err
