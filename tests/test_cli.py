import argparse
import json
from dataclasses import replace
from pathlib import Path

import jsonschema
import pytest

from gradedmt import algebra, corpus, diagrams, parser, preservation
from gradedmt.cli import main
from gradedmt.corpus import data_dir

DATA = data_dir()
SCHEMA = json.loads(
    (Path(__file__).resolve().parents[1] / "src/gradedmt/schemas/report.schema.json").read_text()
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--format", "json")
    payload = json.loads(out)
    jsonschema.validate(payload, SCHEMA)
    return code, payload


def test_eval_prints_value(capsys):
    code, out = run(
        capsys,
        "eval",
        "--structure", str(DATA / "structure_m.json"),
        "--formula", "forall x. P(x)",
    )
    assert code == 0
    assert out.strip() == "3/4"


def test_eval_with_binding(capsys):
    code, out = run(
        capsys,
        "eval",
        "--structure", str(DATA / "structure_m.json"),
        "--formula", "P(x)",
        "--bind", "x=n0",
    )
    assert code == 0 and out.strip() == "3/4"


def test_eval_with_truth_constants(capsys):
    code, out = run(
        capsys,
        "eval",
        "--structure", str(DATA / "structure_m.json"),
        "--formula", "val(3/4) -> forall x. P(x)",
        "--truth-constants",
    )
    assert code == 0 and out.strip() == "1"


def test_classify(capsys):
    code, out = run(capsys, "classify", "--formula", "forall x. exists y. R(x,y)")
    assert code == 0 and out.strip() == "Forall(2)"


def test_check_sub(capsys, tmp_path, complete_graphs):
    from gradedmt.files import save_structure

    save_structure(complete_graphs[2], tmp_path / "k2.json")
    save_structure(complete_graphs[3], tmp_path / "k3.json")
    code, payload = run_json(
        capsys, "check-sub", "--sub", str(tmp_path / "k2.json"), "--super", str(tmp_path / "k3.json")
    )
    assert code == 0 and payload["ok"]
    code2, _ = run_json(
        capsys, "check-sub", "--sub", str(tmp_path / "k3.json"), "--super", str(tmp_path / "k2.json")
    )
    assert code2 == 1


def test_enum_subs(capsys):
    code, payload = run_json(capsys, "enum-subs", "--structure", str(DATA / "triangle.json"))
    assert code == 0 and payload["report"]["count"] == 7


def test_find_embed_and_hom(capsys):
    code, payload = run_json(
        capsys,
        "find-embed",
        "--source", str(DATA / "edgeless2.json"),
        "--target", str(DATA / "path3.json"),
    )
    assert code == 0 and payload["report"]["found"]
    code2, _ = run_json(
        capsys,
        "find-embed",
        "--source", str(DATA / "edgeless3.json"),
        "--target", str(DATA / "path3.json"),
    )
    assert code2 == 1


def test_diagram_and_check_diagram(capsys):
    code, payload = run_json(
        capsys, "diagram", "--structure", str(DATA / "structure_m.json"), "--kind", "eldiag"
    )
    assert code == 0 and payload["report"]["entries"] > 0
    code2, payload2 = run_json(
        capsys,
        "check-diagram",
        "--source", str(DATA / "edgeless2.json"),
        "--target", str(DATA / "path3.json"),
    )
    assert code2 == 0
    assert payload2["report"]["diagram_side"] and payload2["report"]["embedding_side"]
    code3, _ = run_json(
        capsys,
        "check-diagram",
        "--source", str(DATA / "structure_m.json"),
        "--target", str(DATA / "structure_n.json"),
        "--map", "n0=n0,n1=n1,n2=n2",
    )
    assert code3 == 1


def test_equiv_subcommand(capsys):
    code, payload = run_json(
        capsys,
        "equiv",
        "--left", str(DATA / "structure_m.json"),
        "--right", str(DATA / "structure_n.json"),
        "--depth", "2",
    )
    assert code == 0 and payload["report"]["equivalent"]
    code2, payload2 = run_json(
        capsys,
        "equiv",
        "--left", str(DATA / "structure_m.json"),
        "--right", str(DATA / "structure_n.json"),
        "--depth", "2",
        "--truth-constants",
    )
    assert code2 == 1 and payload2["report"]["separator"]


def test_union_and_check_chain(capsys, tmp_path, complete_graphs):
    from gradedmt.files import save_structure

    for n in (3, 4, 5):
        save_structure(complete_graphs[n], tmp_path / f"k{n}.json")
    chain_path = tmp_path / "chain.json"
    chain_path.write_text(json.dumps(["k3.json", "k4.json", "k5.json"]))
    code, payload = run_json(capsys, "union", "--chain", str(chain_path), "--save", str(tmp_path / "u.json"))
    assert code == 0 and len(payload["report"]["domain"]) == 5
    assert (tmp_path / "u.json").exists()
    code2, payload2 = run_json(capsys, "check-chain", "--chain", str(chain_path))
    assert code2 == 0 and payload2["report"]["quantifier_free_ok"]


def test_implies_exists_subcommand(capsys):
    code, payload = run_json(
        capsys,
        "implies-exists",
        "--left", str(DATA / "structure_m.json"),
        "--right", str(DATA / "structure_n.json"),
        "--n", "1",
        "--truth-constants",
    )
    assert code == 1
    assert payload["report"]["separator"] == "exists x1 . P(x1) <-> val(3/4)"


def test_a_renamed_copy_of_a_chain_is_the_same_chain(capsys, tmp_path):
    tables = json.loads((DATA / "bool2.json").read_text())
    del tables["name"]  # the copy is named after its file, "crisp"
    (tmp_path / "crisp.json").write_text(json.dumps(tables))
    source = json.loads((DATA / "edgeless2.json").read_text())
    (tmp_path / "edgeless2.json").write_text(json.dumps({**source, "algebra": "crisp.json"}))
    for command, first, second in (("implies-exists", "--left", "--right"),
                                   ("find-embed", "--source", "--target"),
                                   ("check-diagram", "--source", "--target")):
        target = str(DATA / "path3.json")
        shared = run_json(capsys, command, first, str(DATA / "edgeless2.json"), second, target)
        renamed = run_json(capsys, command, first, str(tmp_path / "edgeless2.json"), second, target)
        assert renamed == shared and shared[0] in (0, 1)


def test_amalgamate_subcommand(capsys):
    code, payload = run_json(
        capsys,
        "amalgamate",
        "--left", str(DATA / "edgeless3.json"),
        "--right", str(DATA / "path3.json"),
        "--n", "1",
        "--max-size", "4",
    )
    assert code == 0 and payload["report"]["status"] == "found"
    assert payload["report"]["size"] == 4


def test_consequence_subcommand(capsys):
    code, _ = run_json(
        capsys,
        "consequence",
        "--theory", str(DATA / "weighted_graph.thy"),
        "--algebra", str(DATA / "godel4.json"),
        "--formula", "forall x y. (R(y,x) -> R(x,y))",
        "--max-domain", "2",
    )
    assert code == 0
    code2, payload2 = run_json(
        capsys,
        "consequence",
        "--theory", str(DATA / "weighted_graph.thy"),
        "--algebra", str(DATA / "godel4.json"),
        "--formula", "exists x y. (not (x ~ y))",
        "--max-domain", "2",
    )
    assert code2 == 1 and payload2["report"]["countermodel"]


def test_consequence_reads_a_theory_with_a_line_break_before_a_parenthesis(capsys, tmp_path):
    theory = tmp_path / "t.thy"
    theory.write_text("forall x . R(x, x) -> Q\n(Q -> val(0))\n")
    code, out = run(capsys, "consequence", "--theory", str(theory), "--algebra", str(DATA / "bool2.json"),
                    "--formula", "forall x . (R(x, x) -> val(0))", "--max-domain", "2")
    assert code == 0 and out == "holds (bounded, domains <= 2)\n"


def test_universal_consequences_subcommand(capsys):
    code, payload = run_json(
        capsys,
        "universal-consequences",
        "--theory", str(DATA / "weighted_graph.thy"),
        "--algebra", str(DATA / "bool2.json"),
        "--max-domain", "2",
        "--max-candidates", "400",
    )
    assert code == 0
    assert "forall x1 x2 . R(x2, x1) -> R(x1, x2)" in payload["report"]["sentences"]


@pytest.mark.parametrize("command, extra", [
    ("consequence", ["--formula", "forall x1 . R(x1, x1)"]),
    ("universal-consequences", []),
])
def test_an_empty_domain_bound_is_a_usage_error(capsys, command, extra):
    # no structure of size 0 exists, so every sentence would follow
    code = main([command, "--theory", str(DATA / "weighted_graph.thy"), "--algebra", str(DATA / "bool2.json"),
                 "--max-domain", "0", *extra])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: max_domain must be at least 1\n"


def test_counterexample_subcommand(capsys):
    code, payload = run_json(capsys, "counterexample")
    assert code == 0 and payload["report"]["ok"]


def test_verify_suites_exit_codes(capsys):
    code, payload = run_json(
        capsys, "verify", "--suite", "parser-roundtrip", "--seed", "7", "--instances", "300"
    )
    assert code == 0 and payload["report"]["ok"]
    code2, _ = run_json(capsys, "verify", "--suite", "algebra-soundness")
    assert code2 == 0
    code3, payload3 = run_json(
        capsys, "verify", "--suite", "exists-negative-control", "--seed", "3", "--instances", "25"
    )
    assert code3 == 0 and payload3["report"]["expected"] == "at least one violation"


def test_reports_are_deterministic(capsys):
    argv = [
        "verify", "--suite", "los-tarski-lemma", "--seed", "11", "--instances", "20",
        "--format", "json",
    ]
    code1, out1 = run(capsys, *argv)
    code2, out2 = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_usage_error_exit_code(capsys):
    assert main(["no-such-command"]) == 2
    assert main(["eval", "--structure", "missing.json", "--formula", "val(1)"]) == 2


def test_unknown_suite(capsys):
    assert main(["verify", "--suite", "nope"]) == 2


@pytest.mark.parametrize("value", ["-3", "0", "many"])
def test_verify_needs_a_positive_instance_count(capsys, value):
    assert main(["verify", "--suite", "los-tarski-lemma", "--instances", value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument --instances: must be a positive integer, got {value!r}" in captured.err


_M, _N = str(DATA / "structure_m.json"), str(DATA / "structure_n.json")
_CHAIN = "edgeless-chain.json"  # written into tmp_path by the test: the bundled corpus has no chain file


@pytest.mark.parametrize("argv, option", [
    (["equiv", "--left", _M, "--right", _N, "--depth", "-1"], "--depth"),
    (["counterexample", "--depth", "-1"], "--depth"),
    (["implies-exists", "--left", _M, "--right", _N, "--n", "-1"], "--n"),
    (["amalgamate", "--left", _M, "--right", _N, "--max-size", "3", "--n", "-2"], "--n"),
    (["amalgamate", "--left", _M, "--right", _N, "--max-size", "3", "--depth", "two"], "--depth"),
    (["universal-consequences", "--theory", str(DATA / "weighted_graph.thy"), "--algebra",
      str(DATA / "bool2.json"), "--max-domain", "2", "--max-candidates", "-1"], "--max-candidates"),
    (["check-chain", "--chain", _CHAIN, "--tv-depth", "-1"], "--tv-depth"),
    (["check-chain", "--chain", _CHAIN, "--elementary-depth", "-1"], "--elementary-depth"),
    (["check-chain", "--chain", _CHAIN, "--matrix-depth", "-1"], "--matrix-depth"),
    (["implies-exists", "--left", _M, "--right", _N, "--matrix-depth", "-1"], "--matrix-depth"),
    (["implies-exists", "--left", _M, "--right", _N, "--num-vars", "-1"], "--num-vars"),
    (["diagram", "--structure", _M, "--num-vars", "-1"], "--num-vars"),
    (["diagram", "--structure", _M, "--term-depth", "-1"], "--term-depth"),
    (["diagram", "--structure", _M, "--connective-depth", "-1"], "--connective-depth"),
    (["diagram", "--structure", _M, "--kind", "eldiag", "--quantifier-depth", "-1"], "--quantifier-depth"),
    (["amalgamate", "--left", _M, "--right", _N, "--max-size", "-1"], "--max-size"),
])
def test_a_negative_bound_is_a_usage_error(capsys, tmp_path, argv, option):
    chain = tmp_path / _CHAIN
    chain.write_text(json.dumps([str(DATA / "edgeless2.json"), str(DATA / "edgeless3.json")]))
    assert main([str(chain) if arg == _CHAIN else arg for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    kind = "positive" if option == "--max-size" else "non-negative"
    assert f"argument {option}: must be a {kind} integer, got {argv[-1]!r}" in captured.err


def test_remaining_subcommands_emit_valid_envelopes(capsys):
    code, payload = run_json(
        capsys, "eval", "--structure", str(DATA / "structure_m.json"),
        "--formula", "forall x. P(x)",
    )
    assert code == 0 and payload["report"]["value"] == "3/4"
    code2, payload2 = run_json(capsys, "classify", "--formula", "exists x. P(x)")
    assert code2 == 0 and payload2["report"]["prenex_class"] == "Exists(1)"
    code3, payload3 = run_json(
        capsys, "find-hom", "--source", str(DATA / "edgeless2.json"),
        "--target", str(DATA / "path3.json"),
    )
    assert code3 == 0 and payload3["report"]["found"]


def test_budget_env_override(capsys, monkeypatch):
    monkeypatch.setenv("GRADEDMT_BUDGET", "10")
    code = main([
        "consequence",
        "--theory", str(DATA / "weighted_graph.thy"),
        "--algebra", str(DATA / "godel4.json"),
        "--formula", "forall x. (R(x,x) -> val(0))",
        "--max-domain", "3",
    ])
    assert code == 2
    assert "budget" in capsys.readouterr().err


def test_verify_los_tarski_documented_invocation(capsys):
    code, payload = run_json(
        capsys, "verify", "--suite", "los-tarski-lemma", "--seed", "7", "--instances", "200"
    )
    assert code == 0
    assert payload["report"]["instances"] == 200 and payload["report"]["ok"]


def test_eval_bind_outside_domain(capsys):
    code = main([
        "eval",
        "--structure", str(DATA / "structure_m.json"),
        "--formula", "P(x)",
        "--bind", "x=zz",
    ])
    assert code == 2
    assert "domain" in capsys.readouterr().err


def test_eval_bind_without_equals_names_bind(capsys):
    code = main([
        "eval",
        "--structure", str(DATA / "structure_m.json"),
        "--formula", "P(x)",
        "--bind", "x",
    ])
    assert code == 2
    assert capsys.readouterr().err == "error: --bind expects VAR=LABEL, got 'x'\n"


@pytest.mark.parametrize("binds", [["x=n0", "x=n1"], ["x=n0", "x=n0"]])
def test_eval_repeated_bind_names_bind(capsys, binds):
    code = main([
        "eval",
        "--structure", str(DATA / "structure_m.json"),
        "--formula", "P(x)",
        *[arg for bind in binds for arg in ("--bind", bind)],
    ])
    assert code == 2
    assert capsys.readouterr().err == "error: --bind names 'x' twice\n"


@pytest.mark.parametrize("mapping, message", [
    ("n0", "--map expects SOURCE=TARGET, got 'n0'"),
    ("n0=n0,n1=n1,n2=n2,zz=n0", "--map names 'zz', which is not a source element"),
    ("n0=n0,n0=n1,n1=n1,n2=n2", "--map names 'n0' twice"),
    ("n0=n0,n1=n1,n2=zz", "--map sends 'n2' to 'zz', which is not a target element"),
])
def test_check_diagram_map_errors_name_map(capsys, mapping, message):
    code = main([
        "check-diagram",
        "--source", str(DATA / "structure_m.json"),
        "--target", str(DATA / "structure_n.json"),
        "--map", mapping,
    ])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_consequence_truth_constants_on_and_off(capsys):
    argv = [
        "consequence",
        "--theory", str(DATA / "weighted_graph.thy"),
        "--algebra", str(DATA / "godel4.json"),
        "--formula", "forall x. (R(x,x) -> val(3/4))",
        "--max-domain", "1",
    ]
    assert main(argv) == 0
    assert main(argv + ["--truth-constants"]) == 0
    capsys.readouterr()
    assert main(argv + ["--no-truth-constants"]) == 2
    assert "unknown truth constant val(3/4)" in capsys.readouterr().err


def test_universal_consequences_truth_constants_on_and_off(capsys):
    argv = [
        "universal-consequences",
        "--theory", str(DATA / "weighted_graph.thy"),
        "--algebra", str(DATA / "godel3.json"),
        "--max-domain", "1",
        "--max-candidates", "200",
    ]
    for flags, licensed in (([], True), (["--truth-constants"], True),
                            (["--no-truth-constants"], False)):
        code, payload = run_json(capsys, *argv, *flags)
        assert code == 0
        assert any("val(1/2)" in s for s in payload["report"]["sentences"]) == licensed


@pytest.mark.parametrize("spec", [
    {"arity": "one", "table": {"a": "1"}},  # was a ValueError traceback
    [1, {"a": "1"}],  # was an AttributeError traceback
])
def test_enum_subs_rejects_malformed_predicate_spec(capsys, tmp_path, spec):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "algebra": str(DATA / "bool2.json"),
        "domain": ["a"],
        "predicates": {"P": spec},
    }))
    assert main(["enum-subs", "--structure", str(path)]) == 2
    assert "predicate 'P': expected an integer arity and an object table" in capsys.readouterr().err


def test_an_inline_algebra_is_loaded_like_an_algebra_file(capsys, tmp_path):
    non_commutative = [[0, 1, 0], [0, 1, 1], [0, 1, 2]]  # top is an identity, star(0,1) != star(1,0)
    path = tmp_path / "inline.json"
    path.write_text(json.dumps({"algebra": {"elements": ["0", "1/2", "1"], "star": non_commutative},
                                "domain": ["a"]}))
    assert main(["enum-subs", "--structure", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"{path}: cannot derive a residuum" in err and "commutativity at (0, 1)" in err


@pytest.mark.parametrize("inline", [False, True])
def test_an_algebra_shape_error_names_its_file(capsys, tmp_path, inline):
    algebra = {"elements": ["0", "1"], "star": [[0, 0]]}  # one star row over two elements
    (tmp_path / "a.json").write_text(json.dumps(algebra))
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"algebra": algebra if inline else "a.json", "domain": ["a"]}))
    assert main(["enum-subs", "--structure", str(path)]) == 2
    named = path if inline else tmp_path / "a.json"
    assert f"error: {named}: star must have 2 rows" in capsys.readouterr().err


def test_two_cli_calls_build_one_parser(capsys, monkeypatch):
    built, init = [], argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    for _ in range(2):
        assert main(["classify", "--formula", "forall x. P(x)"]) == 0
    assert built.count("gradedmt") <= 1


@pytest.mark.parametrize("domain", [
    5,  # was a TypeError traceback
    "ab",  # was read as the domain ("a", "b")
    {"a": 1},  # was read as its keys
])
def test_enum_subs_rejects_a_domain_that_is_not_a_list(capsys, tmp_path, domain):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"algebra": str(DATA / "bool2.json"), "domain": domain}))
    assert main(["enum-subs", "--structure", str(path)]) == 2
    assert "domain must be a non-empty JSON list" in capsys.readouterr().err


@pytest.mark.parametrize("elements", [0, None, False, 3.5])  # each was a TypeError traceback
def test_enum_subs_rejects_algebra_elements_that_are_not_a_list(capsys, tmp_path, elements):
    bad = json.loads((DATA / "bool2.json").read_text())
    bad["elements"] = elements
    (tmp_path / "bad-algebra.json").write_text(json.dumps(bad))
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"algebra": "bad-algebra.json", "domain": ["a"]}))
    assert main(["enum-subs", "--structure", str(path)]) == 2
    assert "algebra elements must be a list" in capsys.readouterr().err


def test_deeply_nested_formula_is_a_parse_error(capsys):
    formula = "(" * 3000 + "P(x)" + ")" * 3000
    assert main(["classify", "--formula", formula]) == 2
    assert "nested too deeply" in capsys.readouterr().err


def test_check_chain_names_the_separator_of_a_non_elementary_inclusion(capsys, tmp_path):
    chain = tmp_path / "chain.json"
    chain.write_text(json.dumps([str(DATA / "edgeless2.json"), str(DATA / "edgeless3.json")]))
    code = main(["check-chain", "--chain", str(chain), "--elementary-depth", "2"])
    err = capsys.readouterr().err
    assert code == 2
    assert "forall x1 x2 . exists x3 . x1 ~ x3 <-> x2 ~ x3 at parameters ()" in err


def _lowered_substructures(original):
    """Substructures with their first predicate entry dropped to the bottom."""
    def enumerate_substructures(s, *args):
        for small in original(s, *args):
            name = min(small.predicates)
            table = dict(small.predicates[name])
            table[min(table)] = 0
            yield replace(small, predicates={**small.predicates, name: table})
    return enumerate_substructures


def _full_size_only(original):
    """Only the substructures on the whole domain, which the suites skip."""
    return lambda s, *args: (small for small in original(s, *args) if small.size == s.size)


def _unparenthesised(original):
    return lambda text, prec, outer: text


def _one_residuum_entry_off(original):
    def derive_residuum(elements, star):
        table = [list(row) for row in original(elements, star)]
        table[-1][0] = (table[-1][0] + 1) % len(elements)
        return table
    return derive_residuum


@pytest.mark.parametrize("suite, target, name, fault", [
    ("los-tarski-lemma", preservation, "enumerate_substructures", _lowered_substructures),
    ("exists-negative-control", preservation, "enumerate_substructures", _full_size_only),
    ("counterexample", preservation, "enumerate_substructures", _lowered_substructures),
    ("parser-roundtrip", parser, "_wrap", _unparenthesised),
    ("algebra-soundness", algebra, "derive_residuum", _one_residuum_entry_off),
])
def test_suite_fails_on_a_seeded_fault(monkeypatch, capsys, suite, target, name, fault):
    code, payload = run_json(capsys, "verify", "--suite", suite, "--instances", "20")
    assert code == 0 and payload["report"]["ok"]
    monkeypatch.setattr(target, name, fault(getattr(target, name)))
    code, payload = run_json(capsys, "verify", "--suite", suite, "--instances", "20")
    assert code == 1 and payload["report"]["ok"] is False


def test_cor1_suite_fails_on_a_seeded_fault(monkeypatch, capsys):
    # the Boolean chain in place of godel3 keeps the sweep at 9,540 pairs
    monkeypatch.setattr(corpus, "godel3", corpus.bool2)
    code, payload = run_json(capsys, "verify", "--suite", "cor1-equivalence")
    assert code == 0 and payload["report"]["ok"] and payload["report"]["instances"] == 9540
    side = diagrams._diagram_side
    monkeypatch.setattr(diagrams, "_diagram_side", lambda block, diagram: side(block, diagram) ^ 1)
    code, payload = run_json(capsys, "verify", "--suite", "cor1-equivalence")
    assert code == 1 and payload["report"]["ok"] is False
