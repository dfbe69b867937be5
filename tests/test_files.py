import json

import pytest

from gradedmt import corpus
from gradedmt.errors import FormatError, ParseError
from gradedmt.files import (
    load_algebra,
    load_chain_file,
    load_structure,
    load_theory,
    save_algebra,
    save_structure,
    save_theory,
    structure_to_dict,
)
from gradedmt.parser import render_formula


def test_load_bundled_algebras(g4, l3, b2):
    assert g4.elements == ("0", "1/2", "3/4", "1")
    assert l3.elements == ("0", "1/2", "1")
    assert b2.elements == ("0", "1")
    assert g4.name == "godel4"


def test_algebra_roundtrip(tmp_path, g4):
    path = tmp_path / "chain.json"
    save_algebra(g4, path)
    assert load_algebra(path) == g4


def test_algebra_derives_missing_residuum(tmp_path, g4):
    data = {"elements": list(g4.elements), "star": [list(r) for r in g4.star]}
    path = tmp_path / "nores.json"
    path.write_text(json.dumps(data))
    assert load_algebra(path).implies == g4.implies


def test_invalid_algebra_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"elements": ["0", "1"], "star": [[1, 0], [0, 1]]}))
    with pytest.raises(FormatError):
        load_algebra(path)


def test_load_bundled_structure_values(struct_m, g4):
    assert struct_m.domain == ("n0", "n1", "n2")
    assert all(v == g4.index("3/4") for v in struct_m.predicates["P"].values())


def test_structure_with_undefined_element_rejected(tmp_path):
    data = {
        "algebra": {"elements": ["0", "1"], "star": [[0, 0], [0, 1]]},
        "domain": ["a"],
        "predicates": {"P": {"arity": 1, "table": {"a": "1/2"}}},
        "functions": {},
    }
    path = tmp_path / "bad_structure.json"
    path.write_text(json.dumps(data))
    with pytest.raises(FormatError) as err:
        load_structure(path)
    assert "1/2" in str(err.value)


def test_partial_table_rejected(tmp_path):
    data = {
        "algebra": {"elements": ["0", "1"], "star": [[0, 0], [0, 1]]},
        "domain": ["a", "b"],
        "predicates": {"P": {"arity": 1, "table": {"a": "1"}}},
        "functions": {},
    }
    path = tmp_path / "partial.json"
    path.write_text(json.dumps(data))
    with pytest.raises(FormatError) as err:
        load_structure(path)
    assert "not total" in str(err.value)


def test_missing_predicate_entry_rejected(tmp_path):
    data = {
        "algebra": {"elements": ["0", "1"], "star": [[0, 0], [0, 1]]},
        "domain": ["a"],
        "predicates": {"P": {"arity": 1, "table": {}}},
        "functions": {},
    }
    path = tmp_path / "missing.json"
    path.write_text(json.dumps(data))
    with pytest.raises(FormatError):
        load_structure(path)


@pytest.mark.parametrize("predicates, message", [
    ([1], "predicates must be given as a JSON object"),
    ({"P": {"arity": 1, "table": ["a"]}}, "predicate 'P': expected an integer arity"),
])
def test_malformed_predicate_specs_rejected(tmp_path, predicates, message):
    data = {
        "algebra": {"elements": ["0", "1"], "star": [[0, 0], [0, 1]]},
        "domain": ["a"],
        "predicates": predicates,
    }
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(data))
    with pytest.raises(FormatError) as err:
        load_structure(path)
    assert message in str(err.value)


def test_structure_roundtrip(tmp_path, struct_m):
    path = tmp_path / "m.json"
    save_structure(struct_m, path)
    again = load_structure(path)
    assert again.domain == struct_m.domain
    assert again.predicates == struct_m.predicates
    assert again.chain == struct_m.chain


def test_structure_dict_uses_labels(struct_m):
    payload = structure_to_dict(struct_m)
    assert payload["predicates"]["P"]["table"]["n0"] == "3/4"


def test_theory_roundtrip(tmp_path):
    theory, sig = corpus.weighted_graph_theory()
    path = tmp_path / "t.thy"
    save_theory(theory, path)
    again, _ = load_theory(path, sig=sig)
    assert again == theory


def test_theory_error_names_line(tmp_path, sig_r):
    path = tmp_path / "broken.thy"
    path.write_text("forall x. (R(x,x) -> val(0))\nforall x. (R(x) -> val(0))\n")
    with pytest.raises(ParseError) as err:
        load_theory(path, sig=sig_r)
    assert "line 2" in str(err.value)
    # with the signature inferred
    path.write_text("forall x . R(x, x)\nforall x . R(x,)\n")
    with pytest.raises(ParseError) as err:
        load_theory(path)
    assert str(err.value) == "line 2: expected a term, found ')' at line 1, column 16"


def test_an_inferred_theory_keeps_a_line_break_before_a_parenthesis(tmp_path):
    # a line that ends in a name is not applied to the parenthesis that starts the next line
    path = tmp_path / "t.thy"
    path.write_text("forall x . R(x, x) -> Q\n(Q -> val(0))\n")
    theory, sig = load_theory(path)
    assert sig.predicates == {"R": 2, "Q": 0} and sig.functions == {}
    assert [render_formula(phi) for phi in theory] == ["forall x . R(x, x) -> Q", "Q -> val(0)"]


def test_bundled_theories_parse():
    for loader in (
        corpus.weighted_graph_theory,
        corpus.degree_two_theory,
        corpus.fuzzy_subgroup_theory,
    ):
        theory, sig = loader()
        assert theory
        for phi in theory:
            assert render_formula(phi)


def test_chain_file(tmp_path, complete_graphs):
    for name, s in (("k3.json", complete_graphs[3]), ("k4.json", complete_graphs[4])):
        save_structure(s, tmp_path / name)
    chain_path = tmp_path / "chain.json"
    chain_path.write_text(json.dumps(["k3.json", "k4.json"]))
    members = load_chain_file(chain_path)
    assert [m.size for m in members] == [3, 4]
    bad = tmp_path / "bad_chain.json"
    bad.write_text(json.dumps({"not": "a list"}))
    with pytest.raises(FormatError):
        load_chain_file(bad)
