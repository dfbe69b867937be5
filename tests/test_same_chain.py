"""The same-chain rule at every entry point that reads two or more structures,
or a structure and a diagram.

Inputs are one-element P/1 structures, P(a) at every label, over godel3
against lukasiewicz3 (equal labels, other tables) and over godel3 against
bool2, in both orders.  Each library call raises `ChainMismatchError`, or
`ChainValidationError` for a chain of structures; each CLI run exits 2 with
empty stdout.  The entry points that go through an explicit algebra map or
through `subalgebra_inclusion` give a verdict instead, and it is the one the
map gives.
"""

from itertools import product

import pytest

from gradedmt import corpus
from gradedmt.algebra import AlgebraMap, is_algebra_homomorphism, subalgebra_inclusion
from gradedmt.chains import ChainValidationError, StructureChain, normalize_chain, validate_chain_of_structures
from gradedmt.cli import main
from gradedmt.consequence import equiv_up_to_depth
from gradedmt.diagrams import (build_diagram, diagram_embedding_equivalence, diagram_model_exists,
                               interpret_constants, models_diagram)
from gradedmt.errors import ChainMismatchError, FormatError
from gradedmt.files import save_structure
from gradedmt.morphisms import (StructureMap, is_elementary_up_to_depth, is_embedding, is_strong_homomorphism,
                                is_substructure, search_structure_map)
from gradedmt.preservation import (AmalgamInstance, FormulaBounds, implies_exists_n, search_amalgam,
                                   universal_transport_ok)
from gradedmt.semantics import Structure
from gradedmt.syntax import Signature

SIG = Signature(predicates={"P": 1})
PAIRS = [("godel3", "lukasiewicz3"), ("lukasiewicz3", "godel3"), ("godel3", "bool2"), ("bool2", "godel3")]
MISMATCH = "^both structures must share one chain$"
NOT_ONE_ALGEBRA = "^member 1 is not over the algebra of member 0$"


def _point(chain, label):
    return Structure(chain=chain, sig=SIG, domain=("a",), predicates={"P": {("a",): chain.index(label)}})


def _points(names):
    """Every (left, right) pair of points over the two named chains."""
    left, right = (getattr(corpus, name)() for name in names)
    return [(_point(left, x), _point(right, y)) for x, y in product(left.elements, right.elements)]


REFUSALS = {  # entry point -> (call, error, message)
    "equiv_up_to_depth": (lambda s, t: equiv_up_to_depth(s, t, 1), ChainMismatchError, MISMATCH),
    "implies_exists_n": (lambda s, t: implies_exists_n(s, t, (), 1), ChainMismatchError, MISMATCH),
    "universal_transport_ok": (lambda s, t: universal_transport_ok({"a": "a"}, s, t, FormulaBounds()),
                               ChainMismatchError, MISMATCH),
    "AmalgamInstance": (lambda s, t: AmalgamInstance(left=s, right=t), ChainMismatchError, MISMATCH),
    "search_amalgam": (lambda s, t: search_amalgam(AmalgamInstance(left=s, right=t), 1, 2),
                       ChainMismatchError, MISMATCH),
    "search_structure_map": (lambda s, t: search_structure_map(s, t), ChainMismatchError, MISMATCH),
    "search_structure_map-injective": (lambda s, t: search_structure_map(s, t, injective=True),
                                       ChainMismatchError, MISMATCH),
    "normalize_chain": (lambda s, t: normalize_chain([s, t]), ChainMismatchError, MISMATCH),
    "models_diagram": (lambda s, t: models_diagram(interpret_constants(t, build_diagram(s), ("a",)), build_diagram(s)),
                       ChainMismatchError, MISMATCH),
    "diagram_model_exists": (lambda s, t: diagram_model_exists(t, build_diagram(s)), ChainMismatchError, MISMATCH),
    "diagram_embedding_equivalence": (lambda s, t: diagram_embedding_equivalence(s, t),
                                      ChainMismatchError, MISMATCH),
    "validate_chain_of_structures": (lambda s, t: validate_chain_of_structures([s, t]),
                                     ChainValidationError, NOT_ONE_ALGEBRA),
    "StructureChain": (lambda s, t: StructureChain((s, t)), ChainValidationError, NOT_ONE_ALGEBRA),
}


@pytest.mark.parametrize("entry", REFUSALS)
def test_every_library_entry_point_refuses_two_chains(entry):
    call, error, message = REFUSALS[entry]
    for names in PAIRS:
        for s, t in _points(names):
            with pytest.raises(error, match=message):
                call(s, t)


def _saved(tmp_path, s, t):
    """The paths of s, t and a chain file of [s, t]."""
    for structure, name in ((s, "s.json"), (t, "t.json")):
        save_structure(structure, tmp_path / name)
    (tmp_path / "chain.json").write_text('["s.json", "t.json"]')
    return [str(tmp_path / name) for name in ("s.json", "t.json", "chain.json")]


CLI_REFUSALS = {  # subcommand -> (argv after the subcommand, given the saved paths; message)
    "equiv": (lambda s, t, c: ["--left", s, "--right", t, "--depth", "1"], MISMATCH),
    "implies-exists": (lambda s, t, c: ["--left", s, "--right", t], MISMATCH),
    "amalgamate": (lambda s, t, c: ["--left", s, "--right", t, "--max-size", "2"], MISMATCH),
    "find-embed": (lambda s, t, c: ["--source", s, "--target", t], MISMATCH),
    "check-diagram": (lambda s, t, c: ["--source", s, "--target", t], MISMATCH),
    "check-diagram --map": (lambda s, t, c: ["--source", s, "--target", t, "--map", "a=a"], MISMATCH),
    "union": (lambda s, t, c: ["--chain", c], NOT_ONE_ALGEBRA),
    "check-chain": (lambda s, t, c: ["--chain", c], NOT_ONE_ALGEBRA),
}


@pytest.mark.parametrize("command", CLI_REFUSALS)
def test_every_cli_subcommand_refuses_two_chains(command, tmp_path, capsys):
    args, message = CLI_REFUSALS[command]
    for names in PAIRS:
        s, t = _points(names)[-1]  # P(a) top on both sides; the rule reads no value
        assert main([command.split()[0], *args(*_saved(tmp_path, s, t))]) == 2, names
        assert capsys.readouterr() == ("", f"error: {message[1:-1]}\n"), names


def _algebra_maps(source, target):
    return [AlgebraMap(source, target, m) for m in product(range(target.size), repeat=source.size)]


def _transports(m, s, t):
    """The verdict the map gives on two points: a homomorphism carrying P(a) to P(a)."""
    return is_algebra_homomorphism(m).ok and m.map[s.predicates["P"][("a",)]] == t.predicates["P"][("a",)]


def _included(s, t):
    """The verdict `subalgebra_inclusion` gives: s's chain is a subalgebra of t's and P(a) is kept."""
    inclusion = subalgebra_inclusion(s.chain, t.chain)
    return inclusion is not None and _transports(inclusion, s, t)


@pytest.mark.parametrize("names", PAIRS, ids="-".join)
def test_explicit_maps_and_subalgebra_inclusions_give_the_verdict_of_the_map(names):
    for s, t in _points(names):
        maps = _algebra_maps(s.chain, t.chain)
        for m in maps:
            strong, g = _transports(m, s, t), StructureMap(m, {"a": "a"})
            # one element each: a homomorphism commutes with every connective, and a quantifier reads one value
            assert is_strong_homomorphism(g, s, t).ok == strong
            assert is_embedding(g, s, t).ok == (strong and m.injective)
            assert is_elementary_up_to_depth(g, s, t, 1).ok == strong
        found = search_structure_map(s, t, fix_algebra_identity=False)
        assert (found is not None) == any(_transports(m, s, t) for m in maps)
        assert is_substructure(s, t).ok == _included(s, t)
        try:  # the amalgam's common part s, over a chain that may be a subalgebra of the sides' chain
            AmalgamInstance(left=t, right=t, common=s, generators=("a",))
            common_ok = True
        except FormatError:
            common_ok = False
        assert common_ok == _included(s, t)


@pytest.mark.parametrize("names", PAIRS, ids="-".join)
def test_cli_check_sub_and_find_hom_give_the_verdict_of_the_map(names, tmp_path, capsys):
    for s, t in _points(names):
        files = _saved(tmp_path, s, t)
        assert main(["check-sub", "--sub", files[0], "--super", files[1]]) == (0 if _included(s, t) else 1)
        hom = any(_transports(m, s, t) for m in _algebra_maps(s.chain, t.chain))
        assert main(["find-hom", "--source", files[0], "--target", files[1], "--free-algebra-map"]) == (0 if hom else 1)
        assert capsys.readouterr().err == ""
