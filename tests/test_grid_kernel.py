"""The byte kernel of `AssignmentGrid` against per-cell table lookups.

A grid holds a value vector as `bytes`, one byte a cell.  `_combine` runs a
connective as whole-vector operations on pair codes (`generation._packed`)
and `fold` combines the lanes of an axis by the packed min or max, through
`generation._folded`, one memo by value for every grid; over 16 elements
both take a per-cell path, and over 256 a grid is refused.  These tests
compare both with plain lookups in `_connective_tables`, on every chain of
2 to 5 elements and on a 17-element Goedel chain, and `_folded` with a
plain min and max over the lanes of each axis.
"""

import json
import random
from itertools import product

import pytest

from gradedmt import cli, files, generation
from gradedmt.algebra import ChainReport, enumerate_mtl_chains, godel_chain, lukasiewicz_chain
from gradedmt.errors import FormatError
from gradedmt.files import save_algebra
from gradedmt.generation import AssignmentGrid, _connective_tables, _folded
from gradedmt.semantics import Structure
from gradedmt.syntax import EXISTS, FORALL, And, Iff, Implies, Not, Or, Signature, Strong

CHAINS = [chain for k in range(2, 6) for chain in enumerate_mtl_chains(k)] + [
    godel_chain([f"g{i}" for i in range(17)])]
SIG = Signature(predicates={"P": 1})
VARIABLES = ("x1", "x2", "x3")


def _grid(chain, m: int, variables=VARIABLES) -> AssignmentGrid:
    domain = tuple(f"d{i}" for i in range(m))
    return AssignmentGrid(Structure(chain=chain, sig=SIG, domain=domain,
                                    predicates={"P": {(d,): 0 for d in domain}}), variables)


def test_the_chains_take_both_paths():
    assert len(CHAINS) == 32
    assert [_grid(chain, 1)._tables[0] is None for chain in CHAINS] == [False] * 31 + [True]


@pytest.mark.parametrize("index", range(len(CHAINS)))
def test_combine_matches_the_per_cell_tables(index):
    chain, rnd = CHAINS[index], random.Random(index)
    k, grid, tables = chain.size, _grid(chain, 3), _connective_tables(chain.star, chain.implies)
    every_pair = bytes(x for x in range(k) for _ in range(k)), bytes(y for _ in range(k) for y in range(k))
    drawn = [tuple(bytes(rnd.randrange(k) for _ in range(grid.size)) for _ in range(2)) for _ in range(3)]
    for a, b in [every_pair, *drawn]:
        assert list(grid._combine(Not, a)) == [tables[Not][x] for x in a]
        for kind in (And, Or, Strong, Implies, Iff):
            assert list(grid._combine(kind, a, b)) == [tables[kind][x][y] for x, y in zip(a, b)], kind.__name__


@pytest.mark.parametrize("index", range(len(CHAINS)))
def test_fold_matches_a_per_cell_min_and_max_on_every_axis(index):
    chain, rnd = CHAINS[index], random.Random(index)
    for m in (1, 2, 3):  # on three variables the first axis reads slices, the middle getters, the last steps
        grid = _grid(chain, m)
        values = bytes(rnd.randrange(chain.size) for _ in range(grid.size))
        for var in VARIABLES:
            stride = grid.strides[var]
            for kind, pick in ((FORALL, min), (EXISTS, max)):
                want = [pick(values[i + (d - i // stride % m) * stride] for d in range(m)) for i in range(grid.size)]
                assert list(grid.fold(values, var, kind)) == want, (m, var, kind)


@pytest.mark.parametrize("k", (2, 3, 17))  # 17 takes the per-cell path
def test_folded_matches_a_plain_min_and_max_over_the_lanes(k):
    rnd = random.Random(k)
    for m, t in product(range(2, 5), range(1, 4)):
        size = m**t
        values = bytes(rnd.randrange(k) for _ in range(size))
        for stride in (m ** (t - 1 - axis) for axis in range(t)):
            for kind, pick in ((FORALL, min), (EXISTS, max)):
                lanes = [[values[i + (d - i // stride % m) * stride] for d in range(m)] for i in range(size)]
                assert list(_folded(values, m, stride, k, kind)) == list(map(pick, lanes)), (m, t, stride, kind)


def test_grids_over_other_structures_and_chains_of_one_shape_share_their_folds():
    chains, rnd = (godel_chain(["0", "h", "1"]), lukasiewicz_chain(["0", "h", "1"])), random.Random(5)
    grids = [AssignmentGrid(Structure(chain=chain, sig=SIG, domain=("a", "b", "c"), predicates={
        "P": {(d,): rnd.randrange(3) for d in "abc"}}), VARIABLES[:2]) for chain in chains]
    values = bytes(rnd.randrange(3) for _ in range(9))
    for var, kind in product(VARIABLES[:2], (FORALL, EXISTS)):
        before = _folded.cache_info()
        first, second = (grid.fold(values, var, kind) for grid in grids)
        after = _folded.cache_info()
        assert first is second and after.hits >= before.hits + 1 and after.misses <= before.misses + 1


def test_the_fold_memo_is_bounded_by_its_module_constant():
    assert _folded.cache_info().maxsize == generation._FOLDS > 0


def test_a_chain_over_256_elements_is_refused():
    assert _grid(godel_chain([f"g{i}" for i in range(256)]), 2).size == 8
    with pytest.raises(FormatError, match="over 256"):
        _grid(godel_chain([f"g{i}" for i in range(257)]), 2)


def test_a_chain_over_256_elements_exits_2_from_the_cli(tmp_path, monkeypatch, capsys):
    # a Goedel chain satisfies the laws by construction; checking them takes 257**3 steps
    monkeypatch.setattr(files, "validate_chain", lambda chain: ChainReport(ok=True, violations=()))
    chain = godel_chain([f"g{i}" for i in range(257)])
    save_algebra(chain, tmp_path / "big.json")
    structure = {"algebra": "big.json", "domain": ["a", "b"],
                 "predicates": {"P": {"arity": 1, "table": {"a": "g0", "b": "g256"}}}}
    (tmp_path / "s.json").write_text(json.dumps(structure))
    path = str(tmp_path / "s.json")
    for argv in (["implies-exists", "--left", path, "--right", path, "--n", "1"],
                 ["equiv", "--left", path, "--right", path, "--depth", "1"],
                 ["diagram", "--kind", "eldiag", "--structure", path],
                 ["diagram", "--kind", "diag", "--structure", path],
                 ["check-diagram", "--source", path, "--target", path, "--map", "a=a,b=b"]):
        assert cli.main(argv) == 2, argv
        assert "over 256" in capsys.readouterr().err, argv

