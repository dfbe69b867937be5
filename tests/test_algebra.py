import itertools

import pytest

from gradedmt.algebra import (
    AlgebraMap,
    FiniteChain,
    Violation,
    derive_residuum,
    enumerate_mtl_chains,
    generated_subalgebra,
    godel_chain,
    is_algebra_homomorphism,
    lukasiewicz_chain,
    validate_chain,
)
from gradedmt.errors import FormatError, PreconditionError


def test_bundled_chains_validate(g4, l3, b2):
    for chain in (g4, l3, b2):
        assert validate_chain(chain).ok


def test_residuation_law_exhaustive(g4, l3, b2):
    for chain in (g4, l3, b2):
        k = chain.size
        for x in range(k):
            for y in range(k):
                for z in range(k):
                    assert (chain.star[x][z] <= y) == (z <= chain.implies[x][y])


def test_implies_self_and_bottom(g4, l3):
    for chain in (g4, l3):
        for x in range(chain.size):
            assert chain.implies[x][x] == chain.top
            assert chain.implies[0][x] == chain.top


def test_join_star_three_chain_fails():
    k = 3
    join = [[max(i, j) for j in range(k)] for i in range(k)]
    godel_implies = [[k - 1 if i <= j else j for j in range(k)] for i in range(k)]
    report = validate_chain(
        {"elements": ["0", "1/2", "1"], "star": join, "implies": godel_implies}
    )
    assert not report.ok
    axioms = {v.axiom for v in report.violations}
    assert "identity" in axioms
    assert any(v.axiom == "residuation" and v.witness == (0, 0, 1) for v in report.violations)


def test_validate_chain_reports_every_violation_in_law_order(g3):
    star = ((0, 0, 0), (1, 1, 2), (0, 1, 1))
    report = validate_chain(FiniteChain(g3.elements, star, g3.implies))
    assert not report.ok
    assert report.violations == (
        Violation("identity", (1,), "star(1, top) = 2 != 1"),
        Violation("identity", (2,), "star(2, top) = 1 != 2"),
        Violation("commutativity", (0, 1), "star(0,1) = 0 != star(1,0) = 1"),
        Violation("commutativity", (1, 2), "star(1,2) = 2 != star(2,1) = 1"),
        Violation("associativity", (1, 0, 2), "star(star(1,0),2) = 2 != 1"),
        Violation("associativity", (1, 2, 0), "star(star(1,2),0) = 0 != 1"),
        Violation("associativity", (2, 1, 2), "star(star(2,1),2) = 2 != 1"),
        Violation("associativity", (2, 2, 0), "star(star(2,2),0) = 1 != 0"),
        Violation("associativity", (2, 2, 2), "star(star(2,2),2) = 2 != 1"),
        Violation("monotonicity", (1, 2, 0), "star(1,0) = 1 > star(2,0) = 0"),
        Violation("monotonicity", (1, 2, 2), "star(1,2) = 2 > star(2,2) = 1"),
        Violation("residuation", (1, 0, 0), "star(1,0) <= 0 is False but z <= implies(1,0) is True"),
        Violation("residuation", (1, 1, 2), "star(1,2) <= 1 is False but z <= implies(1,1) is True"),
        Violation("residuation", (2, 1, 2), "star(2,2) <= 1 is True but z <= implies(2,1) is False"),
    )


def test_malformed_tables_raise():
    with pytest.raises(FormatError):
        FiniteChain(("0", "1"), ((0,),), ((1, 1), (0, 1)))
    with pytest.raises(FormatError):
        FiniteChain(("0",), ((0,),), ((0,),))
    with pytest.raises(FormatError):
        validate_chain({"elements": ["0", "1"], "star": [[0, 0], [0, 5]]})


@pytest.mark.parametrize("elements", [0, None, False, 3.5, "01"])
def test_algebra_elements_that_are_not_a_list_are_a_format_error(elements):
    with pytest.raises(FormatError, match="algebra elements must be a list"):
        validate_chain({"elements": elements, "star": [[0, 0], [0, 1]]})


def test_derive_residuum_matches_stored(g4, l3, b2):
    for chain in (g4, l3, b2):
        assert derive_residuum(chain.elements, chain.star) == chain.implies


def test_derive_residuum_by_scan(g4):
    # independent oracle: max z with star(x, z) <= y, by direct scan
    for x in range(4):
        for y in range(4):
            expected = max(z for z in range(4) if g4.star[x][z] <= y)
            assert g4.implies[x][y] == expected
    assert g4.implies[g4.index("3/4")][g4.index("1/2")] == g4.index("1/2")


def test_derive_residuum_above_diagonal(g4, l3):
    for chain in (g4, l3):
        table = derive_residuum(chain.elements, chain.star)
        for x in range(chain.size):
            for y in range(x, chain.size):
                assert table[x][y] == chain.top


def test_luk_implies_half_to_zero(l3):
    assert l3.elements[l3.implies[1][0]] == "1/2"


def test_derive_residuum_precondition_witness():
    join = [[max(i, j) for j in range(3)] for i in range(3)]
    with pytest.raises(PreconditionError) as err:
        derive_residuum(("0", "1/2", "1"), join)
    assert err.value.witness is not None


def _reference_residuum(k, star):
    """Reference copy of the former `derive_residuum`, preconditions written out:
    ("ok", table) or (the broken law, its witness then)."""
    top = k - 1
    for x in range(k):
        if star[x][top] != x:
            return "identity", (x, top)
    for x in range(k):
        for y in range(x + 1, k):
            if star[x][y] != star[y][x]:
                return "commutativity", (x, y)
    for x in range(k - 1):
        for z in range(k):
            if star[x][z] > star[x + 1][z]:
                return "monotonicity", (x, x + 1, z)
    return "ok", tuple(tuple(max(z for z in range(k) if star[x][z] <= y) for y in range(k)) for x in range(k))


def test_derive_residuum_matches_the_reference_on_every_three_element_table():
    labels = ("0", "1/2", "1")
    accepted = 0
    for values in itertools.product(range(3), repeat=9):
        star = (values[:3], values[3:6], values[6:])
        law, expected = _reference_residuum(3, star)
        if law == "ok":
            assert derive_residuum(labels, star) == expected
            accepted += 1
            continue
        with pytest.raises(PreconditionError) as err:
            derive_residuum(labels, star)
        witness = expected[:1] if law == "identity" else expected
        assert err.value.witness == witness and f"{law} at {witness}" in str(err.value)
    assert accepted == 2  # star(0, 0) = star(0, 1) = 0, and star(1, 1) is 0 or 1


def test_derived_residuum_revalidates():
    for k in (2, 3, 4):
        for chain in enumerate_mtl_chains(k):
            rebuilt = FiniteChain(
                chain.elements, chain.star, derive_residuum(chain.elements, chain.star)
            )
            assert validate_chain(rebuilt).ok


def test_generated_subalgebra(g4, b2):
    assert generated_subalgebra(g4, ["3/4"]) == (0, 2, 3)
    assert generated_subalgebra(g4, range(4)) == (0, 1, 2, 3)
    assert generated_subalgebra(b2, [0]) == (0, 1)


def test_generated_subalgebra_brute_oracle(g4, l3):
    # oracle: iterate closure over the seed directly
    for chain in (g4, l3):
        for seed in ([1], [2], [1, 2] if chain.size > 3 else [1]):
            got = set(generated_subalgebra(chain, seed))
            want = set(seed) | {0, chain.top}
            changed = True
            while changed:
                changed = False
                for x in list(want):
                    for y in list(want):
                        for v in (chain.star[x][y], chain.implies[x][y]):
                            if v not in want:
                                want.add(v)
                                changed = True
            assert got == want


def test_subalgebra_restriction_revalidates(g4):
    sub = g4.restrict(generated_subalgebra(g4, ["3/4"]))
    assert sub.elements == ("0", "3/4", "1")
    assert validate_chain(sub).ok


def test_coatom(g4, l3, b2):
    assert g4.label(g4.top - 1) == "3/4"
    assert l3.label(l3.top - 1) == "1/2"
    assert b2.label(b2.top - 1) == "0"


def test_algebra_homomorphisms(g4, l3, b2):
    identity = AlgebraMap(g4, g4, (0, 1, 2, 3))
    assert is_algebra_homomorphism(identity).ok
    collapse = AlgebraMap(g4, b2, (0, 1, 1, 1))
    assert is_algebra_homomorphism(collapse).ok
    luk_collapse = AlgebraMap(l3, b2, (0, 1, 1))
    report = is_algebra_homomorphism(luk_collapse)
    assert not report.ok
    # the strong conjunction genuinely fails at (1/2, 1/2)
    assert l3.star[1][1] == 0 and b2.star[1][1] == 1
    assert report.counterexample is not None


def test_algebra_map_shape_errors(g4, b2):
    with pytest.raises(FormatError):
        AlgebraMap(g4, b2, (0, 1, 1))
    with pytest.raises(FormatError):
        AlgebraMap(g4, b2, (0, 1, 1, 9))


def test_enumerate_mtl_chains_counts():
    counts = {k: len(enumerate_mtl_chains(k)) for k in (2, 3, 4)}
    assert counts == {2: 1, 3: 2, 4: 6}
    for k in (2, 3, 4):
        for chain in enumerate_mtl_chains(k):
            assert validate_chain(chain).ok


def _rows(table):
    return " ".join("".join(map(str, row)) for row in table)


def test_enumerate_mtl_chains_output():
    got = {k: [(_rows(c.star), _rows(c.implies)) for c in enumerate_mtl_chains(k)] for k in (2, 3, 4)}
    assert got == {
        2: [("00 01", "11 01")],
        3: [("000 001 012", "222 122 012"), ("000 011 012", "222 022 012")],
        4: [("0000 0001 0002 0123", "3333 2333 2233 0123"),
            ("0000 0001 0012 0123", "3333 2333 1233 0123"),
            ("0000 0001 0022 0123", "3333 2333 1133 0123"),
            ("0000 0011 0122 0123", "3333 1333 0133 0123"),
            ("0000 0111 0112 0123", "3333 0333 0233 0123"),
            ("0000 0111 0122 0123", "3333 0333 0133 0123")],
    }
    for k in (2, 3, 4):
        assert all(c.elements == tuple(f"e{i}" for i in range(k)) and c.name == "" for c in enumerate_mtl_chains(k))


def test_builders_are_valid():
    assert validate_chain(godel_chain(["0", "a", "b", "c", "1"])).ok
    assert validate_chain(lukasiewicz_chain(["0", "1/4", "1/2", "3/4", "1"])).ok


def test_extra_ops_are_rejected(tmp_path, capsys, g4):
    import json

    from gradedmt.algebra import chain_from_dict
    from gradedmt.cli import main
    from gradedmt.files import algebra_to_dict

    data = {**algebra_to_dict(g4), "extra_ops": {"delta": {"arity": 1, "table": [0, 0, 0, 3]}}}
    with pytest.raises(FormatError, match="extra_ops"):
        chain_from_dict(data)
    structure = {"algebra": data, "domain": ["a"], "predicates": {"P": {"arity": 1, "table": {"a": "1"}}}}
    (tmp_path / "s.json").write_text(json.dumps(structure))
    assert main(["enum-subs", "--structure", str(tmp_path / "s.json")]) == 2
    assert "extra_ops" in capsys.readouterr().err


def test_chain_name_takes_no_part_in_equality(b2, g4):
    from dataclasses import replace

    renamed = replace(b2, name="x")
    assert renamed == b2 and hash(renamed) == hash(b2)
    assert renamed.name == "x"
    assert replace(g4, name="") == g4 != b2
