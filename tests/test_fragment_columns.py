"""Formula families held as columns.

`generation._build_fragment` stores a family as a kind code and two operand
positions a row (`Fragment.ops`, `lefts`, `rights`), read back as
(connective, left, right) by `Fragment.rows`, and a free-set code a row
(`Fragment.codes`, decoded by `Fragment.sets`).  These tests
compare every row, free set and leaf with a copy of the builder that kept
one (connective, left, right) tuple and one set per row, check the codes
and plan offsets against references, and bound the bytes a family keeps a
row, so that a return to a tuple per row fails here.
"""

import tracemalloc
from array import array
from itertools import product

import pytest

from gradedmt import generation
from gradedmt.budget import BudgetMeter
from gradedmt.generation import (_CONNECTIVES, _KINDS, _build_fragment, _variable_subsets, atoms_over,
                                 truth_constant_labels)
from gradedmt.syntax import EXISTS, FORALL, App, Atom, Implies, Not, PrenexClass, Signature, Val, Var, free_variables
from tests.conftest import assert_coded_family

LABELS = ("0", "1")


def tuple_build(sig, labels, variables, depth, extra_terms, quantified=False):
    """The builder as it was while a family kept a (connective, left, right)
    tuple per row, kept as an oracle.  Returns (leaves, program, free)."""
    meter = BudgetMeter("sentence generation" if quantified else "matrix generation")
    leaves = tuple(dict.fromkeys(atoms_over(sig, [Var(v) for v in variables] + list(extra_terms), labels)))
    program = [(None, 0, 0)] * len(leaves) + [(Not, k, k) for k, a in enumerate(leaves) if not isinstance(a, Val)]
    free = [frozenset(free_variables(a)) for a in leaves]
    free += [free[k] for _, k, _ in program[len(leaves):]]
    starts, blocks = [0], set()
    for level in range(depth + 1):
        final, built = quantified and level == depth, len(program)
        for k in range(starts[level - 1], starts[level]) if quantified and level else ():
            kind, body, _ = program[k]
            parts = _variable_subsets(tuple(v for v in variables if v in free[k]))
            for part in parts[-1:] if final else parts:
                for q in (FORALL, EXISTS):
                    merged = type(kind) is tuple and kind[0] == q
                    row = ((q, part + kind[1]), body, body) if merged else ((q, part), k, k)
                    if row not in blocks:
                        blocks.add(row)
                        program.append(row)
                        free.append(free[k].difference(part))
        rows = [range(starts[l], starts[l + 1]) for l in range(level)]
        if final:
            rows = [[k for k in r if not free[k]] for r in rows]
        splits = [(rows[la], rows[lb], la - lb) for la, lb in zip(range(level), reversed(range(level)))]
        count = sum(len(a) * (5 * len(b) if d < 0 else len(b) if d else 3 * len(a) + 2) for a, b, d in splits)
        meter.tick(min(len(program) - built + count if level else len(program), meter.limit - meter.used + 1))
        for left, right, d in splits:
            for i in left:
                for j in right:
                    kinds = _CONNECTIVES if d < 0 or d == 0 and i <= j else (Implies,)
                    program += [(kind, i, j) for kind in kinds]
                    free += [free[i] | free[j]] * len(kinds)
        starts.append(len(program))
    return leaves, tuple(program), tuple(free)


SIGS = {  # signature, extra terms
    "R/2": (Signature(predicates={"R": 2}), ()),
    "P/1 R/2": (Signature(predicates={"P": 1, "R": 2}), ()),
    "P/1 c": (Signature(predicates={"P": 1}, functions={"c": 0}), (App("c"),)),
    "identity": (Signature(), ()),
}
# (signature, variables, depth, quantified): matrices over 0-5 variables to
# depth 1, and to depth 2 over at most two; sentence families to depth 2; and
# two at depth 3, whose final level meets rows planned at earlier levels
# (only over two or more variables do its plans differ from theirs)
FAMILIES = [(name, n, depth, quantified) for name in sorted(SIGS) if name != "identity"
            for n, depth, quantified in [*product(range(6), (0, 1), [False]), *product(range(3), (2,), [False]),
                                         *product(range(3), (0, 1, 2), [True])]]
FAMILIES += [("P/1 R/2", 1, 3, True), ("identity", 2, 3, True)]


@pytest.mark.parametrize("name, n, depth, quantified", FAMILIES)
def test_columns_hold_the_tuple_builders_rows(name, n, depth, quantified):
    sig, extra = SIGS[name]
    variables = [f"x{i}" for i in range(1, n + 1)]
    labels = truth_constant_labels(sig, LABELS)
    family = _build_fragment(sig, labels, variables, depth, extra, quantified)
    leaves, program, free = tuple_build(sig, labels, variables, depth, extra, quantified)
    assert tuple(family.rows()) == program
    assert tuple(map(family.sets.__getitem__, family.codes)) == free and family.leaves == leaves
    assert (family.ops.typecode, family.lefts.typecode, family.rights.typecode) == ("H", "i", "i")
    # the fixed codes, then each block kind in order of first use
    assert family.kinds[:len(_KINDS)] == _KINDS
    first_used = dict.fromkeys(c for c in family.ops if c >= len(_KINDS))
    assert list(first_used) == list(range(len(_KINDS), len(family.kinds)))
    start = len(program) // 3
    assert list(family.rows(start, start + 7)) == list(program[start:start + 7])


@pytest.mark.parametrize("name, n, depth, quantified", FAMILIES)
def test_free_set_codes_and_plan_offsets_match_the_references(name, n, depth, quantified, monkeypatch):
    sig, extra = SIGS[name]
    variables = [f"x{i}" for i in range(1, n + 1)]
    assert_coded_family(_build_fragment(sig, truth_constant_labels(sig, LABELS), variables, depth, extra, quantified),
                        monkeypatch)


def test_given_free_sets_are_coded_with_the_empty_set_first():
    one, two = frozenset({"x1"}), frozenset({"x1", "x2"})
    family = generation.Fragment([Atom("R", (Var("x1"), Var("x2")))] * 4, [two, one, two, frozenset()])
    assert family.sets == (frozenset(), two, one) and list(family.codes) == [1, 2, 1, 0]
    assert family.sets[family.codes[1]] is one and len(family.codes) == 4
    assert list(family.closed()) == [3]


def test_the_offset_guard_sits_at_the_4_byte_limit():
    assert array("I", [generation._OFFSET_MAX])[0] == 2**32 - 1
    with pytest.raises(OverflowError):
        array("I", [generation._OFFSET_MAX + 1])


def test_a_leaf_family_reads_its_leaves_by_position():
    leaves = [Val("1"), Atom("P", (Var("x1"),))]
    family = generation.Fragment(leaves, [frozenset(), frozenset({"x1"})])
    assert list(family.rows()) == [(None, 0, 0)] * 2 and family.matrix(1) is leaves[1]


def test_a_family_keeps_at_most_32_bytes_a_row():
    # R/2 over x1, x2 and three parameters at depth 1 (the family of a
    # three-parameter existential check), with its Exists(1) plan
    sig, variables = Signature(predicates={"R": 2}), ["x1", "x2", "p1", "p2", "p3"]
    steps = [(["x1", "x2"], PrenexClass(EXISTS, 1))]
    _build_fragment(sig, LABELS, variables, 1, ()).plan(steps)  # fill the module caches first
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        family = _build_fragment(sig, LABELS, variables, 1, ())
        family.plan(steps)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(family.codes) == 31518
    assert kept <= 32 * len(family.codes)

