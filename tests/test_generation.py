import itertools
import sys
from array import array
from collections import OrderedDict

import pytest
from hypothesis import given, settings, strategies as st

from gradedmt import corpus, generation
from gradedmt.budget import BudgetMeter
from gradedmt.chains import check_tarski_vaught, validate_chain_of_structures
from gradedmt.errors import BudgetError, InternalError, SignatureError
from gradedmt.generation import (
    AssignmentGrid,
    elementary_family,
    enumerate_structures,
    elementary_plan,
    generate_sentences,
    ground_terms,
    prenex_candidates,
    prenex_formula,
    qf_matrices,
)
from gradedmt.morphisms import inclusion_map, is_elementary_up_to_depth
from gradedmt.parser import parse_formula, render_formula
from gradedmt.preservation import FormulaBounds, implies_exists_n, universal_transport_ok
from gradedmt.semantics import Structure, eval_formula
from gradedmt.syntax import (
    EXISTS,
    FORALL,
    And,
    App,
    Iff,
    Implies,
    Not,
    Or,
    PrenexClass,
    Signature,
    Strong,
    Val,
    Var,
    classify_prenex,
    exists_block,
    expand_with_truth_constants,
    forall_block,
    free_variables,
    is_sentence,
    quantifier_free_class,
)

G3 = corpus.godel3()


def assignments(variables, domain):
    """Every assignment of domain elements to the variables, in `product` order."""
    return [dict(zip(variables, combo)) for combo in itertools.product(domain, repeat=len(variables))]


def test_sentences_are_closed_and_deterministic(sig_p, g4):
    first = generate_sentences(sig_p, g4.elements, 2)
    second = generate_sentences(sig_p, g4.elements, 2)
    assert first == second
    assert all(is_sentence(phi) for phi in first)
    assert len(set(first)) == len(first)


def test_sentence_membership(sig_p, g4):
    depth1 = generate_sentences(sig_p, g4.elements, 1)
    assert parse_formula("forall x1. P(x1)", sig_p) in depth1
    expanded = expand_with_truth_constants(sig_p, g4)
    depth2 = generate_sentences(expanded, g4.elements, 2)
    assert parse_formula("val(3/4) -> forall x1. P(x1)", expanded) in depth2
    assert parse_formula("forall x1. P(x1)", expanded) in depth2


def test_truth_constants_licensed_only(sig_p, g4):
    base = generate_sentences(sig_p, g4.elements, 1)
    assert parse_formula("val(1)", sig_p) in base
    expanded_sig = expand_with_truth_constants(sig_p, g4)
    licensed = parse_formula("val(3/4)", expanded_sig)
    assert licensed not in base
    assert licensed in generate_sentences(expanded_sig, g4.elements, 1)


def test_generation_budget(monkeypatch, sig_r, g4):
    monkeypatch.setenv("GRADEDMT_BUDGET", "500")
    with pytest.raises(BudgetError):
        generate_sentences(sig_r, g4.elements, 3)


def test_qf_matrices_are_quantifier_free(sig_r, g4):
    mats = qf_matrices(sig_r, g4.elements, ["x1", "x2"], 1)
    assert all(str(classify_prenex(m)) == "QuantifierFree" for m in mats)
    assert len(set(mats)) == len(mats)
    for sig, extra in ORDER_SIGNATURES.values():
        for total_vars, matrix_depth in ORDER_POOLS:
            variables = [f"x{i}" for i in range(1, total_vars + 1)]
            mats = qf_matrices(sig, G3.elements, variables, matrix_depth, extra)
            assert len(set(mats)) == len(mats)


def test_prenex_candidates_fit_target(sig_r, g4):
    target = PrenexClass(EXISTS, 2)
    plan = generation.fragment(sig_r, g4.elements, ["x1", "x2"], 1).plan([(["x1", "x2"], target)])
    for matrix, prefix, params in plan:
        formula = prenex_formula(matrix, prefix)
        got = classify_prenex(formula)
        assert got.within(target)
        if prefix:
            assert got.kind == prefix[0][0] and got.blocks == len(prefix)
        assert set(params) == free_variables(formula)


def test_prenex_candidates_include_degenerate_lead(sig_r, g4):
    plan = generation.fragment(sig_r, g4.elements, ["x1", "x2"], 0).plan([(["x1", "x2"], PrenexClass(EXISTS, 2))])
    leads = {(prefix[0][0], len(prefix)) for _, prefix, _ in plan if prefix}
    assert (EXISTS, 1) in leads and (EXISTS, 2) in leads and (FORALL, 1) in leads
    assert (FORALL, 2) not in leads


# --- the plans against the earlier per-call builders ---


def _reference_prenex_candidates(matrices, quantifiable, target):
    """The per-call builder the cached family replaced, kept as an order
    oracle: (formula, matrix, prefix, params, lead, blocks) tuples."""
    for matrix in matrices:
        fv = free_variables(matrix)
        to_bind = [v for v in quantifiable if v in fv]
        params = tuple(sorted(fv - set(to_bind)))
        if not to_bind:
            if quantifier_free_class().within(target):
                yield matrix, matrix, (), params, None, 0
            continue
        n = len(to_bind)
        for lead in (FORALL, EXISTS):
            for parts in range(1, min(target.blocks, n) + 1):
                for cuts in itertools.combinations(range(1, n), parts - 1):
                    bounds = (0,) + cuts + (n,)
                    comp = [tuple(to_bind[bounds[i]:bounds[i + 1]]) for i in range(parts)]
                    if not PrenexClass(lead, parts).within(target):
                        continue
                    other = EXISTS if lead == FORALL else FORALL
                    kinds = [lead if i % 2 == 0 else other for i in range(parts)]
                    phi = matrix
                    for kind, part in reversed(list(zip(kinds, comp))):
                        phi = (forall_block if kind == FORALL else exists_block)(part, phi)
                    yield phi, matrix, tuple(zip(kinds, comp)), params, lead, parts


def _reference_elementary_family(matrices, variables, depth):
    seen = set()
    for n_params in range(len(variables) + 1):
        for target in (PrenexClass(FORALL, depth), PrenexClass(EXISTS, depth)):
            for cand in _reference_prenex_candidates(matrices, variables[n_params:], target):
                key = (id(cand[1]), cand[2], cand[3])
                if cand[5] <= depth and key not in seen:
                    seen.add(key)
                    yield cand


def _rows(triples):
    """A plan's (matrix, prefix, params) triples as the reference's rows."""
    return [(prenex_formula(matrix, prefix), matrix, prefix, params, prefix[0][0] if prefix else None, len(prefix))
            for matrix, prefix, params in triples]


def _reference_rows(candidates):
    return list(candidates)


def _assert_same_rows(got, want):
    """Rows compared as trees, which is stricter than equal renders; a
    mismatch is rendered only to report it."""
    assert len(got) == len(want)
    for k, (a, b) in enumerate(zip(got, want)):
        if a != b:
            pytest.fail(f"row {k}: {render_formula(a[0])} {a[2:]} != {render_formula(b[0])} {b[2:]}")


ORDER_SIGNATURES = {
    "plain": (Signature(predicates={"P": 1, "R": 2}), ()),
    "truth-constants": (expand_with_truth_constants(Signature(predicates={"P": 1, "R": 2}), G3), ()),
    "constant": (Signature(predicates={"P": 1, "R": 2}, functions={"c": 0}), (App("c"),)),
}
# three variables at matrix depth 1 give ~120k elementary candidates; depth 0 covers them
ORDER_POOLS = [(1, 1), (2, 1), (3, 0)]


@pytest.mark.parametrize("which", sorted(ORDER_SIGNATURES))
@pytest.mark.parametrize("total_vars, matrix_depth", ORDER_POOLS)
def test_prenex_candidates_match_reference_order(which, total_vars, matrix_depth):
    # `Fragment.plan` in one step is the stream `prenex_candidates` yields
    sig, extra = ORDER_SIGNATURES[which]
    variables = [f"x{i}" for i in range(1, total_vars + 1)]
    family = generation.fragment(sig, G3.elements, variables, matrix_depth, extra)
    matrices = qf_matrices(sig, G3.elements, variables, matrix_depth, extra)
    for blocks in (1, 2, 3):
        for kind in (FORALL, EXISTS):
            target = PrenexClass(kind, blocks)
            for quantifiable in (variables, variables[1:]):
                got = _rows(family.plan([(quantifiable, target)]))
                want = _reference_rows(_reference_prenex_candidates(matrices, quantifiable, target))
                _assert_same_rows(got, want)


@pytest.mark.parametrize("which", sorted(ORDER_SIGNATURES))
@pytest.mark.parametrize("total_vars, matrix_depth", ORDER_POOLS)
def test_elementary_family_matches_reference_order(which, total_vars, matrix_depth):
    sig, extra = ORDER_SIGNATURES[which]
    variables = [f"x{i}" for i in range(1, total_vars + 1)]
    matrices = qf_matrices(sig, G3.elements, variables, matrix_depth, extra)
    for depth in (1, 2, 3):
        got = _rows(elementary_plan(sig, G3.elements, depth, total_vars, matrix_depth, extra))
        want = _reference_rows(_reference_elementary_family(matrices, variables, depth))
        _assert_same_rows(got, want)


def test_prenex_candidates_yield_their_plan():
    sig, extra = ORDER_SIGNATURES["constant"]
    matrices = qf_matrices(sig, G3.elements, ["x1", "x2"], 0, extra)
    family = generation.Fragment(matrices, [frozenset(free_variables(phi)) for phi in matrices])
    target = PrenexClass(EXISTS, 2)
    assert list(prenex_candidates(matrices, ["x1", "x2"], target)) == list(family.plan([(["x1", "x2"], target)]))


def test_elementary_family_yields_its_plan():
    sig, extra = ORDER_SIGNATURES["constant"]
    got = elementary_family(sig, G3.elements, 1, matrix_depth=0, extra_terms=extra)
    assert list(got) == list(elementary_plan(sig, G3.elements, 1, 2, 0, extra))


def test_warm_fragment_fails_on_budget_like_a_fresh_build(monkeypatch, fresh_fragments, sig_r, g4):
    args = (sig_r, g4.elements, ["x1", "x2"], 1)
    size = len(qf_matrices(*args))
    monkeypatch.setenv("GRADEDMT_BUDGET", str(size - 1))
    with pytest.raises(BudgetError) as warm:
        qf_matrices(*args)
    assert len(fresh_fragments) == 1
    generation._fragments.clear()
    with pytest.raises(BudgetError) as fresh:
        qf_matrices(*args)
    assert len(fresh_fragments) == 2
    assert str(warm.value) == str(fresh.value) == f"matrix generation exceeded budget of {size - 1}"
    assert (warm.value.required, warm.value.budget) == (fresh.value.required, fresh.value.budget)
    monkeypatch.setenv("GRADEDMT_BUDGET", str(size))
    assert len(qf_matrices(*args)) == size


def test_fragment_cache_is_bounded_lru(fresh_fragments, sig_p, g4):
    limit = generation._FRAGMENT_CACHE_SIZE
    pools = [[f"y{i}"] for i in range(limit + 1)]
    for pool in pools:
        qf_matrices(sig_p, g4.elements, pool, 0)
    assert len(generation._fragments) == limit
    qf_matrices(sig_p, g4.elements, pools[-1], 0)  # newest: still cached
    assert len(fresh_fragments) == limit + 1
    qf_matrices(sig_p, g4.elements, pools[0], 0)  # oldest: dropped, built again
    assert len(fresh_fragments) == limit + 2
    assert len(generation._fragments) == limit


def test_fragment_cache_keys_on_licensed_labels(fresh_fragments, sig_r, g3, g4):
    # without licences only the endpoints are available, so both chains share one family
    assert qf_matrices(sig_r, g3.elements, ["x1"], 1) == qf_matrices(sig_r, g4.elements, ["x1"], 1)
    assert len(fresh_fragments) == 1
    qf_matrices(expand_with_truth_constants(sig_r, g4), g4.elements, ["x1"], 1)
    assert len(fresh_fragments) == 2


def test_mutating_returned_matrices_does_not_reach_the_cache(fresh_fragments, sig_r, g4):
    args = (sig_r, g4.elements, ["x1", "x2"], 1)
    first = qf_matrices(*args)
    expected = list(first)
    first.reverse()
    first.append(first[0])
    assert qf_matrices(*args) == expected
    assert len(fresh_fragments) == 1


def test_grid_matches_plain_evaluator(g4, sig_r):
    table = {}
    values = [0, 1, 2, 3, 1, 2, 0, 3, 2]
    for (a, b), v in zip(itertools.product(("a", "b", "c"), repeat=2), values):
        table[(a, b)] = v
    s = Structure(chain=g4, sig=sig_r, domain=("a", "b", "c"), predicates={"R": table})
    grid = AssignmentGrid(s, ("x1", "x2"))
    sig = expand_with_truth_constants(sig_r, g4)
    for phi in qf_matrices(sig, g4.elements, ["x1", "x2"], 1)[:300]:
        vals = grid.values(phi)
        for asg in assignments(("x1", "x2"), s.domain):
            assert vals[grid.cell(asg)] == eval_formula(phi, s, asg)


def test_grid_fold_matches_quantifier(g4, sig_r):
    table = {p: (hash(p) % 4) for p in itertools.product(("a", "b"), repeat=2)}
    s = Structure(chain=g4, sig=sig_r, domain=("a", "b"), predicates={"R": table})
    grid = AssignmentGrid(s, ("x1", "x2"))
    matrix = parse_formula("R(x1,x2)", sig_r)
    folded = grid.fold(grid.values(matrix), "x2", FORALL)
    phi = parse_formula("forall x2. R(x1,x2)", sig_r)
    for d in s.domain:
        assert folded[grid.cell({"x1": d})] == eval_formula(phi, s, {"x1": d})


SIG_PR = Signature(predicates={"P": 1, "R": 2})
GRID_VARS = ("x1", "x2", "x3")
PR_FAMILY = generation.fragment(SIG_PR, G3.elements, GRID_VARS, 1)


@st.composite
def pr_structures(draw):
    domain = tuple(f"d{i}" for i in range(draw(st.integers(1, 3))))
    values = st.integers(0, G3.size - 1)
    predicates = {
        name: {args: draw(values) for args in itertools.product(domain, repeat=arity)}
        for name, arity in SIG_PR.predicates.items()
    }
    return Structure(chain=G3, sig=SIG_PR, domain=domain, predicates=predicates)


@settings(max_examples=60, deadline=None)
@given(
    s=pr_structures(),
    positions=st.lists(st.integers(0, len(PR_FAMILY.codes) - 1), min_size=1, max_size=4),
    order=st.permutations(GRID_VARS),
)
def test_prefix_folds_match_plain_evaluator(s, positions, order):
    # x1 and x2 are quantified, x3 stays a parameter; the drawn axis order
    # puts every stride under a fold.  One table spans the grid and its
    # slices at each value of x3, and each grid reads its own slice.
    sliced = [AssignmentGrid(s, [v for v in order if v != "x3"], fixed={"x3": d}) for d in s.domain]
    table = generation.ValueClasses(PR_FAMILY, [AssignmentGrid(s, order), *sliced])
    table.extend(max(positions) + 1)
    grid = table.grids[0]
    for target in (PrenexClass(FORALL, 2), PrenexClass(EXISTS, 2)):
        (rows,) = PR_FAMILY.plan([(["x1", "x2"], target)]).rows
        for k in positions:
            c, formula = table.cls[k], PR_FAMILY.matrix(k)
            for prefix in rows[PR_FAMILY.codes[k]][0]:
                vals = table.read(c, 0, prefix)
                assert not prefix or table.read(c, 0, prefix) is vals  # each fold memoised
                for asg in assignments(GRID_VARS, s.domain):
                    assert vals[grid.cell(asg)] == eval_formula(prenex_formula(formula, prefix), s, asg)
                for i, part in enumerate(sliced, 1):
                    part_vals = table.read(c, i, prefix)
                    for asg in assignments(part.variables, s.domain):
                        assert part_vals[part.cell(asg)] == vals[grid.cell({**asg, **part.fixed})]


PAIR_VARS = ("x1", "x2")
PAIR_FAMILY = generation.fragment(expand_with_truth_constants(SIG_PR, G3), G3.elements, PAIR_VARS, 1)


PAIR_MATRICES = [PAIR_FAMILY.matrix(k) for k in range(len(PAIR_FAMILY.codes))]


def test_family_program_reads_only_earlier_positions():
    for k, (phi, (kind, i, j)) in enumerate(zip(PAIR_MATRICES, PAIR_FAMILY.rows())):
        assert kind is (type(phi) if isinstance(phi, (Not, And, Or, Strong, Implies, Iff)) else None)
        assert kind is None or (i < k and j < k)


@settings(max_examples=30, deadline=None)
@given(s=pr_structures(), t=pr_structures(), order=st.permutations(PAIR_VARS))
def test_value_classes_match_values_and_plain_evaluator(s, t, order):
    grid, other = AssignmentGrid(s, order), AssignmentGrid(t, order)
    alone, pair = generation.ValueClasses(PAIR_FAMILY, [grid]), generation.ValueClasses(PAIR_FAMILY, [grid, other])
    alone.extend()
    pair.extend()
    rows, both = ([table.vecs[c] for c in table.cls] for table in (alone, pair))
    for phi, row, joint in zip(PAIR_MATRICES, rows, both):
        assert row == grid.values(phi)
        assert joint == row + other.values(phi)
        for asg in assignments(order, s.domain):
            assert row[grid.cell(asg)] == eval_formula(phi, s, asg)


def test_swapped_fold_is_caught_by_the_evaluator_replays(monkeypatch):
    sig = Signature(predicates={"P": 1})
    point = Structure(chain=G3, sig=sig, domain=("a",), predicates={"P": {("a",): G3.top}})
    pair = Structure(chain=G3, sig=sig, domain=("a", "b"),
                     predicates={"P": {("a",): G3.top, ("b",): 0}})
    incl = inclusion_map(point, pair)
    # existential sentences go up to a superstructure; the inclusion is not
    # elementary, but "exists x1 . P(x1)" takes top on both sides.  A substructure
    # is decided without a fold, so the sentences go up from `copy`, two top
    # points, to `grown`, which holds a copy of it (c as d) but not c itself
    copy = Structure(chain=G3, sig=sig, domain=("a", "c"), predicates={"P": {("a",): G3.top, ("c",): G3.top}})
    grown = Structure(chain=G3, sig=sig, domain=("a", "b", "d"),
                      predicates={"P": {("a",): G3.top, ("b",): 0, ("d",): G3.top}})
    assert implies_exists_n(point, pair, (), 1).ok and implies_exists_n(copy, grown, (), 1).ok
    assert implies_exists_n(point, pair, ("a",), 1).ok and implies_exists_n(copy, grown, ("a",), 1).ok
    assert not is_elementary_up_to_depth(incl, point, pair, 1).ok
    fold = AssignmentGrid.fold

    def swapped(self, values, var, kind):
        return fold(self, values, var, EXISTS if kind == FORALL else FORALL)

    monkeypatch.setattr(AssignmentGrid, "fold", swapped)
    with pytest.raises(InternalError):
        implies_exists_n(copy, grown, (), 1)
    with pytest.raises(InternalError):
        implies_exists_n(copy, grown, ("a",), 1)
    with pytest.raises(InternalError):
        is_elementary_up_to_depth(incl, point, pair, 1)



# --- the index-program build against the levelled-pool build ---


def _pool_build(sig, labels, variables, depth, extra_terms=()):
    """The family as the levelled pool built it before families were index
    programs, kept as an oracle: every matrix built as a formula, one meter
    tick per matrix, and the program read off by node identity.  Returns
    (matrices, free sets, program)."""
    meter, levels, seen = BudgetMeter("matrix generation"), [], set()

    def append(phi, level, fv=None):
        meter.tick()
        while len(levels) <= level:
            levels.append([])
        levels[level].append((phi, frozenset(free_variables(phi)) if fv is None else fv))

    atoms = generation.atoms_over(sig, [Var(v) for v in variables] + list(extra_terms), labels)
    for lit in atoms + [Not(a) for a in atoms if not isinstance(a, Val)]:
        if lit not in seen:
            seen.add(lit)
            append(lit, 0)
    for level in range(1, depth + 1):
        for la in range(level):
            lb = level - 1 - la
            if lb >= len(levels) or la >= len(levels):
                continue
            for i, (phi, fv_i) in enumerate(levels[la]):
                for j, (psi, fv_j) in enumerate(levels[lb]):
                    for conn in (And, Or, Strong, Implies, Iff):
                        if conn is not Implies and (la > lb or la == lb and j < i):
                            continue
                        append(conn(phi, psi), level, fv_i | fv_j)
    entries = [entry for bucket in levels for entry in bucket]
    matrices = tuple(phi for phi, _ in entries)
    pos = {id(phi): i for i, phi in enumerate(matrices)}
    program = tuple((Not, pos[id(phi.body)], pos[id(phi.body)]) if isinstance(phi, Not)
                    else (type(phi), pos[id(phi.left)], pos[id(phi.right)])
                    if isinstance(phi, (And, Or, Strong, Implies, Iff)) else (None, 0, 0) for phi in matrices)
    return matrices, tuple(fv for _, fv in entries), program


class _PoolFragment(generation.Fragment):
    """A family that reads the pool build's own formulas, its program as columns."""

    def __init__(self, matrices, free, program):
        ops, lefts, rights = zip(*((generation._KINDS.index(kind), i, j) for kind, i, j in program))
        super().__init__([phi for phi, (kind, _, _) in zip(matrices, program) if kind is None], free,
                         (generation._KINDS, array("H", ops), array("i", lefts), array("i", rights)))
        self.matrices = matrices

    def matrix(self, k):
        return self.matrices[k]


def _pool_fragment(sig, labels, variables, depth, extra_terms):
    return _PoolFragment(*_pool_build(sig, labels, variables, depth, extra_terms))


SIG_PC = Signature(predicates={"P": 1}, functions={"c": 0, "d": 0})
BUILD_CASES = {  # signature, variables, extra terms
    "P/1 R/2": (SIG_PR, ("x1", "x2"), ()),
    "P/1 R/2 with truth constants": (expand_with_truth_constants(SIG_PR, G3), ("x1", "x2"), ()),
    "a constant": (SIG_PC, ("x1",), (App("c"),)),
    "no variables": (SIG_PC, (), (App("c"), App("d"))),  # as a diagram builds its family
}


@pytest.mark.parametrize("depth", [0, 1, 2])
@pytest.mark.parametrize("case", sorted(BUILD_CASES))
def test_index_program_build_matches_the_pool_build(case, depth):
    sig, variables, extra = BUILD_CASES[case]
    if depth == 2:  # over two variables a depth-2 family has 200k matrices: seconds of oracle
        variables = variables[:1]
    labels = generation.truth_constant_labels(sig, G3.elements)
    family = generation._build_fragment(sig, labels, variables, depth, extra)
    matrices, free, program = _pool_build(sig, labels, variables, depth, extra)
    assert tuple(family.rows()) == program
    assert tuple(map(family.sets.__getitem__, family.codes)) == free
    assert len(set(family.sets)) == len(family.sets) == len({frozenset(), *free})  # one entry per distinct set
    assert family.leaves == matrices[:len(family.leaves)]
    assert [family.matrix(k) for k in range(len(matrices))] == list(matrices)


def test_a_budget_cut_in_any_level_fails_like_the_pool_build(monkeypatch):
    sig, variables, extra = BUILD_CASES["a constant"]
    labels = generation.truth_constant_labels(sig, G3.elements)
    ends = [len(_pool_build(sig, labels, variables, depth, extra)[0]) for depth in (0, 1, 2)]
    # inside level 0, at its end, inside level 1 (twice), at its end, inside level 2
    for limit in (ends[0] - 3, ends[0], ends[0] + 1, (ends[0] + ends[1]) // 2, ends[1], ends[2] - 1):
        monkeypatch.setenv("GRADEDMT_BUDGET", str(limit))
        with pytest.raises(BudgetError) as got:
            generation._build_fragment(sig, labels, variables, 2, extra)
        with pytest.raises(BudgetError) as want:
            _pool_build(sig, labels, variables, 2, extra)
        assert str(got.value) == str(want.value) == f"matrix generation exceeded budget of {limit}"
        assert (got.value.required, got.value.budget) == (want.value.required, want.value.budget)
    monkeypatch.setenv("GRADEDMT_BUDGET", str(ends[2]))
    assert len(generation._build_fragment(sig, labels, variables, 2, extra).codes) == ends[2]


SIG_P = Signature(predicates={"P": 1})
POINT = Structure(chain=G3, sig=SIG_P, domain=("a",), predicates={"P": {("a",): G3.top}})
PAIR = Structure(chain=G3, sig=SIG_P, domain=("a", "b"), predicates={"P": {("a",): G3.top, ("b",): 0}})
HOT_CALLS = {  # name: (call, its verdict)
    "existential transfer holds": (lambda: implies_exists_n(POINT, PAIR, (), 1), True),
    "existential transfer fails": (lambda: implies_exists_n(PAIR, POINT, (), 1), False),
    "elementarity": (lambda: is_elementary_up_to_depth(inclusion_map(POINT, PAIR), POINT, PAIR, 1), False),
    "universal transport": (lambda: universal_transport_ok({"a": "a"}, POINT, PAIR, FormulaBounds()), False),
    "tarski-vaught": (lambda: check_tarski_vaught(validate_chain_of_structures([POINT, PAIR])), True),
}


@pytest.mark.parametrize("name", sorted(HOT_CALLS))
def test_hot_paths_build_no_whole_family(monkeypatch, name):
    call, verdict = HOT_CALLS[name]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(generation, "_fragments", OrderedDict())
        patch.setattr(generation, "_build_fragment", _pool_fragment)
        want = call()
    monkeypatch.setattr(generation, "_fragments", OrderedDict())
    ran = []

    def recorded(original):
        return lambda *args, **kwargs: ran.append(original.__name__) or original(*args, **kwargs)

    for module in [m for n, m in sys.modules.items() if n.startswith("gradedmt")]:
        if getattr(module, "qf_matrices", None) is qf_matrices:
            monkeypatch.setattr(module, "qf_matrices", recorded(qf_matrices))
    monkeypatch.setattr(generation.StreamPlan, "__iter__", recorded(generation.StreamPlan.__iter__))
    got = call()
    assert generation._fragments and ran == []
    assert got == want and getattr(got, "ok", got) is verdict
    assert getattr(got, "separator", None) == getattr(want, "separator", None)


def test_ground_terms_nesting():
    sig = Signature(functions={"f": 1, "c": 0, "d": 0})
    terms = ground_terms(sig, ["c", "d"], term_depth=2)
    names = {t.name for t in terms}
    assert {"c", "d", "f"} <= names
    assert len(terms) == 6  # c, d, f(c), f(d), f(f(c)), f(f(d))


def test_enumerate_structures_counts(b2, sig_r):
    structures = list(enumerate_structures(sig_r, b2, 2))
    assert len(structures) == 2 + 2**4
    assert structures[0].domain == ("d0",)
    # canonical order: the first structure has the all-bottom table
    assert set(structures[0].predicates["R"].values()) == {0}


def test_enumerate_structures_with_constants(b2):
    sig = Signature(predicates={"P": 1}, functions={"c": 0})
    structures = list(enumerate_structures(sig, b2, 2))
    assert len(structures) == 2 * 1 + 4 * 2
    assert structures[0].functions["c"][()] == "d0"


def test_enumerate_structures_rejects_proper_functions(b2):
    sig = Signature(functions={"f": 1})
    with pytest.raises(SignatureError):
        list(enumerate_structures(sig, b2, 1))


def test_enumerate_structures_budget(monkeypatch, g4, sig_r):
    monkeypatch.setenv("GRADEDMT_BUDGET", "1000")
    with pytest.raises(BudgetError):
        list(enumerate_structures(sig_r, g4, 3))
