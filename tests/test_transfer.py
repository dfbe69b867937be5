"""The transfer check over value classes and stream positions.

`morphisms.first_transfer_failure` decides each (value class, prefix,
params) triple once, at a stream position its `StreamPlan` computes.
These tests pin elementarity verdicts across two chains, check the plan's
positions against a copy of the stream read one candidate at a time,
compare the check with a copy of the per-candidate loop it replaced (for
the relations of all three callers, under caps and budget cuts), check
`generation.ValueClasses` against the on-demand grid driver, and check that
a transfer along an isomorphism is decided without reading the family,
while a pair that breaks one condition of that rule reads it, that
existential transfer along a strong embedding is decided unread too, and
that a relabelled copy or a twin extension off a bijection is decided from
the leaf rows alone by the colouring of the cells.
To print the cross-chain pins again, run

    PYTHONPATH=src python tests/test_transfer.py
"""

import random
import sys
from dataclasses import replace
from itertools import islice, product

import pytest
from hypothesis import given, settings, strategies as st

from gradedmt import corpus, morphisms
from gradedmt.algebra import AlgebraMap
from gradedmt.budget import BudgetMeter
from gradedmt.errors import BudgetError, InternalError, PreconditionError
from gradedmt.generation import (AssignmentGrid, Fragment, StreamPlan, ValueClasses, _prefixes, elementary_plan,
                                 fragment, prenex_formula, sentence_family)
from gradedmt.morphisms import StructureMap, first_transfer_failure, inclusion_map, is_elementary_up_to_depth
from gradedmt.parser import render_formula
from gradedmt.semantics import Structure, eval_formula
from gradedmt.syntax import (EXISTS, FORALL, App, Atom, PrenexClass, Signature, Var, expand_with_truth_constants,
                             quantifier_free_class)

BOOL2 = corpus.bool2()
TARGET_CHAINS = {name: getattr(corpus, name)() for name in ("godel3", "lukasiewicz3")}
SIG_PR = Signature(predicates={"P": 1, "R": 2})


def cross_chain_case(seed: int, chain: str, mode: str):
    """A bool2 structure on {a, b}, a structure on {a, b, c} over `chain`, and
    the inclusion with algebra map (0, top).  On {a, b} the target carries
    the image of each source value; `twin` makes c a copy of a, `random`
    draws c's entries, and `broken` also moves one source entry off its
    image, so the map is not a strong homomorphism."""
    rnd, target_chain = random.Random(seed), TARGET_CHAINS[chain]
    f = (0, target_chain.top)
    source_tables = {p: {args: rnd.randrange(2) for args in product("ab", repeat=a)}
                     for p, a in sorted(SIG_PR.predicates.items())}
    target_tables = {}
    for p, a in sorted(SIG_PR.predicates.items()):
        table = {}
        for args in product("abc", repeat=a):
            if mode == "twin":
                table[args] = f[source_tables[p][tuple("a" if d == "c" else d for d in args)]]
            elif "c" in args:
                table[args] = rnd.randrange(target_chain.size)
            else:
                table[args] = f[source_tables[p][args]]
        target_tables[p] = table
    if mode == "broken":
        p = rnd.choice(sorted(SIG_PR.predicates))
        args = rnd.choice(sorted(source_tables[p]))
        old = target_tables[p][args]
        target_tables[p][args] = rnd.choice([v for v in range(target_chain.size) if v != old])
    source = Structure(chain=BOOL2, sig=SIG_PR, domain=("a", "b"), predicates=source_tables)
    target = Structure(chain=target_chain, sig=SIG_PR, domain=("a", "b", "c"), predicates=target_tables)
    return StructureMap(AlgebraMap(BOOL2, target_chain, f), {"a": "a", "b": "b"}), source, target


CROSS_CASES = [(seed, chain, mode) for chain in sorted(TARGET_CHAINS)
               for mode, seeds in (("random", (0, 1, 2)), ("twin", (1, 3, 13)), ("broken", (0, 1)))
               for seed in seeds]


def cross_chain_verdict(seed, chain, mode):
    rep = is_elementary_up_to_depth(*cross_chain_case(seed, chain, mode), 1)
    separator = None if rep.separator is None else render_formula(rep.separator)
    return rep.ok, rep.formulas_checked, separator, rep.params, rep.reason


# captured before the transfer loop ran on value classes
NOT_STRONG = "not a strong homomorphism: predicate value not transported"
CROSS_PINS = {
    (0, 'godel3', 'random'): (False, 1, 'forall x1 . P(x1)', (), ''),
    (1, 'godel3', 'random'): (False, 3, 'forall x1 . R(x1, x1)', (), ''),
    (2, 'godel3', 'random'): (False, 13, 'forall x1 . not P(x1)', (), ''),
    (1, 'godel3', 'twin'): (False, 3337, 'forall x2 . R(x1, x2) -> x1 ~ x2', ('a',), ''),
    (3, 'godel3', 'twin'): (False, 3431, 'forall x2 . R(x2, x1) -> x1 ~ x2', ('a',), ''),
    (13, 'godel3', 'twin'): (True, 6726, None, (), ''),
    (0, 'godel3', 'broken'): (False, 0, None, (), NOT_STRONG),
    (1, 'godel3', 'broken'): (False, 0, None, (), NOT_STRONG),
    (0, 'lukasiewicz3', 'random'): (False, 1, 'forall x1 . P(x1)', (), ''),
    (1, 'lukasiewicz3', 'random'): (False, 3, 'forall x1 . R(x1, x1)', (), ''),
    (2, 'lukasiewicz3', 'random'): (False, 13, 'forall x1 . not P(x1)', (), ''),
    (1, 'lukasiewicz3', 'twin'): (False, 3337, 'forall x2 . R(x1, x2) -> x1 ~ x2', ('a',), ''),
    (3, 'lukasiewicz3', 'twin'): (False, 3431, 'forall x2 . R(x2, x1) -> x1 ~ x2', ('a',), ''),
    (13, 'lukasiewicz3', 'twin'): (True, 6726, None, (), ''),
    (0, 'lukasiewicz3', 'broken'): (False, 0, None, (), NOT_STRONG),
    (1, 'lukasiewicz3', 'broken'): (False, 0, None, (), NOT_STRONG),
}


@pytest.mark.parametrize("case", CROSS_CASES, ids=lambda case: "-".join(map(str, case)))
def test_cross_chain_elementarity_matches_pins(case):
    assert cross_chain_verdict(*case) == CROSS_PINS[case]


def reference_stream(family, steps):
    """`Fragment.stream` as it was before plans: (step, matrix index, matrix,
    prefix, params) read one at a time, a (prefix, params) pair a matrix had
    at an earlier step skipped."""
    rows: dict = {}
    free = [family.sets[c] for c in family.codes]
    for fv in set(free):
        seen: set = set()
        rows[fv] = []
        for quantifiable, target in steps:
            to_bind = tuple(v for v in quantifiable if v in fv)
            params = tuple(sorted(fv.difference(to_bind)))
            new = [p for p in _prefixes(to_bind, target) if (p, params) not in seen]
            seen.update((p, params) for p in new)
            rows[fv].append((new, params))
    matrices = [family.matrix(k) for k in range(len(family.codes))]
    for i in range(len(steps)):
        for k, (matrix, fv) in enumerate(zip(matrices, free)):
            new, params = rows[fv][i]
            for prefix in new:
                yield i, k, matrix, prefix, params


def _reference_fold(grid, values, prefix):
    for kind, part in reversed(prefix):
        for var in part:
            values = grid.fold(values, var, kind)
    return values


def reference_transfer_failure(grid_s, grid_t, triples, f, g, tuples, meter=None):
    """The per-triple loop that `first_transfer_failure` replaced: each
    candidate ticked and read in turn, each matrix through
    `AssignmentGrid.values`, a triple skipped only when its two folded
    vectors and params already passed."""
    top_s, top_t = grid_s.structure.chain.top, grid_t.structure.chain.top
    cells: dict = {}
    passed: set = set()
    checked = 0
    for matrix, prefix, params in triples:
        if meter is not None:
            meter.tick()
        checked += 1
        row = cells.get(params)
        if row is None:
            row = cells[params] = [
                (tup, grid_s.cell(dict(zip(params, tup))), grid_t.cell({p: g[d] for p, d in zip(params, tup)}))
                for tup in tuples(params)]
        vs = _reference_fold(grid_s, grid_s.values(matrix), prefix)
        vt = bad = None
        if f is None:
            for tup, i, j in row:
                if vs[i] == top_s:
                    if vt is None:
                        vt = _reference_fold(grid_t, grid_t.values(matrix), prefix)
                    if vt[j] != top_t:
                        bad = tup, i, j
                        break
        else:
            vt = _reference_fold(grid_t, grid_t.values(matrix), prefix)
            key = (tuple(vs), tuple(vt), params)
            if key in passed:
                continue
            passed.add(key)
            for tup, i, j in row:
                if f[vs[i]] != vt[j]:
                    bad = tup, i, j
                    break
        if bad is not None:
            tup, i, j = bad
            phi = prenex_formula(matrix, prefix)
            asg = dict(zip(params, tup))
            if (eval_formula(phi, grid_s.structure, asg) != vs[i]
                    or eval_formula(phi, grid_t.structure, {p: g[d] for p, d in asg.items()}) != vt[j]):
                raise InternalError("grid and evaluator disagree")
            return checked, phi, tup
    return checked, None, None


CHAINS = {name: getattr(corpus, name)() for name in ("bool2", "godel3", "lukasiewicz3")}
# (source chain, target chain, algebra map); the loop reads f only as a table
CHAIN_PAIRS = (("godel3", "godel3", (0, 1, 2)), ("bool2", "godel3", (0, 2)),
               ("bool2", "lukasiewicz3", (0, 2)), ("godel3", "bool2", (0, 0, 1)))


def _structure(draw, chain, domain):
    values = st.integers(0, chain.size - 1)
    return Structure(chain=chain, sig=SIG_PR, domain=domain,
                     predicates={p: {args: draw(values) for args in product(domain, repeat=a)}
                                 for p, a in sorted(SIG_PR.predicates.items())})


def _image(draw, source, chain, f, domain):
    """A structure on `domain`, a superset of the source's domain, that
    carries f of each source value.  New elements either copy the first
    source element or get drawn values; then maybe one entry moves, so
    that failures come late in the stream as well as early."""
    twin, values = draw(st.booleans()), st.integers(0, chain.size - 1)

    def value(p, args):
        if twin:
            args = tuple(d if d in source.domain else source.domain[0] for d in args)
        elif not set(args) <= set(source.domain):
            return draw(values)
        return f[source.predicates[p][args]]

    predicates = {p: {args: value(p, args) for args in product(domain, repeat=a)}
                  for p, a in sorted(SIG_PR.predicates.items())}
    if draw(st.booleans()):
        p = draw(st.sampled_from(sorted(predicates)))
        predicates[p][draw(st.sampled_from(sorted(predicates[p])))] = draw(values)
    return Structure(chain=chain, sig=SIG_PR, domain=domain, predicates=predicates)


@st.composite
def exists_pairs(draw):
    """Two structures over one chain with shared labels, parameters fixed
    among them, and a quantifier target: the relation of `implies_exists_n`."""
    chain = CHAINS[draw(st.sampled_from(sorted(CHAINS)))]
    left = _structure(draw, chain, tuple(f"d{i}" for i in range(draw(st.integers(1, 2)))))
    domain = left.domain + tuple(f"e{i}" for i in range(draw(st.integers(0, 1))))
    same = (0, 1, 2)[:chain.size]
    if draw(st.booleans()):
        right = _image(draw, left, chain, same, domain)
    else:
        right = _structure(draw, chain, domain)
    params = tuple(draw(st.lists(st.sampled_from(left.domain), max_size=2)))
    target = PrenexClass(draw(st.sampled_from((EXISTS, FORALL))), draw(st.integers(1, 2)))
    return left, right, params, target, draw(st.integers(0, 1))


@st.composite
def elementary_pairs(draw):
    """A source, a target over a possibly different chain, an algebra map
    table f and a domain map g, the grid variable count and the matrix depth."""
    source_name, target_name, f = draw(st.sampled_from(CHAIN_PAIRS))
    source = _structure(draw, CHAINS[source_name], tuple(f"d{i}" for i in range(draw(st.integers(1, 2)))))
    domain = source.domain + tuple(f"e{i}" for i in range(draw(st.integers(0, 1))))
    if draw(st.booleans()):
        target = _image(draw, source, CHAINS[target_name], f, domain)
        g = {d: d for d in source.domain}
    else:
        target = _structure(draw, CHAINS[target_name], domain)
        g = {d: draw(st.sampled_from(domain)) for d in source.domain}
    return source, target, f, g, draw(st.integers(1, 2)), draw(st.integers(0, 1))


def grid_tuples(grid):
    """The source tuples per parameter list that `first_transfer_failure`
    reads off the source grid: a parameter takes the element the grid fixes
    it to, else ranges over the domain, in `product` order."""
    return lambda params: product(*([grid.fixed[p]] if p in grid.fixed else grid.structure.domain for p in params))


def _both_loops(family, steps, grid_s, grid_t, f, g, cap=None, keep=None, budget=None):
    """The reference, fed `grid_tuples`, on the stream read one candidate at
    a time, and the plan loop, each on fresh grids with a fresh meter: per
    loop its result, the budget error's message (which names the phase),
    `required` and `budget`, or the replay error's message; then the meter's
    `used`."""
    out = []
    for loop in ("reference", "plan"):
        s, t = (AssignmentGrid(x.structure, x.variables, fixed=x.fixed) for x in (grid_s, grid_t))
        meter = BudgetMeter("transfer", budget)
        try:
            if loop == "reference":
                triples = islice((triple[2:] for triple in reference_stream(family, steps)
                                  if keep is None or keep(triple[3])), cap)
                result = reference_transfer_failure(s, t, triples, f, g, grid_tuples(s), meter)
            else:
                result = first_transfer_failure(family.plan(steps, cap, keep), s, t, f, g, meter)
        except BudgetError as err:
            result = str(err), err.required, err.budget
        except InternalError as err:
            result = str(err)
        out.append((result, meter.used))
    return out


def _cut_at_every_position(family, steps, grid_s, grid_t, f, g, cap=None, keep=None):
    """Both loops unbounded, then with every budget up to one past the positions read."""
    (result, used), plan = _both_loops(family, steps, grid_s, grid_t, f, g, cap, keep)
    assert plan == (result, used)
    for budget in range(used + 2):
        reference, plan = _both_loops(family, steps, grid_s, grid_t, f, g, cap, keep, budget)
        assert plan == reference
        assert reference[1] == min(used, budget + 1)
    return result


EXISTS_STEPS = (("x1", "x2"), PrenexClass(EXISTS, 1))


@settings(max_examples=40, deadline=None)
@given(case=exists_pairs(), cap=st.none() | st.integers(0, 60))
def test_top_transfer_with_fixed_parameters_matches_the_reference(case, cap):
    left, right, params, target, matrix_depth = case
    qvars, pvars = ["x1", "x2"], [f"p{i}" for i in range(1, len(params) + 1)]
    family = fragment(SIG_PR, left.chain.elements, qvars + pvars, matrix_depth)
    assignment = dict(zip(pvars, params))
    reference, plan = _both_loops(
        family, [(qvars, target)], AssignmentGrid(left, qvars, fixed=assignment),
        AssignmentGrid(right, qvars, fixed=assignment), None, dict(zip(params, params)), cap)
    assert plan == reference


@settings(max_examples=40, deadline=None)
@given(case=elementary_pairs())
def test_value_transfer_with_parameter_tuples_matches_the_reference(case):
    source, target, f, g, total_vars, matrix_depth = case
    plan = elementary_plan(SIG_PR, source.chain.elements, 1, total_vars, matrix_depth)
    variables = [f"x{i}" for i in range(1, total_vars + 1)]
    steps = [(variables[n:], t) for n in range(total_vars + 1)
             for t in (PrenexClass(FORALL, 1), PrenexClass(EXISTS, 1))]
    reference, classes = _both_loops(plan.family, steps, AssignmentGrid(source, variables),
                                     AssignmentGrid(target, variables), f, g)
    assert classes == reference


@settings(max_examples=15, deadline=None)
@given(case=elementary_pairs())
def test_universal_transport_on_non_empty_prefixes_matches_the_reference(case):
    # the plan of `universal_transport_ok`: parameters as grid variables, every tuple read
    source, target, _, g, _, _ = case
    qvars, pvars = ["x1"], ["p1"]
    family = fragment(SIG_PR, source.chain.elements, qvars + pvars, 0)
    reference, plan = _both_loops(
        family, [(qvars, PrenexClass(FORALL, 1))], AssignmentGrid(source, qvars + pvars),
        AssignmentGrid(target, qvars + pvars), None, g, keep=bool)
    assert plan == reference


@st.composite
def partly_fixed_pairs(draw):
    """An `elementary_pairs` case over x1 and parameters p1, p2, with a drawn
    subset of the parameters fixed on the source grid, each to a drawn
    source element, and on the target grid to its image under g; the rest
    stay grid variables, and only x1 is ever quantified."""
    source, target, f, g, _, matrix_depth = draw(elementary_pairs())
    fixed = {p: draw(st.sampled_from(source.domain)) for p in ("p1", "p2") if draw(st.booleans())}
    axes = ["x1"] + [p for p in ("p1", "p2") if p not in fixed]
    image = {p: g[d] for p, d in fixed.items()}
    grids = AssignmentGrid(source, axes, fixed=fixed), AssignmentGrid(target, axes, fixed=image)
    return (source.chain, *grids, draw(st.sampled_from([f, None])), g,
            draw(st.sampled_from([0, matrix_depth])), draw(st.sampled_from((FORALL, EXISTS))))


@settings(max_examples=25, deadline=None)
@given(case=partly_fixed_pairs())
def test_value_transfer_with_some_parameters_fixed_matches_the_reference(case):
    # a triple's params mix fixed parameters (one tuple entry each) with ranging ones
    chain, grid_s, grid_t, f, g, matrix_depth, lead = case
    family = fragment(SIG_PR, chain.elements, ("x1", "p1", "p2"), matrix_depth)
    steps = [(("x1",), PrenexClass(lead, 1)), ((), quantifier_free_class())]
    reference, plan = _both_loops(family, steps, grid_s, grid_t, f, g)
    assert plan == reference


def test_a_fixed_parameter_takes_its_element_and_the_others_range_over_the_source_domain():
    # the two sides differ only at R(d1, d0), read first by R(p1, x2) with p1 fixed to d1: the
    # separator's tuple gives p1 its fixed element and x2 its value, in sorted parameter order
    g3, domain = CHAINS["godel3"], ("d0", "d1")
    left, right = (Structure(chain=g3, sig=SIG_PR, domain=domain, predicates={
        "P": {("d0",): 0, ("d1",): 0}, "R": {**dict.fromkeys(product(domain, repeat=2), 0), ("d1", "d0"): v}})
        for v in (2, 1))
    family = fragment(SIG_PR, g3.elements, ("x1", "x2", "p1"), 0)
    grids = (AssignmentGrid(s, ("x1", "x2"), fixed={"p1": "d1"}) for s in (left, right))
    steps, g = [(("x1",), PrenexClass(FORALL, 1))], {"d0": "d0", "d1": "d1"}
    reference, plan = _both_loops(family, steps, *grids, (0, 1, 2), g)
    assert plan == reference
    (_, separator, tup), _ = plan
    assert render_formula(separator) == "R(p1, x2)" and tup == ("d1", "d0")


def _one_point_pair(left=(2, 1), right=(2, 0)):
    """Grids over one-element godel3 structures with these (P, R) values."""
    return tuple(AssignmentGrid(Structure(chain=CHAINS["godel3"], sig=SIG_PR, domain=("a",),
                                          predicates={"P": {("a",): p}, "R": {("a", "a"): r}}), ["x1", "x2"])
                 for p, r in (left, right))


def test_a_prefix_of_the_stream_stops_where_the_reference_stops():
    family = fragment(SIG_PR, CHAINS["godel3"].elements, ["x1", "x2"], 1)
    full = _both_loops(family, [EXISTS_STEPS], *_one_point_pair(), None, {})
    assert full[0] == full[1] and full[0][0][1] is not None
    cap = full[0][0][0] - 1
    cut = _both_loops(family, [EXISTS_STEPS], *_one_point_pair(), None, {}, cap)
    assert cut[0] == cut[1] == ((cap, None, None), cap)


def test_a_budget_cut_at_every_position_matches_the_reference():
    family = fragment(SIG_PR, CHAINS["godel3"].elements, ["x1", "x2"], 0)
    grids = _one_point_pair((0, 0), (1, 0))  # not P(x1) is top on the left only: a late separator
    checked, separator, _ = _cut_at_every_position(family, [EXISTS_STEPS], *grids, None, {})
    assert render_formula(separator) == "exists x1 . not P(x1)" and checked > 10
    # the stream cut before its separator, and read to its end
    checked, separator, _ = _cut_at_every_position(family, [EXISTS_STEPS], *grids, None, {}, cap=checked - 1)
    assert separator is None
    _, separator, _ = _cut_at_every_position(family, [EXISTS_STEPS], grids[0], grids[0], None, {})
    assert separator is None


def test_every_cap_and_budget_cut_matches_the_reference():
    # on the left not P(x1) is top at a only, so its forall passes, and the
    # separator is the second prefix of its group
    family = fragment(SIG_PR, CHAINS["godel3"].elements, ["x1", "x2"], 0)
    left, right = (AssignmentGrid(Structure(chain=CHAINS["godel3"], sig=SIG_PR, domain=("a", "b"), predicates={
        "P": dict(zip([("a",), ("b",)], p)), "R": dict.fromkeys(product("ab", repeat=2), 0)}), ["x1", "x2"])
        for p in ((0, 1), (1, 1)))
    steps = [(("x1", "x2"), PrenexClass(EXISTS, 2))]
    checked, separator, _ = _cut_at_every_position(family, steps, left, right, None, {})
    assert render_formula(separator) == "exists x1 . not P(x1)"
    for cap in range(checked + 2):
        result = _cut_at_every_position(family, steps, left, right, None, {}, cap)
        assert (result[1] is None) == (cap < checked)
    # isomorphic pairs, along the identity and along a swap, build no table and stop where the reference stops
    for grid, g in ((left, {}), (right, {"a": "b", "b": "a"})):
        work = _transfer_work(family, steps, grid, grid, None, g)
        assert work == ((family.plan(steps).size, None, None), NO_WORK)
        for cap in (*range(checked + 2), None):
            assert _cut_at_every_position(family, steps, grid, grid, None, g, cap)[1] is None


def test_a_budget_cut_comes_before_a_replay_disagreement(monkeypatch):
    for module in (morphisms, sys.modules[__name__]):
        monkeypatch.setattr(module, "eval_formula", lambda phi, s, asg=None: -1)
    family = fragment(SIG_PR, CHAINS["godel3"].elements, ["x1", "x2"], 0)
    grids = _one_point_pair((0, 0), (1, 0))
    result = _cut_at_every_position(family, [EXISTS_STEPS], *grids, None, {})
    assert result == "grid and evaluator disagree"


@st.composite
def stream_plans(draw):
    """A family of placeholder matrices over a drawn mix of free sets, and
    one to four (quantifiable, target) steps."""
    variables = ("x1", "x2", "x3")
    sets = [frozenset(v for v, bit in zip(variables, bits) if bit)
            for bits in product((0, 1), repeat=len(variables))]
    free = draw(st.lists(st.sampled_from(sets), max_size=12))
    family = Fragment([Atom("P", (Var(f"m{k}"),)) for k in range(len(free))], free)
    targets = st.sampled_from([quantifier_free_class()] + [PrenexClass(kind, blocks)
                                                           for kind in (FORALL, EXISTS) for blocks in (1, 2, 3)])
    steps = draw(st.lists(st.tuples(st.permutations(variables).flatmap(
        lambda vs: st.integers(0, 3).map(lambda n: vs[:n])), targets), min_size=1, max_size=4))
    return family, steps


@settings(max_examples=150, deadline=None)
@given(case=stream_plans(), keep=st.sampled_from([None, bool]))
def test_plan_positions_rank_the_stream(case, keep):
    family, steps = case
    want = [triple for triple in reference_stream(family, steps) if keep is None or keep(triple[3])]
    plan = family.plan(steps, keep=keep)
    assert plan.size == len(want)
    assert list(plan) == [triple[2:] for triple in want]
    for rank, (i, k, _, prefix, params) in enumerate(want):
        prefixes, row_params = plan.rows[i][family.codes[k]]
        assert row_params == params
        assert plan.position(i, k, prefixes.index(prefix)) == rank
    for end in range(len(want) + 2):
        assert plan.reach(end) == 1 + max((k for _, k, *_ in want[:end]), default=-1)
        capped = family.plan(steps, end, keep)
        assert capped.size == min(end, len(want)) and list(capped) == [triple[2:] for triple in want[:end]]


VALUE_FAMILY = fragment(SIG_PR, CHAINS["godel3"].elements, ("x1", "x2"), 1)


def _runs(grids) -> int:
    return sum(k == 0 or grids[k]._tables is not grids[k - 1]._tables for k in range(len(grids)))


def _check_value_classes(grids, monkeypatch):
    combine, calls = AssignmentGrid._combine, []

    def counted(self, kind, a, b=None):
        calls.append(kind)
        return combine(self, kind, a, b)

    monkeypatch.setattr(AssignmentGrid, "_combine", counted)
    table = ValueClasses(VALUE_FAMILY, grids)
    table.extend()
    cls, vecs = table.cls, table.vecs
    monkeypatch.undo()
    assert len(cls) == len(VALUE_FAMILY.codes)
    # one class per distinct vector, and each matrix's class holds its vector
    assert len({tuple(vec) for vec in vecs}) == len(vecs) == len(set(cls))
    for k, c in enumerate(cls):
        assert list(vecs[c]) == [v for grid in grids for v in grid.values(VALUE_FAMILY.matrix(k))]
    # each connective meets each pair of operand classes once per run of tables
    triples = {(kind, cls[i], cls[j]) for kind, i, j in VALUE_FAMILY.rows() if kind}
    assert len(calls) == len(triples) * _runs(grids)
    return cls, vecs


@st.composite
def grid_lists(draw):
    grids = []
    for _ in range(draw(st.integers(1, 3))):
        chain = CHAINS[draw(st.sampled_from(sorted(CHAINS)))]
        s = _structure(draw, chain, tuple(f"d{i}" for i in range(draw(st.integers(1, 3)))))
        grids.append(AssignmentGrid(s, draw(st.permutations(("x1", "x2")))))
    return grids


@settings(max_examples=30, deadline=None)
@given(grids=grid_lists())
def test_value_classes_intern_every_grid_and_combine_each_class_triple_once(grids):
    with pytest.MonkeyPatch.context() as monkeypatch:
        _check_value_classes(grids, monkeypatch)


def test_value_classes_combine_each_chain_with_its_own_tables(monkeypatch):
    source, target = cross_chain_case(1, "godel3", "twin")[1:]
    grids = [AssignmentGrid(source, ("x1", "x2")), AssignmentGrid(target, ("x1", "x2"))]
    cls, vecs = _check_value_classes(grids, monkeypatch)
    assert _runs(grids) == 2 and max(v for vec in vecs for v in vec) == CHAINS["godel3"].top


if __name__ == "__main__":
    for case in CROSS_CASES:
        print(f"    {case}: {cross_chain_verdict(*case)!r},")


def _count_work(monkeypatch):
    """Count the leaf rows a table computes (`ValueClasses._leaf_row`, one a leaf over all its grids)
    and `_combine` calls, and list the table's length after each `extend`."""
    calls, lengths, extend = {"_leaf_row": 0, "_combine": 0}, [], ValueClasses.extend
    for owner, name in ((ValueClasses, "_leaf_row"), (AssignmentGrid, "_combine")):
        def counted(self, *args, original=getattr(owner, name), name=name):
            calls[name] += 1
            return original(self, *args)
        monkeypatch.setattr(owner, name, counted)

    def recorded(table, n=None):
        extend(table, n)
        lengths.append(len(table.cls))

    monkeypatch.setattr(ValueClasses, "extend", recorded)
    return calls, lengths


def test_a_capped_stream_evaluates_only_the_family_prefix_it_reaches(monkeypatch):
    from gradedmt.preservation import FormulaBounds, _family, implies_exists_n

    chain, rnd = TARGET_CHAINS["godel3"], random.Random(3)
    s = Structure(chain=chain, sig=SIG_PR, domain=("a", "b", "c"), predicates={
        p: {args: rnd.randrange(chain.size) for args in product("abc", repeat=a)}
        for p, a in SIG_PR.predicates.items()})
    # s into a one-element extension that relabels c as e: the transfer holds along the copy, but the
    # identity on s's labels is neither an isomorphism nor a strong embedding, so nothing decides it unread
    extension = Structure(chain=chain, sig=SIG_PR, domain=("a", "b", "e", "d"), predicates={
        p: {args: s.predicates[p][tuple("c" if x == "e" else x for x in args)] if "d" not in args
            else rnd.randrange(chain.size) for args in product("abed", repeat=a)}
        for p, a in SIG_PR.predicates.items()})
    bounds = FormulaBounds(max_candidates=10)
    qvars, _, family = _family(SIG_PR, chain, 2, bounds)
    steps = [(qvars, PrenexClass(EXISTS, 1))]
    reached = 1 + max(k for _, k, *_ in islice(reference_stream(family, steps), bounds.max_candidates))
    assert family.plan(steps, bounds.max_candidates).reach(bounds.max_candidates) == reached
    prefix = list(family.rows(0, reached))
    assert reached < len(family.codes)
    calls, lengths = _count_work(monkeypatch)
    report = implies_exists_n(s, extension, ("a", "b"), 1, bounds)
    assert report.ok and report.candidates_checked == bounds.max_candidates
    # each leaf of the prefix once for both grids, each connective of it at most once
    assert lengths == [reached]
    assert calls["_leaf_row"] == sum(kind is None for kind, _, _ in prefix)
    assert calls["_combine"] <= sum(kind is not None for kind, _, _ in prefix)


def _pr_pair(seed: int):
    """Two structures over godel3 on {a, b} with seeded P and R tables."""
    chain, rnd = TARGET_CHAINS["godel3"], random.Random(seed)
    return tuple(Structure(chain=chain, sig=SIG_PR, domain=("a", "b"), predicates={
        p: {args: rnd.randrange(chain.size) for args in product("ab", repeat=a)}
        for p, a in SIG_PR.predicates.items()}) for _ in range(2))


def test_a_failing_call_evaluates_only_the_first_46_matrices(monkeypatch):
    from gradedmt.preservation import FormulaBounds, _family, implies_exists_n

    left, right = _pr_pair(0)
    calls, lengths = _count_work(monkeypatch)
    report = implies_exists_n(left, right, ("a",), 2)
    assert render_formula(report.separator) == "exists x1 . not R(x1, p1)" and report.candidates_checked == 57
    _, _, family = _family(SIG_PR, left.chain, 1, FormulaBounds())
    # the table names the 23 leaves first, then doubles once
    assert lengths == [23, 46] and len(family.codes) == 5940 and len(family.leaves) == 23
    assert calls == {"_leaf_row": 23, "_combine": 16}


def test_a_holding_call_grows_the_table_to_the_end_its_plan_reaches(monkeypatch):
    from gradedmt.preservation import FormulaBounds, _family, implies_exists_n

    # existential sentences go up to the one-element extension, whose fresh element no colour of the left matches;
    # it relabels b as e, so the identity on the left's labels is no strong embedding to decide it unread
    left, _ = _pr_pair(0)
    rnd = random.Random(0)
    extension = Structure(chain=left.chain, sig=SIG_PR, domain=("a", "e", "c"), predicates={
        p: {args: left.predicates[p][tuple("b" if x == "e" else x for x in args)] if "c" not in args
            else rnd.randrange(left.chain.size) for args in product("aec", repeat=a)}
        for p, a in SIG_PR.predicates.items()})
    calls, lengths = _count_work(monkeypatch)
    report = implies_exists_n(left, extension, ("a",), 1)
    qvars, _, family = _family(SIG_PR, left.chain, 1, FormulaBounds())
    plan = family.plan([(qvars, PrenexClass(EXISTS, 1))])
    assert report.ok and report.candidates_checked == plan.size
    assert lengths == [23, 46, 92, 184, 368, 736, 1472, 2944, 5888, plan.reach(plan.size)]
    assert lengths[-1] == len(family.codes) and calls["_leaf_row"] == len(family.leaves)


def test_a_late_failure_in_the_one_step_matches_the_reference_after_the_table_grows(monkeypatch):
    # the separator sits at position 1,100 of a single step: the table names the 12 leaves, then doubles within the step
    chain, rnd = TARGET_CHAINS["godel3"], random.Random(6)
    left, right = (Structure(chain=chain, sig=SIG_PR, domain=domain, predicates={
        p: {args: rnd.randrange(chain.size) for args in product(domain, repeat=a)}
        for p, a in SIG_PR.predicates.items()}) for domain in (("a", "b"), ("a", "b", "c")))
    family = fragment(SIG_PR, chain.elements, ["x1", "x2"], 1)
    _, lengths = _count_work(monkeypatch)
    reference, plan = _both_loops(family, [EXISTS_STEPS], AssignmentGrid(left, ["x1", "x2"]),
                                  AssignmentGrid(right, ["x1", "x2"]), None, {})
    assert plan == reference and plan[0][0] == 1101
    assert lengths == [12, 24, 48, 96, 192, 384, 768, len(family.codes)] and len(family.codes) == 1518


def test_a_many_step_check_names_in_step_0_what_a_fresh_table_names_as_read(monkeypatch):
    # elementarity at depth 1 walks 6 steps; one pass of `classes` names the matrices within step 0.
    # A two-element structure into a three-element near twin (c a copy of b, but for R(b, c)) holds at
    # depth 1, and no colouring of the cells decides it unread
    chain = TARGET_CHAINS["godel3"]
    left = Structure(chain=chain, sig=SIG_PR, domain=("a", "b"), predicates={
        "P": {("a",): 0, ("b",): 0}, "R": {("a", "a"): 1, ("a", "b"): 1, ("b", "a"): 0, ("b", "b"): 1}})
    twin = Structure(chain=chain, sig=SIG_PR, domain=("a", "b", "c"), predicates={
        "P": {(d,): 0 for d in "abc"}, "R": {**{args: left.predicates["R"][tuple("b" if d == "c" else d for d in args)]
                                              for args in product("abc", repeat=2)}, ("b", "c"): 0}})
    plan = elementary_plan(SIG_PR, left.chain.elements, 1, 2, 1, [])
    events, lengths = [], []  # events: the step of each position read, "named" per extension, "read" per pass
    position, extend, classes = StreamPlan.position, ValueClasses.extend, ValueClasses.classes

    def named(table, n=None):
        extend(table, n)
        events.append("named")
        lengths.append(len(table.cls))

    def read(table, positions):
        yield from classes(table, positions)
        events.append("read")

    monkeypatch.setattr(ValueClasses, "extend", named)
    monkeypatch.setattr(ValueClasses, "classes", read)
    monkeypatch.setattr(StreamPlan, "position", lambda self, i, *rest: events.append(i) or position(self, i, *rest))
    report = is_elementary_up_to_depth(inclusion_map(left, twin), left, twin, 1)
    assert report.ok and report.formulas_checked == plan.size == 6726
    cut = events.index("read")
    assert set(events[:cut]) == {0, "named"} and set(events[cut + 1:]) == {1, 2, 3, 4, 5}
    walked = lengths[:]
    grids = [AssignmentGrid(left, ["x1", "x2"]), AssignmentGrid(twin, ["x1", "x2"])]
    list(ValueClasses(plan.family, grids).classes(range(plan.reach(plan.size))))
    assert walked == lengths[len(walked):] == [12, 24, 48, 96, 192, 384, 768, 1518]
    assert len(plan.family.leaves) == 12 and plan.reach(plan.size) == 1518


def test_a_grid_pair_reused_by_a_second_family_reads_that_familys_folds():
    # a fold is memoised by the vector it folds and its axis's shape, never by a
    # table's class id, so a second family's classes, whose ids name other
    # vectors on the same grids, must read the folds of their own vectors
    chain, domain = CHAINS["godel3"], ("d0", "d1", "d2")
    source = Structure(chain=chain, sig=SIG_PR, domain=domain[:2], predicates={
        "P": {("d0",): 0, ("d1",): 2}, "R": dict(zip(product(domain[:2], repeat=2), (2, 0, 1, 1)))})
    target = Structure(chain=chain, sig=SIG_PR, domain=domain, predicates={
        "P": {("d0",): 1, ("d1",): 0, ("d2",): 2},
        "R": dict(zip(product(domain, repeat=2), (1, 1, 2, 1, 2, 0, 1, 0, 1)))})
    variables, f, g = ("x1", "x2"), (0, 1, 2), {"d0": "d0", "d1": "d1"}
    first = fragment(SIG_PR, chain.elements, variables, 1).plan([(variables, PrenexClass(FORALL, 2))])
    second = fragment(expand_with_truth_constants(SIG_PR, chain), chain.elements, variables, 1).plan(
        [(variables, PrenexClass(EXISTS, 2))])
    grids = AssignmentGrid(source, variables), AssignmentGrid(target, variables)
    first_transfer_failure(first, *grids, f, g)
    reused = first_transfer_failure(second, *grids, f, g)
    fresh = first_transfer_failure(second, AssignmentGrid(source, variables), AssignmentGrid(target, variables), f, g)
    assert reused == fresh
    assert fresh[0] == 79 and render_formula(fresh[1]) == "forall x1 . P(x1) \\/ R(x1, x1)"


# --- the isomorphism rule ---
# With one chain, f None or the identity, and g (the identity where it is
# silent) an isomorphism, `first_transfer_failure` decides the plan without
# reading it.  Fixed parameters that g does not carry to the target's are
# the caller's error.

NO_WORK = {"tables": 0, "_leaf_row": 0, "_combine": 0, "fold": 0}
G3 = CHAINS["godel3"]
SAME = {d: d for d in "abc"}
SWAP = {"a": "b", "b": "a", "c": "c"}  # an automorphism of SYM
RENAME = {"a": "u", "b": "v", "c": "w"}
SYM = Structure(chain=G3, sig=SIG_PR, domain=("a", "b", "c"), predicates={
    "P": {("a",): 1, ("b",): 1, ("c",): 2}, "R": dict(zip(product("abc", repeat=2), (2, 0, 1, 0, 2, 1, 0, 0, 1)))})
SYM_CONSTANT = Structure(chain=G3, sig=Signature(predicates=SIG_PR.predicates, functions={"k": 0}),
                         domain=SYM.domain, predicates=SYM.predicates, functions={"k": {(): "c"}})
SYM_TRUTH = Structure(chain=G3, sig=expand_with_truth_constants(SIG_PR, G3), domain=SYM.domain,
                      predicates=SYM.predicates)


def _relation(name, s, t, g, params=("a",), image=None, f=(0, 1, 2), depth=1, blocks=1):
    """`_both_loops`'s first six arguments and `keep` for one caller's relation from s to t along g:
    elementarity along f, existential transfer (of up to `blocks` blocks) from `params` to `image`
    (by default their images under g), each over matrices of connective depth `depth`, or the
    universal transport of the n = 2 amalgam search."""
    terms, variables = [App(c) for c in s.sig.constants()], ["x1", "x2"]
    if name == "elementarity":
        steps = [(variables[n:], k) for n in range(3) for k in (PrenexClass(FORALL, 1), PrenexClass(EXISTS, 1))]
        return (fragment(s.sig, s.chain.elements, variables, depth, terms), steps, AssignmentGrid(s, variables),
                AssignmentGrid(t, variables), f, g), None
    pvars = [f"p{i}" for i in range(1, len(params) + 1)]
    if name == "existential":
        left, right = dict(zip(pvars, params)), dict(zip(pvars, image or [g[d] for d in params]))
        return (fragment(s.sig, s.chain.elements, variables + pvars, depth, terms),
                [(variables, PrenexClass(EXISTS, blocks))], AssignmentGrid(s, variables, fixed=left),
                AssignmentGrid(t, variables, fixed=right), None, g), None
    axes = ["x1"] + pvars  # as in `universal_transport_ok`, the parameters are grid variables
    return (fragment(s.sig, s.chain.elements, axes, 0, terms), [(["x1"], PrenexClass(FORALL, 1))],
            AssignmentGrid(s, axes), AssignmentGrid(t, axes), None, g), bool


def _transfer_work(family, steps, grid_s, grid_t, f, g, keep=None, cap=None):
    """The plan loop's result on fresh grids (the plan cut after `cap`), and the `ValueClasses` tables it
    built, the leaf rows they computed and the `_combine` and `fold` calls it made."""
    counts = dict.fromkeys(NO_WORK, 0)
    with pytest.MonkeyPatch.context() as monkeypatch:
        for owner, name, key in ((ValueClasses, "__init__", "tables"), (ValueClasses, "_leaf_row", "_leaf_row"),
                                 (AssignmentGrid, "_combine", "_combine"), (AssignmentGrid, "fold", "fold")):
            def counted(*args, original=getattr(owner, name), key=key):
                counts[key] += 1
                return original(*args)
            monkeypatch.setattr(owner, name, counted)
        grids = (AssignmentGrid(x.structure, x.variables, fixed=x.fixed) for x in (grid_s, grid_t))
        result = first_transfer_failure(family.plan(steps, cap, keep), *grids, f, g)
    return result, counts


RULE_CASES = {
    "identity": (SYM, SYM, SAME),
    "automorphism": (SYM, SYM, SWAP),
    "relabelled copy": (SYM, SYM.rename_domain(RENAME), RENAME),
    "parameters": (SYM, SYM, SWAP, ("a", "c")),
    "truth constants": (SYM_TRUTH, SYM_TRUTH, SWAP),
    "constant": (SYM_CONSTANT, SYM_CONSTANT, SWAP),
}


@pytest.mark.parametrize("relation", ("elementarity", "existential", "universal"))
@pytest.mark.parametrize("case", sorted(RULE_CASES))
def test_a_transfer_along_an_isomorphism_reads_nothing_and_matches_the_reference(relation, case):
    args, keep = _relation(relation, *RULE_CASES[case])
    reference, plan = _both_loops(*args, keep=keep)
    assert plan == reference and plan[0][1] is None
    assert _transfer_work(*args, keep=keep) == (plan[0], NO_WORK)


FLAT = {"P": {("a",): 0, ("b",): 0}, "R": dict.fromkeys(product("ab", repeat=2), 0)}  # bottom everywhere
NEGATIVE_CASES = {  # each breaks one condition of the rule
    "one entry off": ("elementarity", SYM, Structure(chain=G3, sig=SIG_PR, domain=SYM.domain, predicates={
        "P": SYM.predicates["P"], "R": {**SYM.predicates["R"], ("a", "c"): 2}}), SAME),
    "algebra map": ("elementarity", SYM, SYM, SAME, ("a",), None, (0, 0, 2)),
    "not onto": ("universal", SYM, Structure(chain=G3, sig=SIG_PR, domain=("a", "b", "c", "d"), predicates={
        "P": {**SYM.predicates["P"], ("d",): 0},
        "R": {args: SYM.predicates["R"].get(args, 2) for args in product("abcd", repeat=2)}}), SAME),
    "chains": ("elementarity", Structure(chain=BOOL2, sig=SIG_PR, domain=("a", "b"), predicates=FLAT),
               Structure(chain=G3, sig=SIG_PR, domain=("a", "b"), predicates=FLAT), SAME, ("a",), None, (0, 1)),
}


@pytest.mark.parametrize("case", sorted(NEGATIVE_CASES))
def test_a_transfer_off_an_isomorphism_reads_the_table_and_matches_the_reference(case):
    args, keep = _relation(*NEGATIVE_CASES[case])
    reference, plan = _both_loops(*args, keep=keep)
    assert plan == reference
    result, work = _transfer_work(*args, keep=keep)
    assert result == plan[0] and work["tables"] == 1 and work["_leaf_row"] > 0


@pytest.mark.parametrize("image", ("b", "c"))
def test_fixed_parameters_off_the_maps_image_are_the_callers_error(image):
    # p1 = a on the source, p1 = b or c on the target, along the identity; with c the per-candidate
    # loop meets a failing triple and its replay reads the target at a, where the grid read c
    (family, steps, grid_s, grid_t, f, g), _ = _relation("existential", SYM, SYM, SAME, ("a",), (image,))
    triples = (triple[2:] for triple in reference_stream(family, steps))
    if image == "c":
        with pytest.raises(InternalError, match="grid and evaluator disagree"):
            reference_transfer_failure(grid_s, grid_t, triples, f, g, grid_tuples(grid_s))
    else:
        assert reference_transfer_failure(grid_s, grid_t, triples, f, g, grid_tuples(grid_s))[1] is None
    with pytest.raises(PreconditionError) as err:
        first_transfer_failure(family.plan(steps), grid_s, grid_t, f, g)
    assert str(err.value) == f"target grid fixes {{'p1': '{image}'}}, not {{'p1': 'a'}}, the image of the source grid's"


# --- the colouring rule ---
# Off a bijection, with one chain and f None or the identity, `first_transfer_failure`
# colours the cells of both grids by their leaf rows and refines the colours by the
# sets along each axis (`ValueClasses.refinements`).  When every source cell meets a
# target cell of its colour whose ranging-parameter coordinates are its images, no
# formula of any depth tells them apart, and the plan is decided from the leaf rows.


def _classed(domain):
    """R(x, x) is 2 off c, R(x, c) is 1, every other R entry is 0, and P is 2 at c only: on a, b, c
    this is SYM, and each further element is one more twin of a and b."""
    return Structure(chain=G3, sig=SIG_PR, domain=tuple(domain), predicates={
        "P": {(x,): 2 if x == "c" else 1 for x in domain},
        "R": {(x, y): 2 if x == y != "c" else 1 if y == "c" else 0 for x, y in product(domain, repeat=2)}})


TWIN = _classed("abcd")
LEAVES_ONLY = {"tables": 1, "_combine": 0, "fold": 0}
COLOURED_CASES = {  # (relation, source, target, g, params): none is an isomorphism along g
    "relabelled copy": ("existential", SYM, SYM.rename_domain(RENAME), {}, ()),
    "relabelled copy, fixed parameters": ("existential", SYM, SYM.rename_domain({"a": "a", "b": "v", "c": "w"}),
                                          {"a": "a"}, ("a",)),
    "twin, elementarity": ("elementarity", SYM, TWIN, SAME, ()),
    "twin, universal": ("universal", SYM, TWIN, SAME, ("a",)),
}


@pytest.mark.parametrize("case", sorted(COLOURED_CASES))
def test_a_coloured_transfer_reads_only_the_leaf_rows_and_matches_the_reference(case):
    assert _classed("abc") == SYM
    args, keep = _relation(*COLOURED_CASES[case])
    reference, plan = _both_loops(*args, keep=keep)
    assert plan == reference and plan[0][1] is None
    result, work = _transfer_work(*args, keep=keep)
    assert result == plan[0] and work == {**LEAVES_ONLY, "_leaf_row": len(args[0].leaves)}


@pytest.mark.parametrize("case", sorted(COLOURED_CASES))
def test_a_coloured_transfer_stops_where_the_reference_stops_at_every_cap_and_budget(case):
    # over quantifier-free matrices of depth 0, so the plans are short: a cap below the leaves reads them
    name, s, t, g, params = COLOURED_CASES[case]
    (family, steps, grid_s, grid_t, f, g), keep = _relation(name, s, t, g, params, depth=0)
    size = family.plan(steps, keep=keep).size
    for cap in (*range(size + 2), None):
        assert _cut_at_every_position(family, steps, grid_s, grid_t, f, g, cap, keep)[1] is None


def test_a_coloured_pair_along_a_map_that_moves_a_parameter_off_its_colour_reads_the_table():
    # TWIN has SYM's colour set, but g swaps a and c, where P differs: the rule needs the target
    # cell at g's images of the ranging coordinates, so the plan is read, and it fails
    args, keep = _relation("elementarity", SYM, TWIN, {"a": "c", "b": "b", "c": "a"})
    reference, plan = _both_loops(*args, keep=keep)
    assert plan == reference and plan[0][1] is not None
    result, work = _transfer_work(*args, keep=keep)
    assert result == plan[0] and work["_combine"] + work["fold"] > 0


# --- the strong-embedding rule ---
# With one chain, f None, a family with no block rows and a plan of exists-only prefixes,
# `first_transfer_failure` decides the plan unread when h (g, the identity where it is silent) is
# injective into the target and passes `_first_untransported`: a strong embedding keeps every
# matrix's value at the image tuple, and an exists block's max over a superset keeps top.

EXT = Structure(chain=G3, sig=SIG_PR, domain=("a", "b", "c", "d"), predicates={  # SYM grown by d
    "P": {**SYM.predicates["P"], ("d",): 0},
    "R": {args: SYM.predicates["R"].get(args, 1 if "c" in args else 2) for args in product("abcd", repeat=2)}})
EMBEDDED_CASES = {  # (source, target, params): the identity on the source's labels is a strong embedding
    "one-element extension": (SYM, EXT, ()),
    "fixed parameter": (SYM, EXT, ("a",)),
    "truth constants": (SYM_TRUTH, replace(EXT, sig=SYM_TRUTH.sig), ()),
    "constant": (SYM_CONSTANT, replace(EXT, sig=SYM_CONSTANT.sig, functions={"k": {(): "c"}}), ()),
}


@pytest.mark.parametrize("case", sorted(EMBEDDED_CASES))
def test_existential_transfer_along_a_strong_embedding_reads_nothing_and_matches_the_reference(case):
    s, t, params = EMBEDDED_CASES[case]
    args, _ = _relation("existential", s, t, SAME, params)
    reference, plan = _both_loops(*args)
    assert plan == reference and plan[0][1] is None
    assert _transfer_work(*args) == (plan[0], NO_WORK)
    # over depth-0 matrices, so the plans are short: every cap, each with every budget cut
    (family, steps, grid_s, grid_t, f, g), _ = _relation("existential", s, t, SAME, params, depth=0)
    for cap in (*range(family.plan(steps).size + 2), None):
        result = _cut_at_every_position(family, steps, grid_s, grid_t, f, g, cap)
        assert result[1] is None and _transfer_work(family, steps, grid_s, grid_t, f, g, cap=cap) == (result, NO_WORK)


FLAT_PAIR = Structure(chain=G3, sig=SIG_PR, domain=("a", "b"), predicates={  # a and b differ only by identity
    "P": {("a",): 1, ("b",): 1}, "R": dict.fromkeys(product("ab", repeat=2), 0)})
OFF_EMBEDDING_CASES = {  # each breaks one condition of the rule; `_relation`'s arguments
    # h sends a and b to a, a strong map that is not injective: "exists x1 x2 . not x1 ~ x2" does not rise
    "not injective": dict(name="existential", s=FLAT_PAIR, t=replace(FLAT_PAIR, domain=("a",), predicates={
        "P": {("a",): 1}, "R": {("a", "a"): 0}}), g={"a": "a", "b": "a"}, params=()),
    # P(c), SYM's one top P entry, drops to 1: "exists x1 . P(x1)" does not rise
    "one entry off": dict(name="existential", s=SYM, t=replace(EXT, predicates={
        "P": {**EXT.predicates["P"], ("c",): 1}, "R": EXT.predicates["R"]}), g=SAME, params=()),
    "exists-forall plan": dict(name="existential", s=SYM, t=EXT, g=SAME, params=(), blocks=2),
    "elementarity": dict(name="elementarity", s=SYM, t=EXT, g=SAME),
    "universal transport": dict(name="universal", s=SYM, t=EXT, g=SAME),
}


@pytest.mark.parametrize("case", sorted(OFF_EMBEDDING_CASES))
def test_a_transfer_off_the_strong_embedding_rule_reads_the_table_and_matches_the_reference(case):
    args, keep = _relation(**OFF_EMBEDDING_CASES[case])
    reference, plan = _both_loops(*args, keep=keep)
    assert plan == reference
    result, work = _transfer_work(*args, keep=keep)
    assert result == plan[0] and work["tables"] == 1 and work["_leaf_row"] > 0


def test_a_quantified_family_is_read_along_a_strong_embedding():
    # every row of a quantified family under the empty prefix: exists-only, but "forall x1 . P(x1)" is
    # a block row, top on two top points and not on their extension by a point where P is bottom
    source = Structure(chain=G3, sig=SIG_PR, domain=("a", "b"), predicates={
        "P": {("a",): 2, ("b",): 2}, "R": dict.fromkeys(product("ab", repeat=2), 0)})
    target = Structure(chain=G3, sig=SIG_PR, domain=("a", "b", "d"), predicates={
        "P": {("a",): 2, ("b",): 2, ("d",): 0}, "R": dict.fromkeys(product("abd", repeat=2), 0)})
    args = (sentence_family(SIG_PR, G3.elements, 1), [((), PrenexClass(EXISTS, 1))],
            AssignmentGrid(source, ["x1"]), AssignmentGrid(target, ["x1"]), None, {"a": "a", "b": "b"})
    reference, plan = _both_loops(*args)
    assert plan == reference and render_formula(plan[0][1]) == "forall x1 . P(x1)"
    result, work = _transfer_work(*args)
    assert result == plan[0] and work["tables"] == 1 and work["_leaf_row"] > 0
