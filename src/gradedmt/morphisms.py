"""Strong homomorphisms, embeddings, substructures and their searches.

A map between structures is a pair: an algebra map between the chains
and a domain map.  Claimed kinds are always re-verified, never trusted.
Searches run in a fixed candidate order so results are reproducible.
Generated formulas travel along a map in one routine with two relations,
`first_transfer_failure`, and every separator it reports is replayed.  It
reads no formula where none can separate: along a strong embedding (an
isomorphism keeps every value, an injective one top under exists blocks),
or where the cells of both grids match in colour, coloured by their leaf
values and refined by the colours along each axis (the k-pebble game:
Immerman & Lander 1990; for graded structures Dellunde, García-Cerdaña &
Noguera, FSS 345, 2018).  Such a verdict never names a separator.
"""

from dataclasses import dataclass, replace
from itertools import combinations, permutations, product
from math import perm
from typing import Iterator, Mapping, Sequence

from .algebra import (AlgebraMap, FiniteChain, generated_subalgebra, identity_map, is_algebra_homomorphism,
                      subalgebra_inclusion)
from .budget import check_budget
from .errors import ChainMismatchError, FormatError, InternalError, PreconditionError, SignatureError
from .generation import AssignmentGrid, ValueClasses, elementary_plan, prenex_formula
from .semantics import Structure, eval_formula
from .syntax import EXISTS, App, Formula, Signature


@dataclass(frozen=True)
class StructureMap:
    """An algebra map plus a domain map, with an unverified kind claim."""

    algebra_map: AlgebraMap
    domain_map: Mapping[str, str]
    kind: str = "strong"

    def __post_init__(self):
        object.__setattr__(self, "domain_map", dict(self.domain_map))


def inclusion_map(sub: Structure, sup: Structure) -> StructureMap:
    """The identity on sub's chain and domain, as a map into sup (the identity map of sub when sup is sub)."""
    return StructureMap(identity_map(sub.chain), {d: d for d in sub.domain})


@dataclass(frozen=True)
class MapReport:
    ok: bool
    reason: str = ""
    witness: object = None

    def __bool__(self):
        return self.ok


def _check_interprets(sig: Signature, target: Structure, role: str = "target") -> None:
    for kind, symbols, theirs in (("predicate", sig.predicates, target.sig.predicates),
                                  ("function", sig.functions, target.sig.functions)):
        for name, arity in symbols.items():
            if theirs.get(name) != arity:
                raise SignatureError(f"{role} does not interpret {kind} {name!r}/{arity}")


def _check_one_chain(*parts) -> None:
    """The same-chain rule: the structures, or a structure and a `Diagram`, have equal `.chain`s."""
    if any(part.chain != parts[0].chain for part in parts[1:]):
        raise ChainMismatchError("both structures must share one chain")


def _transport_entries(source: Structure) -> list:
    """Function symbols, then predicate symbols, each with its sorted table."""
    functions = [(True, n, sorted(source.functions[n].items())) for n in sorted(source.sig.functions)]
    predicates = [(False, n, sorted(source.predicates[n].items())) for n in sorted(source.sig.predicates)]
    return functions + predicates


def _first_untransported(f, g: Mapping[str, str], entries: list, target: Structure):
    """First entry the pair (f, g) fails to transport, or None.

    A failure is (is_function, name, args, got, want): g must commute with
    each function, f must carry each predicate value to the target's.
    """
    for is_function, name, items in entries:
        t_table = (target.functions if is_function else target.predicates)[name]
        h = g if is_function else f
        for args, value in items:
            want = t_table[tuple(map(g.__getitem__, args))]
            if h[value] != want:
                return is_function, name, args, h[value], want
    return None


def is_strong_homomorphism(m: StructureMap, source: Structure, target: Structure) -> MapReport:
    """Verify function commutation and transport of predicate values.

    The algebra map must be a chain homomorphism, the domain map total;
    for every function symbol g(F(d...)) must equal F(g(d)...), and for
    every predicate symbol f applied to the source value must give the
    target value at the mapped tuple.  Returns the first failing atom,
    functions before predicates, each in sorted order.
    """
    if m.algebra_map.source != source.chain or m.algebra_map.target != target.chain:
        raise ChainMismatchError("algebra map does not connect the two chains")
    _check_interprets(source.sig, target)
    alg = is_algebra_homomorphism(m.algebra_map)
    if not alg.ok:
        return MapReport(False, "algebra map is not a homomorphism", alg.counterexample)
    g = m.domain_map
    if missing := [d for d in source.domain if d not in g]:
        return MapReport(False, f"domain map not total, missing {missing[0]!r}")
    if out_of_range := [d for d in source.domain if g[d] not in target.domain]:
        return MapReport(False, f"domain map leaves the target domain at {out_of_range[0]!r}")
    miss = _first_untransported(m.algebra_map.map, g, _transport_entries(source), target)
    if miss is not None:
        is_function, name, args, got, want = miss
        reason = "function commutation fails" if is_function else "predicate value not transported"
        return MapReport(False, reason, (name, args, got, want))
    return MapReport(True)


def is_embedding(m: StructureMap, source: Structure, target: Structure) -> MapReport:
    """A strong homomorphism whose two component maps are injective."""
    strong = is_strong_homomorphism(m, source, target)
    if not strong.ok:
        return strong
    if not m.algebra_map.injective:
        return MapReport(False, "algebra map not injective")
    if len({m.domain_map[d] for d in source.domain}) != source.size:
        return MapReport(False, "domain map not injective")
    return MapReport(True)


@dataclass(frozen=True)
class ElementarityReport:
    ok: bool
    depth: int
    separator: Formula | None = None
    params: tuple = ()
    formulas_checked: int = 0
    reason: str = ""

    def __bool__(self):
        return self.ok


def first_transfer_failure(plan, grid_s, grid_t, f, g, meter=None):
    """First candidate of `plan` (a `StreamPlan`) whose value at a source
    tuple does not transfer along (f, g) to the image tuple: f must carry
    the source value to the target value, or with f None a top source value
    must stay top.  The source tuples come from the source grid: a parameter
    takes the element `grid_s.fixed` gives it, else ranges over the source
    domain, in `product` order.  Matrices are read by class from a
    `ValueClasses` table over both grids and folded by class.  A (class,
    prefix, params) triple fixes the free set, so it is decided once, at the
    first matrix of its (class, free-set code) group, whose prefixes and
    params are `plan.rows[step][code]`; groups in order of first matrix hold
    ascending, disjoint runs of positions.  Step 0 lists the groups in one
    pass of `ValueClasses.classes`, which grows the table as far as it is
    read, to at most the last matrix the plan reaches; each later step walks
    the list, so the first failing triple met is the first failure.
    With one chain and f None or the identity, the plan is decided unread
    where no separator can exist.  With no table, when h (g, and the identity
    where g is silent) passes `_first_untransported` and is a bijection, or,
    for f None, a quantifier-free family and exists-only prefixes, is
    injective into the target: a strong embedding keeps each matrix's value,
    and an exists block's max over a superset keeps top.  Else, off a
    bijection, once the plan reaches past the leaves, when in every round of
    `ValueClasses.refinements` the grids have one colour set and each source
    cell meets a target cell of its colour at g's images of its coordinates
    on the axes the plan's parameters range over.  `meter` is ticked in bulk
    with the positions read (to the end when decided unread), at most its
    limit + 1 as single ticks would stop, before any replay through
    `eval_formula`.  Returns (positions checked, separator, source tuple),
    or (checked, None, None).  A target grid that does not fix h's image of
    the source grid's `fixed` raises PreconditionError."""
    s, t = grid_s.structure, grid_t.structure
    _check_interprets(s.sig, t)  # both grids evaluate the family
    top_s, top_t = s.chain.top, t.chain.top
    end = plan.size if meter is None else min(plan.size, meter.limit - meter.used + 1)
    same, h = range(top_s + 1), {d: g.get(d, d) for d in s.domain}
    image = {p: h.get(d) for p, d in grid_s.fixed.items()}
    if image != grid_t.fixed:
        raise PreconditionError(f"target grid fixes {grid_t.fixed}, not {image}, the image of the source grid's")
    family, fixed, table = plan.family, grid_s.fixed, None
    plain = s.chain == t.chain and (f is None or tuple(f) == tuple(same))  # values compared as they are
    onto = sorted(h.values()) == sorted(t.domain)  # an isomorphism commutes with every row
    rises = f is None and not any(type(kind) is tuple for kind in family.kinds) and all(  # top rises under exists
        kind == EXISTS for rows in plan.rows for prefixes, _ in rows for prefix in prefixes for kind, _ in prefix)
    unread = plain and (onto or rises and len(set(h.values()).intersection(t.domain)) == s.size) and (
        _first_untransported(same, h, _transport_entries(s), t) is None)  # a strong embedding keeps each matrix
    if plain and not (unread or onto) and plan.reach(end) >= len(family.leaves) and (
            grid_s.variables == grid_t.variables):
        table, ranging = ValueClasses(family, [grid_s, grid_t]), {v for rows in plan.rows for _, ps in rows for v in ps}
        images, n = [grid_t._dom_pos.get(g.get(d)) for d in s.domain], grid_s.size  # a cell's key: ranging coordinates
        sources = list(product(*[images if v in ranging else [0] * s.size for v in grid_s.variables]))
        targets = list(product(*[range(t.size) if v in ranging else [0] * t.size for v in grid_t.variables]))
        unread = all(set(colour[:n]) == set(colour[n:]) and set(zip(colour, sources)) <= set(zip(colour[n:], targets))
                     for colour in table.refinements())
    transfers = [[b == f[a] if f is not None else a != top_s or b == top_t  # [source value][target value]
                  for b in range(top_t + 1)] for a in range(top_s + 1)]
    table = None if unread else table or ValueClasses(family, [grid_s, grid_t])
    firsts: dict = {}  # (class, free-set code) -> its first matrix, in order of first matrix
    cells: dict = {}  # params -> [(source tuple, source cell, target cell)]

    def failure(c, prefix, params):
        """(source tuple, source value, target value) of the triple's first failing tuple, or None."""
        row = cells.get(params)
        if row is None:
            row = cells[params] = [(tup, grid_s.cell(dict(zip(params, tup))),
                                    grid_t.cell({p: g[d] for p, d in zip(params, tup)}))
                                   for tup in product(*([fixed[p]] if p in fixed else s.domain for p in params))]
        vs = table.read(c, 0, prefix)
        if f is None and all(vs[i] != top_s for _, i, _ in row):
            return None  # the target is folded only under a top source cell
        vt = table.read(c, 1, prefix)
        return next(((tup, vs[i], vt[j]) for tup, i, j in row if not transfers[vs[i]][vt[j]]), None)

    def grouped():  # (first matrix, class, free-set code) of each group as step 0 reads the table
        for k, key in enumerate(zip(table.classes(range(plan.reach(end))), family.codes)):
            if firsts.setdefault(key, k) == k:
                yield k, *key

    def first_failure():
        for step, rows in enumerate(plan.rows):  # step 0 returns or lists every group
            for k, c, code in grouped() if step == 0 else ((k, *key) for key, k in firsts.items()):
                start = plan.position(step, k)
                if start >= end:
                    return None
                prefixes, params = rows[code]
                for p, prefix in enumerate(prefixes[:end - start]):
                    bad = failure(c, prefix, params)
                    if bad is not None:
                        return start + p, k, prefix, params, bad
        return None

    found = None if unread else first_failure()
    checked = end if found is None else found[0] + 1
    if meter is not None:
        meter.tick(checked)
    if found is None:
        return checked, None, None
    _, k, prefix, params, (tup, a, b) = found
    phi = prenex_formula(family.matrix(k), prefix)
    asg = dict(zip(params, tup))
    if (eval_formula(phi, s, asg) != a
            or eval_formula(phi, t, {p: g[d] for p, d in asg.items()}) != b):
        raise InternalError("grid and evaluator disagree")
    return checked, phi, tup


def is_elementary_up_to_depth(m: StructureMap, source: Structure, target: Structure, depth: int,
                              matrix_depth: int = 1) -> ElementarityReport:
    """Check value transport for the canonical prenex family to `depth`.

    Every generated formula over x1..x(depth + 1) with up to `depth`
    quantifier blocks is evaluated at every source tuple; the algebra map
    applied to the source value must give the target value at the mapped
    tuple.  A connective applied on top of transported values transports
    again, so prenex shapes exhaust the obstructions at this depth.  Relational
    signatures with constants only.
    """
    strong = is_strong_homomorphism(m, source, target)
    if not strong.ok:
        return ElementarityReport(False, depth, reason=f"not a strong homomorphism: {strong.reason}")
    if not source.sig.is_relational_with_constants():
        raise SignatureError("elementarity checks need a relational-plus-constants signature")
    grid_vars = tuple(f"x{i}" for i in range(1, depth + 2))
    plan = elementary_plan(source.sig, source.chain.elements, depth, depth + 1, matrix_depth,
                           [App(c) for c in source.sig.constants()])
    checked, separator, tup = first_transfer_failure(
        plan, AssignmentGrid(source, grid_vars), AssignmentGrid(target, grid_vars), m.algebra_map.map, m.domain_map)
    return ElementarityReport(separator is None, depth, separator, tup or (), checked)


# --- substructures ---


@dataclass(frozen=True)
class SubstructureReport:
    ok: bool
    clause: int = 0
    detail: str = ""

    def __bool__(self):
        return self.ok


def is_substructure(sub: Structure, sup: Structure) -> SubstructureReport:
    """Literal substructure test, one clause at a time.

    (1) the chain is a subalgebra (`subalgebra_inclusion`), (2) the domain
    is included, (3) function tables and (4) predicate tables agree on the
    subdomain: the transport check of strong homomorphisms, for the label
    map and the identity, reporting functions before predicates, sorted.
    """
    inclusion = subalgebra_inclusion(sub.chain, sup.chain)
    if inclusion is None:
        return SubstructureReport(False, 1, "chain is not a subalgebra")
    try:
        _check_interprets(sub.sig, sup)
        _check_interprets(sup.sig, sub)
    except SignatureError as err:
        return SubstructureReport(False, 0, str(err))
    if missing := [d for d in sub.domain if d not in sup.domain]:
        return SubstructureReport(False, 2, f"domain element {missing[0]!r} not in the superstructure")
    miss = _first_untransported(inclusion.map, {d: d for d in sub.domain}, _transport_entries(sub), sup)
    if miss is None:
        return SubstructureReport(True)
    is_function, name, args, got, want = miss
    if is_function:
        return SubstructureReport(False, 3, f"function {name}{args} is {got!r} below, {want!r} above")
    below, above = sup.chain.label(got), sup.chain.label(want)
    return SubstructureReport(False, 4, f"predicate {name}{args} is {below!r} below, {above!r} above")


def induced_substructure(s: Structure, subset: Sequence[str]) -> Structure:
    """Restriction of every table to a function-closed domain subset."""
    sub = [d for d in s.domain if d in set(subset)]
    if not sub:
        raise FormatError("substructure domain must be nonempty")
    functions = {name: {args: s.functions[name][args] for args in product(sub, repeat=arity)}
                 for name, arity in s.sig.functions.items()}
    for name, table in functions.items():
        if not set(table.values()) <= set(sub):
            raise FormatError(f"subset not closed under function {name!r}")
    predicates = {name: {args: s.predicates[name][args] for args in product(sub, repeat=arity)}
                  for name, arity in s.sig.predicates.items()}
    return replace(s, domain=tuple(sub), predicates=predicates, functions=functions,
                   name=f"{s.name}|{{{','.join(sub)}}}" if s.name else "")


def _generated_domain(s: Structure, seed: Sequence[str]) -> tuple:
    """The least subset holding `seed` and the constants that is closed
    under the functions, in domain order."""
    current, grown = set(seed) | {s.functions[name][()] for name in s.sig.constants()}, True
    while grown:
        grown = {value for name in s.sig.proper_functions() for args, value in s.functions[name].items()
                 if value not in current and all(a in current for a in args)}
        current |= grown
    return tuple(d for d in s.domain if d in current)


def _closed_subsets(s: Structure) -> Iterator[tuple[str, ...]]:
    """The domains of the substructures: subsets equal to what they generate."""
    for size in range(1, len(s.domain) + 1):
        for subset in combinations(s.domain, size):
            if _generated_domain(s, subset) == subset:
                yield subset


def enumerate_substructures(s: Structure, include_subalgebra_reducts: bool = False) -> Iterator[Structure]:
    """All substructures of a finite structure, smallest domains first.

    Domain subsets must contain every constant and be closed under the
    functions.  The chain stays fixed by default; with
    include_subalgebra_reducts each proper subalgebra that contains all
    used predicate values is enumerated as well.
    """
    for subset in _closed_subsets(s):
        base = induced_substructure(s, subset)
        yield base
        if include_subalgebra_reducts:
            for sub_chain_indices in _proper_subalgebras(s.chain):
                reduct = _reduct_to_subalgebra(base, sub_chain_indices)
                if reduct is not None:
                    yield reduct


def _proper_subalgebras(chain: FiniteChain) -> list[tuple[int, ...]]:
    closed = {generated_subalgebra(chain, seed) for size in range(chain.size)
              for seed in combinations(range(chain.size), size)}
    return sorted((c for c in closed if len(c) < chain.size), key=lambda c: (len(c), c))


def _reduct_to_subalgebra(s: Structure, indices: tuple[int, ...]) -> Structure | None:
    if not {v for table in s.predicates.values() for v in table.values()} <= set(indices):
        return None
    sub_chain = s.chain.restrict(indices)
    remap = {old: new for new, old in enumerate(indices)}
    predicates = {name: {args: remap[v] for args, v in table.items()} for name, table in s.predicates.items()}
    return replace(s, chain=sub_chain, predicates=predicates)


# --- searches ---


def _algebra_map_candidates(source: Structure, target: Structure, fix_algebra_identity: bool) -> list[AlgebraMap]:
    if fix_algebra_identity:
        _check_one_chain(source, target)
        return [identity_map(source.chain)]
    maps = (AlgebraMap(source.chain, target.chain, mapping)
            for mapping in product(range(target.chain.size), repeat=source.chain.size))
    return [m for m in maps if is_algebra_homomorphism(m).ok]


def _domain_candidates(source: Structure, target: Structure, injective: bool,
                       agreement: Mapping[str, str] | None) -> Iterator[dict]:
    fixed = agreement or {}
    free = [d for d in source.domain if d not in fixed]
    if injective:
        taken = set(fixed.values())
        if len(taken) != len(fixed):
            return
        pool = [d for d in target.domain if d not in taken]
        combos = permutations(pool, len(free))
    else:
        combos = product(target.domain, repeat=len(free))
    for combo in combos:
        yield {**fixed, **dict(zip(free, combo))} if fixed else dict(zip(free, combo))


def _count_domain_candidates(source, target, injective, agreement) -> int:
    free = len([d for d in source.domain if d not in (agreement or {})])
    if injective:
        return perm(max(len(target.domain) - len(set((agreement or {}).values())), 0), free)
    return len(target.domain) ** free


def search_structure_map(
    source: Structure,
    target: Structure,
    fix_algebra_identity: bool = True,
    injective: bool = False,
    agreement: Mapping[str, str] | None = None,
    extra_filter=None,
) -> StructureMap | None:
    """First strong homomorphism (or embedding) in canonical order.

    Candidates are ordered by the source domain list against the target
    domain list; an optional agreement pins part of the domain map.
    `extra_filter(alg, g) -> bool` can impose additional conditions.
    """
    _check_interprets(source.sig, target)
    alg_candidates = _algebra_map_candidates(source, target, fix_algebra_identity)
    per_alg = _count_domain_candidates(source, target, injective, agreement)
    check_budget(per_alg * len(alg_candidates), "structure map search")
    if injective:
        alg_candidates = [alg for alg in alg_candidates if alg.injective]
    entries = _transport_entries(source)
    for alg in alg_candidates:
        for g in _domain_candidates(source, target, injective, agreement):
            if (_first_untransported(alg.map, g, entries, target) is None
                    and (extra_filter is None or extra_filter(alg, g))):
                return StructureMap(alg, g, kind="embedding" if injective else "strong")
    return None
