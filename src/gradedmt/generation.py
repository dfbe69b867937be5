"""Canonical formula families and bulk evaluation over assignment grids.

One builder, `_build_fragment`, makes every formula family of the package
as an index program held in typed columns, one kind code and two operand
positions a row, where a formula is built only when read, by
`Fragment.matrix`, the one formula builder:

* fragment-bounded checks read quantifier-free matrices of bounded
  connective depth, built once per key by `fragment` and kept in a small
  LRU cache, wrapped in alternating quantifier-block prefixes by a
  `StreamPlan` (`Fragment.plan`) as (matrix, prefix, params) triples, each
  with a stream position computed rather than counted;

* bounded sentence sets (`sentence_family`) are the closed positions of a
  quantified family, an operation-count closure: level 0 holds literals,
  and a formula sits at level k when it is built by one connective from
  formulas whose levels sum to k - 1, or by one quantifier block over a
  level k - 1 formula.

Both are deterministic, deduplicate structurally, and respect a search
budget.  `AssignmentGrid` evaluates formulas at every variable assignment
at once, one byte a cell; a `ValueClasses` table runs a family over
several grids, names each distinct value vector once, as a class id,
grows in family order only as far as its caller reads, and folds a class
through a prefix (`read`), each fold memoised by value (`_folded`).
"""

from array import array
from bisect import bisect_left, bisect_right
from collections import Counter, OrderedDict
from copy import copy
from functools import cached_property, lru_cache, reduce
from itertools import accumulate, combinations, compress, count, groupby, islice, product
from operator import and_, itemgetter, not_, or_
from typing import Iterable, Iterator, Sequence

from .budget import BudgetMeter, check_budget
from .errors import BudgetError, FormatError, SignatureError
from .semantics import Structure, _truth_constant_index, eval_term
from .syntax import (
    And,
    App,
    Atom,
    EXISTS,
    Eq,
    Exists,
    FORALL,
    Forall,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    PrenexClass,
    Signature,
    Strong,
    Val,
    Var,
    exists_block,
    forall_block,
    free_variables,
    quantifier_free_class,
)

_CONNECTIVES = (And, Or, Strong, Implies, Iff)
_KINDS = (None, Not, *_CONNECTIVES)  # a family's first kind codes; its block kinds follow
_IMPLICATION, _FIVE = array("H", [_KINDS.index(Implies)]), array("H", map(_KINDS.index, _CONNECTIVES))
_OFFSET_MAX = 256 ** array("I").itemsize - 1  # the largest plan offset a 4-byte `StreamPlan.starts` entry holds


@lru_cache(maxsize=64)
def _connective_tables(star: tuple, implies: tuple) -> dict:
    """Each connective's arithmetic on chain indices: a row for negation, else a k-by-k table."""
    r = range(len(star))
    return {Not: [implies[x][0] for x in r], Strong: star, Implies: implies,
            And: [[min(x, y) for y in r] for x in r], Or: [[max(x, y) for y in r] for x in r],
            Iff: [[min(implies[x][y], implies[y][x]) for y in r] for x in r]}


@lru_cache(maxsize=64)
def _byte_tables(star: tuple, implies: tuple) -> tuple:
    """(scale, tables): each connective as a `bytes.translate` table over
    vectors of one byte a cell, negation's by value, for k <= 16 a binary
    one's by the pair code x * k + y that `_packed` forms at every cell at
    once (SIMD within a register: Fisher & Dietz, LCPC 1998), k * k <= 256
    keeping it in a byte.  For larger k, scale is None and binary tables are rows."""
    k, rows = len(star), _connective_tables(star, implies)
    if k * k > 256:
        return None, {**rows, Not: bytes(rows[Not]).ljust(256, b"\0")}
    return bytes(x * k for x in range(k)).ljust(256, b"\0"), {
        kind: bytes(table if kind is Not else [v for row in table for v in row]).ljust(256, b"\0")
        for kind, table in rows.items()}


def _packed(a: bytes, b: bytes, scale: bytes, table: bytes) -> bytes:
    """table[a[i] * k + b[i]] at every cell i: a's bytes scaled by k, plus b's, as one integer sum."""
    total = int.from_bytes(a.translate(scale), "big") + int.from_bytes(b, "big")
    return total.to_bytes(len(a), "big").translate(table)


def truth_constant_labels(sig: Signature, chain_labels: Sequence[str]) -> list[str]:
    """Truth-constant labels available to generators, in chain order: the endpoints always, any other
    label with a licence in the signature."""
    last = len(chain_labels) - 1
    return [label for i, label in enumerate(chain_labels) if i in (0, last) or label in sig.truth_constants]


def atoms_over(sig: Signature, terms: Sequence, labels: Sequence[str]) -> list[Formula]:
    """Canonical atom list: predicate atoms, identity atoms, truth constants."""
    pool = tuple(terms)
    return ([Atom(name, args) for name in sorted(sig.predicates) for args in product(pool, repeat=sig.predicates[name])]
            + [Eq(left, right) for left in pool for right in pool] + [Val(label) for label in labels])


@lru_cache(maxsize=None)
def _variable_subsets(names: tuple) -> tuple:
    """The nonempty subsets of `names`, by size, then in `combinations` order."""
    return tuple(part for size in range(1, len(names) + 1) for part in combinations(names, size))


# --- ground terms for diagram generation ---


def ground_terms(sig: Signature, constants: Iterable[str], term_depth: int = 0):
    """Closed terms over the given constants, nesting proper function
    symbols up to term_depth applications, each new term once."""
    all_terms = [App(c) for c in sorted(constants)]
    for _ in range(term_depth):
        fresh = [t for t in dict.fromkeys(App(name, args) for name in sorted(sig.functions) if sig.functions[name]
                                          for args in product(all_terms, repeat=sig.functions[name]))
                 if t not in all_terms]
        if not fresh:
            break
        all_terms.extend(fresh)
    return all_terms


# --- prenex families ---


def prenex_formula(matrix: Formula, prefix) -> Formula:
    """Wrap a matrix in quantifier blocks, given outermost first."""
    for kind, part in reversed(prefix):
        matrix = (forall_block if kind == FORALL else exists_block)(part, matrix)
    return matrix


class Fragment:
    """Formulas in generation order, as an index program held in columns:
    row k, read by `rows`, is (`kinds[ops[k]]`, `lefts[k]`, `rights[k]`), a
    connective and the earlier positions of matrix k's operands (a negation
    names its body twice), ((kind, block), body, body) for a quantifier block
    in a quantified family, or (None, 0, 0) for a leaf, the formula
    `leaves[k]`; leaves come first, and without `columns` every row is one.
    Matrix k's free-variable set is `sets[codes[k]]`: `codes` is a 2-byte
    column into `sets`, the family's distinct free sets and their one
    decoding table, the empty set first, so a closed row has code 0; given
    one set a row, the constructor codes them.  A formula is built only when
    read, by `matrix(k)`, the one formula builder.  Shared, so read-only; one
    plan per (steps, keep)."""

    def __init__(self, leaves: Sequence[Formula], free: Sequence, columns: tuple | None = None,
                 sets: tuple | None = None):
        if sets is None:  # one free set a row
            sets = tuple(dict.fromkeys([frozenset(), *free]))
            free = array("H", map({fv: c for c, fv in enumerate(sets)}.__getitem__, free))
        self.leaves, self.sets, self.codes = tuple(leaves), sets, free
        zeros = array("i", [0]) * len(free)
        self.kinds, self.ops, self.lefts, self.rights = columns or (_KINDS, array("H", zeros), zeros, zeros)
        self._plans: dict = {}

    def closed(self) -> array:
        """The closed rows' positions, ascending: the rows of code 0."""
        return array("i", compress(range(len(self.codes)), map(not_, self.codes)))

    def rows(self, start: int = 0, stop: int | None = None) -> Iterator[tuple]:
        """(connective, left, right) per row from `start` to `stop` (the end with None)."""
        return zip(map(self.kinds.__getitem__, self.ops[start:stop]), self.lefts[start:stop], self.rights[start:stop])

    def matrix(self, k: int, memo: dict | None = None) -> Formula:
        """Matrix k; the formulas read with one `memo` share their operands."""
        memo = {} if memo is None else memo
        if k not in memo:
            kind, i, j = self.kinds[self.ops[k]], self.lefts[k], self.rights[k]  # one row, read in place
            memo[k] = (self.leaves[k] if kind is None else Not(self.matrix(i, memo)) if kind is Not
                       else prenex_formula(self.matrix(i, memo), (kind,)) if type(kind) is tuple
                       else kind(self.matrix(i, memo), self.matrix(j, memo)))
        return memo[k]

    def plan(self, steps, cap: int | None = None, keep=None) -> "StreamPlan":
        """The (matrix, prefix, params) stream of these (quantifiable, target)
        steps, cut after `cap` positions; `keep(prefix)`, if given, drops the
        prefixes it rejects from every row."""
        key = tuple((tuple(quantifiable), target) for quantifiable, target in steps), keep
        plan = self._plans.get(key) or self._plans.setdefault(key, StreamPlan(self, *key))
        if cap is not None and cap < plan.size:
            plan = copy(plan)
            plan.size = cap
        return plan


class StreamPlan:
    """A family's candidate stream, by position.  Each step in turn, matrix
    by matrix in family order, wraps the matrix in the prefixes new at that
    step; a (prefix, params) pair the matrix had at an earlier step is
    skipped.  Which pairs are new depends only on the free variables, so
    `rows[i]` is a tuple indexed by free-set code (`Fragment.codes`), each
    entry the set's (prefixes, params) at step i, and candidate (step i,
    matrix k, prefix p) sits at `position(i, k, p)`: the step's offset, plus
    `starts[i][k]`, the row lengths of the matrices before k, plus p
    (ranking in a known enumeration order; Kreher & Stinson 1999, ch. 2).
    `starts[i]` is a 4-byte column, summed over the family's free-set
    codes; a step of more positions than it holds raises BudgetError.
    Iterating yields the first `size` candidates, each matrix built by
    `Fragment.matrix`."""

    def __init__(self, family: Fragment, steps: tuple, keep=None):
        self.family, self.rows, self.starts, self.offsets = family, [], [], [0]  # starts: one array a step
        seen = [set() for _ in family.sets]  # by free-set code, the (prefix, params) pairs so far
        counts = Counter(family.codes)  # rows per free-set code
        for quantifiable, target in steps:
            rows = []
            for fv, pairs in zip(family.sets, seen):
                to_bind = tuple(v for v in quantifiable if v in fv)
                params = tuple(sorted(fv.difference(to_bind)))
                new = [p for p in _prefixes(to_bind, target) if (p, params) not in pairs]
                pairs.update((p, params) for p in new)
                rows.append((tuple(p for p in new if keep is None or keep(p)), params))
            lengths = [len(prefixes) for prefixes, _ in rows]
            self.rows.append(tuple(rows))
            if (total := sum(lengths[c] * n for c, n in counts.items())) > _OFFSET_MAX:
                raise BudgetError(f"stream plan step {len(self.rows)} of {len(steps)} over {len(family.codes)}"
                                  f" matrices has {total} positions, over the {_OFFSET_MAX} its offsets hold",
                                  required=total, budget=_OFFSET_MAX)
            self.starts.append(array("I", accumulate(map(lengths.__getitem__, family.codes), initial=0)))
            self.offsets.append(self.offsets[-1] + self.starts[-1][-1])
        self.size = self.offsets[-1]

    def position(self, i: int, k: int, p: int = 0) -> int:
        return self.offsets[i] + self.starts[i][k] + p

    def reach(self, end: int) -> int:
        """How many matrices, in family order, the first `end` positions reach."""
        return max((bisect_right(self.starts[i], min(end, self.offsets[i + 1]) - 1 - offset)
                    for i, offset in enumerate(self.offsets[:-1]) if offset < end), default=0)

    def __iter__(self) -> Iterator[tuple[Formula, tuple, tuple]]:
        family = self.family
        return islice(((matrix, prefix, params) for rows in self.rows
                       for k, (prefixes, params) in enumerate(map(rows.__getitem__, family.codes)) if prefixes
                       for matrix in (family.matrix(k),) for prefix in prefixes), self.size)


_FRAGMENT_CACHE_SIZE = 16
_fragments: OrderedDict = OrderedDict()


def fragment(sig: Signature, chain_labels: Sequence[str], variables: Sequence[str], depth: int,
             extra_terms: Sequence = ()) -> Fragment:
    """The `qf_matrices` family, built once and then served from an LRU
    cache.  A hit charges the family's size to a fresh meter, so it fails
    on a short budget exactly as a fresh build would."""
    labels = tuple(truth_constant_labels(sig, chain_labels))
    key = (tuple(sorted(sig.predicates.items())), tuple(sorted(sig.functions.items())),
           labels, tuple(variables), depth, tuple(extra_terms))
    family = _fragments.get(key)
    if family is None:
        family = _fragments[key] = _build_fragment(sig, labels, variables, depth, extra_terms)
        if len(_fragments) > _FRAGMENT_CACHE_SIZE:
            _fragments.popitem(last=False)
    else:
        _fragments.move_to_end(key)
        meter = BudgetMeter("matrix generation")
        meter.tick(min(len(family.codes), meter.limit + 1))
    return family


def _build_fragment(sig, labels, variables, depth, extra_terms, quantified=False) -> Fragment:
    """The family as a program over its distinct atoms: level 0 is the atoms
    and their negations, each later level is one connective over operands
    whose levels sum to one less (by left level, left index, right index,
    then and, or, strong, implies, iff; commutative ones once per unordered
    pair), and a row's free set is the union of its operands'.  A
    `quantified` family opens each level with block rows over the previous
    level's open rows (by variable order, subsets by size, forall first); a
    block over a block of its kind is one merged row, and a row already built
    is skipped, so rows are equal exactly when their formulas are: a bitset
    per block code marks the bodies it has.  Its final level keeps only
    closed operands and blocks binding every free variable.  Free sets are
    coded as met, each row's code appended to a 2-byte column.  Each level
    is charged to the meter in one tick before its connectives are built,
    and fails where a tick per row would."""
    meter = BudgetMeter("sentence generation" if quantified else "matrix generation")
    leaves = tuple(dict.fromkeys(atoms_over(sig, [Var(v) for v in variables] + list(extra_terms), labels)))
    negated = [k for k, a in enumerate(leaves) if not isinstance(a, Val)]
    ops = array("H", [0]) * len(leaves) + array("H", [1]) * len(negated)
    lefts = array("i", [0]) * len(leaves) + array("i", negated)
    rights, kinds = array("i", lefts), list(_KINDS)
    sets: dict = {frozenset(): 0}  # free set -> its code, the empty set first: a family has only a few
    free = array("H", [sets.setdefault(frozenset(free_variables(a)), len(sets)) for a in leaves])
    free += array("H", map(free.__getitem__, negated))
    starts, blocks, plans = [0], {}, {}  # level l is rows starts[l]:starts[l + 1]; blocks: code -> bitset
    for level in range(depth + 1):  # level 0 is built: here it is only charged
        final, built, named, size = quantified and level == depth, len(ops), tuple(sets), starts[level] + 7 >> 3
        for bits in blocks.values():  # a bit per position before the level, where every body sits
            bits.extend(bytes(size - len(bits)))
        for k in range(starts[level - 1], starts[level]) if quantified and level else ():
            plan = plans.get(key := (ops[k], free[k], final))
            if plan is None:  # (code, merged, free-set code) per block row, planned once per key
                kind, plan, fv = kinds[ops[k]], plans.setdefault(key, []), named[free[k]]
                parts = _variable_subsets(tuple(v for v in variables if v in fv))  # the last is the whole set
                for part, q in product(parts[-1:] if final else parts, (FORALL, EXISTS)):
                    merged = type(kind) is tuple and kind[0] == q  # a block over a block of its kind
                    block = (q, part + kind[1]) if merged else (q, part)
                    if block not in kinds:
                        kinds.append(block)
                        blocks[len(kinds) - 1] = bytearray(size)
                    plan.append((kinds.index(block), merged, sets.setdefault(fv.difference(part), len(sets))))
            for code, merged, rest in plan:  # a merged row names its body's body
                bits, body = blocks[code], lefts[k] if merged else k
                if not bits[body >> 3] >> (body & 7) & 1:
                    bits[body >> 3] |= 1 << (body & 7)
                    ops.append(code)
                    lefts.append(body)
                    rights.append(body)
                    free.append(rest)
        rows = [range(starts[l], starts[l + 1]) for l in range(level)]
        if final:
            rows = [[k for k in r if not free[k]] for r in rows]
        splits = [(rows[la], rows[lb], la - lb) for la, lb in zip(range(level), reversed(range(level)))]
        # rows per split: five a pair when the left level is the lower, implication alone when it is
        # the higher, and on one level of n entries n * n implications and 4 * n(n + 1) / 2 others
        count = sum(len(a) * (5 * len(b) if d < 0 else len(b) if d else 3 * len(a) + 2) for a, b, d in splits)
        meter.tick(min(len(ops) - built + count if level else len(ops), meter.limit - meter.used + 1))
        for left, right, d in splits:
            once, fives, runs = array("i", right), array("i", [j for j in right for _ in range(5)]), {}
            codes = array("H", map(free.__getitem__, right))
            for i in left:  # one run of rows per left operand: implication alone before the cut, then five
                cut = len(right) if d > 0 else bisect_left(right, i) if d == 0 else 0
                if free[i] not in runs:  # the run's free-set codes, alone and five times each, per left code
                    union = {c: sets.setdefault(named[free[i]] | named[c], len(sets)) for c in dict.fromkeys(codes)}
                    joins = array("H", map(union.__getitem__, codes))
                    runs[free[i]] = joins, array("H", [c for c in joins for _ in range(5)])
                joins, joins5 = runs[free[i]]
                ops += _IMPLICATION * cut + _FIVE * (len(right) - cut)
                lefts += array("i", [i]) * (5 * len(right) - 4 * cut)
                rights += once[:cut] + fives[5 * cut:]
                free += joins[:cut] + joins5[5 * cut:]
        starts.append(len(ops))
    return Fragment(leaves, free, (tuple(kinds), ops, lefts, rights), tuple(sets))


def sentence_family(sig: Signature, chain_labels: Sequence[str], depth: int, num_vars: int | None = None,
                    extra_terms: Sequence = ()) -> Fragment:
    """Formulas of generation level <= depth over x1..xd (d = num_vars,
    default depth), as a quantified `_build_fragment` program: its closed
    positions are the bounded sentence set.  Kept out of the `fragment`
    cache, as a depth-3 family has millions of rows."""
    variables = [f"x{i}" for i in range(1, (depth if num_vars is None else num_vars) + 1)]
    labels = tuple(truth_constant_labels(sig, chain_labels))
    return _build_fragment(sig, labels, variables, depth, tuple(extra_terms), quantified=True)


def generate_sentences(sig: Signature, chain_labels: Sequence[str], depth: int, num_vars: int | None = None,
                       extra_terms: Sequence = ()) -> list[Formula]:
    """The closed positions of `sentence_family`, as formulas, in family order."""
    family = sentence_family(sig, chain_labels, depth, num_vars, extra_terms)
    return [family.matrix(k, memo) for memo in [{}] for k in family.closed()]


def qf_matrices(sig: Signature, chain_labels: Sequence[str], variables: Sequence[str], depth: int,
                extra_terms: Sequence = ()) -> list[Formula]:
    """Quantifier-free formulas over the variable pool, ops-count levels, sharing their operands."""
    family = fragment(sig, chain_labels, variables, depth, extra_terms)
    return [family.matrix(k, memo) for memo in [{}] for k in range(len(family.codes))]


@lru_cache(maxsize=None)
def _prefixes(to_bind: tuple, target: PrenexClass) -> tuple:
    """Alternating block prefixes binding `to_bind` in order that fit within
    `target`: lead forall first, then fewer blocks, then by cut points."""
    if not to_bind:
        return ((),) if quantifier_free_class().within(target) else ()
    n = len(to_bind)
    out = []
    for kinds in ((FORALL, EXISTS), (EXISTS, FORALL)):
        for parts in range(1, min(target.blocks, n) + 1):
            if PrenexClass(kinds[0], parts).within(target):
                for cuts in combinations(range(1, n), parts - 1):
                    bounds = (0,) + cuts + (n,)
                    out.append(tuple((kinds[i % 2], to_bind[bounds[i]:bounds[i + 1]])
                                     for i in range(parts)))
    return tuple(out)


def prenex_candidates(
    matrices: Sequence[Formula],
    quantifiable: Sequence[str],
    target: PrenexClass,
) -> Iterator[tuple[Formula, tuple, tuple]]:
    """Their plan's (matrix, prefix, params) triples: matrices in prefixes whose class fits within `target`.

    Every variable of `quantifiable` that occurs free in a matrix gets
    quantified; remaining free variables are parameter slots.  Pure
    parameter matrices are emitted once, as quantifier-free candidates.
    """
    family = Fragment(matrices, [frozenset(free_variables(phi)) for phi in matrices])
    yield from family.plan([(quantifiable, target)])


def elementary_plan(sig, chain_labels, depth, total_vars, matrix_depth=1, extra_terms=()):
    """The plan of `elementary_family`: every split of the pool into
    parameters and quantified variables, each under both leads."""
    variables = [f"x{i}" for i in range(1, total_vars + 1)]
    steps = [(variables[n:], target) for n in range(total_vars + 1)
             for target in (PrenexClass(FORALL, depth), PrenexClass(EXISTS, depth))]
    return fragment(sig, chain_labels, variables, matrix_depth, extra_terms).plan(steps)


def elementary_family(
    sig: Signature,
    chain_labels: Sequence[str],
    depth: int,
    total_vars: int | None = None,
    matrix_depth: int = 1,
    extra_terms: Sequence = (),
) -> Iterator[tuple[Formula, tuple, tuple]]:
    """`elementary_plan`'s triples: prenex formulas with every split of the
    pool into parameters and quantified variables, for elementarity checks.

    Connective moves above a quantifier cannot break value transport
    along an algebra-map pair, so checking prenex shapes exhausts the
    depth-d obstructions; only quantifier steps compare the two domains.
    """
    if total_vars is None:
        total_vars = depth + 1
    yield from elementary_plan(sig, chain_labels, depth, total_vars, matrix_depth, extra_terms)


# --- grid evaluation ---


@lru_cache(maxsize=256)  # shapes: the suites and the widest CLI grids keep at most 144 (about 80 KiB)
def _reader(dims: tuple, *columns: tuple):
    """The getter of a leaf's values at every cell of some grids in turn, off their tables in `product` order
    joined: `dims` has each grid's (m, t), and a column each argument's axis a >= 0, or ~p for element p."""
    out, base = [], 0
    for (m, t), *args in zip(dims, *columns):
        out += [base + sum(m ** (len(args) - 1 - j) * (cell[a] if a >= 0 else ~a) for j, a in enumerate(args))
                for cell in product(range(m), repeat=t)]
        base += m ** len(args)
    return itemgetter(*out) if len(out) > 1 else itemgetter(slice(out[0], out[0] + 1))


@lru_cache(maxsize=256)
def _axis(m: int, size: int, stride: int) -> list:
    """An axis's m lanes, its cells at each value (a slice on the first or last axis, else a getter), then
    the getter that broadcasts a folded lane: cell i reads folded cell i // (stride * m) * stride + i % stride."""
    width = size // m
    return [slice(j, None, m) if stride == 1 else slice(j * width, (j + 1) * width) if stride == width
            else itemgetter(*[i for i in range(size) if i // stride % m == j]) for j in range(m)
            ] + [itemgetter(*[i // (stride * m) * stride + i % stride for i in range(size)])]


_FOLDS = 4096  # distinct folds kept: a `fragment` pass or a `verify` suite computes about 2,100
_ORDER = bytes(x * 16 for x in range(16)).ljust(256, b"\0"), {  # `_packed`'s pair code, min and max for k <= 16
    kind: bytes(map(pick, *zip(*product(range(16), repeat=2)))) for kind, pick in ((FORALL, min), (EXISTS, max))}


@lru_cache(maxsize=_FOLDS)
def _folded(values: bytes, m: int, stride: int, k: int, kind: str) -> bytes:
    """A fold by value (a memo function: Michie, Nature 1968), so every grid and table of one shape
    shares it: the min (forall) or max (exists) of the m lanes of the axis of `stride` over k chain
    indices, combined lane by lane through `_packed` (per cell over 16 elements), broadcast back."""
    *parts, broadcast = _axis(m, len(values), stride)
    lanes = [values[part] if isinstance(part, slice) else bytes(part(values)) for part in parts]
    if k > 16:
        return bytes(broadcast(bytes(map(min if kind == FORALL else max, *lanes))))
    return bytes(broadcast(reduce(lambda a, b: _packed(a, b, _ORDER[0], _ORDER[1][kind]), lanes)))


def _lane_sets(grid, colour: list, var: str) -> list:
    """Per cell of the grid, the set of `colour`s along the axis of `var` through it: a fold by set, not by order."""
    if grid.m == 1:
        return [frozenset(colour)]
    *parts, broadcast = _axis(grid.m, grid.size, grid.strides[var])
    return broadcast(list(map(frozenset, zip(*[colour[p] if isinstance(p, slice) else p(colour) for p in parts]))))


class AssignmentGrid:
    """Values of formulas at every assignment of a fixed variable tuple.

    The grid for t variables over a domain of size m is one immutable
    `bytes` of m**t chain indices, one byte a cell, first variable most
    significant, so a chain may have at most 256 elements; variables in
    `fixed` are not axes but take their given element in every cell.
    Quantifying a variable folds its axis and broadcasts the result, so
    combination stays aligned (`fold`, memoised by value in `_folded`).
    `values`, a plain recursion kept as a reference, and `ValueClasses`
    (leaves by its `_leaf_row`) share `_combine`, each connective a
    `bytes.translate` table (`_byte_tables`).
    """
    _leaves = cached_property(lambda self: ValueClasses(None, (self,)))  # a one-grid table for `values`' leaves

    def __init__(self, structure: Structure, variables: Sequence[str], *, fixed=None):
        if structure.chain.size > 256:
            raise FormatError(f"a grid holds a value in a byte: {structure.chain.size} chain elements are over 256")
        self.structure = structure
        self.variables = tuple(variables)
        self.fixed = dict(fixed or {})
        self.m, self.k = structure.size, structure.chain.size
        t = len(self.variables)
        self.size = self.m**t
        self.strides = {v: self.m ** (t - 1 - i) for i, v in enumerate(self.variables)}
        self._dom_pos = {d: i for i, d in enumerate(structure.domain)}
        self._flats = {p: bytes(table.values()) for p, table in structure.predicates.items()}  # `product` order
        self._flats[Eq] = ((bytes([structure.chain.top]) + bytes(self.m)) * self.m)[:self.m ** 2]  # the diagonal
        self._tables = _byte_tables(structure.chain.star, structure.chain.implies)

    def _arg(self, term) -> int:
        """A term as a `_reader` argument: its axis, or ~p if it takes domain element p in every cell."""
        if isinstance(term, Var) and term.name not in self.fixed:
            return self.variables.index(term.name)
        return ~self._dom_pos[eval_term(term, self.structure, self.fixed)]

    def values(self, phi: Formula) -> bytes:
        """On-demand driver: the operands, then this node."""
        if isinstance(phi, Not):
            return self._combine(Not, self.values(phi.body))
        if isinstance(phi, _CONNECTIVES):
            return self._combine(type(phi), self.values(phi.left), self.values(phi.right))
        if isinstance(phi, (Forall, Exists)):
            return self.fold(self.values(phi.body), phi.var, FORALL if isinstance(phi, Forall) else EXISTS)
        return self._leaves._leaf_row(phi)

    def _combine(self, kind: type, a: bytes, b: bytes | None = None) -> bytes:
        """One connective (its node class) over its operands' value vectors."""
        scale, tables = self._tables
        if kind is Not:
            return a.translate(tables[Not])
        if scale is None:  # over 16 elements a pair code overflows its byte
            return bytes([tables[kind][x][y] for x, y in zip(a, b)])
        return _packed(a, b, scale, tables[kind])

    def fold(self, values: bytes, var: str, kind: str) -> bytes:
        """Quantify `var`: the min (forall) or max (exists) of its axis's lanes, broadcast back (`_folded`)."""
        return values if self.m == 1 else _folded(values, self.m, self.strides[var], self.k, kind)

    def cell(self, assignment) -> int:
        """The cell of the assignment; a grid variable it leaves out reads as the first element."""
        return sum(self._dom_pos[assignment[v]] * self.strides[v] for v in self.variables if v in assignment)


class ValueClasses:
    """A family's matrices by value class over several grids, grown in
    family order: `cls[k]` is matrix k's class id, `vecs[c]` class c's
    values at each grid's cells in turn.  `family.rows()` run over class
    ids, interned by their bytes, so no matrix is built as a formula, a
    leaf is one read of every grid (`_leaf_row`) and a connective meets
    each pair of operand classes once, per run of grids over one chain.
    `extend(n)` resumes where the table stopped, so a caller grows it only
    as far as it reads (bottom-up enumeration checked as the bank grows:
    Udupa et al., TRANSIT, PLDI 2013).  A block row's class is its body's
    class read through the block on each grid (`read`)."""

    def __init__(self, family: Fragment, grids: Sequence[AssignmentGrid]):
        self.family, self.grids, self.cls, self.vecs = family, tuple(grids), [], []
        bounds = list(accumulate((g.size for g in self.grids), initial=0))
        runs = [list(run) for _, run in groupby(zip(self.grids, bounds, bounds[1:]), lambda r: r[0].structure.chain)]
        self._runs = [(run[0][0], run[0][1], run[-1][2]) for run in runs]  # (grid, start, end) per run of one chain
        self._bounds = bounds  # grid i's cells are vecs[c][bounds[i]:bounds[i + 1]]
        self._dims, self._cache = tuple([(g.m, len(g.variables)) for g in self.grids]), {}  # for `_leaf_row`
        self._ids: dict = {}  # values -> class id
        self._memo: dict = {}  # (connective, left class, right class) -> class id

    def extend(self, n: int | None = None) -> None:
        """Name the first n matrices (every matrix with None), from where the table stopped."""
        family, cls, vecs, runs, memo = self.family, self.cls, self.vecs, self._runs, self._memo
        stop = len(family.codes) if n is None else min(n, len(family.codes))
        cls += map(self._intern, map(self._leaf_row, family.leaves[len(cls):stop]))  # the leaves come first
        for kind, i, j in family.rows(len(cls), stop):
            key = (kind, cls[i], cls[j])
            c = memo.get(key)
            if c is None:
                a, b = vecs[key[1]], vecs[key[2]]
                c = memo[key] = self._intern(
                    b"".join(self.read(key[1], g, (kind,)) for g in range(len(self.grids))) if type(kind) is tuple
                    else runs[0][0]._combine(kind, a, b) if len(runs) == 1 else
                    b"".join(g._combine(kind, a[s:e], b[s:e]) for g, s, e in runs))
            cls.append(c)

    def _leaf_row(self, phi: Formula) -> bytes:
        """A leaf's values: a truth constant's byte a run, else one `_reader` read (tables, `_arg`s in `_cache`)."""
        if isinstance(phi, Val):
            return b"".join([bytes([_truth_constant_index(g.structure.chain, phi.label)]) * (e - s)
                             for g, s, e in self._runs])
        if not isinstance(phi, (Atom, Eq)):
            raise TypeError(f"not a formula: {phi!r}")
        key, terms = (phi.name, phi.args) if isinstance(phi, Atom) else (Eq, (phi.left, phi.right))
        if key not in self._cache:
            if any(key not in g._flats for g in self.grids):
                raise SignatureError(f"structure does not interpret predicate {key!r}")
            self._cache[key] = b"".join([g._flats[key] for g in self.grids])
        args = [self._cache.get(u) or self._cache.setdefault(u, tuple([g._arg(u) for g in self.grids])) for u in terms]
        return bytes(_reader(self._dims, *args)(self._cache[key]))

    def classes(self, positions: Sequence[int]) -> Iterator[int]:
        """These ascending positions' class ids, the table doubled from its leaves as read: its one growth path."""
        for k in positions:
            if k >= len(self.cls):
                self.extend(min(max(k + 1, 2 * len(self.cls), len(self.family.leaves)), positions[-1] + 1))
            yield self.cls[k]

    def read(self, c: int, i: int, prefix=()) -> bytes:
        """Class c's values on grid i, folded through `prefix`'s blocks innermost first (`AssignmentGrid.fold`)."""
        grid, out = self.grids[i], self.vecs[c][self._bounds[i]:self._bounds[i + 1]]
        for kind, part in reversed(prefix):
            for var in reversed(part):  # a block's order is free, and last bound first shares the most
                out = grid.fold(out, var, kind)
        return out

    def refinements(self) -> Iterator[list]:
        """Each round's colours of the cells of every grid in turn (grids over one variable tuple): round 0
        by the family's leaf rows, each later round a cell's colour with the set of colours along each axis
        through it (the lanes of `_axis`), until the count stops growing.  Cells of one colour in the last
        round take equal values on every row, at any quantifier depth: a row is a leaf, a connective of equal
        values, or a fold over equal sets of colours (colour refinement: Immerman & Lander 1990)."""
        self.extend(len(self.family.leaves))
        leaves = dict.fromkeys(self.cls[:len(self.family.leaves)])
        spans = list(zip(self.grids, self._bounds, self._bounds[1:]))  # (grid, start, end) per grid
        keys, size = [zip(*[self.vecs[c][s:e] for c in leaves]) for _, s, e in spans], 0
        while True:
            ids, fresh, colour = {}, count(), []  # a colour is the first count its key met: distinct, not dense
            for part in keys:
                colour += map(ids.setdefault, part, fresh)
            if len(ids) == size:
                return
            size = len(ids)
            yield colour
            keys = [zip(colour[s:e], *[_lane_sets(g, colour[s:e], v) for v in self.grids[0].variables])
                    for g, s, e in spans]

    def _intern(self, vals: bytes) -> int:
        c = self._ids.setdefault(vals, len(self.vecs))
        if c == len(self.vecs):
            self.vecs.append(vals)
        return c


# --- structure spaces ---


class StructureBlock:
    """The structures over one domain with one constant assignment, the
    entries of `base` (a structure on part of the domain) pinned.  The free
    slots are the other predicate entries, in sorted-predicate, `product`
    order, and structure i has value (i // k**(n-1-s)) % k at free slot s of
    n.  `planes` evaluates a formula in all of them at once, as k Python ints
    whose bit i says "value >= v in structure i" (plane 0 is every
    structure): a third driver of the chain tables, where and/or and the
    quantifiers are AND and OR of planes and the other connectives combine
    one-hot planes through the tables.  A pinned slot has constant planes."""

    def __init__(self, sig, chain, domain, constants, planes, base: Structure | None = None):
        self.sig, self.chain, self.domain = sig, chain, domain
        self.pinned = {} if base is None else {(p, args): v for p, table in base.predicates.items()
                                               for args, v in table.items()}
        self.slots = [(p, args) for p in sorted(sig.predicates)
                      for args in product(domain, repeat=sig.predicates[p]) if (p, args) not in self.pinned]
        self.functions = {c: {(): v} for c, v in constants}
        self.env = {App(c): v for c, v in constants}  # term -> element, for `planes`
        self.count = chain.size ** len(self.slots)
        self.offset = 0  # set by the `StructureStream` that holds the block
        self._tables = _connective_tables(chain.star, chain.implies)
        self._slot_planes = planes  # shared by the blocks of one domain size

    @cached_property
    def all(self) -> int:
        return (1 << self.count) - 1

    def structure(self, values) -> Structure:
        """The structure with these free-slot values: the digits of its index."""
        predicates: dict = {p: {} for p in sorted(self.sig.predicates)}
        for (p, args), v in [*self.pinned.items(), *zip(self.slots, values)]:
            predicates[p][args] = v
        return Structure(chain=self.chain, sig=self.sig, domain=self.domain,
                         predicates=predicates, functions=self.functions)

    def at(self, index: int) -> Structure:
        k, n = self.chain.size, len(self.slots)
        return self.structure([index // k ** (n - 1 - s) % k for s in range(n)])

    def __iter__(self) -> Iterator[Structure]:
        return map(self.structure, product(range(self.chain.size), repeat=len(self.slots)))

    def position(self, index: int) -> int:
        """Structure `index`'s position in the stream that holds the block."""
        return self.offset + index

    def models(self, theory: Sequence[Formula]) -> int:
        """The block's models of the theory; a sentence is evaluated only
        while some structure models every sentence before it."""
        out = self.all
        for phi in theory:
            if not out:
                break
            if free_variables(phi):
                raise FormatError("theories must consist of sentences")
            out &= self.planes(phi)[-1]
        return out

    def planes(self, phi: Formula, env: dict | None = None) -> list[int]:
        """Threshold planes of phi; `env` maps terms (variables, constants) to elements."""
        env = self.env if env is None else env
        if isinstance(phi, (Forall, Exists)):
            var = Var(phi.var)
            out = [self.planes(phi.body, {**env, var: d}) for d in self.domain]
            return [reduce(and_ if isinstance(phi, Forall) else or_, col) for col in zip(*out)]
        if isinstance(phi, Not):
            return self._combine(Not, self.planes(phi.body, env))
        if isinstance(phi, _CONNECTIVES):
            return self._combine(type(phi), self.planes(phi.left, env), self.planes(phi.right, env))
        try:
            if isinstance(phi, Atom):
                if phi.name not in self.sig.predicates:
                    raise SignatureError(f"structure does not interpret predicate {phi.name!r}")
                return self._slot((phi.name, tuple(env[t] for t in phi.args)))
            if isinstance(phi, Eq):
                return self._constant(self.chain.size - 1 if env[phi.left] == env[phi.right] else 0)
            if isinstance(phi, Val):
                return self._constant(_truth_constant_index(self.chain, phi.label))
            raise TypeError(f"not a formula: {phi!r}")
        except KeyError as err:
            raise SignatureError(f"structure does not interpret term {err}") from None

    def _constant(self, c: int) -> list[int]:
        return [self.all] * (c + 1) + [0] * (self.chain.size - 1 - c)

    def _slot(self, slot) -> list[int]:
        planes = self._slot_planes.get(slot)
        if planes is None and slot in self.pinned:
            planes = self._slot_planes[slot] = self._constant(self.pinned[slot])
        elif planes is None:
            k = self.chain.size
            stride = k ** (len(self.slots) - 1 - self.slots.index(slot))
            planes = [self.all]
            for v in range(1, k):  # "value >= v" is one run a period, repeated by doubling
                bits, width = (1 << k * stride) - (1 << v * stride), k * stride
                while width < self.count:
                    bits, width = bits | bits << width, 2 * width
                planes.append(bits & self.all)
            self._slot_planes[slot] = planes
        return planes

    def _combine(self, kind: type, a: list[int], b: list[int] | None = None) -> list[int]:
        """One connective over its operands' planes."""
        if kind is And or kind is Or:
            return list(map(and_ if kind is And else or_, a, b))
        table, k = self._tables[kind], len(a)
        hot_a, hot = [a[v] & ~a[v + 1] for v in range(k - 1)] + [a[-1]], [0] * k
        if kind is Not:
            for x, p in enumerate(hot_a):
                hot[table[x]] |= p
        else:
            hot_b = [b[v] & ~b[v + 1] for v in range(k - 1)] + [b[-1]]
            for x, p in enumerate(hot_a):
                for y, q in enumerate(hot_b):
                    hot[table[x][y]] |= p & q
        for v in range(k - 2, -1, -1):
            hot[v] |= hot[v + 1]
        return hot


class StructureStream(tuple):
    """Blocks read in turn as one stream of `size` structures: a block's
    structure i sits at stream position `block.position(i)`, and a bitset
    over the stream holds each block's bits from the block's offset on."""

    def __new__(cls, blocks: Iterable[StructureBlock]):
        self = super().__new__(cls, blocks)
        self.size = 0
        for block in self:
            block.offset, self.size = self.size, self.size + block.count
        return self

    def at(self, position: int) -> Structure:
        """The structure at this stream position."""
        block = next(b for b in self if position < b.offset + b.count)
        return block.at(position - block.offset)

    def bits(self, of_block) -> int:
        """One bitset over the stream from `of_block(block)`, each block's own bitset."""
        return sum(of_block(block) << block.offset for block in self)


def _check_relational(sig: Signature) -> None:
    if not sig.is_relational_with_constants():
        raise SignatureError("structure enumeration needs a relational-plus-constants signature")


def structure_space(sig: Signature, chain, max_size: int, label_prefix: str = "d") -> StructureStream:
    """All structures with domains d0..d(m-1) for m = 1..max_size, as blocks
    in canonical order (constants outer, predicate tables lexicographic
    inside), so countermodels are deterministic.  The signature must be
    relational plus constants, and the space may not be empty."""
    if max_size < 1:
        raise FormatError("max_domain must be at least 1")
    _check_relational(sig)
    constants, k = sig.constants(), chain.size
    check_budget(sum(m ** len(constants) * k ** sum(m**a for a in sig.predicates.values())
                     for m in range(1, max_size + 1)), "structure enumeration")
    blocks: list[StructureBlock] = []
    for m in range(1, max_size + 1):
        domain = tuple(f"{label_prefix}{i}" for i in range(m))
        planes: dict = {}
        for values in product(domain, repeat=len(constants)):
            blocks.append(StructureBlock(sig, chain, domain, tuple(zip(constants, values)), planes))
    return StructureStream(blocks)


def _fresh_labels(existing: Sequence[str], how_many: int) -> list[str]:
    labels = (f"w{i}" for i in count())
    return list(islice((label for label in labels if label not in existing), how_many))


def extension_space(base: Structure, max_size: int) -> StructureStream:
    """The structures extending `base` by fresh elements w0, w1, ... up to
    max_size elements, smallest first: one block per size, with the tables
    of `base` pinned and the entries that touch a fresh element free."""
    _check_relational(base.sig)
    constants = tuple((c, base.functions[c][()]) for c in base.sig.constants())
    return StructureStream(
        StructureBlock(base.sig, base.chain, base.domain + tuple(_fresh_labels(base.domain, extra)),
                       constants, {}, base)
        for extra in range(max_size - base.size + 1))


def enumerate_structures(sig: Signature, chain, max_size: int, label_prefix: str = "d") -> Iterator[Structure]:
    """The structures of `structure_space`, one at a time, in its order."""
    for block in structure_space(sig, chain, max_size, label_prefix):
        yield from block
