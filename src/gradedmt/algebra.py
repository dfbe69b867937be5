"""Finite residuated chains given by operation tables.

A chain is a finite, linearly ordered algebra with a commutative monoidal
operation (star) whose identity is the top element, together with its
residuum (implies).  Lattice meet and join are index min and max and are
never stored.  All laws are checked exhaustively; the chains here are
small enough that complete table validation is cheap.
"""

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .errors import ChainMismatchError, FormatError, PreconditionError

Table = tuple[tuple[int, ...], ...]


def _as_table(rows, k: int, what: str) -> Table:
    if not isinstance(rows, (list, tuple)) or len(rows) != k:
        raise FormatError(f"{what} must have {k} rows")
    out = []
    for i, row in enumerate(rows):
        if not isinstance(row, (list, tuple)) or len(row) != k:
            raise FormatError(f"{what} row {i} must have {k} entries")
        for j, v in enumerate(row):
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < k:
                raise FormatError(f"{what}[{i}][{j}] = {v!r} is not an index < {k}")
        out.append(tuple(row))
    return tuple(out)


@dataclass(frozen=True)
class FiniteChain:
    """A finite chain algebra over k >= 2 elements.

    `elements` lists the element labels in strictly ascending chain order;
    index 0 is the bottom element and index k-1 the top.  `star` and
    `implies` are k-by-k tables of element indices.  Construction checks
    shapes only; run validate_chain for the algebraic laws.  Two chains
    are equal when their labels and tables are: `name` (a label for
    files), `bottom` and `top` take no part in equality or the hash.
    """

    elements: tuple[str, ...]
    star: Table
    implies: Table
    name: str = field(default="", compare=False)
    bottom: int = field(default=0, init=False, compare=False, repr=False)
    top: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if len(self.elements) < 2:
            raise FormatError("a chain needs at least two elements")
        if len(set(self.elements)) != len(self.elements):
            raise FormatError("chain element labels must be distinct")
        k = len(self.elements)
        object.__setattr__(self, "elements", tuple(str(e) for e in self.elements))
        object.__setattr__(self, "star", _as_table(self.star, k, "star"))
        object.__setattr__(self, "implies", _as_table(self.implies, k, "implies"))
        object.__setattr__(self, "top", k - 1)

    @property
    def size(self) -> int:
        return len(self.elements)

    def index(self, label: str) -> int:
        try:
            return self.elements.index(label)
        except ValueError:
            raise ChainMismatchError(f"{label!r} is not an element of this chain")

    def has_label(self, label: str) -> bool:
        return label in self.elements

    def label(self, index: int) -> str:
        return self.elements[index]

    def restrict(self, indices: Iterable[int]) -> "FiniteChain":
        """Subchain on the given element indices (must be operation-closed)."""
        idx = sorted(set(indices))
        pos = {old: new for new, old in enumerate(idx)}
        if 0 not in pos or self.top not in pos:
            raise FormatError("a subchain must contain the bottom and top elements")

        def shrink(table):
            rows = []
            for i in idx:
                row = []
                for j in idx:
                    v = table[i][j]
                    if v not in pos:
                        raise FormatError(
                            f"subset not closed: result index {v} outside the subset"
                        )
                    row.append(pos[v])
                rows.append(tuple(row))
            return tuple(rows)

        return FiniteChain(
            elements=tuple(self.elements[i] for i in idx),
            star=shrink(self.star),
            implies=shrink(self.implies),
            name=self.name,
        )


@dataclass(frozen=True)
class Violation:
    """One failed chain axiom with a witness tuple of element indices."""

    axiom: str
    witness: tuple[int, ...]
    detail: str = ""

    def __str__(self):
        return f"{self.axiom} at {self.witness}: {self.detail}"


@dataclass(frozen=True)
class ChainReport:
    ok: bool
    violations: tuple[Violation, ...]


def chain_from_dict(data: Mapping) -> FiniteChain:
    """Build a FiniteChain from the JSON algebra format.

    When "implies" is absent the residuum is derived from the star table.
    """
    if not isinstance(data, Mapping):
        raise FormatError("algebra data must be a JSON object")
    try:
        elements = data["elements"]
        star = data["star"]
    except KeyError as missing:
        raise FormatError(f"algebra data lacks required key {missing}")
    if "extra_ops" in data:
        # rejected, not ignored: ignoring it would silently change the subalgebras meant
        raise FormatError("extra_ops is not supported: a chain has only star and implies")
    if not isinstance(elements, (list, tuple)):
        raise FormatError(f"algebra elements must be a list of labels, got {elements!r}")
    elements = tuple(str(e) for e in elements)
    implies = data.get("implies")
    if implies is None:
        implies = derive_residuum(elements, star)
    return FiniteChain(elements, star, implies, name=str(data.get("name", "")))


def _star_violations(star: Table):
    """Identity, commutativity, associativity and monotonicity failures of
    a star table, in that order, each law's witnesses ascending."""
    k = len(star)
    top = k - 1
    for x in range(k):
        if star[x][top] != x:
            yield Violation("identity", (x,), f"star({x}, top) = {star[x][top]} != {x}")
    for x in range(k):
        for y in range(x + 1, k):
            if star[x][y] != star[y][x]:
                yield Violation("commutativity", (x, y),
                                f"star({x},{y}) = {star[x][y]} != star({y},{x}) = {star[y][x]}")
    for x in range(k):
        for y in range(k):
            for z in range(k):
                left, right = star[star[x][y]][z], star[x][star[y][z]]
                if left != right:
                    yield Violation("associativity", (x, y, z),
                                    f"star(star({x},{y}),{z}) = {left} != {right}")
    for x in range(k - 1):
        for z in range(k):
            if star[x][z] > star[x + 1][z]:
                yield Violation("monotonicity", (x, x + 1, z),
                                f"star({x},{z}) = {star[x][z]} > star({x + 1},{z}) = {star[x + 1][z]}")


def validate_chain(candidate) -> ChainReport:
    """Exhaustively check the chain axioms; report every violation.

    Accepts a FiniteChain or a mapping in the JSON algebra format.  Shape
    problems raise FormatError; algebraic failures are collected in the
    report, each naming the axiom and a witness, in the order identity,
    commutativity, associativity, monotonicity, residuation.
    """
    chain = candidate if isinstance(candidate, FiniteChain) else chain_from_dict(candidate)
    k = chain.size
    star, implies = chain.star, chain.implies
    violations = list(_star_violations(star))
    for x in range(k):
        for y in range(k):
            for z in range(k):
                if (star[x][z] <= y) != (z <= implies[x][y]):
                    violations.append(
                        Violation(
                            "residuation",
                            (x, y, z),
                            f"star({x},{z}) <= {y} is {star[x][z] <= y} but "
                            f"z <= implies({x},{y}) is {z <= implies[x][y]}",
                        )
                    )
    return ChainReport(ok=not violations, violations=tuple(violations))


def derive_residuum(elements: Sequence[str], star) -> Table:
    """Compute the residuum table implies(x, y) = max{z : star(x, z) <= y}.

    The star table must be commutative and monotone with the top element
    as identity; those preconditions guarantee the maximum exists for
    every pair.  The first violated one, in validate_chain's order, raises
    PreconditionError with its Violation's witness; associativity is left
    to validate_chain.
    """
    k = len(elements)
    table = _as_table(star, k, "star")
    broken = next((v for v in _star_violations(table) if v.axiom != "associativity"), None)
    if broken is not None:
        raise PreconditionError(f"star fails a precondition of the residuum: {broken}",
                                witness=broken.witness)
    return tuple(tuple(max(z for z in range(k) if table[x][z] <= y) for y in range(k)) for x in range(k))


def generated_subalgebra(chain: FiniteChain, seed: Iterable) -> tuple[int, ...]:
    """Least subset containing seed, bottom and top, closed under star and implies.

    Seed entries may be element indices or labels.  Returns ascending indices.
    """
    current: set[int] = {chain.bottom, chain.top}
    for item in seed:
        current.add(item if isinstance(item, int) else chain.index(item))
    for i in current:
        if not 0 <= i < chain.size:
            raise FormatError(f"seed index {i} out of range")

    changed = True
    while changed:
        changed = False
        frozen = sorted(current)
        for x in frozen:
            for y in frozen:
                for v in (chain.star[x][y], chain.implies[x][y]):
                    if v not in current:
                        current.add(v)
                        changed = True
    return tuple(sorted(current))


@dataclass(frozen=True)
class AlgebraMap:
    """A map between chains given by one target index per source element."""

    source: FiniteChain
    target: FiniteChain
    map: tuple[int, ...]

    def __post_init__(self):
        if len(self.map) != self.source.size:
            raise FormatError(
                f"map has {len(self.map)} entries for {self.source.size} source elements"
            )
        for i, v in enumerate(self.map):
            if not 0 <= v < self.target.size:
                raise FormatError(f"map[{i}] = {v} outside the target chain")
        object.__setattr__(self, "map", tuple(self.map))

    @property
    def injective(self) -> bool:
        return len(set(self.map)) == len(self.map)


def identity_map(chain: FiniteChain) -> AlgebraMap:
    return AlgebraMap(chain, chain, tuple(range(chain.size)))


@dataclass(frozen=True)
class HomReport:
    ok: bool
    counterexample: Violation | None = None


def is_algebra_homomorphism(m: AlgebraMap) -> HomReport:
    """Check that a map preserves bottom, top, star and implies.

    Preservation of implies together with the endpoints forces
    monotonicity, so meet and join are preserved automatically.
    Returns the first failure as a counterexample.
    """
    f = m.map
    src, tgt = m.source, m.target
    if f[src.bottom] != tgt.bottom:
        return HomReport(False, Violation("bottom", (src.bottom,), "bottom not preserved"))
    if f[src.top] != tgt.top:
        return HomReport(False, Violation("top", (src.top,), "top not preserved"))
    for x in range(src.size):
        for y in range(src.size):
            if f[src.star[x][y]] != tgt.star[f[x]][f[y]]:
                return HomReport(
                    False,
                    Violation(
                        "star",
                        (x, y),
                        f"f(star({x},{y})) = {f[src.star[x][y]]} != "
                        f"star(f{x},f{y}) = {tgt.star[f[x]][f[y]]}",
                    ),
                )
            if f[src.implies[x][y]] != tgt.implies[f[x]][f[y]]:
                return HomReport(
                    False,
                    Violation(
                        "implies",
                        (x, y),
                        f"f(implies({x},{y})) = {f[src.implies[x][y]]} != "
                        f"implies(f{x},f{y}) = {tgt.implies[f[x]][f[y]]}",
                    ),
                )
    return HomReport(True, None)


def subalgebra_inclusion(sub: FiniteChain, sup: FiniteChain) -> AlgebraMap | None:
    """The map sending each element of `sub` to the element of `sup` with
    the same label, when it preserves the order and is a homomorphism, so
    that `sub` is a subalgebra of `sup` up to labels; otherwise None."""
    if not all(map(sup.has_label, sub.elements)):
        return None
    m = AlgebraMap(sub, sup, tuple(map(sup.elements.index, sub.elements)))
    if list(m.map) != sorted(m.map) or not is_algebra_homomorphism(m).ok:
        return None
    return m


def godel_chain(labels: Sequence[str], name: str = "") -> FiniteChain:
    """Chain with star = meet and the order-based residuum."""
    k = len(labels)
    star = tuple(tuple(min(i, j) for j in range(k)) for i in range(k))
    implies = tuple(tuple(k - 1 if i <= j else j for j in range(k)) for i in range(k))
    return FiniteChain(tuple(labels), star, implies, name=name)


def lukasiewicz_chain(labels: Sequence[str], name: str = "") -> FiniteChain:
    """Chain with the truncated-addition star on equally spaced elements."""
    k = len(labels)
    star = tuple(tuple(max(0, i + j - (k - 1)) for j in range(k)) for i in range(k))
    implies = tuple(tuple(min(k - 1, k - 1 - i + j) for j in range(k)) for i in range(k))
    return FiniteChain(tuple(labels), star, implies, name=name)


def enumerate_mtl_chains(size: int) -> list[FiniteChain]:
    """All valid chains of the given size with labels e0..e(k-1), sorted.

    Enumerates symmetric star tables with the top as identity, keeps those
    derive_residuum accepts (the monotone ones) and validate_chain passes,
    each with its derived residuum.  Used by the randomized suites.
    """
    from itertools import product

    k = size
    labels = tuple(f"e{i}" for i in range(k))
    free = [(i, j) for i in range(1, k - 1) for j in range(i, k - 1)]
    found = []
    for values in product(range(k), repeat=len(free)):
        star = [[0] * k for _ in range(k)]  # row and column 0 stay 0: the bottom absorbs
        for x in range(k):
            star[x][k - 1] = x
            star[k - 1][x] = x
        for (i, j), v in zip(free, values):
            star[i][j] = v
            star[j][i] = v
        try:
            implies = derive_residuum(labels, star)
            chain = FiniteChain(labels, tuple(tuple(r) for r in star), implies)
        except (PreconditionError, FormatError):
            continue
        if validate_chain(chain).ok:
            found.append(chain)
    return found
