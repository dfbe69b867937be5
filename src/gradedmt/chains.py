"""Chains of structures, their unions, and union-value checks.

A chain is a list of structures over one algebra, each a literal
substructure of the next (nested domains with identical labels), checked
when its `StructureChain` is built.  For a finite chain the union
coincides with the last member; it is still assembled member by member,
its domain in order of first appearance.
"""

from dataclasses import dataclass, field
from itertools import product
from typing import Sequence

from .errors import FormatError, GradedmtError, InternalError
from .generation import AssignmentGrid, ValueClasses, fragment
from .morphisms import inclusion_map, is_elementary_up_to_depth, is_substructure, search_structure_map
from .parser import render_formula
from .semantics import Structure, eval_formula
from .syntax import App


class ChainValidationError(GradedmtError):
    """The given list of structures is not a chain."""


@dataclass(frozen=True)
class StructureChain:
    """Structures over one algebra, each a literal substructure of the next: checked on construction."""

    members: tuple

    def __post_init__(self):
        object.__setattr__(self, "members", members := tuple(self.members))
        if not members:
            raise FormatError("a chain needs at least one structure")
        for i, (small, big) in enumerate(zip(members, members[1:])):  # transitivity covers the other pairs
            if big.chain != members[0].chain:
                raise ChainValidationError(f"member {i + 1} is not over the algebra of member 0")
            rep = is_substructure(small, big)
            if not rep.ok:
                raise ChainValidationError(
                    f"member {i} is not a substructure of member {i + 1}: clause {rep.clause}, {rep.detail}")

    def __len__(self):
        return len(self.members)


def validate_chain_of_structures(
    members: Sequence[Structure], elementary_depth: int | None = None
) -> StructureChain:
    """The chain of the members (`StructureChain` checks them); optionally
    certify each inclusion elementary to a depth."""
    chain = StructureChain(members)
    if elementary_depth is not None:
        for i, (small, big) in enumerate(zip(members, members[1:])):
            rep = is_elementary_up_to_depth(inclusion_map(small, big), small, big, elementary_depth)
            if not rep.ok:
                raise ChainValidationError(
                    f"inclusion of member {i} is not elementary to depth {elementary_depth}; "
                    f"separated by {render_formula(rep.separator)} at parameters {rep.params}"
                )
    return chain


def union_of_chain(chain: StructureChain) -> Structure:
    """Union domain with each table entry inherited from the members that
    contain the arguments, which agree on it: `StructureChain` checked them."""
    members = chain.members
    first = members[0]
    domain: list[str] = []
    for member in members:
        for d in member.domain:
            if d not in domain:
                domain.append(d)
    predicates: dict = {name: {} for name in first.sig.predicates}
    functions: dict = {name: {} for name in first.sig.functions}
    for member in members:
        for merged, tables in ((predicates, member.predicates), (functions, member.functions)):
            for name, table in tables.items():
                merged[name].update(table)
    return Structure(
        chain=first.chain,
        sig=first.sig,
        domain=tuple(domain),
        predicates=predicates,
        functions=functions,
        name="union",
    )


@dataclass
class TarskiVaughtReport:
    quantifier_free_ok: bool
    quantifier_free_checked: int
    qf_violations: list = field(default_factory=list)
    elementary_precheck_ok: bool | None = None
    depth_ok: bool | None = None
    depth_violations: list = field(default_factory=list)
    union: Structure | None = None

    @property
    def ok(self) -> bool:
        if not self.quantifier_free_ok:
            return False
        return self.depth_ok is not False


def check_tarski_vaught(chain: StructureChain, depth: int | None = None,
                        matrix_depth: int = 1) -> TarskiVaughtReport:
    """Union-value preservation for chain members.

    Part (a), always checked and exact: every generated quantifier-free
    formula over x1, x2 takes the same value at member tuples in the
    member and in the union.  Connectives act tuple by tuple, so only a
    differing leaf (atom, identity, truth constant) can make a formula
    differ: the leaves decide part (a), and the rest of the family only
    lists violations.  Part (b), only when the pairwise inclusions verify
    as elementary to `depth`: the same transport for all generated
    formulas of that depth.
    """
    union = union_of_chain(chain)
    variables = ("x1", "x2")
    report = TarskiVaughtReport(True, 0, union=union)
    first = chain.members[0]
    constant_terms = [App(c) for c in first.sig.constants()]
    family = fragment(first.sig, first.chain.elements, variables, matrix_depth, constant_terms)
    # one vector per value class: every member's cells, in `product` order, then the union's
    grids = [AssignmentGrid(s, variables) for s in (*chain.members, union)]
    tuples = [tup for member in chain.members for tup in product(member.domain, repeat=len(variables))]
    n = len(tuples)
    cells = [n + grids[-1].cell(dict(zip(variables, tup))) for tup in tuples]  # each tuple's union cell
    report.quantifier_free_checked = n * len(family.codes)
    table = ValueClasses(family, grids)
    for limit in (len(family.leaves), None):  # the whole family only when some leaf differs
        table.extend(limit)
        bad = {c for c, vec in enumerate(table.vecs) if bytes([vec[j] for j in cells]) != vec[:n]}
        if not bad:
            break
    cls, vecs = table.cls, table.vecs
    differing = [k for k, c in enumerate(cls) if c in bad]
    end = 0
    for index, member in enumerate(chain.members):
        start, end = end, end + grids[index].size
        for k in differing:
            phi, row = family.matrix(k), vecs[cls[k]]
            for p in range(start, end):
                a, b = row[p], row[cells[p]]
                if a != b:
                    asg = dict(zip(variables, tuples[p]))
                    if eval_formula(phi, member, asg) != a or eval_formula(phi, union, asg) != b:
                        raise InternalError("grid and evaluator disagree")
                    report.qf_violations.append((index, phi, tuples[p], a, b))
    report.quantifier_free_ok = not report.qf_violations
    if depth is None:
        return report

    def elementary(small: Structure, big: Structure):
        return is_elementary_up_to_depth(inclusion_map(small, big), small, big, depth,
                                         matrix_depth=matrix_depth)

    members = chain.members
    report.elementary_precheck_ok = all(elementary(a, b).ok for a, b in zip(members, members[1:]))
    if not report.elementary_precheck_ok:
        return report
    for index, member in enumerate(members):
        rep = elementary(member, union)
        if not rep.ok:
            report.depth_violations.append((index, rep.separator, rep.params))
    report.depth_ok = not report.depth_violations
    return report


def normalize_chain(members: Sequence[Structure]) -> list[Structure]:
    """Relabel domains so that consecutive embeddings become literal
    inclusions; fails when some consecutive pair has no strong embedding."""
    if not members:
        raise FormatError("a chain needs at least one structure")
    out = [members[0]]
    for i in range(1, len(members)):
        previous = out[-1]
        current = members[i]
        found = search_structure_map(previous, current, injective=True)
        if found is None:
            raise ChainValidationError(
                f"no strong embedding of member {i - 1} into member {i}"
            )
        # rename the embedded images back to the labels of the previous member
        reverse = {found.domain_map[d]: d for d in previous.domain}
        fresh: dict[str, str] = {}
        used = set(reverse.values())
        for d in current.domain:
            if d in reverse:
                fresh[d] = reverse[d]
            elif d in used:
                stem = f"{d}'"
                while stem in used or stem in current.domain:
                    stem += "'"
                fresh[d] = stem
                used.add(stem)
            else:
                fresh[d] = d
                used.add(d)
        out.append(current.rename_domain(fresh))
    return out
