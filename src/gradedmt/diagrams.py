"""Named-constant expansions and diagrams of finite structures.

The diagram of a structure records, for each generated sentence over
fresh constants naming the domain and over the signature's constants,
the exact value the sentence takes in the named expansion.  A target
models the diagram when some interpretation of the fresh constants
reproduces every recorded value; for quantifier-free diagrams over
relational signatures with constants this is equivalent to the existence
of a strong embedding, and that equivalence is checked mechanically here.

The two sides run on separate code.  The embedding side is the candidate
loop of `search_structure_map` for one pair; `cor1_sweep` instead lists
the induced substructures of every target once, as a subgraph census does
(Milo et al., "Network motifs", Science 2002).  The diagram side
reads the recorded sentences on every pair: by value-class tables, one
target at a time through `models_diagram` in `diagram_model_exists`, or on
the planes of every target of a structure-space block at once in `cor1_sweep`.
"""

from array import array
from dataclasses import dataclass, field, replace
from itertools import permutations, product
from typing import Iterator, Sequence

from .algebra import FiniteChain
from .budget import check_budget
from .errors import FormatError
from .generation import (AssignmentGrid, StructureBlock, StructureStream, ValueClasses, fragment, ground_terms,
                         sentence_family, structure_space, truth_constant_labels)
from .morphisms import (StructureMap, _check_interprets, _check_one_chain, is_elementary_up_to_depth,
                        search_structure_map)
from .semantics import Structure
from .syntax import App, Formula, Not, Signature, constant_name_for, expand_with_domain_constants

DIAG = "diag"
ELDIAG = "eldiag"


def expansion_sharp(s: Structure) -> Structure:
    """Expand a structure with one constant per domain element, each
    naming itself."""
    functions = {**s.functions, **{constant_name_for(label): {(): label} for label in s.domain}}
    return replace(s, sig=expand_with_domain_constants(s.sig, s.domain), functions=functions)


@dataclass(frozen=True)
class DiagramBounds:
    term_depth: int = 0
    connective_depth: int = 0
    quantifier_depth: int = 1
    num_vars: int = 2


@dataclass(frozen=True)
class DiagramEntry:
    sentence: Formula
    value: int


@dataclass(frozen=True, eq=False)  # a part holds its family by identity: compare `values` or `entries`
class Diagram:
    kind: str
    constants: tuple  # constant names, domain order
    parts: tuple  # (family, grid variables, closed positions): the quantifier-free part, then any quantified one
    values: bytes  # the recorded value of each part's positions in turn
    completeness: str
    chain: FiniteChain  # the source's: a target is read only over an equal chain, tables and labels

    @property
    def entries(self) -> tuple:
        """(sentence, value) per position; the formulas of a part share their operands."""
        values = iter(self.values)
        return tuple(DiagramEntry(family.matrix(k, memo), v)
                     for family, _, positions in self.parts for memo in [{}] for k, v in zip(positions, values))


def _read(structure: Structure, parts) -> Iterator[tuple]:
    """(family, position, value in `structure`) per closed position, each part read by one value-class table."""
    for family, variables, positions in parts:
        table = ValueClasses(family, [AssignmentGrid(structure, variables)])
        yield from ((family, k, table.vecs[c][0]) for k, c in zip(positions, table.classes(positions)))


def build_diagram(s: Structure, kind: str = DIAG, bounds: DiagramBounds = DiagramBounds()) -> Diagram:
    """Record by `_read` the values in `sharp` of the `fragment` family to the
    connective depth (at 0, its atoms) over the fresh and the signature's
    constants, function symbols nested to the term depth.  ELDIAG adds the
    closed rows of `sentence_family` to the quantifier depth but those the
    first part holds: no block, and a level of at most the connective depth."""
    if kind not in (DIAG, ELDIAG):
        raise FormatError(f"unknown diagram kind {kind!r}")
    sharp = expansion_sharp(s)
    constants = tuple(constant_name_for(d) for d in s.domain)
    terms = ground_terms(sharp.sig, constants + tuple(s.sig.constants()), bounds.term_depth)
    depth, vals = bounds.connective_depth, len(truth_constant_labels(s.sig, s.chain.elements))
    family = fragment(s.sig, s.chain.elements, [], depth, terms)  # at depth 0, its leaves before the truth constants
    parts = [(family, (), range(len(family.codes) if depth else len(family.leaves) - vals))]
    completeness = f"quantifier-free to depth {depth}" if depth else "atomic"
    if kind == ELDIAG:
        family = sentence_family(sharp.sig, s.chain.elements, bounds.quantifier_depth, bounds.num_vars, terms)
        first, level = len(family.codes) if depth else len(family.leaves) - vals, array("B")
        for op, i, j in family.rows():  # a block row, or one built from it, counts as over the connective depth
            level.append(0 if op is None or op is Not else depth + 1 if type(op) is tuple
                         else min(level[i] + level[j] + 1, depth + 1))
        parts.append((family, tuple(f"x{i}" for i in range(1, bounds.num_vars + 1)),
                      array("i", (k for k in family.closed() if not (k < first and level[k] <= depth)))))
        completeness += f"; quantified to depth {bounds.quantifier_depth}"
    values = bytes(v for _, _, v in _read(sharp, parts))
    return Diagram(kind, constants, tuple(parts), values, completeness, s.chain)


@dataclass(frozen=True)
class DiagramCheck:
    ok: bool
    failing: DiagramEntry | None = None
    actual: int | None = None

    def __bool__(self):
        return self.ok


def models_diagram(t_expanded: Structure, diagram: Diagram) -> DiagramCheck:
    """Read the recorded positions in an expansion of the target, which must
    be over the diagram's chain (else ChainMismatchError) and
    interpret every diagram constant (else SignatureError); the first value
    that differs makes the failing entry, the one formula built."""
    _check_one_chain(t_expanded, diagram)
    _check_interprets(Signature(functions=dict.fromkeys(diagram.constants, 0)), t_expanded)
    for (family, k, got), want in zip(_read(t_expanded, diagram.parts), diagram.values):
        if got != want:
            return DiagramCheck(False, DiagramEntry(family.matrix(k), want), got)
    return DiagramCheck(True)


def interpret_constants(t: Structure, diagram: Diagram, images: Sequence[str]) -> Structure:
    """Expand the target, sending the i-th diagram constant to images[i]."""
    if len(images) != len(diagram.constants):
        raise FormatError("one image per diagram constant required")
    out = t
    for name, image in zip(diagram.constants, images):
        out = out.with_constant(name, image)
    return out


def render_diagram(diagram: Diagram) -> str:
    """Theory-file form: one `sentence <-> val(label)` line per entry."""
    from .parser import render_formula

    lines = [f"({render_formula(e.sentence)}) <-> val({diagram.chain.elements[e.value]})" for e in diagram.entries]
    return "\n".join([f"# {diagram.kind} diagram, {diagram.completeness}", *lines]) + "\n"


def diagram_model_exists(target: Structure, diagram: Diagram) -> tuple:
    """Search all constant interpretations for one modelling the diagram.

    Returns (found, images): the first image tuple, in `product` order,
    whose expansion of the target passes `models_diagram`.
    """
    n = len(diagram.constants)
    check_budget(len(target.domain) ** n, "diagram interpretation sweep")
    for images in product(target.domain, repeat=n):
        if models_diagram(interpret_constants(target, diagram, images), diagram).ok:
            return True, images
    return False, None


def _diagram_side(block: StructureBlock, diagram: Diagram) -> int:
    """The structures of the block that some interpretation of the diagram's
    constants makes reproduce every recorded value, as a bitset."""
    found, entries = 0, diagram.entries
    for images in product(block.domain, repeat=len(diagram.constants)):
        env = {**block.env, **{App(c): d for c, d in zip(diagram.constants, images)}}
        ok = block.all
        for entry in entries:
            planes = block.planes(entry.sentence, env) + [0]
            ok &= planes[entry.value] & ~planes[entry.value + 1]
            if not ok:
                break
        found |= ok
    return found


@dataclass(frozen=True)
class Cor1Report:
    diagram_side: bool
    embedding_side: bool
    agree: bool
    images: tuple | None = None
    embedding: object = None


def diagram_embedding_equivalence(
    source: Structure,
    target: Structure,
    kind: str = DIAG,
    bounds: DiagramBounds = DiagramBounds(),
) -> Cor1Report:
    """Compare the two routes of the diagram characterization.

    The diagram side sweeps constant interpretations of the target; the
    embedding side searches for a strong embedding with the identity
    algebra map, additionally certified elementary to the quantifier
    depth for elementary diagrams.  The two booleans must agree on
    every finite instance.
    """
    _check_one_chain(source, target)
    found, images = diagram_model_exists(target, build_diagram(source, kind, bounds))
    extra_filter = None
    if kind != DIAG:
        depth = bounds.quantifier_depth

        def extra_filter(alg, g):
            return is_elementary_up_to_depth(StructureMap(alg, g), source, target, depth).ok

    emb = search_structure_map(source, target, injective=True, extra_filter=extra_filter)
    emb_ok = emb is not None
    return Cor1Report(diagram_side=found, embedding_side=emb_ok, agree=found == emb_ok,
                      images=images, embedding=emb)


@dataclass
class SweepReport:
    instances: int = 0
    agreements: int = 0
    disagreements: list = field(default_factory=list)
    both_true: int = 0
    both_false: int = 0

    @property
    def ok(self) -> bool:
        return not self.disagreements


def _slot_positions(block: StructureBlock, t: tuple, where: dict) -> list[int]:
    """For each slot (p, args) of the source block, in order, the position
    `where` gives the target slot (p, t[args])."""
    g = dict(zip(block.domain, t))
    return [where[p, tuple(g[a] for a in args)] for p, args in block.slots]


def _embedding_side(sources: StructureStream, targets: StructureStream, max_source_size: int) -> list[int]:
    """Entry j: the targets that source j embeds into strongly (identity
    algebra map), as a bitset over the target stream.  Such a g exists exactly
    when the tuple (g(d0), ..., g(d(m-1))) pulls the target's tables and
    constants back to the source's.  So every target is read along each
    injective tuple of its domain that holds every constant value: the
    pulled-back constants name the source block, and the target's digits at
    `_slot_positions` are the digits of the source's index."""
    k = targets[0].chain.size
    by_constants = {(len(b.domain), tuple(b.domain.index(f[()]) for f in b.functions.values())): b
                    for b in sources}
    found = [bytearray(targets.size // 8 + 1) for _ in range(sources.size)]
    for target in targets:
        where = {slot: s for s, slot in enumerate(target.slots)}
        values = [f[()] for f in target.functions.values()]
        for m in range(1, max_source_size + 1):
            for t in permutations(target.domain, m):
                if not all(v in t for v in values):
                    continue
                source = by_constants[m, tuple(t.index(v) for v in values)]
                weight = [0] * len(target.slots)
                for j, s in enumerate(_slot_positions(source, t, where)):
                    weight[s] += k ** (len(source.slots) - 1 - j)
                index = [source.offset]
                for w in weight:
                    index = [x + d * w for x in index for d in range(k)]
                for i, x in enumerate(index, target.offset):
                    found[x][i >> 3] |= 1 << (i & 7)
    return [int.from_bytes(bits, "little") for bits in found]


def cor1_sweep(chain, sig, max_source_size: int, max_target_size: int,
               bounds: DiagramBounds = DiagramBounds()) -> SweepReport:
    """Exhaustive check of the diagram characterization on small instances.

    Every source structure up to max_source_size is paired with every
    target up to max_target_size over the same chain and signature; the
    report counts agreements between the diagram and embedding sides.
    The diagram side runs on every pair: each source's diagram is evaluated
    on the structure planes of every target block at once, one
    interpretation of its constants at a time.  The embedding side reads
    each target's tables pulled back along its injective tuples
    (`_embedding_side`), with no map search and no target built.  The two
    sides share no code.
    """
    report = SweepReport()
    sources = structure_space(sig, chain, max_source_size)
    targets = structure_space(sig, chain, max_target_size, "t")
    check_budget(sources.size * targets.size, "diagram sweep")
    embeds = _embedding_side(sources, targets, max_source_size)
    for source, e in zip((s for block in sources for s in block), embeds):
        diagram = build_diagram(source, DIAG, bounds)
        d = targets.bits(lambda b: _diagram_side(b, diagram))
        report.instances += targets.size
        report.both_true += (d & e).bit_count()
        differ = d ^ e
        while differ:
            j = (differ & -differ).bit_length() - 1
            differ ^= 1 << j
            report.disagreements.append((source, targets.at(j), bool(d >> j & 1), bool(e >> j & 1)))
    report.agreements = report.instances - len(report.disagreements)
    report.both_false = report.agreements - report.both_true
    return report
