"""Preservation checks, bounded amalgamation, and the randomized suites.

`implies_exists_n`, the hypothesis of both amalgam searches, checks that
every generated existential sentence (with parameters) satisfied on the
left is satisfied on the right.  It and the n = 2 universal transport call
`first_transfer_failure`, which decides n = 1 unread for a substructure.
All relations here are bounded by formula-generation limits, which travel
with every report; running out of room is inconclusive, not a refutation.
"""

import random
from dataclasses import asdict, dataclass, field, replace
from functools import lru_cache
from itertools import compress, islice, product
from typing import Mapping, Sequence

from .algebra import enumerate_mtl_chains
from .budget import BudgetMeter
from .chains import check_tarski_vaught, validate_chain_of_structures
from .consequence import equiv_up_to_depth
from .corpus import structure_m, structure_n
from .errors import FormatError, PreconditionError, SignatureError
from .generation import AssignmentGrid, ValueClasses, extension_space, fragment, prenex_formula, structure_space
from .morphisms import (
    StructureMap,
    _check_one_chain,
    _generated_domain,
    enumerate_substructures,
    first_transfer_failure,
    inclusion_map,
    induced_substructure,
    is_elementary_up_to_depth,
    is_substructure,
    search_structure_map,
)
from .parser import parse_formula, render_formula
from .semantics import Structure, eval_formula, satisfies
from .syntax import (
    EXISTS,
    FORALL,
    App,
    Formula,
    PrenexClass,
    Signature,
    expand_with_truth_constants,
)


@dataclass(frozen=True)
class FormulaBounds:
    """Generation limits for the bounded relations."""

    matrix_depth: int = 1
    num_vars: int = 2
    max_candidates: int | None = None

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ExistsFlowReport:
    ok: bool
    n: int
    separator: Formula | None
    params: tuple
    candidates_checked: int
    bounds: FormulaBounds

    def __bool__(self):
        return self.ok


def _family(sig, chain, n_params: int, bounds: FormulaBounds):
    """Quantified variables, parameter variables and the matrices over both."""
    qvars = [f"x{i}" for i in range(1, bounds.num_vars + 1)]
    pvars = [f"p{i}" for i in range(1, n_params + 1)]
    terms = [App(c) for c in sig.constants()]
    return qvars, pvars, fragment(sig, chain.elements, qvars + pvars, bounds.matrix_depth, terms)


def implies_exists_n(left: Structure, right: Structure, params: Sequence[str], n: int,
                     bounds: FormulaBounds = FormulaBounds()) -> ExistsFlowReport:
    """Every generated existential sentence of up to n blocks satisfied
    by the left structure at the parameters must be satisfied by the
    right structure at the same parameters; first violation returned.
    """
    _check_one_chain(left, right)
    for d in params:
        if d not in left.domain or d not in right.domain:
            raise FormatError(f"parameter {d!r} must lie in both domains")
    qvars, pvars, family = _family(left.sig, left.chain, len(params), bounds)
    assignment = dict(zip(pvars, params))
    checked, separator, tup = first_transfer_failure(
        family.plan([(qvars, PrenexClass(EXISTS, n))], bounds.max_candidates),
        AssignmentGrid(left, qvars, fixed=assignment), AssignmentGrid(right, qvars, fixed=assignment),
        None, dict(zip(params, params)), BudgetMeter("existential transfer"))
    return ExistsFlowReport(separator is None, n, separator, tup or (), checked, bounds)


# --- preservation reports and checkers ---


@dataclass
class PreservationViolation:
    instance: int
    formula: Formula
    context: str
    values: tuple

    def as_dict(self) -> dict:
        return {
            "instance": self.instance,
            "formula": render_formula(self.formula),
            "context": self.context,
            "values": list(self.values),
        }


@dataclass
class PreservationReport:
    claim: str
    seed: int | None = None
    instances: int = 0
    checks: int = 0
    bounds: dict = field(default_factory=dict)
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def as_dict(self) -> dict:
        return {
            "claim": self.claim,
            "seed": self.seed,
            "instances": self.instances,
            "checks": self.checks,
            "bounds": self.bounds,
            "violations": [v.as_dict() for v in self.violations],
            "ok": self.ok,
        }


def universal_consequences_bounded(theory: Sequence[Formula], sig: Signature, chain, max_domain: int,
                                   bounds: FormulaBounds = FormulaBounds()) -> list[Formula]:
    """Generated universal sentences that hold in every bounded model of
    the theory.  Each block's models are found once, as a bitset, and each
    sentence is evaluated on every such block at once."""
    models = [(block, block.models(theory))
              for block in structure_space(sig, chain, max_domain)]
    return [phi for _, _, phi in _sentences(sig, chain, FORALL, 1, bounds)[2]
            if not any(bits & ~block.planes(phi)[-1] for block, bits in models if bits)]


_SENTENCE_CACHE: dict = {}


def _sentences(sig: Signature, chain, lead: str, blocks: int, bounds: FormulaBounds) -> tuple:
    """The quantified variables, the family and, built once per key and shared
    by every caller, so never mutated, the (matrix index, prefix, sentence) rows
    of its first `bounds.max_candidates` sentences leading with `lead` within
    `blocks` blocks.  A hit still fetches the family, which charges the budget."""
    qvars, _, family = _family(sig, chain, 0, bounds)
    key = (tuple(sorted(sig.predicates.items())), tuple(sorted(sig.functions.items())),
           sig.truth_constants, chain.elements, lead, blocks, bounds)
    out = _SENTENCE_CACHE.get(key)
    if out is None:
        (rows,) = family.plan([(qvars, PrenexClass(lead, blocks))]).rows
        out = _SENTENCE_CACHE[key] = list(islice((
            (k, prefix, prenex_formula(family.matrix(k), prefix))
            for k, (prefixes, params) in enumerate(map(rows.__getitem__, family.codes)) if not params
            for prefix in prefixes if prefix and prefix[0][0] == lead), bounds.max_candidates))
    return qvars, family, out


# --- amalgamation ---


@dataclass(frozen=True)
class AmalgamInstance:
    """Left and right structures over one chain with an optional common
    part whose domain is generated by the listed elements."""

    left: Structure
    right: Structure
    common: Structure | None = None
    generators: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))
        _check_one_chain(self.left, self.right)
        if self.common is None:
            if self.generators:
                raise FormatError("generators given without a common part")
            return
        for side in (self.left, self.right):
            rep = is_substructure(self.common, side)
            if not rep.ok:
                raise FormatError(f"common part is not a substructure: {rep.detail}")
        if not self.generators:
            raise FormatError("a common part needs generating elements")
        generated = _generated_domain(self.common, self.generators)
        if set(generated) != set(self.common.domain):
            raise FormatError(
                f"generators {self.generators} generate {generated}, "
                f"not the whole common domain"
            )

    @property
    def shared_labels(self) -> tuple:
        return tuple(self.common.domain) if self.common is not None else ()


@dataclass
class AmalgamResult:
    status: str  # "found" | "none-within-bounds"
    amalgam: Structure | None = None
    left_map: StructureMap | None = None
    right_map: StructureMap | None = None
    candidates_tried: int = 0
    elementary_depth: int | None = None
    n: int = 1
    precondition: ExistsFlowReport | None = None

    @property
    def found(self) -> bool:
        return self.status == "found"


def universal_transport_ok(g: Mapping[str, str], source: Structure, target: Structure,
                           bounds: FormulaBounds) -> bool:
    """Generated one-block universal formulas with value top at a source
    tuple keep value top at the mapped tuple."""
    _check_one_chain(source, target)
    qvars, pvars, family = _family(source.sig, source.chain, bounds.num_vars, bounds)
    # Forall(1) admits no other lead, so keeping non-empty prefixes drops quantifier-free ones
    _, separator, _ = first_transfer_failure(
        family.plan([(qvars, PrenexClass(FORALL, 1))], keep=bool),
        AssignmentGrid(source, qvars + pvars), AssignmentGrid(target, qvars + pvars), None, g)
    return separator is None


def search_amalgam(instance: AmalgamInstance, n: int, max_size: int, depth: int = 2,
                   bounds: FormulaBounds = FormulaBounds()) -> AmalgamResult:
    """Bounded certificate search for the amalgamation statements.

    Verifies the existential-transfer precondition first (a failure is a
    precondition error carrying the separating sentence).  Candidates are
    the extension blocks of the right structure (`extension_space`), read
    in stream order: smallest first, tables on new tuples lexicographic.
    The left structure must embed strongly (for n = 2 additionally
    preserving generated one-block universal formulas), agreeing with
    the identity on the common part, and the right inclusion must verify
    as elementary to `depth`.  Exhausting the size bound is reported as
    inconclusive, never as a refutation.
    """
    if n not in (1, 2):
        raise FormatError("n must be 1 or 2")
    left, right = instance.left, instance.right
    if not left.sig.is_relational_with_constants():
        raise SignatureError("amalgam search needs relational-plus-constants signatures")
    pre = implies_exists_n(left, right, instance.shared_labels, n, bounds)
    if not pre.ok:
        raise PreconditionError(f"existential transfer fails: {render_formula(pre.separator)} "
                                "holds on the left only", witness=pre)
    agreement = {d: d for d in instance.shared_labels}
    meter = BudgetMeter("amalgam candidates")
    tried = 0
    for block in extension_space(right, max_size):
        for candidate in block:
            meter.tick()
            tried += 1
            transport = None if n == 1 else lambda alg, g: universal_transport_ok(g, left, candidate, bounds)
            left_map = search_structure_map(left, candidate, injective=True, agreement=agreement,
                                            extra_filter=transport)
            if left_map is None:
                continue
            right_incl = inclusion_map(right, candidate)
            sub = is_substructure(right, candidate)
            elem = is_elementary_up_to_depth(right_incl, right, candidate, depth,
                                             matrix_depth=bounds.matrix_depth)
            if sub.ok and elem.ok:
                return AmalgamResult("found", replace(candidate, name="amalgam-candidate"), left_map,
                                     right_incl, tried, depth, n, pre)
    return AmalgamResult("none-within-bounds", candidates_tried=tried, n=n, precondition=pre)


# --- the bundled counterexample ---


@dataclass
class CounterexampleReport:
    value_in_m: str
    value_in_n: str
    base_equivalent_to_depth: int
    base_equivalence_holds: bool
    expanded_sentence: str
    expanded_value_in_m: str
    expanded_value_in_n: str
    expanded_separator: str | None
    substructures_of_m: int
    substructures_satisfying: int
    swap_flips_direction: bool

    @property
    def ok(self) -> bool:
        return (
            self.value_in_m == "3/4"
            and self.value_in_n == "1/2"
            and self.base_equivalence_holds
            and self.expanded_value_in_m == "1"
            and self.expanded_value_in_n == "1/2"
            and self.substructures_of_m == self.substructures_satisfying
            and self.swap_flips_direction
        )

    def as_dict(self) -> dict:
        out = dict(self.__dict__)
        out["ok"] = self.ok
        return out


def reproduce_counterexample(depth: int = 2) -> CounterexampleReport:
    """Re-run the bundled separation between base-language and
    truth-constant axiomatizability on the constant-predicate pair.

    The two structures satisfy the same generated base-language
    sentences to the given depth, yet the truth-constant sentence
    val(3/4) -> (forall x) P(x) holds in one expansion and takes value
    1/2 in the other, and it is preserved under all substructures of the
    satisfying side.
    """
    m = structure_m()
    n = structure_n()
    chain = m.chain
    base_sig = m.sig
    forall_p = parse_formula("forall x . P(x)", base_sig)
    value_m = chain.label(eval_formula(forall_p, m))
    value_n = chain.label(eval_formula(forall_p, n))
    equiv = equiv_up_to_depth(m, n, depth, sig=base_sig)
    expanded_sig = expand_with_truth_constants(base_sig, chain)
    sentence = parse_formula("val(3/4) -> forall x . P(x)", expanded_sig)
    m_exp = replace(m, sig=expanded_sig)
    n_exp = replace(n, sig=expanded_sig)
    exp_m = chain.label(eval_formula(sentence, m_exp))
    exp_n = chain.label(eval_formula(sentence, n_exp))
    expanded_equiv = equiv_up_to_depth(m_exp, n_exp, depth, sig=expanded_sig)
    subs = list(enumerate_substructures(m_exp))
    satisfying = sum(1 for s in subs if satisfies(sentence, s))
    swapped = parse_formula("val(1/2) -> forall x . P(x)", expanded_sig)
    swap_flips = satisfies(swapped, n_exp) and (
        eval_formula(swapped, m_exp) == chain.top
    ) and not satisfies(sentence, n_exp)
    # swapping the roles: the mirrored sentence holds in N's expansion and
    # in M's (3/4 >= 1/2 on this chain), while the original separates.
    return CounterexampleReport(
        value_in_m=value_m,
        value_in_n=value_n,
        base_equivalent_to_depth=depth,
        base_equivalence_holds=equiv.equal,
        expanded_sentence="val(3/4) -> forall x . P(x)",
        expanded_value_in_m=exp_m,
        expanded_value_in_n=exp_n,
        expanded_separator=(
            render_formula(expanded_equiv.separator) if expanded_equiv.separator else None
        ),
        substructures_of_m=len(subs),
        substructures_satisfying=satisfying,
        swap_flips_direction=swap_flips,
    )


# --- randomized suites ---

_SUITE_SIG = Signature(predicates={"P": 1, "R": 2})
_SUITE_BOUNDS = FormulaBounds(max_candidates=60)
_SUITE_MAX_DOMAIN = 4  # random structures have 1..4 elements
_SUITE_CHAIN = 4  # over every MTL chain of 2..4 elements
_UNION_LENGTH = 3  # members of a random chain of structures


@lru_cache(maxsize=None)
def _chain_pool() -> list:
    return [chain for k in range(2, _SUITE_CHAIN + 1) for chain in enumerate_mtl_chains(k)]


def _random_structure(rnd: random.Random, chain) -> Structure:
    size = rnd.randint(1, _SUITE_MAX_DOMAIN)
    domain = tuple(f"d{i}" for i in range(size))
    predicates = {}
    for name, arity in _SUITE_SIG.predicates.items():
        predicates[name] = {
            args: rnd.randrange(chain.size) for args in product(domain, repeat=arity)
        }
    return Structure(chain=chain, sig=_SUITE_SIG, domain=domain, predicates=predicates)


def _check_instance(report, chain, lead: str, blocks: int, sources, targets) -> None:
    """Count one instance: each suite sentence top on every source must stay top on each (structure,
    context) target, decided by `lost` over one value-class table of all their (x1, x2) grids."""
    qvars, family, rows = _sentences(expand_with_truth_constants(_SUITE_SIG, chain), chain, lead, blocks, _SUITE_BOUNDS)
    grids = [AssignmentGrid(s, qvars) for s in [*sources, *(t for t, _ in targets)]]
    table = ValueClasses(family, grids)
    table.extend(max((k for k, _, _ in rows), default=-1) + 1)
    n, ids = len(sources), b"".join([bytes([i]) * g.size for i, g in enumerate(grids)])  # each cell's grid
    deciding = bytes([lead == FORALL]) * chain.top + bytes([lead == EXISTS]) * (256 - chain.top)  # 1: a deciding value

    @lru_cache(maxsize=None)
    def lost(c: int, inner: tuple) -> set:  # the grids where c is not top (exact: no axis is left free)
        vec = b"".join([table.read(c, i, inner) for i in range(len(grids))]) if inner else table.vecs[c]
        decided = set(compress(ids, vec.translate(deciding)))  # with a non-top (forall) or top (exists) cell
        return decided if lead == FORALL else set(range(len(grids))) - decided
    satisfied = [(phi, bad) for k, prefix, phi in rows if (bad := lost(table.cls[k], prefix[1:])).isdisjoint(range(n))]
    report.checks += len(satisfied) * len(targets)
    report.violations += [PreservationViolation(report.instances, phi, context, ())
                          for i, (_, context) in enumerate(targets, n) for phi, bad in satisfied if i in bad]
    report.instances += 1


def substructure_preservation_suite(seed: int, instances: int, lead: str = FORALL,
                                    claim: str | None = None) -> PreservationReport:
    """Randomized check that generated one-block sentences leading with
    `lead` are never lost when passing to a proper substructure, read by
    value class (`_check_instance`).  The report records the fixed bounds:
    the first 60 sentences, and structures of 1 to 4 elements over every
    MTL chain of 2 to 4 elements.  With lead=EXISTS the same harness is the
    negative control: existential sentences are expected to be lost."""
    rnd = random.Random(seed)
    report = PreservationReport(
        claim=claim or f"{lead.lower()}(1)-substructure-preservation",
        seed=seed,
        bounds={**_SUITE_BOUNDS.as_dict(), "max_domain": _SUITE_MAX_DOMAIN, "max_chain": _SUITE_CHAIN},
    )
    for _ in range(instances):
        chain = rnd.choice(_chain_pool())
        big = _random_structure(rnd, chain)
        _check_instance(report, chain, lead, 1, [big], [
            (small, f"substructure {small.domain} of random instance")
            for small in enumerate_substructures(big) if small.size < big.size])
    return report


def union_preservation_suite(seed: int, instances: int) -> PreservationReport:
    """Randomized check of two-block universal sentences along chains of 3
    structures, read by value class on the members and the union
    (`_check_instance`), plus the exact quantifier-free union clause; the
    other bounds are those of `substructure_preservation_suite`."""
    rnd = random.Random(seed)
    report = PreservationReport(
        claim="forall(2)-union-preservation",
        seed=seed,
        bounds={**_SUITE_BOUNDS.as_dict(), "length": _UNION_LENGTH, "max_domain": _SUITE_MAX_DOMAIN},
    )
    for index in range(instances):
        chain = rnd.choice(_chain_pool())
        members = [_random_structure(rnd, chain)]
        while len(members) < _UNION_LENGTH:
            previous = members[0]
            size = rnd.randint(1, previous.size)
            subset = sorted(rnd.sample(range(previous.size), size))
            members.insert(0, induced_substructure(previous, [previous.domain[i] for i in subset]))
        tv = check_tarski_vaught(validate_chain_of_structures(members))
        _check_instance(report, chain, FORALL, 2, members, [(tv.union, "union of random chain")])
        report.checks += tv.quantifier_free_checked
        for member_index, phi, tup, a, b in tv.qf_violations:
            report.violations.append(PreservationViolation(
                index, phi, f"quantifier-free union clause at member {member_index}",
                tup + (chain.label(a), chain.label(b))))
    return report
