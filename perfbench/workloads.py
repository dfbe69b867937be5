"""The benchmark's three workloads: seeded inputs, calls and known answers.

A workload is a list of checks built from the seed.  A check makes one call
into gradedmt's public API and returns its verdict.  `verify` compares the
verdict with the answer known by construction (re-evaluating separators,
certificates and countermodels with the library's plain evaluator), and
`fingerprint` renders it canonically for the per-check digests recorded in
digests.json.

The checks come in rounds, and a run issues the same list of checks
PASSES[workload] times.  A run of --seconds S builds
max(1, round(S / (PASSES * ROUND_SECONDS))) rounds, so the work depends
only on the workload, the seed and S, never on how fast the code is.
Inside a round the number of checks of each kind is fixed and each kind
has a seed-independent cost, so the median and the tail of the per-check
times fall inside the same kind of check for every seed.  The checks of a
round are issued in a seeded shuffled order, so that each kind is sampled
across the whole run rather than in one stretch of it: the speed of a
shared machine drifts within a run.
"""

import hashlib
import importlib
import json
import random
import sys
from dataclasses import dataclass, replace
from itertools import product
from typing import Callable

WORKLOADS = ("fragment", "sweep", "suites")

# Nominal seconds per round, used only to size a run from --seconds.  On a
# shared 2-vCPU x86-64 machine under Python 3.11 a round took 32-43 s,
# 4-8 s and 3-4 s.
ROUND_SECONDS = {"fragment": 35.0, "sweep": 5.5, "suites": 2.5}
# A fragment round is longer than a run, so it is issued once.  The suites
# draw random structures, so more rounds there average out the seed.
PASSES = {"fragment": 1, "sweep": 4, "suites": 2}

# With the elementarity depth and the structure sizes below, these counts
# set the cost of a round.
SUITE_INSTANCES = 50
UNION_INSTANCES = 10
COLLAPSE_SEPARATOR = "exists x1 . P(x1) <-> val(3/4)"


@dataclass(frozen=True)
class Check:
    id: str
    call: Callable[[], object]
    verify: Callable[[object], str | None]  # None when the verdict is right
    fingerprint: Callable[[object], str]


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / (PASSES[workload] * ROUND_SECONDS[workload])))


def load_library():
    """Import gradedmt afresh, dropping any earlier import, and return it."""
    for name in [n for n in sys.modules if n == "gradedmt" or n.startswith("gradedmt.")]:
        del sys.modules[name]
    g = importlib.import_module("gradedmt")
    importlib.import_module("gradedmt.corpus")
    importlib.import_module("gradedmt.randomgen")
    return g


def build(g, workload: str, seed: int, rounds: int) -> list[Check]:
    """All checks of a run, in the order they are issued."""
    builder = {"fragment": _fragment_round, "sweep": _sweep_round, "suites": _suites_round}[workload]
    corpus = _Corpus(g)
    checks = []
    for r in range(rounds):
        rnd = random.Random(f"{workload}:{seed}:{r}")
        checks += [replace(c, id=f"r{r}.{c.id}") for c in builder(g, corpus, rnd, r)]
    return checks


def digest(check: Check, fingerprint: str) -> str:
    return hashlib.sha256(f"{check.id}\n{fingerprint}".encode()).hexdigest()[:8]


def round_of(check: Check) -> str:
    return check.id.split(".", 1)[0]


class _Corpus:
    def __init__(self, g):
        c = g.corpus
        self.chains3 = [c.godel3(), c.lukasiewicz3()]
        self.path3 = c.path3()
        self.edgeless3 = c.edgeless3()
        self.m, self.n = c.structure_m(), c.structure_n()
        self.weighted = c.weighted_graph_theory()
        self.degree_two = c.degree_two_theory()


# --- rendering verdicts ---


def _structure_text(s) -> str:
    parts = [",".join(s.domain)]
    for name in sorted(s.predicates):
        table = s.predicates[name]
        parts.append(name + ":" + ",".join(str(table[a]) for a in sorted(table)))
    for name in sorted(s.functions):
        table = s.functions[name]
        parts.append(name + ":" + ",".join(table[a] for a in sorted(table)))
    return "|".join(parts)


def _formula_text(g, phi) -> str:
    return "-" if phi is None else g.render_formula(phi)


def _map_text(m) -> str:
    if m is None:
        return "-"
    pairs = ",".join(f"{k}>{v}" for k, v in sorted(m.domain_map.items()))
    return f"{m.kind}:{m.algebra_map.map}:{pairs}"


# --- seeded inputs ---


def _random_structure(g, rnd, chain, sig, size, below_top=False, top_at=None):
    domain = tuple(f"d{i}" for i in range(size))
    high = chain.top if below_top else chain.size
    predicates = {
        name: {args: rnd.randrange(high) for args in product(domain, repeat=arity)}
        for name, arity in sorted(sig.predicates.items())
    }
    if top_at is not None:
        name, args = top_at
        predicates[name][args] = chain.top
    return g.Structure(chain=chain, sig=sig, domain=domain, predicates=predicates)


def _random_subset(rnd, s, size):
    return sorted(rnd.sample(s.domain, size), key=s.domain.index)


def _relabelled(g, rnd, s):
    fresh = [f"c{i}" for i in range(s.size)]
    rnd.shuffle(fresh)
    return s.rename_domain(dict(zip(s.domain, fresh)))


# --- fragment: formula families and grid folds ---


def _implies_check(g, name, left, right, n, expect_ok):
    def verify(rep):
        if rep.ok != expect_ok:
            return f"expected ok={expect_ok}, got ok={rep.ok}"
        if rep.ok:
            return None if rep.separator is None else "separator on a holding pair"
        names = sorted(g.free_variables(rep.separator))
        asg = dict(zip(names, rep.params))
        top = left.chain.top
        if g.eval_formula(rep.separator, left, asg) != top:
            return "separator is not top on the left"
        if g.eval_formula(rep.separator, right, asg) == top:
            return "separator is top on the right"
        return None

    def fingerprint(rep):
        return (f"ok={rep.ok};n={rep.n};sep={_formula_text(g, rep.separator)};"
                f"params={rep.params};checked={rep.candidates_checked}")

    return Check(name, lambda: g.implies_exists_n(left, right, (), n), verify, fingerprint)


def _elementary_check(g, name, sub, sup, expect_ok):
    incl = g.inclusion_map(sub, sup)

    def verify(rep):
        if expect_ok is not None and rep.ok != expect_ok:
            return f"expected ok={expect_ok}, got ok={rep.ok}"
        if rep.ok:
            return None if rep.formulas_checked > 0 else "no formulas checked"
        if rep.separator is None:
            return f"inclusion refuted without a separator: {rep.reason}"
        names = sorted(g.free_variables(rep.separator))
        asg_s = dict(zip(names, rep.params))
        asg_t = {p: incl.domain_map[d] for p, d in asg_s.items()}
        f = incl.algebra_map.map
        if f[g.eval_formula(rep.separator, sub, asg_s)] == g.eval_formula(rep.separator, sup, asg_t):
            return "separator takes equal values on both sides"
        return None

    def fingerprint(rep):
        return (f"ok={rep.ok};depth={rep.depth};sep={_formula_text(g, rep.separator)};"
                f"params={rep.params};checked={rep.formulas_checked};reason={rep.reason}")

    return Check(name, lambda: g.is_elementary_up_to_depth(incl, sub, sup, 1), verify, fingerprint)


def _amalgam_check(g, name, instance, n, max_size, amalgam_size=None):
    def verify(res):
        if not res.found:
            return f"no amalgam found: {res.status}"
        if amalgam_size is not None and res.amalgam.size != amalgam_size:
            return f"amalgam has {res.amalgam.size} elements, expected {amalgam_size}"
        if not g.is_embedding(res.left_map, instance.left, res.amalgam).ok:
            return "left map is not an embedding"
        if not g.is_substructure(instance.right, res.amalgam).ok:
            return "right side is not a substructure of the amalgam"
        if not g.is_elementary_up_to_depth(
            res.right_map, instance.right, res.amalgam, res.elementary_depth
        ).ok:
            return "right inclusion is not elementary"
        return None

    def fingerprint(res):
        amalgam = "-" if res.amalgam is None else _structure_text(res.amalgam)
        pre = res.precondition.candidates_checked if res.precondition else "-"
        return (f"status={res.status};tried={res.candidates_tried};depth={res.elementary_depth};"
                f"n={res.n};amalgam={amalgam};left={_map_text(res.left_map)};"
                f"right={_map_text(res.right_map)};pre={pre}")

    return Check(name, lambda: g.search_amalgam(instance, n, max_size), verify, fingerprint)


def _collapse_check(g, name, instance):
    """The truth-constant pair: the verdict is the precondition failure."""

    def call():
        try:
            return g.search_amalgam(instance, 1, 3)
        except g.PreconditionError as err:
            return err

    def verify(err):
        if not isinstance(err, g.PreconditionError):
            return "expected the existential-transfer precondition to fail"
        text = g.render_formula(err.witness.separator)
        return None if text == COLLAPSE_SEPARATOR else f"separator {text!r}"

    def fingerprint(err):
        if not isinstance(err, g.PreconditionError):
            return f"no-error:{type(err).__name__}"
        w = err.witness
        return f"sep={_formula_text(g, w.separator)};params={w.params};checked={w.candidates_checked}"

    return Check(name, call, verify, fingerprint)


def _fragment_round(g, c, rnd, index):
    base = g.Signature(predicates={"P": 1, "R": 2})
    checks = []
    for n in (1, 2):
        for constants in (False, True):
            chain = rnd.choice(c.chains3)
            sig = g.expand_with_truth_constants(base, chain) if constants else base
            tag = f"implies.n{n}.{'tc' if constants else 'base'}"
            for i in range(8):
                # holds by construction: existential sentences go up to a
                # superstructure, and every sentence survives relabelling
                if n == 1:
                    big = _random_structure(g, rnd, chain, sig, 3)
                    left, right = g.induced_substructure(big, _random_subset(rnd, big, 2)), big
                else:
                    left = _random_structure(g, rnd, chain, sig, 2)
                    right = _relabelled(g, rnd, left)
                checks.append(_implies_check(g, f"{tag}.hold{i}", left, right, n, True))
            for i in range(6):
                # fails by construction: P reaches top on the left only
                left = _random_structure(g, rnd, chain, sig, 2, top_at=("P", ("d0",)))
                right = _random_structure(g, rnd, chain, sig, 2, below_top=True)
                checks.append(_implies_check(g, f"{tag}.fail{i}", left, right, n, False))
    chain = rnd.choice(c.chains3)
    for i in range(12):
        s = _random_structure(g, rnd, chain, base, 2)
        checks.append(_elementary_check(g, f"elementary.identity{i}", s, s, True))
    for i in range(4):
        big = _random_structure(g, rnd, chain, base, 3)
        sub = g.induced_substructure(big, _random_subset(rnd, big, 2))
        checks.append(_elementary_check(g, f"elementary.proper{i}", sub, big, None))
    rnd.shuffle(checks)
    p3 = c.path3
    searches = []
    searches.append(_amalgam_check(
        g, "amalgam.trivial",
        g.AmalgamInstance(left=p3, right=p3, common=p3, generators=tuple(p3.domain)), 1, 3))
    searches.append(_amalgam_check(
        g, "amalgam.growth", g.AmalgamInstance(left=c.edgeless3, right=p3), 1, 4, amalgam_size=4))
    common = g.induced_substructure(p3, ["n0"])
    searches.append(_amalgam_check(
        g, "amalgam.two",
        g.AmalgamInstance(left=p3, right=p3, common=common, generators=("n0",)), 2, 3))
    sig = g.expand_with_truth_constants(c.m.sig, c.m.chain)
    searches.append(_collapse_check(
        g, "amalgam.collapse",
        g.AmalgamInstance(left=replace(c.m, sig=sig), right=replace(c.n, sig=sig))))
    # the searches take most of the round: one after each quarter of the rest
    step = len(checks) // len(searches)
    return [c for i, search in enumerate(searches)
            for c in checks[i * step:(i + 1) * step] + [search]] + checks[len(searches) * step:]


# --- sweep: structure enumeration ---


def _structure_count(sig, k: int, max_size: int) -> int:
    return sum(k ** sum(m ** a for a in sig.predicates.values()) for m in range(1, max_size + 1))


def _cor1_check(g, name, chain, sig, max_source, max_target):
    expected = _structure_count(sig, chain.size, max_source) * _structure_count(sig, chain.size, max_target)

    def verify(rep):
        if rep.instances != expected:
            return f"{rep.instances} instances, expected {expected}"
        if rep.agreements != rep.instances or rep.disagreements:
            return f"{rep.instances - rep.agreements} disagreements"
        return None

    def fingerprint(rep):
        return (f"instances={rep.instances};agreements={rep.agreements};"
                f"both_true={rep.both_true};both_false={rep.both_false}")

    return Check(name, lambda: g.cor1_sweep(chain, sig, max_source, max_target), verify, fingerprint)


def _consequence_check(g, name, theory, sig, chain, phi, holds):
    expected = _structure_count(sig, chain.size, 3)

    def verify(res):
        if res.holds != holds:
            return f"expected holds={holds}, got holds={res.holds}"
        if holds:
            if res.structures_checked != expected:
                return f"{res.structures_checked} structures checked, expected {expected}"
            return None
        cm = res.countermodel
        if not g.is_model(theory, cm).ok:
            return "countermodel is not a model of the theory"
        if g.eval_formula(phi, cm) == chain.top:
            return "countermodel satisfies the sentence"
        return None

    def fingerprint(res):
        cm = "-" if res.countermodel is None else _structure_text(res.countermodel)
        return f"holds={res.holds};checked={res.structures_checked};countermodel={cm}"

    return Check(name, lambda: g.bounded_consequence(theory, phi, sig, chain, 3), verify, fingerprint)


def _seeded_sentence(g, rnd, sig):
    phi = g.randomgen.random_formula(rnd, sig, depth=3)
    for v in sorted(g.free_variables(phi), reverse=True):
        phi = g.syntax.Forall(v, phi)
    return phi


def _sweep_round(g, c, rnd, index):
    chain = rnd.choice(c.chains3)
    syn = g.syntax
    theories = {"weighted": c.weighted, "degree2": c.degree_two}
    checks = []

    def consequence(tag, holds, i):
        theory, sig = theories[tag]
        axiom = rnd.choice(theory)
        psi = _seeded_sentence(g, rnd, sig)
        # psi -> axiom holds in every model; psi /\ not axiom fails in the first one
        phi = syn.Implies(psi, axiom) if holds else syn.And(psi, syn.Not(axiom))
        kind = "hold" if holds else "refute"
        checks.append(_consequence_check(g, f"consequence.{tag}.{kind}{i}", theory, sig, chain, phi, holds))

    consequence("weighted", False, 0)
    consequence("degree2", False, 0)
    r = g.Signature(predicates={"R": 2})
    checks.append(_cor1_check(g, "cor1.R.2x2", chain, r, 2, 2))
    for i in range(5):
        consequence("weighted", True, i)
    # keeps all 19,767 targets in memory: the peak of the run
    checks.append(_cor1_check(g, "cor1.R.1x3", chain, r, 1, 3))
    consequence("degree2", True, 0)
    rnd.shuffle(checks)
    return checks


# --- suites: the seeded verify suites ---


def _suite_check(g, name, call, instances, expect_violations):
    def verify(rep):
        if rep.instances != instances:
            return f"{rep.instances} instances, expected {instances}"
        if expect_violations and not rep.violations:
            return "negative control found no violation"
        if not expect_violations and rep.violations:
            return f"{len(rep.violations)} violations"
        return None

    def fingerprint(rep):
        return json.dumps(rep.as_dict(), sort_keys=True)

    return Check(name, call, verify, fingerprint)


def _suites_round(g, c, rnd, index):
    seeds = [rnd.randrange(2**31) for _ in range(4)]
    s = seeds[0]
    if index % 2 == 0:
        checks = [_suite_check(g, "los-tarski-lemma",
                               lambda: g.substructure_preservation_suite(s, SUITE_INSTANCES),
                               SUITE_INSTANCES, False)]
    else:
        checks = [_suite_check(g, "exists-negative-control",
                               lambda: g.substructure_preservation_suite(
                                   s, SUITE_INSTANCES, lead=g.syntax.EXISTS,
                                   claim="exists(1)-negative-control"),
                               SUITE_INSTANCES, True)]
    for i, u in enumerate(seeds[1:]):
        checks.append(_suite_check(g, f"unions-chain-lemma{i}",
                                   lambda u=u: g.union_preservation_suite(u, UNION_INSTANCES),
                                   UNION_INSTANCES, False))
    rnd.shuffle(checks)
    return checks
