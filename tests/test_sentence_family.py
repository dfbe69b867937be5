"""Bounded sentence sets as a quantified `Fragment` program.

`generation.sentence_family` builds the sentences of `generate_sentences`
as index-program rows, a quantifier block being one `((kind, block), body,
body)` row, and `equiv_up_to_depth` and elementary diagrams read its
closed positions through one `ValueClasses` table.  These tests compare
the sentence order and every budget failure with a copy of the closure
that built and hashed one tree per sentence, and `equiv_up_to_depth` with
that closure read by `eval_formula`; they check each family's free-set
codes and plan offsets against references, and bound the memory a build
peaks at.
"""

import random
import tracemalloc
from itertools import combinations, product

import pytest

from gradedmt import corpus
from gradedmt.budget import BudgetMeter
from gradedmt.consequence import equiv_up_to_depth
from gradedmt.corpus import data_dir
from gradedmt.errors import BudgetError, InternalError
from gradedmt.files import load_structure
from gradedmt.generation import AssignmentGrid, atoms_over, generate_sentences, sentence_family, truth_constant_labels
from gradedmt.semantics import Structure, eval_formula
from gradedmt.syntax import (EXISTS, FORALL, And, App, Atom, Iff, Implies, Not, Or, Signature, Strong, Val, Var,
                             exists_block, expand_with_truth_constants, forall_block, free_variables)
from tests.conftest import assert_coded_family

CHAINS = {name: getattr(corpus, name)() for name in ("bool2", "godel3", "lukasiewicz3")}
SIG_P = Signature(predicates={"P": 1})
SIG_PR = Signature(predicates={"P": 1, "R": 2})


def closure_sentences(sig, chain_labels, depth, num_vars=None, extra_terms=()):
    """The closure `generate_sentences` ran before sentence sets were index
    programs, kept as an oracle: every formula built as a tree, deduplicated
    by hashing it, one meter tick per new formula."""
    num_vars = depth if num_vars is None else num_vars
    variables = [f"x{i}" for i in range(1, num_vars + 1)]
    meter, levels, seen, sentences = BudgetMeter("sentence generation"), [], set(), []

    def push(phi, level, fv=None):
        if phi in seen:
            return
        seen.add(phi)
        meter.tick()
        while len(levels) <= level:
            levels.append([])
        fv = frozenset(free_variables(phi)) if fv is None else fv
        levels[level].append((phi, fv))
        if not fv:
            sentences.append(phi)

    atoms = atoms_over(sig, [Var(v) for v in variables] + list(extra_terms), truth_constant_labels(sig, chain_labels))
    for lit in atoms + [Not(a) for a in atoms if not isinstance(a, Val)]:
        push(lit, 0)
    for level in range(1, depth + 1):
        final = level == depth
        for phi, fv in levels[level - 1]:
            ordered = [v for v in variables if v in fv]
            for subset in (part for size in range(1, len(ordered) + 1) for part in combinations(ordered, size)):
                if not final or set(subset) == fv:
                    push(forall_block(subset, phi), level, fv.difference(subset))
                    push(exists_block(subset, phi), level, fv.difference(subset))
        for la in range(level):
            lb = level - 1 - la
            for i, (phi, fv_i) in enumerate(levels[la]):
                for j, (psi, fv_j) in enumerate(levels[lb]):
                    if final and (fv_i or fv_j):
                        continue
                    for conn in (And, Or, Strong, Implies, Iff) if la < lb or la == lb and i <= j else (Implies,):
                        push(conn(phi, psi), level, fv_i | fv_j)
    return sentences


G3 = CHAINS["godel3"]
ORDER_CASES = {  # signature, chain, depth, num_vars, extra terms
    "depth 0": (SIG_PR, G3, 0, None, ()),
    "more variables than depth": (SIG_P, G3, 2, 3, ()),
    "a constant as an extra term": (Signature(predicates={"P": 1}, functions={"c": 0}), G3, 2, 1, (App("c"),)),
    "truth constants": (expand_with_truth_constants(SIG_P, G3), G3, 2, None, ()),
    "depth 2 over two variables": (SIG_PR, CHAINS["bool2"], 2, None, ()),
}


@pytest.mark.parametrize("case", sorted(ORDER_CASES))
def test_sentences_come_in_the_closures_order(case):
    sig, chain, depth, num_vars, extra = ORDER_CASES[case]
    want = closure_sentences(sig, chain.elements, depth, num_vars, extra)
    assert generate_sentences(sig, chain.elements, depth, num_vars, extra) == want


def test_every_budget_cut_fails_like_the_closure(monkeypatch):
    # every budget up to 399, then a stride through the family's 5,270 rows, and one past them
    labels = CHAINS["bool2"].elements
    for limit in [*range(1, 400), *range(400, 6000, 149), 20000]:
        monkeypatch.setenv("GRADEDMT_BUDGET", str(limit))
        results = []
        for build in (generate_sentences, closure_sentences):
            try:
                results.append(build(SIG_PR, labels, 2))
            except BudgetError as err:
                results.append((str(err), err.required, err.budget))
        assert results[0] == results[1], limit


def reference_equiv(s1, s2, depth, sig):
    """(equal, separator, sentences checked) from the closure and `eval_formula`."""
    sentences, top = closure_sentences(sig, s1.chain.elements, depth), s1.chain.top
    separator = next((phi for phi in sentences if (eval_formula(phi, s1) == top) != (eval_formula(phi, s2) == top)),
                     None)
    return separator is None, separator, len(sentences)


def random_structure(rnd, chain, domain, sig=SIG_PR):
    return Structure(chain=chain, sig=sig, domain=domain, predicates={
        p: {args: rnd.randrange(chain.size) for args in product(domain, repeat=a)} for p, a in sig.predicates.items()})


def equiv_pair(seed):
    """A seeded P/1 + R/2 pair over one chain, on 1-3 elements each: two
    random draws, or a structure and a relabelled copy (equal at every
    depth), and a depth of 0-2, with or without truth constants."""
    rnd = random.Random(seed)
    chain = CHAINS[rnd.choice(sorted(CHAINS))]
    sig = expand_with_truth_constants(SIG_PR, chain) if rnd.random() < 0.5 else SIG_PR
    left = random_structure(rnd, chain, tuple("abc"[:rnd.randint(1, 3)]))
    if rnd.random() < 0.4:
        rename = dict(zip(left.domain, "uvw"))
        right = Structure(chain=chain, sig=SIG_PR, domain=tuple(rename.values()), predicates={
            p: {tuple(map(rename.get, args)): v for args, v in table.items()} for p, table in left.predicates.items()})
    else:
        right = random_structure(rnd, chain, tuple("uvw"[:rnd.randint(1, 3)]))
    return left, right, rnd.randint(0, 2), sig


def test_equivalence_matches_the_closure_read_by_the_evaluator():
    separated = 0
    for seed in range(24):
        left, right, depth, sig = equiv_pair(seed)
        res = equiv_up_to_depth(left, right, depth, sig=sig)
        assert (res.equal, res.separator, res.sentences_checked) == reference_equiv(left, right, depth, sig), seed
        separated += not res.equal
    assert 0 < separated < 24


def test_a_separator_the_evaluator_refutes_raises(monkeypatch):
    one = Structure(chain=G3, sig=SIG_P, domain=("a",), predicates={"P": {("a",): G3.top}})
    two = Structure(chain=G3, sig=SIG_P, domain=("a", "b"), predicates={"P": {("a",): G3.top, ("b",): 0}})
    assert equiv_up_to_depth(one, two, 1).separator == forall_block(("x1",), Atom("P", (Var("x1"),)))
    fold = AssignmentGrid.fold

    def swapped(self, values, var, kind):  # the fault: every block row folded with the other quantifier
        return fold(self, values, var, EXISTS if kind == FORALL else FORALL)

    monkeypatch.setattr(AssignmentGrid, "fold", swapped)
    with pytest.raises(InternalError, match="disagree on a separator"):
        equiv_up_to_depth(one, two, 1)



def test_equivalence_names_the_rows_only_up_to_its_separator(monkeypatch):
    from gradedmt import consequence, generation
    from gradedmt.corpus import data_dir
    from gradedmt.files import load_structure

    left, right = (load_structure(data_dir() / f"{name}.json") for name in ("edgeless2", "path3"))
    tables = []
    monkeypatch.setattr(consequence, "ValueClasses", lambda *args: tables.append(generation.ValueClasses(*args))
                        or tables[-1])
    res = equiv_up_to_depth(left, right, 2)
    assert (res.equal, res.sentences_checked) == (False, 2658)
    assert res.separator == exists_block(("x1", "x2"), Atom("R", (Var("x1"), Var("x2"))))
    # the separator is closed position 5, row 25 of 3,698: the table names its 10 leaves, then doubles to 40 rows
    assert (len(tables[0].family.leaves), len(tables[0].cls), len(tables[0].family.codes)) == (10, 40, 3698)


def built_families():
    """(signature, chain labels, depth, num_vars, extra terms) of each sentence family these tests build, by name."""
    path3 = load_structure(data_dir() / "path3.json")
    out = {case: (sig, chain.elements, depth, num_vars, extra)
           for case, (sig, chain, depth, num_vars, extra) in ORDER_CASES.items()}
    out["budget cuts"] = (SIG_PR, CHAINS["bool2"].elements, 2, None, ())
    out["separator replay"] = (SIG_P, G3.elements, 1, None, ())
    out["edgeless2 against path3"] = (path3.sig, path3.chain.elements, 2, None, ())
    for seed in range(24):
        left, _, depth, sig = equiv_pair(seed)
        family = (sig, left.chain.elements, depth, None, ())
        if repr(family) not in map(repr, out.values()):
            out[f"equivalence pair {seed}"] = family
    return out


BUILT = built_families()


@pytest.mark.parametrize("name", sorted(BUILT))
def test_free_set_codes_and_plan_offsets_match_the_references(name, monkeypatch):
    assert_coded_family(sentence_family(*BUILT[name]), monkeypatch)


def test_a_sentence_family_build_peaks_under_32_bytes_a_row():
    # path3's signature, R/2, at depth 2 over three variables: 14,598 rows,
    # about 14 bytes a row kept and 20 at the build's peak; the builder that
    # kept a tuple a row in its repeat check and a set reference a row for
    # the free sets peaked at 112
    path3 = load_structure(data_dir() / "path3.json")
    args = (path3.sig, path3.chain.elements, 2, 3)
    sentence_family(*args)  # fill the module caches first
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        family = sentence_family(*args)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert len(family.codes) == 14598
    assert peak <= 32 * len(family.codes)
