"""Bounded-exhaustive differential checks over whole structure spaces.

Every structure of a scope (`structure_space`: a signature, a chain and a
largest domain size) is evaluated once with `eval_formula` on the closed
sentences of `sentence_family` at the scope's depth, as a vector of "takes
top" flags.  Then:

* `equiv`: for every ordered pair of the scope, `equiv_up_to_depth` must
  give the verdict and the first separator those vectors give, and must
  count every closed sentence.  A pair whose cell colouring certifies it
  (`ValueClasses.refinements`: some cell of each side ends with one
  colour) must be equal by the vectors.
* `inclusions`: for every structure and every inclusion of one of its
  proper substructures (`enumerate_substructures`), an inclusion whose colouring
  certifies it (each cell of the substructure ends with the colour of its
  image) must be elementary to the depth by `eval_formula`, formula by
  formula over `elementary_family`, at every parameter tuple.
* `exists`: `implies_exists_n` at n = 1 and 2, at the default bounds (the
  scope's depth is not used), on every ordered pair with no parameter and
  on every inclusion of a substructure (`enumerate_substructures`, the
  whole structure included) with the substructure's first element as the
  parameter, must give the verdict, first separator and
  `candidates_checked` that `eval_formula` gives over the plan's sentences.
  The count of calls decided with no value-class table (along a strong
  embedding, or an isomorphism) is printed.  It runs on the scopes of at
  most 84 structures: the others have 280,900 and 544,644 ordered pairs.

The colouring is sufficient, never necessary: it may leave an equal pair
or an elementary inclusion uncertified, and then the family is read.  This
is the small-scope hypothesis (Jackson, "Software Abstractions", 2006):
most faults show on some small instance.  Stdlib only; run from a checkout:

    PYTHONPATH=src python3 tools/exhaustive.py                  # every scope
    PYTHONPATH=src python3 tools/exhaustive.py godel3-R-2-d1    # some scopes

Each scope prints its pair and inclusion counts, how many were certified
(for `exists`: decided with no table), and its time.  The exit code is 1
if any check fails, naming the pair.
"""

import sys
import time
from itertools import product

from gradedmt import corpus, morphisms
from gradedmt.consequence import equiv_up_to_depth
from gradedmt.generation import (AssignmentGrid, ValueClasses, elementary_family, fragment, generate_sentences,
                                 prenex_formula, structure_space)
from gradedmt.morphisms import enumerate_substructures, inclusion_map, is_elementary_up_to_depth
from gradedmt.preservation import FormulaBounds, _family, implies_exists_n
from gradedmt.semantics import eval_formula
from gradedmt.syntax import EXISTS, PrenexClass, Signature

# name: (chain, predicates, largest domain, depth, checks)
SCOPES = {
    "bool2-R-2-d2": ("bool2", {"R": 2}, 2, 2, ("equiv", "exists")),
    "godel3-R-2-d1": ("godel3", {"R": 2}, 2, 1, ("equiv", "inclusions", "exists")),
    "bool2-R-3-d1": ("bool2", {"R": 2}, 3, 1, ("inclusions",)),
    "godel3-PR-2-d1": ("godel3", {"P": 1, "R": 2}, 2, 1, ("equiv", "inclusions")),
    "godel3-P-2-d1": ("godel3", {"P": 1}, 2, 1, ("exists",)),
}


def certified(left, right, variables, images=None) -> bool:
    """Whether the cell colouring of `left` and `right` over `variables`
    certifies the pair: with `images` None, some cell of each ends with one
    colour in every round; else each cell of `left` ends with the colour of
    the cell of `right` at its entries' images."""
    family = fragment(left.sig, left.chain.elements, variables, 0)
    table = ValueClasses(family, [AssignmentGrid(s, variables) for s in (left, right)])
    cut = left.size ** len(variables)
    if images is None:
        return all(set(colour[:cut]) == set(colour[cut:]) for colour in table.refinements())
    where = {e: cut + i for i, e in enumerate(product(right.domain, repeat=len(variables)))}
    pairs = [(i, where[tuple(map(images.get, e))]) for i, e in enumerate(product(left.domain, repeat=len(variables)))]
    *_, final = table.refinements()
    return all(final[i] == final[j] for i, j in pairs)


def check_equiv(structures, sig, chain, depth) -> tuple[int, int, list]:
    """(pairs, certified pairs, mismatches) over every ordered pair."""
    sentences = generate_sentences(sig, chain.elements, depth)
    tops = [tuple(eval_formula(phi, s) == chain.top for phi in sentences) for s in structures]
    variables = [f"x{i}" for i in range(1, depth + 1)]
    pairs = sure = 0
    bad = []
    for (i, left), (j, right) in product(enumerate(structures), repeat=2):
        pairs += 1
        first = next((n for n, (a, b) in enumerate(zip(tops[i], tops[j])) if a != b), None)
        want = (first is None, None if first is None else sentences[first], len(sentences))
        res = equiv_up_to_depth(left, right, depth)
        if (res.equal, res.separator, res.sentences_checked) != want:
            bad.append(f"equiv {i} {j}: got {(res.equal, res.separator, res.sentences_checked)}, want {want}")
        if certified(left, right, variables):
            sure += 1
            if first is not None:
                bad.append(f"certified pair {i} {j} separated by {sentences[first]}")
    return pairs, sure, bad


def elementary_by_evaluator(sub, sup, depth) -> bool:
    """The identity inclusion carries the value of every formula of
    `elementary_family` at every parameter tuple, by `eval_formula`."""
    for matrix, prefix, params in elementary_family(sub.sig, sub.chain.elements, depth):
        phi = prenex_formula(matrix, prefix)
        for tup in product(sub.domain, repeat=len(params)):
            asg = dict(zip(params, tup))
            if eval_formula(phi, sub, asg) != eval_formula(phi, sup, asg):
                return False
    return True


def check_inclusions(structures, depth) -> tuple[int, int, list]:
    """(inclusions, certified inclusions, mismatches) over every proper substructure of every structure."""
    variables = [f"x{i}" for i in range(1, depth + 2)]
    count = sure = 0
    bad = []
    for i, sup in enumerate(structures):
        for sub in enumerate_substructures(sup):
            if sub.size == sup.size:  # the identity: a bijection, decided off the tables, not by colours
                continue
            count += 1
            identity = {d: d for d in sub.domain}
            if certified(sub, sup, variables, identity):
                sure += 1
                if not is_elementary_up_to_depth(inclusion_map(sub, sup), sub, sup, depth).ok:
                    bad.append(f"certified inclusion {sub.domain} in {i} not elementary")
                elif not elementary_by_evaluator(sub, sup, depth):
                    bad.append(f"certified inclusion {sub.domain} in {i} refuted by the evaluator")
    return count, sure, bad


def _key(s) -> tuple:
    """A structure's labels and tables, as a dictionary key."""
    return s.domain, tuple((p, tuple(sorted(table.items()))) for p, table in sorted(s.predicates.items()))


def unread_transfer(call):
    """call()'s result, and whether `first_transfer_failure` built no value-class table for it."""
    built, table = [], morphisms.ValueClasses
    morphisms.ValueClasses = lambda *args: built.append(args) or table(*args)
    try:
        return call(), not built
    finally:
        morphisms.ValueClasses = table


def check_exists(structures, sig, chain) -> tuple[int, int, list]:
    """(calls, calls decided with no table, mismatches): `implies_exists_n`
    at n = 1 and 2 on every ordered pair with no parameter, and on every
    inclusion with the substructure's first element as the parameter."""
    bounds, calls, unread, bad = FormulaBounds(), 0, 0, []
    cases = [((), (i, j), left, right) for (i, left), (j, right) in product(enumerate(structures), repeat=2)]
    cases += [(sub.domain[:1], (i, sub.domain), sub, sup)
              for i, sup in enumerate(structures) for sub in enumerate_substructures(sup)]
    for n in (1, 2):
        plans, tops = {}, {}
        for params, where, left, right in cases:
            if len(params) not in plans:
                qvars, pvars, family = _family(sig, chain, len(params), bounds)
                plan = family.plan([(qvars, PrenexClass(EXISTS, n))])
                plans[len(params)] = pvars, [prenex_formula(matrix, prefix) for matrix, prefix, _ in plan]
            pvars, sentences = plans[len(params)]
            asg = dict(zip(pvars, params))
            for s in (left, right):
                if (_key(s), params) not in tops:
                    tops[_key(s), params] = [eval_formula(phi, s, asg) == chain.top for phi in sentences]
            first = next((k for k, (a, b) in enumerate(zip(tops[_key(left), params], tops[_key(right), params]))
                          if a and not b), None)
            want = (True, None, len(sentences)) if first is None else (False, sentences[first], first + 1)
            calls += 1
            try:
                report, sure = unread_transfer(lambda: implies_exists_n(left, right, params, n, bounds))
            except Exception as err:  # a fault may raise where it should answer: name the pair
                bad.append(f"exists n={n} {where} at {params}: raised {err!r}, want {want}")
                continue
            unread += sure
            if (report.ok, report.separator, report.candidates_checked) != want:
                bad.append(f"exists n={n} {where} at {params}: got "
                           f"{(report.ok, report.separator, report.candidates_checked)}, want {want}")
    return calls, unread, bad


def run(name: str) -> list:
    chain_name, predicates, size, depth, checks = SCOPES[name]
    chain, sig = getattr(corpus, chain_name)(), Signature(predicates=predicates)
    start = time.perf_counter()
    structures = [s for block in structure_space(sig, chain, size) for s in block]
    bad = []
    for check in checks:
        if check == "equiv":
            total, sure, found = check_equiv(structures, sig, chain, depth)
        elif check == "inclusions":
            total, sure, found = check_inclusions(structures, depth)
        else:
            total, sure, found = check_exists(structures, sig, chain)
        bad += found
        what = {"equiv": "pairs", "inclusions": "inclusions"}.get(check, "calls")
        print(f"{name} {check}: {len(structures)} structures, {total} {what}, "
              f"{sure} {'decided with no table' if check == 'exists' else 'certified'}, {len(found)} mismatches")
    print(f"{name}: {time.perf_counter() - start:.1f} s")
    return bad


def main(argv=None) -> int:
    names = (argv if argv is not None else sys.argv[1:]) or list(SCOPES)
    unknown = [n for n in names if n not in SCOPES]
    if unknown:
        print(f"unknown scope {unknown[0]!r}; scopes: {', '.join(SCOPES)}", file=sys.stderr)
        return 2
    bad = [line for name in names for line in run(name)]
    for line in bad[:20]:
        print(line)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
