"""Relabelling invariance: renaming the domain elements of a structure by a
permutation (`Structure.rename_domain`) changes no verdict, and changes a
witness only by the permutation itself: the labels of a structure carry
no meaning of their own.  For two structures that share labels, renaming
the shared labels the same way on both sides changes no verdict either;
an amalgam search then tries as many candidates and finds the renamed
amalgam."""

import random

from hypothesis import given, settings, strategies as st

from gradedmt import corpus, randomgen
from gradedmt.consequence import bounded_consequence
from gradedmt.diagrams import DIAG, build_diagram, diagram_embedding_equivalence, diagram_model_exists
from gradedmt.generation import enumerate_structures
from gradedmt.morphisms import search_structure_map
from gradedmt.errors import PreconditionError
from gradedmt.preservation import AmalgamInstance, implies_exists_n, search_amalgam
from gradedmt.semantics import Structure, eval_formula, is_model
from gradedmt.syntax import Exists, Forall, Signature, free_variables

CHAINS = {name: getattr(corpus, name)() for name in ("bool2", "godel3", "lukasiewicz3")}
SIGNATURES = (
    Signature(predicates={"R": 2}),
    Signature(predicates={"P": 1}, functions={"c": 0}),
    Signature(predicates={"P": 1, "R": 2}),
)


def _structure(rnd, sig, chain, size, prefix="d"):
    domain = tuple(f"{prefix}{i}" for i in range(size))
    predicates = {p: {args: rnd.randrange(chain.size) for args in _tuples(domain, a)}
                  for p, a in sig.predicates.items()}
    functions = {f: {(): rnd.choice(domain)} for f in sig.functions}
    return Structure(chain=chain, sig=sig, domain=domain, predicates=predicates, functions=functions)


def _tuples(domain, arity):
    out = [()]
    for _ in range(arity):
        out = [t + (d,) for t in out for d in domain]
    return out


def _relabelling(rnd, s):
    return dict(zip(s.domain, rnd.sample(s.domain, len(s.domain))))


def _sentence(rnd, sig, chain):
    phi = randomgen.random_formula(rnd, sig, chain.elements, 3)
    for v in sorted(free_variables(phi)):
        phi = (Forall if rnd.random() < 0.5 else Exists)(v, phi)
    return phi


CASE = dict(seed=st.integers(0, 2**32 - 1), chain=st.sampled_from(sorted(CHAINS)),
            sig=st.sampled_from(SIGNATURES))


@settings(max_examples=60, deadline=None)
@given(size=st.integers(1, 3), **CASE)
def test_sentence_values_and_models_survive_relabelling(seed, chain, sig, size):
    rnd, chain = random.Random(seed), CHAINS[chain]
    s = _structure(rnd, sig, chain, size)
    renamed = s.rename_domain(_relabelling(rnd, s))
    theory = [_sentence(rnd, sig, chain) for _ in range(3)]
    for phi in theory:
        assert eval_formula(phi, renamed) == eval_formula(phi, s)
    assert is_model(theory, renamed).ok == is_model(theory, s).ok


@settings(max_examples=60, deadline=None)
@given(injective=st.booleans(), sizes=st.tuples(st.integers(1, 2), st.integers(1, 3)), **CASE)
def test_map_search_survives_relabelling(seed, chain, sig, injective, sizes):
    rnd, chain = random.Random(seed), CHAINS[chain]
    s, t = _structure(rnd, sig, chain, sizes[0]), _structure(rnd, sig, chain, sizes[1], "t")
    pi_s, pi_t = _relabelling(rnd, s), _relabelling(rnd, t)
    found = search_structure_map(s, t, injective=injective)
    moved = search_structure_map(s.rename_domain(pi_s), t.rename_domain(pi_t), injective=injective)
    assert (moved is None) == (found is None)
    if found is not None:
        assert moved.domain_map == {pi_s[a]: pi_t[b] for a, b in found.domain_map.items()}


@settings(max_examples=40, deadline=None)
@given(sizes=st.tuples(st.integers(1, 2), st.integers(1, 3)), **CASE)
def test_diagram_sides_survive_relabelling(seed, chain, sig, sizes):
    rnd, chain = random.Random(seed), CHAINS[chain]
    sig = Signature(predicates=sig.predicates)  # diagrams here are over relational signatures
    s, t = _structure(rnd, sig, chain, sizes[0]), _structure(rnd, sig, chain, sizes[1], "t")
    if rnd.random() < 0.5 and t.size >= s.size:  # a target that extends the source embeds it
        rows = dict(zip(s.domain, t.domain))
        t = Structure(chain=chain, sig=sig, domain=t.domain, predicates={
            p: {**t.predicates[p], **{tuple(rows[a] for a in args): v for args, v in table.items()}}
            for p, table in s.predicates.items()})
    pi_s, pi_t = _relabelling(rnd, s), _relabelling(rnd, t)
    s2, t2 = s.rename_domain(pi_s), t.rename_domain(pi_t)
    found, images = diagram_model_exists(t, build_diagram(s, DIAG))
    found2, images2 = diagram_model_exists(t2, build_diagram(s2, DIAG))
    assert found2 == found
    if found:
        assert images2 == tuple(pi_t[x] for x in images)
    report, moved = diagram_embedding_equivalence(s, t), diagram_embedding_equivalence(s2, t2)
    assert (moved.diagram_side, moved.embedding_side) == (report.diagram_side, report.embedding_side)
    assert report.agree


def _key(s):
    """A structure up to the order of its domain tuple."""
    return s.size, s.predicates, s.functions


@settings(max_examples=40, deadline=None)
@given(**CASE)
def test_bounded_consequence_survives_relabelling(seed, chain, sig):
    rnd, chain = random.Random(seed), CHAINS[chain]
    theory, phi = [_sentence(rnd, sig, chain)], _sentence(rnd, sig, chain)
    result = bounded_consequence(theory, phi, sig, chain, 2)
    stream = list(enumerate_structures(sig, chain, 2))
    for s in rnd.sample(stream, min(len(stream), 20)):
        renamed = s.rename_domain(_relabelling(rnd, s))
        refutes = is_model(theory, s).ok and eval_formula(phi, s) != chain.top
        assert (is_model(theory, renamed).ok and eval_formula(phi, renamed) != chain.top) == refutes
        assert not (refutes and result.holds)
    if not result.holds:
        # the first countermodel is the least member of its relabelling class
        c = result.countermodel
        renamed = c.rename_domain(_relabelling(rnd, c))
        position = next(i for i, x in enumerate(stream) if _key(x) == _key(renamed))
        assert position >= result.structures_checked - 1


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 2), sizes=st.tuples(st.integers(1, 2), st.integers(0, 1), st.integers(0, 1)),
       **CASE)
def test_existential_transfer_survives_relabelling(seed, chain, sig, n, sizes):
    rnd, chain = random.Random(seed), CHAINS[chain]
    shared, left_only, right_only = sizes
    left = _structure(rnd, sig, chain, shared + left_only)
    right = _structure(rnd, sig, chain, shared + right_only)
    right = right.rename_domain({d: d if i < shared else f"r{i}" for i, d in enumerate(right.domain)})
    if rnd.random() < 0.5:  # the right side extends the left one on the shared labels
        predicates = {p: {args: left.predicates[p].get(args, v) for args, v in table.items()}
                      for p, table in right.predicates.items()}
        right = Structure(chain=chain, sig=sig, domain=right.domain, functions=right.functions,
                          predicates=predicates)
    params = tuple(rnd.choice(left.domain[:shared]) for _ in range(rnd.randint(0, 2)))
    labels = sorted(set(left.domain) | set(right.domain))
    pi = dict(zip(labels, rnd.sample(labels, len(labels))))
    report = implies_exists_n(left, right, params, n)
    moved = implies_exists_n(left.rename_domain({d: pi[d] for d in left.domain}),
                             right.rename_domain({d: pi[d] for d in right.domain}),
                             tuple(pi[d] for d in params), n)
    assert (moved.ok, moved.candidates_checked, moved.separator) == (
        report.ok, report.candidates_checked, report.separator)
    assert moved.params == tuple(pi[d] for d in report.params)


def _amalgam_search(instance, n, max_size):
    try:
        return search_amalgam(instance, n, max_size, depth=1)
    except PreconditionError as err:
        return err.witness


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 2), sizes=st.tuples(st.integers(1, 2), st.integers(0, 1)), **CASE)
def test_amalgam_search_survives_relabelling(seed, chain, sig, n, sizes):
    rnd, chain = random.Random(seed), CHAINS[chain]
    left = _structure(rnd, sig, chain, sizes[0])
    right = _structure(rnd, sig, chain, sizes[0] + sizes[1])
    if rnd.random() < 0.5:  # the right side extends the left one, so the transfer holds
        predicates = {p: {args: left.predicates[p].get(args, v) for args, v in table.items()}
                      for p, table in right.predicates.items()}
        right = Structure(chain=chain, sig=sig, domain=right.domain, functions=left.functions,
                          predicates=predicates)
    pi = dict(zip(right.domain, rnd.sample(right.domain, right.size)))
    moved = AmalgamInstance(left=left.rename_domain({d: pi[d] for d in left.domain}),
                            right=right.rename_domain(pi))
    result = _amalgam_search(AmalgamInstance(left=left, right=right), n, right.size + 1)
    again = _amalgam_search(moved, n, right.size + 1)
    if not hasattr(result, "status"):  # the precondition failed: a transfer report
        assert (again.ok, again.candidates_checked, again.separator) == (
            result.ok, result.candidates_checked, result.separator)
        return
    assert (again.status, again.candidates_tried) == (result.status, result.candidates_tried)
    if result.found:
        fresh = {d: d for d in result.amalgam.domain if d not in right.domain}
        assert again.amalgam == result.amalgam.rename_domain({**pi, **fresh})
        assert again.left_map.domain_map == {pi[a]: {**pi, **fresh}[b]
                                             for a, b in result.left_map.domain_map.items()}
