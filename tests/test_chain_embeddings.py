"""Transport along chain embeddings: let f: C' -> C be an MTL-chain
embedding (injective, and accepted by `is_algebra_homomorphism`), M a
structure over C', and f(M) the structure over C with every table value v
replaced by f(v).  Every sentence then takes in f(M) the f-image of its
value in M.  The relabelling tests vary only the domain side of a
structure; these vary the algebra side.  A fault that both sides of the
relation share, such as a transposed `implies` index, leaves it intact:
the differential tests have to catch that one.  The transfer check reads
the relation through (f, identity): f(M) is an elementary image of M."""

import random
from dataclasses import replace
from itertools import permutations, product

from gradedmt import randomgen
from gradedmt.algebra import AlgebraMap, enumerate_mtl_chains, is_algebra_homomorphism
from gradedmt.morphisms import StructureMap, is_elementary_up_to_depth
from gradedmt.semantics import Structure, eval_formula
from gradedmt.syntax import Exists, Forall, Signature, free_variables

SIG = Signature(predicates={"P": 1, "R": 2})
CHAINS = [chain for size in (2, 3, 4) for chain in enumerate_mtl_chains(size)]
EMBEDDINGS = [f for a in CHAINS for b in CHAINS if a.size < b.size
              for f in (AlgebraMap(a, b, m) for m in permutations(range(b.size), a.size))
              if is_algebra_homomorphism(f).ok]
CASES_PER_EMBEDDING = 20


def _structure(rnd, chain):
    domain = tuple(f"d{i}" for i in range(rnd.randint(1, 3)))
    predicates = {name: {args: rnd.randrange(chain.size) for args in product(domain, repeat=arity)}
                  for name, arity in SIG.predicates.items()}
    return Structure(chain=chain, sig=SIG, domain=domain, predicates=predicates)


def _image(f: AlgebraMap, m: Structure) -> Structure:
    predicates = {name: {args: f.map[v] for args, v in table.items()} for name, table in m.predicates.items()}
    return Structure(chain=f.target, sig=m.sig, domain=m.domain, predicates=predicates)


def _sentence(rnd):
    phi = randomgen.random_formula(rnd, SIG, ("0", "1"))
    for v in sorted(free_variables(phi)):
        phi = (Forall if rnd.random() < 0.5 else Exists)(v, phi)
    return phi


def test_sentence_values_follow_a_chain_embedding():
    assert len(EMBEDDINGS) == 14
    rnd = random.Random(0)
    for f in EMBEDDINGS:
        for _ in range(CASES_PER_EMBEDDING):
            m, phi = _structure(rnd, f.source), _sentence(rnd)
            assert eval_formula(phi, _image(f, m)) == f.map[eval_formula(phi, m)], (f.map, phi, m)


def _endpoints_named(chain):
    """The chain with its endpoints read "0" and "1" and its own interior labels."""
    return replace(chain, elements=("0", *chain.elements[1:-1], "1"))


def test_an_image_along_a_chain_embedding_is_elementary():
    # the family's truth constants name the source's endpoint labels, which
    # the target must share; the check runs one value-class table over two chains
    rnd = random.Random(0)
    for f in EMBEDDINGS:
        f = AlgebraMap(_endpoints_named(f.source), _endpoints_named(f.target), f.map)
        for _ in range(3):
            m = _structure(rnd, f.source)
            rep = is_elementary_up_to_depth(StructureMap(f, {d: d for d in m.domain}), m, _image(f, m), 1)
            assert rep.ok, (f.map, m, rep)
