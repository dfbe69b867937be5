"""Finite chain algebras: tables, validation, residua, subalgebras.

A chain is a finite linearly ordered truth-value algebra given by two
tables: a commutative monoidal conjunction (star) whose identity is the
top element, and its residuum (implies).  Everything about such an
algebra can be checked exhaustively, and this script does exactly that.
"""

from gradedmt import (
    AlgebraMap,
    derive_residuum,
    enumerate_mtl_chains,
    generated_subalgebra,
    godel_chain,
    is_algebra_homomorphism,
    lukasiewicz_chain,
    validate_chain,
)

# The four-element chain with minimum as conjunction.  Its residuum sends
# (x, y) to 1 when x <= y and to y otherwise.
g4 = godel_chain(["0", "1/2", "3/4", "1"], name="godel4")
print("four-element chain:", g4.elements)
print("valid:", validate_chain(g4).ok)
print("star(3/4, 1/2) =", g4.label(g4.star[g4.index("3/4")][g4.index("1/2")]))
print("implies(3/4, 1/2) =", g4.label(g4.implies[g4.index("3/4")][g4.index("1/2")]))

# The residuum is determined by the star table: the largest z with
# star(x, z) <= y.  Deriving it reproduces the stored table bit-exactly.
print("derived residuum matches:", derive_residuum(g4.elements, g4.star) == g4.implies)

# The three-element chain with truncated addition behaves differently:
# 1/2 & 1/2 collapses to 0.
l3 = lukasiewicz_chain(["0", "1/2", "1"], name="lukasiewicz3")
print("\ntruncated-addition chain: star(1/2, 1/2) =", l3.label(l3.star[1][1]))

# A candidate that is NOT a chain: using join as the conjunction breaks
# both the identity law and residuation, and the report says where.
join = [[max(i, j) for j in range(3)] for i in range(3)]
report = validate_chain({"elements": ["0", "1/2", "1"], "star": join,
                         "implies": [[2, 2, 2], [0, 2, 2], [0, 1, 2]]})
print("\njoin-as-star is valid:", report.ok)
for violation in report.violations[:3]:
    print("  violation:", violation)

# Subalgebras: the subset {3/4} generates {0, 3/4, 1} inside the
# four-element chain, and the restriction is again a valid chain.
closed = generated_subalgebra(g4, ["3/4"])
print("\nsubalgebra generated by {3/4}:", [g4.label(i) for i in closed])
print("restriction valid:", validate_chain(g4.restrict(closed)).ok)

# Maps between chains are checked pointwise.  Collapsing the top segment
# of the minimum chain onto the two-element chain works; the same map on
# the truncated-addition chain breaks the strong conjunction.
b2 = godel_chain(["0", "1"], name="bool2")
print("\ncollapse godel4 -> bool2:", is_algebra_homomorphism(AlgebraMap(g4, b2, (0, 1, 1, 1))).ok)
bad = is_algebra_homomorphism(AlgebraMap(l3, b2, (0, 1, 1)))
print("collapse luk3 -> bool2:", bad.ok, "|", bad.counterexample)

# At these sizes every chain can be enumerated outright.
for k in (2, 3, 4):
    print(f"\nall chains with {k} elements: {len(enumerate_mtl_chains(k))}")
