"""Substructures, strong embeddings, and the diagram characterization.

The diagram of a structure records the exact value of every atomic
sentence over fresh constants naming the domain.  A target structure
admits an interpretation of those constants modelling the diagram
exactly when the source strongly embeds into it; this script checks the
equivalence on examples and on an exhaustive sweep of small instances.
"""

from gradedmt import (
    Signature,
    build_diagram,
    cor1_sweep,
    corpus,
    diagram_embedding_equivalence,
    enumerate_substructures,
    inclusion_map,
    is_elementary_up_to_depth,
    is_embedding,
    is_substructure,
    render_diagram,
    search_structure_map,
)

pair, path = corpus.edgeless2(), corpus.path3()

# An induced subgraph is a substructure; the inclusion is an embedding.
sub = list(enumerate_substructures(path))[1]
print("an induced substructure of the path:", sub.domain)
print("substructure check:", is_substructure(sub, path).ok)
print("inclusion is an embedding:", is_embedding(inclusion_map(sub, path), sub, path).ok)

# The edgeless pair embeds into the path: its two vertices go to the
# non-adjacent endpoints.
found = search_structure_map(pair, path, injective=True)
print("\nembedding of the edgeless pair into the path:", found.domain_map)

# Its diagram records edge values 0 between the named constants, plus the
# crisp identity facts; interpretations of the constants in the path must
# reproduce those values.
diagram = build_diagram(pair)
print("\ndiagram of the edgeless pair:")
print(render_diagram(diagram))

report = diagram_embedding_equivalence(pair, path)
print("diagram side:", report.diagram_side,
      "| embedding side:", report.embedding_side,
      "| agree:", report.agree)

# Bounded elementarity is stronger than plain embedding: the inclusion of
# one endpoint into the path preserves atomic facts, but a one-block
# formula already sees the neighbour.
endpoint = list(enumerate_substructures(path))[0]
elem = is_elementary_up_to_depth(inclusion_map(endpoint, path), endpoint, path, 1)
print("\nendpoint inclusion elementary to depth 1:", elem.ok)
if not elem.ok:
    from gradedmt import render_formula

    print("  separated by:", render_formula(elem.separator), "at", elem.params)

# The same equivalence, checked exhaustively over every pair of small
# structures with one binary predicate over the two-element chain.
sweep = cor1_sweep(corpus.bool2(), Signature(predicates={"R": 2}), 2, 2)
print("\nsweep over", sweep.instances, "instances: agreements =", sweep.agreements)
