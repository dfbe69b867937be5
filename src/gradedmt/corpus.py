"""Access to the bundled example corpus.

Chains: the four-element Goedel chain used throughout, a three-element
Goedel chain, the three-element Lukasiewicz chain and the two-element
Boolean chain.  Structures: the constant-predicate pair that separates
base-language from truth-constant axiomatizations, a crisp triangle, a
three-vertex path and two edgeless graphs.  Theories: weighted graphs,
minimum degree two, and divisible abelian groups with a fuzzy subgroup.
"""

from importlib import resources
from pathlib import Path

from .files import load_algebra, load_structure, load_theory


def data_dir() -> Path:
    return Path(str(resources.files("gradedmt") / "data"))


def data_path(name: str) -> Path:
    return data_dir() / name


def godel4():
    return load_algebra(data_path("godel4.json"))


def godel3():
    return load_algebra(data_path("godel3.json"))


def lukasiewicz3():
    return load_algebra(data_path("lukasiewicz3.json"))


def bool2():
    return load_algebra(data_path("bool2.json"))


def structure_m():
    """Three elements, the unary predicate constantly 3/4, Goedel chain."""
    return load_structure(data_path("structure_m.json"))


def structure_n():
    """Three elements, the unary predicate constantly 1/2, Goedel chain."""
    return load_structure(data_path("structure_n.json"))


def triangle():
    return load_structure(data_path("triangle.json"))


def path3():
    return load_structure(data_path("path3.json"))


def edgeless2():
    return load_structure(data_path("edgeless2.json"))


def edgeless3():
    return load_structure(data_path("edgeless3.json"))


def weighted_graph_theory():
    return load_theory(data_path("weighted_graph.thy"))


def degree_two_theory():
    return load_theory(data_path("degree_two.thy"))


def fuzzy_subgroup_theory():
    return load_theory(data_path("fuzzy_subgroup.thy"))
