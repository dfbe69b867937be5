"""Graded first-order model theory over finite residuated chains.

Evaluate many-valued first-order formulas in finite fuzzy structures,
build diagrams with named constants, search strong homomorphisms and
embeddings, take unions of chains of structures, and run bounded
preservation and amalgamation checks, all exhaustively at desk scale.
"""

from .algebra import (
    AlgebraMap,
    FiniteChain,
    derive_residuum,
    enumerate_mtl_chains,
    generated_subalgebra,
    godel_chain,
    is_algebra_homomorphism,
    lukasiewicz_chain,
    validate_chain,
)
from .chains import (
    StructureChain,
    check_tarski_vaught,
    normalize_chain,
    union_of_chain,
    validate_chain_of_structures,
)
from .consequence import bounded_consequence, equiv_up_to_depth
from .diagrams import (
    Diagram,
    DiagramBounds,
    build_diagram,
    cor1_sweep,
    diagram_embedding_equivalence,
    expansion_sharp,
    interpret_constants,
    models_diagram,
    render_diagram,
)
from .errors import (
    BudgetError,
    ChainMismatchError,
    FormatError,
    GradedmtError,
    InternalError,
    ParseError,
    PreconditionError,
    SignatureError,
)
from .files import (
    load_algebra,
    load_chain_file,
    load_structure,
    load_theory,
    save_algebra,
    save_structure,
    save_theory,
)
from .generation import (
    AssignmentGrid,
    enumerate_structures,
    generate_sentences,
    prenex_candidates,
    qf_matrices,
)
from .morphisms import (
    StructureMap,
    enumerate_substructures,
    induced_substructure,
    inclusion_map,
    is_elementary_up_to_depth,
    is_embedding,
    is_strong_homomorphism,
    is_substructure,
    search_structure_map,
)
from .parser import infer_signature, parse_formula, parse_theory, render_formula
from .preservation import (
    AmalgamInstance,
    FormulaBounds,
    implies_exists_n,
    reproduce_counterexample,
    search_amalgam,
    substructure_preservation_suite,
    union_preservation_suite,
    universal_consequences_bounded,
)
from .semantics import Structure, eval_formula, eval_term, is_model, satisfies
from .syntax import (
    Formula,
    PrenexClass,
    Signature,
    classify_prenex,
    elaborate,
    expand_with_domain_constants,
    expand_with_truth_constants,
    free_variables,
)

__version__ = "0.1.0"
