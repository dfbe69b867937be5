"""The tier-1 slices of `tools/exhaustive.py`.  Every ordered pair of
`structure_space(R/2, bool2, 2)`, 18 structures, at depth 2: for each pair,
`equiv_up_to_depth` gives the verdict and first separator that the
`eval_formula` top-vectors of the 2,658 closed sentences give, and each pair
the cell colouring certifies is equal by those vectors.  Every ordered pair
and every inclusion of `structure_space(P/1, godel3, 2)`, 12 structures: at
n = 1 and 2, `implies_exists_n` gives the verdict, first separator and count
that `eval_formula` gives over the plan's sentences, and the calls decided
with no table (along a strong embedding or an isomorphism) are counted.  The
larger scopes run outside tier-1:

    PYTHONPATH=src python3 tools/exhaustive.py
"""

import sys
from pathlib import Path

from gradedmt import corpus
from gradedmt.generation import structure_space
from gradedmt.syntax import Signature

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import exhaustive  # noqa: E402


def test_equiv_matches_the_evaluator_on_every_pair_of_the_bool2_scope():
    chain, sig = corpus.bool2(), Signature(predicates={"R": 2})
    structures = [s for block in structure_space(sig, chain, 2) for s in block]
    assert exhaustive.check_equiv(structures, sig, chain, 2) == (324, 30, [])


def test_existential_transfer_matches_the_evaluator_on_every_pair_and_inclusion_of_the_godel3_p_scope():
    chain, sig = corpus.godel3(), Signature(predicates={"P": 1})
    structures = [s for block in structure_space(sig, chain, 2) for s in block]
    assert exhaustive.check_exists(structures, sig, chain) == (348, 75, [])
