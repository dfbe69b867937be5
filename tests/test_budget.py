"""The search budget has one source, GRADEDMT_BUDGET: no library function
takes a budget argument, so the sub-searches a search starts (eldiag
sentence generation, the sweep's matrix families) count against the same
limit as the search itself."""

import importlib
import inspect
import pkgutil

import pytest

import gradedmt
from gradedmt import corpus
from gradedmt.diagrams import DiagramBounds, cor1_sweep, diagram_embedding_equivalence
from gradedmt.errors import BudgetError
from gradedmt.files import load_structure
from gradedmt.preservation import FormulaBounds, substructure_preservation_suite
from gradedmt.syntax import Signature

DATA = corpus.data_dir()


def test_no_public_callable_takes_a_budget():
    modules = [gradedmt] + [importlib.import_module(f"gradedmt.{m.name}")
                            for m in pkgutil.iter_modules(gradedmt.__path__)]
    taking = []
    for module in modules:
        for name, value in vars(module).items():
            # the error reports the limit it ran out against; it sets none
            if name.startswith("_") or not callable(value) or value is gradedmt.BudgetError:
                continue
            try:
                parameters = inspect.signature(value).parameters
            except (TypeError, ValueError):
                continue
            if "budget" in parameters:
                taking.append(f"{module.__name__}.{name}")
    assert taking == []
    assert "budget" not in FormulaBounds.__dataclass_fields__


def test_eldiag_sentence_generation_counts_against_the_budget(monkeypatch):
    source, target = load_structure(DATA / "edgeless2.json"), load_structure(DATA / "edgeless3.json")
    monkeypatch.setenv("GRADEDMT_BUDGET", "1000")
    with pytest.raises(BudgetError, match="sentence generation") as err:
        diagram_embedding_equivalence(source, target, "eldiag")
    assert (err.value.required, err.value.budget) == (1001, 1000)


def test_sweep_matrix_generation_counts_against_the_budget(monkeypatch):
    monkeypatch.setenv("GRADEDMT_BUDGET", "100")
    with pytest.raises(BudgetError, match="matrix generation") as err:
        cor1_sweep(corpus.bool2(), Signature(predicates={"R": 2}), 1, 1, DiagramBounds(connective_depth=1))
    assert (err.value.required, err.value.budget) == (101, 100)


def test_a_warm_sentence_cache_still_counts_against_the_budget(monkeypatch):
    substructure_preservation_suite(0, 3)  # warms the suite's sentence and family caches
    monkeypatch.setenv("GRADEDMT_BUDGET", "50")
    with pytest.raises(BudgetError, match="matrix generation") as err:
        substructure_preservation_suite(0, 3)
    assert (err.value.required, err.value.budget) == (51, 50)
