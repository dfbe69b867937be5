"""The benchmark's traced runs wrap library functions and methods by name
(perfbench/spans.py).  Renaming or deleting one breaks every traced run, so
each name must keep resolving the way the tracer looks it up."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_span_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for module_name, attr, _, _ in spans.TARGETS:
        module = importlib.import_module(f"gradedmt.{module_name}")
        owner, _, name = attr.rpartition(".")
        # a method must be defined on its class itself, a function at module level
        scope = vars(getattr(module, owner)) if owner else vars(module)
        if not callable(scope.get(name)):
            missing.append(f"{module_name}.{attr}")
    assert missing == []
    assert "__init__" in vars(importlib.import_module("gradedmt.budget").BudgetMeter)
