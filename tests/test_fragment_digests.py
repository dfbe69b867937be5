"""The benchmark's fragment verdicts, pinned byte for byte in tier-1.

Round r0 of the fragment workload for seed 1 is built with the gradedmt
already imported here.  Each `implies_exists_n` and
`is_elementary_up_to_depth` verdict must pass its known-answer check and
hash to a digest recorded in perfbench/digests.json.  The digests cover
the separator, its parameters and the work counts `candidates_checked`
and `formulas_checked`.  Only files under perfbench/ are read.
"""

import importlib.util
import json
from pathlib import Path

import gradedmt
import gradedmt.corpus  # noqa: F401  (workloads.build reads gradedmt.corpus)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fragment_verdicts_match_recorded_digests():
    workloads = _workloads()
    recorded = set(json.loads((PERFBENCH / "digests.json").read_text())["fragment"]["1"]["r0"])
    checks = [
        c for c in workloads.build(gradedmt, "fragment", 1, 1)
        if c.id.startswith(("r0.implies.", "r0.elementary."))
    ]
    assert len(checks) == 72
    for check in checks:
        verdict = check.call()
        assert check.verify(verdict) is None, check.id
        assert workloads.digest(check, check.fingerprint(verdict)) in recorded, check.id
