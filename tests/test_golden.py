"""Golden reports: `--format json` output of CLI runs on the bundled corpus.

Each case's report must match its file under tests/golden/ byte for byte.
The files record the reports the package gave when they were captured; a
change that alters one changes a reported verdict, separator or count.
To capture the files again after an intended report change, run

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gradedmt.cli import main
from gradedmt.corpus import data_dir

GOLDEN = Path(__file__).resolve().parent / "golden"
DATA = data_dir()
CHAIN = "edgeless-chain.json"  # written next to the run: the bundled corpus has no chain file


def _data(name: str) -> str:
    return str(DATA / name)


CASES = {
    "implies-exists-holds": [
        "implies-exists", "--left", _data("edgeless2.json"), "--right", _data("edgeless3.json"),
        "--n", "1",
    ],
    "implies-exists-separated": [
        "implies-exists", "--left", _data("structure_m.json"), "--right", _data("structure_n.json"),
        "--n", "1", "--truth-constants",
    ],
    "amalgamate-n1-growth": [
        "amalgamate", "--left", _data("edgeless3.json"), "--right", _data("path3.json"),
        "--n", "1", "--max-size", "4",
    ],
    "amalgamate-n2-common": [
        "amalgamate", "--left", _data("path3.json"), "--right", _data("path3.json"),
        "--common", _data("path3.json"), "--params", "n0,n1,n2", "--n", "2", "--max-size", "3",
    ],
    "amalgamate-n2-transport-fails": [
        "amalgamate", "--left", _data("edgeless2.json"), "--right", _data("edgeless3.json"),
        "--n", "2", "--max-size", "3",
    ],
    "amalgamate-truth-constant-precondition": [
        "amalgamate", "--left", _data("structure_m.json"), "--right", _data("structure_n.json"),
        "--n", "1", "--max-size", "3", "--truth-constants",
    ],
    "check-chain-depths": [
        "check-chain", "--chain", CHAIN, "--elementary-depth", "1", "--tv-depth", "1",
    ],
    "check-diagram-eldiag-fails": [
        "check-diagram", "--kind", "eldiag", "--source", _data("edgeless2.json"),
        "--target", _data("path3.json"),
    ],
    "check-diagram-eldiag-holds": [
        "check-diagram", "--kind", "eldiag", "--source", _data("edgeless2.json"),
        "--target", _data("edgeless3.json"),
    ],
    "check-diagram-diag-fails": [
        "check-diagram", "--kind", "diag", "--source", _data("path3.json"),
        "--target", _data("edgeless3.json"),
    ],
    "check-diagram-diag-holds": [
        "check-diagram", "--kind", "diag", "--source", _data("edgeless2.json"),
        "--target", _data("path3.json"),
    ],
    "consequence-countermodel": [
        "consequence", "--theory", _data("weighted_graph.thy"), "--algebra", _data("godel3.json"),
        "--formula", "forall x y. (R(x,y) -> val(1/2))", "--max-domain", "3",
    ],
    "consequence-holds": [
        "consequence", "--theory", _data("weighted_graph.thy"), "--algebra", _data("godel3.json"),
        "--formula", "forall x y. (R(y,x) -> R(x,y))", "--max-domain", "2",
    ],
    "universal-consequences-weighted-graph": [
        "universal-consequences", "--theory", _data("weighted_graph.thy"),
        "--algebra", _data("godel3.json"), "--max-domain", "2",
    ],
    "eval-sentence": ["eval", "--structure", _data("structure_m.json"), "--formula", "forall x . P(x)"],
    "eval-bound": [
        "eval", "--structure", _data("path3.json"), "--formula", "exists y . R(x, y)", "--bind", "x=n0",
    ],
    "classify-forall-exists": [
        "classify", "--formula", "forall x . exists y . (R(x, y) -> val(1/2))", "--labels", "1/2",
    ],
    "check-sub-holds": ["check-sub", "--sub", _data("edgeless2.json"), "--super", _data("edgeless3.json")],
    "check-sub-fails": ["check-sub", "--sub", _data("edgeless3.json"), "--super", _data("path3.json")],
    "enum-subs-path3": ["enum-subs", "--structure", _data("path3.json")],
    "find-hom-free-algebra-map": [
        "find-hom", "--source", _data("path3.json"), "--target", _data("triangle.json"),
        "--free-algebra-map",
    ],
    "find-embed-found": [
        "find-embed", "--source", _data("edgeless2.json"), "--target", _data("edgeless3.json"),
    ],
    "find-embed-none": ["find-embed", "--source", _data("path3.json"), "--target", _data("edgeless3.json")],
    "diagram-diag-connectives": [
        "diagram", "--structure", _data("edgeless2.json"), "--connective-depth", "1",
    ],
    "diagram-eldiag": ["diagram", "--kind", "eldiag", "--structure", _data("edgeless2.json")],
    "equiv-base-language": [
        "equiv", "--left", _data("structure_m.json"), "--right", _data("structure_n.json"),
    ],
    "equiv-truth-constants": [
        "equiv", "--left", _data("structure_m.json"), "--right", _data("structure_n.json"),
        "--truth-constants",
    ],
    "union-chain": ["union", "--chain", CHAIN],
    "counterexample": ["counterexample"],
    # fixed suites: they ignore --seed and --instances
    "verify-bounded-consequence": ["verify", "--suite", "bounded-consequence"],
    "verify-cor1-equivalence": ["verify", "--suite", "cor1-equivalence"],
    "verify-counterexample": ["verify", "--suite", "counterexample"],
    "verify-algebra-soundness": ["verify", "--suite", "algebra-soundness"],
}
for _seed in range(3):
    for _suite in ("amalgamation", "unions-chain-lemma", "los-tarski-lemma", "parser-roundtrip"):
        CASES[f"verify-{_suite}-{_seed}"] = ["verify", "--suite", _suite, "--seed", str(_seed)]
    # the control's report lists every violation: 0.5 MB a seed at the default 50 instances
    CASES[f"verify-exists-negative-control-{_seed}"] = [
        "verify", "--suite", "exists-negative-control", "--seed", str(_seed), "--instances", "5",
    ]


def report(name: str, workdir: Path) -> str:
    """The JSON report of one case; its `ok` field fixes the exit code."""
    chain = workdir / CHAIN
    chain.write_text(json.dumps([_data("edgeless2.json"), _data("edgeless3.json")]))
    argv = [str(chain) if arg == CHAIN else arg for arg in CASES[name]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(argv + ["--format", "json"])
    return out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, tmp_path):
    assert report(name, tmp_path) == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")


def test_a_verify_report_does_not_depend_on_the_hash_seed():
    # value classes are interned by their bytes, whose hashes change with PYTHONHASHSEED
    src = Path(__file__).resolve().parents[1] / "src"
    argv = [sys.executable, "-m", "gradedmt.cli", "verify", "--suite", "unions-chain-lemma", "--instances", "10",
            "--seed", "1", "--format", "json"]
    outs = [subprocess.run(argv, capture_output=True, check=True, timeout=120,
                           env={**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": seed}).stdout
            for seed in ("0", "12345")]
    assert json.loads(outs[0])["ok"] and outs[0] == outs[1]


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            (GOLDEN / f"{case}.json").write_text(report(case, Path(tmp)), encoding="utf-8")
