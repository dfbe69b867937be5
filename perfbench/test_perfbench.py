"""Tests of the benchmark itself: span arithmetic, removal of the wrappers,
and that the output check can fail.  Run with

    python3 -m pytest perfbench
"""

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_spans():
    clock = FakeClock()
    tracer = spans.Tracer(clock)
    tracer.enter("outer")
    clock.now = 1.0
    tracer.enter("inner")
    clock.now = 3.0
    tracer.enter("leaf")
    clock.now = 3.5
    tracer.exit()
    clock.now = 4.0
    tracer.exit()
    clock.now = 10.0
    tracer.exit()
    assert tracer.stat("outer")["self_s"] == 7.0
    assert tracer.stat("inner")["self_s"] == 2.5
    assert tracer.stat("leaf")["self_s"] == 0.5
    assert tracer.covered_s == 10.0


def test_generator_span_counts_only_time_inside_next():
    clock = FakeClock()
    tracer = spans.Tracer(clock)

    def gen():
        clock.now += 1.0
        yield "a"
        clock.now += 2.0
        yield "b"
        clock.now += 0.5

    wrapped = tracer.wrap(gen, "gen")
    tracer.enter("caller")
    for _ in wrapped():
        clock.now += 100.0
    tracer.exit()
    st = tracer.stat("gen")
    assert (st["calls"], st["yielded"], st["self_s"]) == (1, 2, 3.5)
    assert tracer.stat("caller")["self_s"] == 200.0
    assert tracer.covered_s == 203.5


def test_abandoned_generator_leaves_no_open_span():
    clock = FakeClock()
    tracer = spans.Tracer(clock)

    def gen():
        clock.now += 1.0
        yield 1
        clock.now += 5.0
        yield 2

    for _ in tracer.wrap(gen, "gen")():
        clock.now += 10.0
        break
    assert tracer.stat("gen")["self_s"] == 1.0
    assert tracer.covered_s == 1.0


def test_tail_has_ten_samples_beyond_it():
    value, percentile, beyond = run.tail([float(x) for x in range(20, 0, -1)])
    assert (value, percentile, beyond) == (10.0, 50.0, 10)


def test_compare_verdicts():
    base = [10.0, 10.1, 9.9, 10.0, 10.2]
    assert run.verdict(base, [8.0, 8.1, 7.9, 8.0, 8.2], "lower", 0.1) == "better"
    assert run.verdict(base, [13.0, 13.1, 12.9, 13.0, 13.2], "lower", 0.1) == "worse"
    assert run.verdict(base, [10.1, 9.9, 10.0, 10.2, 10.0], "lower", 0.1) == "within bound"
    assert run.verdict(base, [5.0, 15.0, 9.0, 12.0, 7.0], "lower", 0.1) == "unresolved"


BUILD = workloads.build


@pytest.fixture
def g():
    return run.load_checked_library()


def _cheap_checks(g, *_):
    """The sweep checks that take milliseconds: refutations and small sweeps."""
    keep = ("refute", "cor1.P.", "cor1.PR.")
    return [c for c in BUILD(g, "sweep", 0, 1) if any(k in c.id for k in keep)]


def test_benchmark_metrics_match_benchmark_json(g, monkeypatch):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    monkeypatch.setattr(workloads, "build", _cheap_checks)
    plain = run.benchmark("sweep", 0, 1, False)
    assert list(plain["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    assert plain["error_ratio"] == 0
    traced = run.benchmark("sweep", 0, 1, True)
    assert list(traced["metrics"]) == [m["name"] for m in spec["per_layer"]]
    assert [m["unit"] for m in traced["metrics"].values()] == [m["unit"] for m in spec["per_layer"]]
    assert traced["leftover_wrappers"] == []
    assert traced["metrics"]["consequence.bounded_consequence.structures_checked"]["value"] > 0


def test_wrappers_are_removed_after_a_traced_pass(g):
    fold = g.generation.AssignmentGrid.__dict__["fold"]
    consequence = g.bounded_consequence
    tracer = spans.Tracer()
    with spans.installed(tracer):
        assert spans.leftover_wrappers()
        assert g.bounded_consequence is not consequence
        run.run_pass(_cheap_checks(g), tracer=tracer)
    assert spans.leftover_wrappers() == []
    assert g.bounded_consequence is consequence
    assert g.consequence.bounded_consequence is consequence
    assert g.generation.AssignmentGrid.__dict__["fold"] is fold
    assert tracer.stat("consequence.bounded_consequence")["calls"] == 2
    assert tracer.stat("semantics.Structure.init")["calls"] > 0


def test_wrappers_are_removed_when_a_traced_call_raises(g):
    with pytest.raises(RuntimeError):
        with spans.installed(spans.Tracer()):
            raise RuntimeError("stop")
    assert spans.leftover_wrappers() == []


def test_corrupted_digest_counts_in_error_ratio(g, monkeypatch):
    checks = _cheap_checks(g)
    _, failures, digests = run.run_pass(checks)
    assert failures == []
    digests[1] = "00000000"
    monkeypatch.setattr(workloads, "build", _cheap_checks)
    monkeypatch.setattr(run, "recorded_digests", lambda *args: {"r0": set(digests)})
    record = run.benchmark("sweep", 0, 1, False)
    passes = workloads.PASSES["sweep"]
    assert record["failed"] == passes
    assert record["error_ratio"] == 1 / len(checks)
    assert {check_id for check_id, _ in record["failures"]} == {checks[1].id}


def _always_holds(monkeypatch, g):
    real = g.bounded_consequence
    monkeypatch.setattr(
        g, "bounded_consequence",
        lambda *args, **kwargs: replace(real(*args, **kwargs), holds=True, countermodel=None),
    )


def test_wrong_verdict_counts_in_error_ratio(g, monkeypatch):
    checks = _cheap_checks(g)
    _, _, digests = run.run_pass(checks)
    _always_holds(monkeypatch, g)
    _, failures, _ = run.run_pass(checks)
    refuted = [c.id for c in checks if "refute" in c.id]
    assert [check_id for check_id, _ in failures] == refuted

    def build_wrong(fresh, *_):
        _always_holds(monkeypatch, fresh)
        return _cheap_checks(fresh)

    monkeypatch.setattr(workloads, "build", build_wrong)
    monkeypatch.setattr(run, "recorded_digests", lambda *args: {"r0": set(digests)})
    record = run.benchmark("sweep", 0, 1, False)
    assert record["error_ratio"] == len(refuted) / len(checks)
