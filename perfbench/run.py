"""Benchmark for gradedmt: time to verdict on three workloads.

    python3 perfbench/run.py --workload fragment --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --compare before.txt after.txt

One run builds the seeded checks of one workload, issues them one after
another from a single caller (a closed loop: the next check goes out only
after the previous verdict), checks every verdict, and prints the metrics.
With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs the
same checks under per-layer spans, then once more without them to measure
the tracing overhead, and prints the per-layer metrics.

The last line of output is one JSON object with the keys correct,
attempted, failed and metrics.  The line before it starts with "record "
and holds the full result (seed, machine, tail percentile, failures);
--compare reads those lines from saved outputs.  See README.md.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 7
TAIL_BEYOND = 10
DIGESTS = HERE / "digests.json"


def machine_record() -> dict:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "loadavg": list(os.getloadavg()),
    }


def load_checked_library():
    """Import gradedmt from this checkout's src/, and nothing else."""
    if not (SRC / "gradedmt" / "__init__.py").is_file():
        raise SystemExit(f"error: no gradedmt package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    g = workloads.load_library()
    if Path(g.__file__).resolve().parent != SRC / "gradedmt":
        raise SystemExit(f"error: imported gradedmt from {g.__file__}, not from {SRC}")
    return g


def set_up(workload: str, seed: int, rounds: int):
    """Import, load the corpus and build the checks SETUP_REPEATS times.

    Returns the last library and checks, and the median set-up time.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        g = load_checked_library()
        checks = workloads.build(g, workload, seed, rounds)
        times.append(time.perf_counter() - start)
    return g, checks, statistics.median(times)


def judge(i: int, check, verdict, error, recorded: dict | None, memo: dict):
    """Compare one verdict with its known answer, then with the digests
    recorded for its round.  Returns (problem or None, digest or None)."""
    if error is not None:
        return f"raised {error}", None
    try:
        text = check.fingerprint(verdict)
        if (i, text) not in memo:
            memo[(i, text)] = check.verify(verdict)
        problem = memo[(i, text)]
    except Exception as exc:  # a verdict the checker cannot read is wrong
        return f"verification raised {type(exc).__name__}: {exc}", None
    d = workloads.digest(check, text)
    expected = (recorded or {}).get(workloads.round_of(check))
    if problem is None and expected is not None and d not in expected:
        problem = f"digest {d} is not among those recorded"
    return problem, d


def run_pass(checks, recorded: dict | None = None, memo: dict | None = None,
             tracer: spans.Tracer | None = None):
    """Issue every check in order, judging each verdict before the next
    check goes out.  Returns the seconds each check took to its verdict,
    the failures as (check id, reason), and the digests.

    Judging is not timed and, in a traced pass, not traced; the verdict is
    dropped once judged, so verdicts do not pile up in memory.
    """
    memo = {} if memo is None else memo
    times, failures, digests = [], [], []
    clock = time.perf_counter
    for i, check in enumerate(checks):
        start = clock()
        try:
            verdict, error = check.call(), None
        except Exception as exc:  # a raising check is a failed check
            verdict, error = None, f"{type(exc).__name__}: {exc}"
        times.append(clock() - start)
        with spans.paused(tracer):
            problem, d = judge(i, check, verdict, error, recorded, memo)
        del verdict
        digests.append(d)
        if problem is not None:
            failures.append((check.id, problem))
    return times, failures, digests


def recorded_digests(workload: str, seed: int) -> dict | None:
    """The digests recorded for a seed: a set per round, or None."""
    if not DIGESTS.is_file():
        return None
    rounds = json.loads(DIGESTS.read_text()).get(workload, {}).get(str(seed))
    return None if rounds is None else {r: set(ds) for r, ds in rounds.items()}


def tail(times: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least TAIL_BEYOND samples above it:
    (value, percentile, samples above).  With too few samples, the maximum."""
    ordered = sorted(times)
    index = max(len(ordered) - TAIL_BEYOND - 1, 0)
    if len(ordered) <= TAIL_BEYOND:
        index = len(ordered) - 1
    return ordered[index], 100.0 * (index + 1) / len(ordered), len(ordered) - index - 1


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def benchmark(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    machine = machine_record()
    rounds = workloads.rounds_for(workload, seconds)
    g, checks, setup_s = set_up(workload, seed, rounds)
    recorded = recorded_digests(workload, seed)
    memo: dict = {}
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "rounds": rounds, "checks": len(checks), "machine": machine,
        "digests": "unrecorded" if recorded is None else "recorded",
    }
    if trace:
        tracer = spans.Tracer()
        with spans.installed(tracer):
            times, failures, _ = run_pass(checks, recorded, memo, tracer)
        record["leftover_wrappers"] = spans.leftover_wrappers()
        plain_times, plain_failures, _ = run_pass(checks, recorded, memo)
        failures += plain_failures
        wall_s, plain_wall_s = sum(times), sum(plain_times)
        if record["leftover_wrappers"]:
            failures.append(("trace", f"wrappers left: {record['leftover_wrappers']}"))
        attempted = 2 * len(checks)
        units = dict(spans.layer_metrics())
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in tracer.metrics(wall_s, plain_wall_s).items()}
        record["wall_s"] = {"traced": wall_s, "untraced": plain_wall_s}
    else:
        times, failures, walls = [], [], []
        for _ in range(workloads.PASSES[workload]):
            t, f, _ = run_pass(checks, recorded, memo)
            times += t
            failures += f
            walls.append(sum(t))
        wall_s = statistics.median(walls)
        record["pass_wall_s"] = walls
        attempted = len(times)
        tail_s, percentile, beyond = tail(times)
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "verdict_p50_s": {"value": statistics.median(times), "unit": "s"},
            "verdict_tail_s": {"value": tail_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        }
        record["tail"] = {"percentile": percentile, "samples": len(times), "beyond": beyond}
    record["attempted"] = attempted
    record["failed"] = len(failures)
    record["error_ratio"] = len(failures) / attempted
    record["failures"] = failures[:20]
    record["metrics"] = metrics
    return record


def print_result(record: dict) -> None:
    for name, m in record["metrics"].items():
        print(f"{name:58s} {m['value']:.6g} {m['unit']}")
    if "tail" in record:
        t = record["tail"]
        print(f"verdict_tail_s is the p{t['percentile']:.1f} of {t['samples']} checks "
              f"({t['beyond']} slower)")
    print(f"{'error_ratio':58s} {record['error_ratio']:.6g} ratio "
          f"({record['failed']} of {record['attempted']} checks failed; "
          f"digests {record['digests']})")
    for check_id, reason in record["failures"]:
        print(f"FAILED {check_id}: {reason}")
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))


# --- comparing two sets of results ---


def read_records(path: str) -> list[dict]:
    out = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("record "):
                out.append(json.loads(line[len("record "):]))
    return out


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    """better, worse, unresolved or within bound, for B against base A."""
    qa, qb = _quartiles(a), _quartiles(b)
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (qb[1] - qa[1]) / qa[1]  # positive means B is worse
    if sign * max(b) < sign * min(a):
        return "better"
    spread = max((qa[2] - qa[0]) / qa[1], (qb[2] - qb[0]) / qb[1])
    if spread > bound:
        return "unresolved"
    if change > bound:
        return "worse"
    wins = sum(1 for x, y in zip(a, b) if sign * y < sign * x)
    if -change * qa[1] > qa[2] - qa[0] and wins >= 0.9 * min(len(a), len(b)):
        return "better"
    return "within bound"


def compare(path_a: str, path_b: str) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    a, b = read_records(path_a), read_records(path_b)
    for wl in workloads.WORKLOADS:
        ra = [r for r in a if r["workload"] == wl and not r["trace"]]
        rb = [r for r in b if r["workload"] == wl and not r["trace"]]
        if ra and rb:
            print(f"{wl}: {len(ra)} runs in A, {len(rb)} in B (median [q1, q3])")
            for m in spec["end_to_end"]:
                va = [r["metrics"][m["name"]]["value"] for r in ra]
                vb = [r["metrics"][m["name"]]["value"] for r in rb]
                qa, qb = _quartiles(va), _quartiles(vb)
                print(f"  {m['name']:15s} A {qa[1]:.5g} [{qa[0]:.5g}, {qa[2]:.5g}]  "
                      f"B {qb[1]:.5g} [{qb[0]:.5g}, {qb[2]:.5g}] {m['unit']}  "
                      f"{verdict(va, vb, m['better'], m['bound'])} (bound {m['bound']})")
            fa = sum(r["failed"] for r in ra), sum(r["attempted"] for r in ra)
            fb = sum(r["failed"] for r in rb), sum(r["attempted"] for r in rb)
            print(f"  {'error_ratio':15s} A {fa[0]}/{fa[1]}  B {fb[0]}/{fb[1]}")
        ta = {r["seed"]: r for r in a if r["workload"] == wl and r["trace"]}
        tb = {r["seed"]: r for r in b if r["workload"] == wl and r["trace"]}
        for seed in sorted(set(ta) & set(tb)):
            ma, mb = ta[seed]["metrics"], tb[seed]["metrics"]
            counts = [n for n, m in ma.items() if m["unit"] == "count" and n in mb]
            moved = [n for n in counts if ma[n]["value"] != mb[n]["value"]]
            print(f"{wl} seed {seed}: {len(counts) - len(moved)} of {len(counts)} counts equal")
            for n in moved:
                print(f"  {n}: {ma[n]['value']} -> {mb[n]['value']}")
    return 0


def record_digests(workload: str, seconds: float, seeds: list[int]) -> int:
    """Run one pass per seed and store its digests in digests.json.  Only
    verdicts that pass their known-answer checks are recorded."""
    table = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    for seed in seeds:
        g = load_checked_library()
        checks = workloads.build(g, workload, seed, workloads.rounds_for(workload, seconds))
        _, failures, digests = run_pass(checks)
        if failures:
            print(f"{workload} seed {seed}: not recorded, {failures[:3]}")
            return 1
        rounds: dict = {}
        for check, d in zip(checks, digests):
            rounds.setdefault(workloads.round_of(check), []).append(d)
        table.setdefault(workload, {})[str(seed)] = {r: sorted(ds) for r, ds in rounds.items()}
        DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
        print(f"{workload} seed {seed}: {len(digests)} digests recorded")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--compare", nargs=2, metavar=("A", "B"),
                   help="compare saved outputs of two sets of runs, B against base A")
    p.add_argument("--record-digests", nargs="+", type=int, metavar="SEED",
                   help="store the verdict digests of these seeds in digests.json")
    args = p.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        p.error("--workload is required")
    if args.record_digests:
        return record_digests(args.workload, args.seconds, args.record_digests)
    print_result(benchmark(args.workload, args.seed, args.seconds, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
