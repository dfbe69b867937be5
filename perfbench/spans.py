"""Spans around calls into gradedmt's layers, installed from outside the package.

A traced run replaces selected public functions and methods of gradedmt
with wrappers that time each call, then puts the originals back.  Nothing
under src/ changes.  Spans are aggregated per name as they close, so a run
with millions of calls keeps a few counters instead of every span.

Self time is a span's duration minus the time its child spans cover.  A
generator's span counts only the time spent inside next(), so the work a
caller does between items is not charged to the generator.
"""

import functools
import inspect
import sys
import time
from contextlib import contextmanager

# (module, attribute, metric base, extra statistics reported for it)
# "yielded" counts generator items, or the length of a returned list;
# "hit_ratio" is calls that returned a result other than None, per call;
# any other name is a result field summed over calls.
TARGETS = (
    ("generation", "AssignmentGrid.fold", "generation.AssignmentGrid.fold", ("calls", "self_s")),
    ("generation", "AssignmentGrid.values", "generation.AssignmentGrid.values", ("calls", "self_s")),
    ("generation", "qf_matrices", "generation.qf_matrices", ("calls", "self_s", "yielded")),
    ("generation", "prenex_candidates", "generation.prenex_candidates", ("calls", "self_s", "yielded")),
    ("generation", "elementary_family", "generation.elementary_family", ("calls", "self_s", "yielded")),
    ("generation", "generate_sentences", "generation.generate_sentences", ("calls", "self_s", "yielded")),
    ("generation", "enumerate_structures", "generation.enumerate_structures", ("self_s", "yielded")),
    ("semantics", "Structure.__post_init__", "semantics.Structure.init", ("calls", "self_s")),
    ("semantics", "eval_formula", "semantics.eval_formula", ("calls", "self_s")),
    ("morphisms", "search_structure_map", "morphisms.search_structure_map", ("calls", "self_s", "hit_ratio")),
    ("morphisms", "is_elementary_up_to_depth", "morphisms.is_elementary_up_to_depth",
     ("calls", "self_s", "formulas_checked")),
    ("morphisms", "enumerate_substructures", "morphisms.enumerate_substructures", ("self_s", "yielded")),
    ("diagrams", "cor1_sweep", "diagrams.cor1_sweep", ("self_s", "instances")),
    ("diagrams", "build_diagram", "diagrams.build_diagram", ("calls", "self_s")),
    ("preservation", "implies_exists_n", "preservation.implies_exists_n",
     ("calls", "self_s", "candidates_checked")),
    ("preservation", "search_amalgam", "preservation.search_amalgam", ("self_s", "candidates_tried")),
    ("preservation", "universal_transport_ok", "preservation.universal_transport_ok", ("calls", "self_s")),
    ("consequence", "bounded_consequence", "consequence.bounded_consequence",
     ("self_s", "structures_checked")),
    ("chains", "check_tarski_vaught", "chains.check_tarski_vaught",
     ("calls", "self_s", "quantifier_free_checked")),
    ("chains", "union_of_chain", "chains.union_of_chain", ("self_s",)),
)

TICKS = "budget.BudgetMeter.ticks"
OVERHEAD = "trace.overhead_s"
UNCOVERED = "trace.uncovered_s"

_MARK = "_perfbench_span"


def _unit(stat: str) -> str:
    if stat.endswith("_s"):
        return "s"
    return "ratio" if stat == "hit_ratio" else "count"


def layer_metrics() -> list[tuple[str, str]]:
    """Every per-layer metric a traced run reports, as (name, unit)."""
    out = [(f"{base}.{stat}", _unit(stat)) for _, _, base, stats in TARGETS for stat in stats]
    out += [(TICKS, "count"), (OVERHEAD, "s"), (UNCOVERED, "s")]
    return out


class Tracer:
    """Aggregates spans by name: calls, self time, items and result fields."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._stack = []  # open spans: [name, start, time covered by children]
        self.stats: dict[str, dict[str, float]] = {}
        self.covered_s = 0.0  # time inside spans that have no parent
        self.meters = []
        self.paused = False  # while set, wrappers call straight through

    def stat(self, name: str) -> dict:
        if name not in self.stats:
            self.stats[name] = {"calls": 0, "self_s": 0.0, "yielded": 0, "hits": 0}
        return self.stats[name]

    def enter(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])

    def exit(self) -> None:
        name, start, children = self._stack.pop()
        duration = self.clock() - start
        self.stat(name)["self_s"] += duration - children
        if self._stack:
            self._stack[-1][2] += duration
        else:
            self.covered_s += duration

    def wrap(self, fn, name: str, field: str | None = None):
        """A stand-in for `fn` that records a span per call (per next() for
        generator functions)."""
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            st = tracer.stat(name)
            st["calls"] += 1
            tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit()
            if result is not None:
                st["hits"] += 1
            if isinstance(result, list):
                st["yielded"] += len(result)
            if field is not None:
                st[field] = st.get(field, 0) + getattr(result, field)
            return result

        setattr(traced, _MARK, name)
        return traced

    def _wrap_generator(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.paused:
                yield from fn(*args, **kwargs)
                return
            st = tracer.stat(name)
            st["calls"] += 1
            inner = fn(*args, **kwargs)
            try:
                while True:
                    tracer.enter(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer.exit()
                    st["yielded"] += 1
                    yield item
            finally:
                inner.close()

        setattr(traced, _MARK, name)
        return traced

    def metrics(self, wall_s: float, untraced_wall_s: float) -> dict[str, float]:
        """Per-layer metrics by name, in the order of layer_metrics()."""
        out = {}
        for _, _, base, stats in TARGETS:
            st = self.stat(base)
            for stat in stats:
                if stat == "hit_ratio":
                    value = st["hits"] / st["calls"] if st["calls"] else 0.0
                else:
                    value = st.get(stat, 0)
                out[f"{base}.{stat}"] = value
        out[TICKS] = sum(meter.used for meter in self.meters)
        out[OVERHEAD] = wall_s - untraced_wall_s
        out[UNCOVERED] = wall_s - self.covered_s
        return out


@contextmanager
def paused(tracer: Tracer | None):
    """Calls made inside this block are not traced."""
    if tracer is None:
        yield
        return
    tracer.paused = True
    try:
        yield
    finally:
        tracer.paused = False


def library_modules() -> list:
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "gradedmt" or n.startswith("gradedmt."))]


def _result_field(stats) -> str | None:
    extra = [s for s in stats if s not in ("calls", "self_s", "yielded", "hit_ratio")]
    return extra[0] if extra else None


@contextmanager
def installed(tracer: Tracer):
    """Wrap every target in the loaded gradedmt modules; restore on exit.

    A function imported by name into other modules is replaced in each of
    them, so calls through any import path are seen.
    """
    modules = library_modules()
    by_name = {m.__name__: m for m in modules}
    patches = []  # (owner, attribute, original)
    try:
        for module_name, attr, base, stats in TARGETS:
            module = by_name[f"gradedmt.{module_name}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                patches.append((cls, method, original))
                setattr(cls, method, tracer.wrap(original, base, _result_field(stats)))
                continue
            original = getattr(module, attr)
            wrapper = tracer.wrap(original, base, _result_field(stats))
            for owner in modules:
                for key, value in list(vars(owner).items()):
                    if value is original:
                        patches.append((owner, key, original))
                        setattr(owner, key, wrapper)
        meter_cls = by_name["gradedmt.budget"].BudgetMeter
        original_init = meter_cls.__dict__["__init__"]

        @functools.wraps(original_init)
        def counting_init(self, *args, **kwargs):
            original_init(self, *args, **kwargs)
            if not tracer.paused:
                tracer.meters.append(self)

        setattr(counting_init, _MARK, TICKS)
        patches.append((meter_cls, "__init__", original_init))
        meter_cls.__init__ = counting_init
        yield tracer
    finally:
        for owner, key, original in reversed(patches):
            setattr(owner, key, original)


def leftover_wrappers() -> list[str]:
    """Names of attributes in the loaded gradedmt modules, or their classes,
    that still hold a span wrapper."""
    found = []
    for module in library_modules():
        for key, value in vars(module).items():
            if hasattr(value, _MARK):
                found.append(f"{module.__name__}.{key}")
            if inspect.isclass(value) and value.__module__ == module.__name__:
                for attr, member in vars(value).items():
                    if hasattr(member, _MARK):
                        found.append(f"{module.__name__}.{key}.{attr}")
    return found
