"""In-memory span tracing for the benchmark's traced child, and layer metrics.

The traced child installs wrappers around the public entry point of each
layer (:data:`FUNCTION_TARGETS`, :data:`METHOD_TARGETS` and every
``Scenario`` subclass).  A wrapper records one span — name, start, end,
parent — per call; spans stay in a list until the child writes them to
``trace-<workload>.json`` at exit.  Timed children install nothing.

:func:`layer_metrics` turns one trace file into the per-layer numbers the
benchmark reports.  A layer's *self* time is its span durations minus the
part of each span that its child spans cover; an *inclusive* time sums only
the outermost span of a layer, so a layer that calls itself is not counted
twice.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time
from typing import Callable, Dict, Iterable, Iterator, List, Tuple

#: Module-level functions to wrap: (module, function, span name).  Each is
#: replaced at every module-level binding of the same object under
#: ``repro.*`` (``from x import f`` copies included), so every caller sees
#: the wrapper whichever name it looks the function up by.
FUNCTION_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.sim.kernels", "plan_stream", "sim.kernels.plan"),
    ("repro.sim.kernels", "iter_slabs", "sim.kernels.slab"),
    ("repro.sim.kernels", "stream_packed_bits", "sim.visibility.pack"),
    ("repro.sim.visibility", "packed_visibility", "sim.visibility.build"),
    ("repro.sim.intervals", "find_contact_intervals", "sim.intervals.build"),
)

#: Methods to wrap on their defining class: (module, class, methods, span name).
METHOD_TARGETS: Tuple[Tuple[str, str, Tuple[str, ...], str], ...] = (
    ("repro.experiments.common", "ExperimentContext", ("pool",), "constellation.pool"),
    (
        "repro.orbits.propagator", "BatchPropagator",
        ("unit_positions_eci_unspanned",), "orbits.eci",
    ),
    ("repro.orbits.propagator", "BatchPropagator", ("unit_positions_at",), "orbits.refine_eval"),
    (
        "repro.sim.visibility", "PackedVisibility",
        (
            "site_mask", "site_masks", "coverage_fractions",
            "satellite_active_fractions", "satellite_masks",
        ),
        "sim.visibility.reduce",
    ),
    (
        "repro.sim.kernels.subsets", "SubsetQuery",
        ("build", "from_visibility"), "sim.subsets.build",
    ),
    (
        "repro.sim.kernels.subsets", "SubsetQuery",
        ("coverage_fractions", "satellite_active_fractions", "visible_counts",
         "k_coverage_fraction"),
        "sim.subsets.query",
    ),
    (
        "repro.sim.intervals", "ContactIntervals",
        (
            "site_union", "satellite_union", "coverage_fractions",
            "satellite_active_fractions", "visible_count_steps",
            "k_coverage_fraction", "sample_counts", "restrict",
        ),
        "sim.intervals.query",
    ),
    (
        "repro.sim.intervals", "IntervalSubsetQuery",
        ("from_contacts", "coverage_fractions", "satellite_active_fractions",
         "k_coverage_fraction"),
        "sim.intervals.query",
    ),
)

#: ``Scenario`` methods and the span each records, wrapped on every class
#: of the hierarchy that defines them.
SCENARIO_METHODS: Dict[str, str] = {
    "run_one": "runner.run",
    "prepare": "runner.prepare",
    "reduce": "runner.reduce",
    "finalize": "runner.reduce",
}


class Tracer:
    """Records nested spans in memory; one instance per traced child."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        #: [name, start, end, parent index or None] per span, in start order.
        self.records: List[list] = []
        self._stack: List[int] = []

    def begin(self, name: str) -> int:
        index = len(self.records)
        parent = self._stack[-1] if self._stack else None
        self.records.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.records[index][2] = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} ended while span {popped} was open")

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def wrap(self, fn: Callable, name: str) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)

        return traced

    def wrap_generator(self, fn: Callable, name: str) -> Callable:
        """Wrap a generator function: one span per ``next()`` that yields."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            try:
                while True:
                    index = self.begin(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        self.end(index)
                        # The exhausted next() produced no item; drop its
                        # span unless traced work happened inside it.
                        if index == len(self.records) - 1:
                            self.records.pop()
                        return
                    self.end(index)
                    yield item
            finally:
                inner.close()

        return traced

    def install(self) -> None:
        """Wrap every target.

        The caller must already have imported every ``repro`` module whose
        bindings should be patched.
        """
        import importlib

        from repro.runner.scenario import Scenario

        for module_name, attr, name in FUNCTION_TARGETS:
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = (
                self.wrap_generator(original, name)
                if inspect.isgeneratorfunction(original)
                else self.wrap(original, name)
            )
            for module in list(sys.modules.values()):
                if not getattr(module, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
        for module_name, class_name, methods, name in METHOD_TARGETS:
            cls = getattr(importlib.import_module(module_name), class_name)
            for method in methods:
                self._wrap_method(cls, method, name)
        pending = [Scenario]
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            for method, name in SCENARIO_METHODS.items():
                if method in vars(cls):
                    self._wrap_method(cls, method, name)

    def _wrap_method(self, cls: type, method: str, name: str) -> None:
        raw = inspect.getattr_static(cls, method)
        if isinstance(raw, classmethod):
            setattr(cls, method, classmethod(self.wrap(raw.__func__, name)))
        elif isinstance(raw, staticmethod):
            setattr(cls, method, staticmethod(self.wrap(raw.__func__, name)))
        elif inspect.isfunction(raw):
            setattr(cls, method, self.wrap(raw, name))
        else:
            raise TypeError(f"cannot trace {cls.__name__}.{method}: {type(raw).__name__}")

    def write(self, path: str, counters: Dict[str, float]) -> None:
        """Write the spans (ids are list positions) and counters as JSON."""
        open_spans = [index for index, record in enumerate(self.records) if record[2] is None]
        if open_spans:
            raise RuntimeError(f"{len(open_spans)} spans still open at exit")
        document = {
            "workload": self.workload,
            "counters": counters,
            "spans": [
                {"id": index, "name": name, "start": start, "end": end,
                 "parent": parent, "workload": self.workload}
                for index, (name, start, end, parent) in enumerate(self.records)
            ],
        }
        # json.dumps runs the C encoder; json.dump to a file does not, and
        # would add ~50 ms per 10 000 spans to the traced child's wall.
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(document))


# -- analysis ---------------------------------------------------------------


def self_times(spans: List[dict]) -> List[float]:
    """Each span's duration minus the union of its direct children's intervals."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for record in spans:
        if record["parent"] is not None:
            children.setdefault(record["parent"], []).append((record["start"], record["end"]))
    result = []
    for record in spans:
        start, end = record["start"], record["end"]
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(record["id"], ())):
            child_start = max(child_start, cursor)
            child_end = min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        result.append((end - start) - covered)
    return result


def _percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


#: Layer metric -> (unit, kind, span names).  ``incl`` sums outermost spans,
#: ``self`` sums self time, ``count`` counts spans.
SPAN_METRICS: Dict[str, Tuple[str, str, Tuple[str, ...]]] = {
    "setup.import_s": ("s", "incl", ("setup.import",)),
    "constellation.pool_s": ("s", "incl", ("constellation.pool",)),
    "orbits.eci_s": ("s", "incl", ("orbits.eci",)),
    "orbits.eci_calls": ("count", "count", ("orbits.eci",)),
    "sim.kernels.plan_s": ("s", "incl", ("sim.kernels.plan",)),
    "sim.kernels.slab_self_s": ("s", "self", ("sim.kernels.slab",)),
    "sim.kernels.slabs": ("count", "count", ("sim.kernels.slab",)),
    "sim.visibility.pack_self_s": ("s", "self", ("sim.visibility.build", "sim.visibility.pack")),
    "sim.intervals.build_s": ("s", "incl", ("sim.intervals.build",)),
    "orbits.refine_eval_s": ("s", "incl", ("orbits.refine_eval",)),
    "sim.visibility.reduce_s": ("s", "incl", ("sim.visibility.reduce",)),
    "sim.visibility.reduce_calls": ("count", "count", ("sim.visibility.reduce",)),
    "sim.subsets.build_s": ("s", "incl", ("sim.subsets.build",)),
    "sim.subsets.query_s": ("s", "incl", ("sim.subsets.query",)),
    "sim.subsets.queries": ("count", "count", ("sim.subsets.query",)),
    "sim.intervals.query_s": ("s", "incl", ("sim.intervals.query",)),
    "sim.intervals.queries": ("count", "count", ("sim.intervals.query",)),
    # Engine-neutral views of the contact store: the grid engine's packed
    # tensor or the intervals engine's CSR windows, whichever the workload
    # runs.  These are non-zero on every workload.
    "sim.store.build_self_s": (
        "s", "self", ("sim.visibility.build", "sim.visibility.pack", "sim.intervals.build"),
    ),
    "sim.store.query_s": (
        "s", "incl", ("sim.visibility.reduce", "sim.subsets.query", "sim.intervals.query"),
    ),
    "sim.store.queries": (
        "count", "count", ("sim.visibility.reduce", "sim.subsets.query", "sim.intervals.query"),
    ),
    "runner.runs": ("count", "count", ("runner.run",)),
    "runner.run_self_s": ("s", "self", ("runner.run",)),
    "runner.prepare_s": ("s", "incl", ("runner.prepare",)),
    "runner.reduce_s": ("s", "incl", ("runner.reduce",)),
}

#: Counters the traced child records itself -> unit.
COUNTER_UNITS: Dict[str, str] = {
    "sim.visibility.store_mib": "MiB",
    "sim.intervals.store_mib": "MiB",
    "sim.intervals.windows": "count",
    "sim.store.mib": "MiB",
    "obs.spans_dropped": "count",
}


def _outermost(spans: List[dict], names: Iterable[str]) -> List[int]:
    """Indices of spans named in ``names`` with no ancestor in ``names``."""
    wanted = set(names)
    by_id = {record["id"]: record for record in spans}
    result = []
    for record in spans:
        if record["name"] not in wanted:
            continue
        parent = record["parent"]
        while parent is not None and by_id[parent]["name"] not in wanted:
            parent = by_id[parent]["parent"]
        if parent is None:
            result.append(record["id"])
    return result


def layer_metrics(trace: dict) -> Dict[str, Dict[str, float]]:
    """Per-layer metrics of one trace document, as ``{name: {value, unit}}``."""
    spans = trace["spans"]
    own = self_times(spans)
    metrics: Dict[str, Dict[str, float]] = {}
    for metric, (unit, kind, names) in SPAN_METRICS.items():
        wanted = set(names)
        if kind == "count":
            value: float = sum(1 for record in spans if record["name"] in wanted)
        elif kind == "self":
            value = sum(
                own[index] for index, record in enumerate(spans) if record["name"] in wanted
            )
        else:
            value = sum(
                spans[index]["end"] - spans[index]["start"]
                for index in _outermost(spans, names)
            )
        metrics[metric] = {"value": value, "unit": unit}
    runs = [
        record["end"] - record["start"] for record in spans if record["name"] == "runner.run"
    ]
    metrics["runner.run_p50_s"] = {"value": _percentile(runs, 50), "unit": "s"}
    metrics["runner.run_p90_s"] = {"value": _percentile(runs, 90), "unit": "s"}
    for record in spans:
        if record["parent"] is None and record["name"].startswith("experiments."):
            metrics[record["name"] + "_s"] = {
                "value": record["end"] - record["start"], "unit": "s",
            }
    for name, unit in COUNTER_UNITS.items():
        metrics[name] = {"value": trace["counters"].get(name, 0), "unit": unit}
    return metrics


def top_level_coverage(trace: dict, measured_s: float) -> float:
    """Share of ``measured_s`` (setup + analysis) covered by top-level spans."""
    covered = sum(
        record["end"] - record["start"] for record in trace["spans"] if record["parent"] is None
    )
    return covered / measured_s if measured_s > 0 else 0.0
