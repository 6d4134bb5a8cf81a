"""Span recording for the traced benchmark run.

Wrappers are installed from outside the library: every public function of
the instrumented starlat modules is replaced, in every module namespace that
binds it, by a wrapper that records a span around the call.  Spans are
aggregated as they close: a span's self time is its duration minus the time
covered by its child spans, so the self times of all spans opened inside the
benchmark's own root span add up to the root span's duration.
"""

from __future__ import annotations

import dataclasses
import inspect
import time
from collections import defaultdict
from contextlib import contextmanager

import starlat
from starlat import bodies, haar, lattice, minima, partition, stats

MODULES = {"lattice": lattice, "haar": haar, "bodies": bodies,
           "minima": minima, "stats": stats, "partition": partition}
ROOT = "bench.op"


def _rows(x) -> int:
    shape = getattr(x, "shape", ())
    return int(shape[0]) if len(shape) > 1 else 1


class Tracer:
    """Aggregated spans (calls and self time per name) plus named counters."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []   # [name, start, time covered by children]

    def under(self, name: str) -> bool:
        """True when a span with this name is open on the current stack."""
        return any(frame[0] == name for frame in self._stack)

    def op_span(self):
        """The benchmark's root span around one operation."""
        return self.span(ROOT)

    @contextmanager
    def span(self, name: str):
        frame = [name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            yield
        finally:
            dur = time.perf_counter() - frame[1]
            self._stack.pop()
            self.calls[name] += 1
            self.self_s[name] += dur - frame[2]
            if self._stack:
                self._stack[-1][2] += dur

    def wrap(self, name, fn, hook=None):
        """Callable recording a span per call.  `name` is a string or a
        function of the call arguments; `hook(args, kwargs, result)` runs
        inside the span after a successful call to update counters."""

        def traced(*args, **kwargs):
            key = name if isinstance(name, str) else name(args, kwargs)
            with self.span(key):
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(args, kwargs, result)
                return result

        traced.__wrapped__ = fn
        return traced

    # -- counter hooks for the layers whose work is counted -----------------

    def _hooks(self):
        c = self.counts

        def enum_key(args, kwargs):
            return f"lattice.enumerate_ball_arrays.d{args[0].dim}"

        def enum_points(args, kwargs, result):
            n = len(result[0])
            c[f"lattice.enumerate_ball_arrays.d{args[0].dim}.points"] += n
            if self.under("minima.successive_minima_exact"):
                c["minima.exact.enum_calls"] += 1
                c["minima.exact.enumerated"] += n
            if self.under("stats.count_primitive"):
                c["stats.count_primitive.enumerated"] += n

        def sampled(args, kwargs, result):
            c["haar.sample_unimodular_2d_arrays.lattices"] += len(result[3])

        def minima_found(args, kwargs, result):
            c["minima.exact.witnesses"] += sum(
                w is not None for w in result.witnesses)

        def counted(args, kwargs, result):
            c["stats.count_primitive.counted"] += result

        def witnesses(args, kwargs, result):
            c["partition.extract_witnesses.tuples"] += len(result.tuples)
            c["partition.extract_witnesses.shells"] += len(args[1])

        return {
            "lattice.enumerate_ball_arrays": (enum_key, enum_points),
            "haar.sample_unimodular_2d_arrays": (None, sampled),
            "minima.successive_minima_exact": (None, minima_found),
            "stats.count_primitive": (None, counted),
            "partition.extract_witnesses": (None, witnesses),
        }

    @contextmanager
    def installed(self):
        """Replace the public functions of every instrumented module, in all
        namespaces that bind them, for the duration of the block."""
        hooks = self._hooks()
        wrappers = {}
        for short, mod in MODULES.items():
            for attr, fn in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                name = f"{short}.{attr}"
                key, hook = hooks.get(name, (None, None))
                wrappers[fn] = self.wrap(key or name, fn, hook)
        saved = []
        for mod in (starlat, *MODULES.values()):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    saved.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        try:
            yield self
        finally:
            for mod, attr, obj in saved:
                setattr(mod, attr, obj)

    # -- bodies built by the benchmark --------------------------------------

    def body(self, f):
        """Copy of a DistanceFunction whose evaluator records spans."""

        def points(args, kwargs, result):
            self.counts["bodies.evaluator.points"] += _rows(args[0])

        return dataclasses.replace(
            f, evaluator=self.wrap("bodies.evaluator", f.evaluator, points))

    def predicate(self, pred):
        """Membership predicate of a witness-pipeline body, traced; calls made
        while shells are built are counted as Monte Carlo work."""

        def points(args, kwargs, result):
            if self.under("partition.build_shells"):
                self.counts["partition.build_shells.body_calls"] += 1
                self.counts["partition.build_shells.mc_points"] += len(args[0])

        return self.wrap("partition.body", pred, points)


# Per-layer metrics and the end-to-end metric each should move (workload in
# brackets).  Self times are span time minus child-span time.
#   lattice  make_lattice, enumerate_ball_arrays.d2, primitive_mask
#              -> lattices_per_s [meanvalue, decay]
#            enumerate_ball_arrays.d3 -> query_p50_ms, wall_s [exact_minima]
#   haar     sample_unimodular_2d_arrays -> nothing: a control, under 1%
#   bodies   evaluator -> lattices_per_s, peak_rss_mb [decay]
#            boundedness_floor -> query_p90_ms [exact_minima]
#   minima   successive_minima_exact, exact.enum_calls_per_query,
#            useful_per_enumerated -> query_p50_ms, wall_s [exact_minima]
#            minima_upper_bound -> nothing yet: no workload calls it
#   stats    count_primitive, rogers_moment_report, counted_per_enumerated
#              -> lattices_per_s [meanvalue]
#            theorem2_experiment (lambda-hat_2 selection and the loop)
#              -> lattices_per_s, peak_rss_mb [decay]
#   partition build_shells, sample_shell_points, two_line_equipartition
#              -> shells_s, wall_s [witness]
#            transversal_check, extract_witnesses, witness_yield
#              -> lattices_per_s [witness]
#   trace    overhead_frac, unattributed_frac -> nothing
PER_LAYER = {
    "lattice.make_lattice.calls": "count",
    "lattice.make_lattice.self_s": "s",
    "lattice.enumerate_ball_arrays.d2.calls": "count",
    "lattice.enumerate_ball_arrays.d2.self_s": "s",
    "lattice.enumerate_ball_arrays.d2.points": "count",
    "lattice.enumerate_ball_arrays.d3.calls": "count",
    "lattice.enumerate_ball_arrays.d3.self_s": "s",
    "lattice.enumerate_ball_arrays.d3.points": "count",
    "lattice.primitive_mask.self_s": "s",
    "haar.sample_unimodular_2d_arrays.self_s": "s",
    "haar.sample_unimodular_2d_arrays.lattices": "count",
    "bodies.evaluator.points": "count",
    "bodies.evaluator.self_s": "s",
    "bodies.boundedness_floor.calls": "count",
    "bodies.boundedness_floor.self_s": "s",
    "minima.successive_minima_exact.self_s": "s",
    "minima.exact.enum_calls_per_query": "ratio",
    "minima.minima_upper_bound.self_s": "s",
    "minima.useful_per_enumerated": "ratio",
    "stats.count_primitive.calls": "count",
    "stats.count_primitive.self_s": "s",
    "stats.rogers_moment_report.self_s": "s",
    "stats.theorem2_experiment.self_s": "s",
    "stats.counted_per_enumerated": "ratio",
    "partition.build_shells.self_s": "s",
    "partition.build_shells.body_calls": "count",
    "partition.build_shells.mc_points": "count",
    "partition.sample_shell_points.self_s": "s",
    "partition.two_line_equipartition.self_s": "s",
    "partition.transversal_check.self_s": "s",
    "partition.extract_witnesses.calls": "count",
    "partition.extract_witnesses.self_s": "s",
    "partition.witness_yield": "ratio",
    "trace.overhead_frac": "ratio",
    "trace.unattributed_frac": "ratio",
}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tr: Tracer, rounds: int, ops, traced) -> dict:
    """{name: (value, unit)} for every PER_LAYER metric, per round of
    operations.  `ops` and `traced` are the same operations run without and
    with tracing, `rounds` times each."""
    c = tr.counts
    untraced_s = sum(op.time for op in ops if op.error is None)
    traced_s = sum(op.time for op in traced if op.error is None)
    derived = {
        "minima.exact.enum_calls_per_query": _ratio(
            c["minima.exact.enum_calls"],
            tr.calls["minima.successive_minima_exact"]),
        "minima.useful_per_enumerated": _ratio(
            c["minima.exact.witnesses"], c["minima.exact.enumerated"]),
        "stats.counted_per_enumerated": _ratio(
            c["stats.count_primitive.counted"],
            c["stats.count_primitive.enumerated"]),
        "partition.witness_yield": _ratio(
            c["partition.extract_witnesses.tuples"],
            c["partition.extract_witnesses.shells"]),
        "trace.overhead_frac": _ratio(traced_s - untraced_s, untraced_s),
        "trace.unattributed_frac": _ratio(tr.self_s[ROOT],
                                          sum(tr.self_s.values())),
    }
    out = {}
    for name, unit in PER_LAYER.items():
        if name in derived:
            value = derived[name]
        elif name.endswith(".calls"):
            value = tr.calls[name[:-len(".calls")]] // rounds
        elif name.endswith(".self_s"):
            value = tr.self_s[name[:-len(".self_s")]] / rounds
        else:
            value = c[name] // rounds
        out[name] = (value, unit)
    return out
