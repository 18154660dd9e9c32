"""In-memory span recorder for the traced run, and the per-layer reduction.

A span is one call into a layer: its name, start and end on the monotonic
clock, the index of the span that enclosed it, the operation it belongs to,
and a few counts taken from the call's return value (points accumulated,
Newton iterations, ...). ``instrument`` records them by wrapping the
program's own functions where the program looks them up at call time, so a
traced operation runs exactly the code of an untraced one. Spans stay in a
list until the run ends and are then written out as JSON lines; per-layer
numbers are computed from that file, by self time: a span's duration minus
the durations of its children.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from statistics import median


class Tracer:
    """Records spans of one single-threaded run."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []

    @contextmanager
    def span(self, name):
        """Time the enclosed block; yields the span's dict of counts to fill in."""
        attrs = {}
        idx = len(self.spans)
        rec = {"name": name, "op": self.op,
               "parent": self._stack[-1] if self._stack else None,
               "attrs": attrs}
        self.spans.append(rec)
        self._stack.append(idx)
        rec["start"] = time.perf_counter()
        try:
            yield attrs
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, fn, counts=None):
        """``fn`` inside a span; ``counts(result)`` gives the span's counts."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as attrs:
                result = fn(*args, **kwargs)
                if counts is not None:
                    attrs.update(counts(result))
            return result
        return traced

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def _fit_counts(result) -> dict:
    return {"iterations": result.iterations,
            "nonconverged": int(not result.converged),
            "iteration_seconds": list(result.iteration_seconds)}


def _found(result) -> dict:
    return {"found": int(result is not None)}


def _targets():
    """(owner, attribute, span name, counts) of every wrapped function.

    The owner is where the caller finds the function: the ``gradfit``
    package for the workloads' own calls, ``gradfit.cli`` for what
    ``cmd_fit`` calls, ``gradfit.analyzer`` for what ``decide_reduction``
    calls, and the class for methods."""
    import gradfit
    import gradfit.analyzer
    import gradfit.cli
    return [
        (gradfit.cli, "main", "cli.main", None),
        (gradfit.cli, "ingest", "datagen.ingest", lambda pts: {"points": len(pts)}),
        (gradfit.MomentVector, "from_points", "moments.accumulate",
         lambda mv: {"points": mv.n}),
        (gradfit.cli, "fit_circle_reduced", "fitters.reduced", _fit_counts),
        (gradfit, "fit_circle_reduced", "fitters.reduced", _fit_counts),
        (gradfit, "fit_reduced_generic", "fitters.generic", _fit_counts),
        (gradfit.CurveFamily, "poly", "families.poly", None),
        (gradfit, "gradient_norm_squared", "poly.gradient_norm_squared", None),
        (gradfit.analyzer, "find_common_zero", "analyzer.witness_search", _found),
        (gradfit.analyzer, "solve_nullstellensatz", "analyzer.certificate", _found),
    ]


@contextmanager
def instrument(tracer: Tracer):
    """Wrap the program functions of ``_targets`` in spans of ``tracer`` for
    the duration of the block, and put the originals back after it."""
    saved = []
    try:
        for owner, attr, name, counts in _targets():
            orig = vars(owner)[attr]
            if isinstance(orig, classmethod):
                wrapped = classmethod(tracer.wrap(name, orig.__func__, counts))
            else:
                wrapped = tracer.wrap(name, orig, counts)
            setattr(owner, attr, wrapped)
            saved.append((owner, attr, orig))
        yield tracer
    finally:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)


def load(path) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def self_times(spans) -> list:
    """Self time of each span, in the order given."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def _per_op(spans, own) -> dict:
    """{op id: {span name: [(self seconds, span), ...]}}."""
    ops: dict = {}
    for s, t in zip(spans, own):
        ops.setdefault(s["op"], {}).setdefault(s["name"], []).append((t, s))
    return ops


def _median_or_zero(values) -> float:
    return float(median(values)) if values else 0.0


def layer_metrics(spans, ops_per_pass: int) -> dict:
    """The per-layer metrics of BENCHMARK.json from one traced run.

    Times are medians, over the traced operations that entered the layer,
    of the time one operation spent there. Counts are totals over one pass
    of the fixed traced operation set (the first ``ops_per_pass`` ops);
    every pass replays the same inputs, so they repeat exactly.
    """
    own = self_times(spans)
    ops = _per_op(spans, own)

    def times(name):
        return [sum(t for t, _ in by[name]) for by in ops.values() if name in by]

    def attr_list(name, key):
        return [s["attrs"][key] for by in ops.values() for _, s in by.get(name, [])]

    def first_pass_total(name, key):
        return sum(s["attrs"][key] for op, by in ops.items() if op < ops_per_pass
                   for _, s in by.get(name, []))

    acc_s = sum(t for by in ops.values() for t, _ in by.get("moments.accumulate", []))
    acc_points = sum(attr_list("moments.accumulate", "points"))
    newton = [sum(its) for its in attr_list("fitters.reduced", "iteration_seconds")]
    reduced = times("fitters.reduced")
    return {
        "datagen.ingest_s": _median_or_zero(times("datagen.ingest")),
        "cli.self_s": _median_or_zero(times("cli.main")),
        "moments.accumulate_s": _median_or_zero(times("moments.accumulate")),
        "moments.accumulate_ns_per_point":
            1e9 * acc_s / acc_points if acc_points else 0.0,
        "fitters.reduced_s": _median_or_zero(reduced),
        "fitters.newton_s": _median_or_zero(newton),
        "fitters.reduced_setup_s": _median_or_zero(
            [r - n for r, n in zip(reduced, newton)]),
        "fitters.newton_iterations": first_pass_total("fitters.reduced", "iterations"),
        "fitters.newton_iteration_s": _median_or_zero(
            [t for its in attr_list("fitters.reduced", "iteration_seconds")
             for t in its]),
        "fitters.nonconverged": first_pass_total("fitters.reduced", "nonconverged")
        + first_pass_total("fitters.generic", "nonconverged"),
        "families.poly_s": _median_or_zero(times("families.poly")),
        "poly.gradient_norm_squared_s": _median_or_zero(
            times("poly.gradient_norm_squared")),
        "analyzer.witness_search_s": _median_or_zero(times("analyzer.witness_search")),
        "analyzer.certificate_s": _median_or_zero(times("analyzer.certificate")),
        "analyzer.witnesses": first_pass_total("analyzer.witness_search", "found"),
        "analyzer.certificates": first_pass_total("analyzer.certificate", "found"),
        "fitters.generic_s": _median_or_zero(times("fitters.generic")),
        "fitters.generic_iterations": first_pass_total("fitters.generic", "iterations"),
        "fitters.generic_iteration_s": _median_or_zero(
            [t for its in attr_list("fitters.generic", "iteration_seconds")
             for t in its]),
    }
