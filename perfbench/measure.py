"""The timed phase of one workload: a closed loop with one client.

Untraced: cycle through the inputs until the given seconds have passed,
sampling the machine-speed reference (reference.py) about once a second;
times are reported at the reference speed, and raw beside them. Traced:
alternate an untraced and a traced pass over the first ``trace_ops`` inputs
until the seconds have passed, at least one pass of each. A traced
pass runs the same operations with the program's functions wrapped in spans
(spans.instrument); its results must equal the untraced ones bit for bit,
and the spans are written to ``spans.jsonl`` in the work directory.
"""

import resource
import time
from collections import Counter
from pathlib import Path
from statistics import median, quantiles

import reference
from gradfit.errors import GradfitError
from spans import Tracer, instrument
from workloads import CheckFailed, OpFailed

BLOCK_S = 1.0     # operations between two samples of the speed reference


class Loop:
    """Runs operations, keeping latencies, outputs and failures.

    An operation fails when it raises or when its result reports a failure
    (``OpFailed``, such as a fit that did not converge). It is also wrong
    when it raises anything but a typed gradfit error, when its output fails
    its check, or when the same input gave a different result before."""

    def __init__(self, wl, inputs):
        self.wl, self.inputs = wl, inputs
        self.latencies, self.outputs, self.runs = [], {}, Counter()
        self.failed, self.wrong, self.failures = 0, 0, []

    def _fail(self, i, msg, count=1, wrong=False):
        self.failed += count
        self.wrong += count if wrong else 0
        self.failures.append(f"input {i}: {msg}")

    def one(self, i):
        inp = self.inputs[i]
        t0 = time.perf_counter()
        try:
            out = self.wl.run(inp)
        except Exception as exc:  # a failed operation is counted, not fatal
            self._fail(i, f"{type(exc).__name__}: {exc}",
                       wrong=not isinstance(exc, GradfitError))
            return time.perf_counter()
        t1 = time.perf_counter()
        self.latencies.append(t1 - t0)
        key = self.wl.key(out)
        if i not in self.outputs:
            self.outputs[i] = (key, out)
        elif self.outputs[i][0] != key:
            self._fail(i, "result differs from an earlier run", wrong=True)
        self.runs[i] += 1
        return t1

    def check(self):
        """Check each distinct output once; it counts for every run of it."""
        for i, (_, out) in sorted(self.outputs.items()):
            try:
                self.wl.check(self.inputs[i], out)
            except OpFailed as exc:
                self._fail(i, str(exc), self.runs[i])
            except CheckFailed as exc:
                self._fail(i, f"wrong: {exc}", self.runs[i], wrong=True)


def _p90(values):
    return quantiles(values, n=10, method="inclusive")[-1] if len(values) > 1 \
        else values[0]


def _warm_up(wl, inputs):
    # lazy set-up inside the program and numpy finishes before the clock
    # starts; csv_1e6 has none, as each CLI run pays it
    for inp in inputs[:wl.warmup]:
        wl.run(inp)


def _times(lat, elapsed) -> dict:
    return {"op_p50_s": median(lat) if lat else 0.0,
            "op_p90_s": _p90(lat) if lat else 0.0,
            "ops_per_s": len(lat) / elapsed}


def run_untraced(wl, inputs, seconds):
    """Operations in blocks of at least ``BLOCK_S``, with the machine-speed
    reference sampled between blocks; times are given at the reference
    speed (reference.py), each block scaled by the samples around it."""
    _warm_up(wl, inputs)
    reference.sample()  # warm-up
    loop = Loop(wl, inputs)
    refs = [reference.sample()]
    blocks = []     # (first latency, end latency, block seconds)
    start = now = time.perf_counter()
    i = 0
    while now - start < seconds:
        first, block_start = len(loop.latencies), now
        while now - block_start < BLOCK_S:
            now = loop.one(i % len(inputs))
            i += 1
        blocks.append((first, len(loop.latencies), now - block_start))
        refs.append(reference.sample())
        now = time.perf_counter()
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    loop.check()
    lat, scaled, elapsed, scaled_elapsed = loop.latencies, [], 0.0, 0.0
    for k, (lo, hi, secs) in enumerate(blocks):
        f = reference.scale(refs[k], refs[k + 1])
        scaled += [t * f for t in lat[lo:hi]]
        elapsed += secs
        scaled_elapsed += secs * f
    return {
        "attempted": i,
        "failed": loop.failed,
        "wrong": loop.wrong,
        "failures": loop.failures[:5],
        "metrics": {**_times(scaled, scaled_elapsed), "peak_rss_mb": peak},
        "raw": _times(lat, elapsed),
        "reference_s": median(refs),
    }


def run_traced(wl, inputs, seconds, work: Path):
    inputs = inputs[:wl.trace_ops]
    _warm_up(wl, inputs)
    plain, traced, tracer = Loop(wl, inputs), Loop(wl, inputs), Tracer()
    start = time.perf_counter()
    passes = 0
    while passes == 0 or time.perf_counter() - start < seconds:
        for i in range(len(inputs)):
            plain.one(i)
        with instrument(tracer):
            for i in range(len(inputs)):
                tracer.op = passes * len(inputs) + i
                traced.one(i)
        passes += 1
    tracer.dump(work / "spans.jsonl")
    plain.check()
    traced.check()
    differ = sum(1 for i, (key, _) in traced.outputs.items()
                 if i not in plain.outputs or plain.outputs[i][0] != key)
    extra = {}
    if hasattr(wl, "ingest_peak_mb"):
        extra["datagen.ingest_peak_mb"] = wl.ingest_peak_mb(inputs[0])
    return {
        "attempted": 2 * passes * len(inputs),
        "failed": plain.failed + traced.failed,
        "wrong": plain.wrong + traced.wrong + differ,
        "traced_differs": differ,
        "failures": (plain.failures + traced.failures)[:5],
        "passes": passes,
        "ops_per_pass": len(inputs),
        "untraced_op_p50_s": median(plain.latencies) if plain.latencies else 0.0,
        "traced_op_p50_s": median(traced.latencies) if traced.latencies else 0.0,
        "extra": extra,
    }
