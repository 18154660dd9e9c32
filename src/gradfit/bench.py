"""Timing benchmark: the one-pass reduced circle fit, the certificate-driven
generic fit and the per-point reweight baseline across dataset sizes.

The point of the comparison: after the single accumulation pass the reduced
and generic fits iterate on a fixed set of moments, so their per-iteration
cost is flat in n, while the reweight baseline revisits every point each
iteration. The generic fit minimizes the same circle objective through the
certificate, so its per-iteration time over the reduced fit's is the price
of the generic engine. All reported times are medians over at least five
repetitions on a monotonic clock, with one warm-up run discarded.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass
from statistics import median

import numpy as np

from .analyzer import decide_reduction
from .datagen import SyntheticSpec, generate
from .errors import InvalidSpec
from .families import get_family
from .fitters import CircleParams, FitConfig, fit_circle_reduced, \
    fit_conic_reweight, fit_reduced_generic
from .moments import MomentVector

_TRUE = {"a": 0.3, "b": -0.2, "R": 1.0}
# start away from the optimum so every timed fit performs real iterations
_START = CircleParams(_TRUE["a"] + 0.4, _TRUE["b"] - 0.3, _TRUE["R"] * 1.5)


@dataclass(frozen=True)
class BenchRow:
    algorithm: str
    n: int
    accumulation_seconds: float
    per_iteration_seconds: float
    iterations: int
    total_seconds: float
    objective: float

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class BenchReport:
    rows: tuple
    repetitions: int
    seed: int
    sigma: float

    def to_dict(self) -> dict:
        return asdict(self)

    def row(self, algorithm: str, n: int) -> BenchRow:
        for r in self.rows:
            if r.algorithm == algorithm and r.n == n:
                return r
        raise KeyError((algorithm, n))

    def table(self) -> str:
        head = (f"{'algorithm':<10} {'n':>9} {'accum[s]':>11} "
                f"{'per-iter[s]':>12} {'iters':>6} {'total[s]':>11} "
                f"{'objective':>12}")
        lines = [head, "-" * len(head)]
        for r in self.rows:
            lines.append(
                f"{r.algorithm:<10} {r.n:>9} {r.accumulation_seconds:>11.3e} "
                f"{r.per_iteration_seconds:>12.3e} {r.iterations:>6} "
                f"{r.total_seconds:>11.3e} {r.objective:>12.5e}")
        return "\n".join(lines)


def _time_moments(pts: np.ndarray, fit):
    """One lap of ``fit(mv, cfg)`` on centred degree-4 moments from
    ``_START``: (setup seconds, total seconds, result)."""
    cfg = FitConfig(init=_START)
    t0 = time.perf_counter()
    centroid = (float(pts[:, 0].mean()), float(pts[:, 1].mean()))
    mv = MomentVector.from_points(pts, 4, offset=centroid)
    t1 = time.perf_counter()
    result = fit(mv, cfg)
    t2 = time.perf_counter()
    return t1 - t0, t2 - t0, result


def _time_reduced(pts: np.ndarray):
    return _time_moments(pts, fit_circle_reduced)


def _time_generic(pts: np.ndarray):
    # every circle's certificate has degree 0, all that the generic fit
    # reads of it, so the true circle's serves
    cert = decide_reduction(get_family("circle").poly(_TRUE)).certificate
    return _time_moments(
        pts, lambda mv, cfg: fit_reduced_generic("circle", cert, mv, cfg))


def _time_reweight(pts: np.ndarray):
    t0 = time.perf_counter()
    result = fit_conic_reweight(pts)
    t1 = time.perf_counter()
    # setup + diagnostics
    return (t1 - t0) - sum(result.iteration_seconds), t1 - t0, result


_TIMERS = {"reduced": _time_reduced, "generic": _time_generic,
           "reweight": _time_reweight}


def run_bench(ns, repetitions: int = 5, seed: int = 0,
              sigma: float = 0.01) -> BenchReport:
    ns = [int(n) for n in ns]
    if not ns:
        raise InvalidSpec("need at least one dataset size")
    if any(n < 10 for n in ns):
        raise InvalidSpec(f"dataset sizes must be >= 10, got {ns}")
    if repetitions < 5:
        raise InvalidSpec("medians need at least 5 repetitions")
    data = [generate(SyntheticSpec("circle", _TRUE, n=n, sigma=sigma,
                                   seed=seed + i))
            for i, n in enumerate(ns)]
    laps = {(i, algo): [] for i in range(len(ns)) for algo in _TIMERS}
    # every lap times each algorithm on every size back to back, so the
    # sizes compared in a per-iteration ratio share the machine's state,
    # in an order reversed on alternate laps, so that no size always runs
    # first or after another's work; the first lap is the discarded warm-up
    order = list(enumerate(data))
    for rep in range(repetitions + 1):
        for algo, timer in _TIMERS.items():
            for i, pts in order if rep % 2 else order[::-1]:
                lap = timer(pts)
                if rep:
                    laps[i, algo].append(lap)
    rows = []
    for (i, algo), cell in laps.items():
        setups, totals, results = zip(*cell)
        # per lap, so that a lap the machine slowed as a whole counts once
        iter_samples = [median(r.iteration_seconds) for r in results
                        if r.iteration_seconds]
        rows.append(BenchRow(
            algorithm=algo,
            n=ns[i],
            accumulation_seconds=median(setups),
            per_iteration_seconds=(median(iter_samples)
                                   if iter_samples else math.nan),
            iterations=results[-1].iterations,
            total_seconds=median(totals),
            objective=results[-1].objective,
        ))
    return BenchReport(tuple(rows), repetitions, seed, sigma)
