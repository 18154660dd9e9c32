"""Verdict sweep: float conics over wide coefficient ranges, decided exactly.

Each cell draws float polynomials whose verdict is known in closed form and
counts the analyzer's wrong verdicts, the inputs it could not decide (any
error raised) and the inadmissible verdicts that came without a witness. A
float input is decided on the exact values of its doubles. The cells:

* ellipses    a x^2 + b y^2 - k, a, b, k log-uniform in [1e-4, 1e4];
* hyperbolas  a x^2 - b y^2 - k, drawn the same way;
* circles     radius R log-uniform in [1e-5, 1e3], centre in [-10, 10]^2;
* parabolas   y - c x^2, |c| log-uniform in [1e-7, 1e3], either sign.

Only circles are admissible. Every count is a failure: the script exits 1
unless all three are 0 in every cell.

Usage:
    python scripts/verdict_sweep.py [--draws 200]
"""

import argparse
import sys
import time

import numpy as np

from gradfit.analyzer import decide_reduction
from gradfit.errors import GradfitError
from gradfit.poly import BivariatePoly


def _loguniform(rng, lo, hi):
    return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))


def _central(sign):
    def draw(rng):
        a, b, k = (_loguniform(rng, 1e-4, 1e4) for _ in range(3))
        return {(2, 0): a, (0, 2): sign * b, (0, 0): -k}
    return draw


def _circle(rng):
    R = _loguniform(rng, 1e-5, 1e3)
    a, b = rng.uniform(-10.0, 10.0, 2)
    return {(2, 0): 1.0, (0, 2): 1.0, (1, 0): -2.0 * a, (0, 1): -2.0 * b,
            (0, 0): a * a + b * b - R * R}


def _parabola(rng):
    c = _loguniform(rng, 1e-7, 1e3) * rng.choice((-1.0, 1.0))
    return {(0, 1): 1.0, (2, 0): -c}


# name: (terms of one float draw, seed, expected verdict)
CELLS = {
    "ellipse": (_central(1.0), 2024, False),
    "hyperbola": (_central(-1.0), 2024, False),
    "circle": (_circle, 7, True),
    "parabola": (_parabola, 2024, False),
}


def sweep(draw, seed, admissible, draws):
    """(wrong, inconclusive, without witness, seconds per draw)."""
    rng = np.random.default_rng(seed)
    wrong = inconclusive = bare = 0
    t0 = time.perf_counter()
    for _ in range(draws):
        P = BivariatePoly(draw(rng))
        try:
            decision = decide_reduction(P)
        except GradfitError:
            inconclusive += 1
            continue
        wrong += decision.admissible != admissible
        bare += not decision.admissible and decision.witness is None
    return wrong, inconclusive, bare, (time.perf_counter() - t0) / draws


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--draws", type=int, default=200)
    args = ap.parse_args(argv)
    totals = [0, 0, 0]
    for name, (draw, seed, admissible) in CELLS.items():
        *counts, each = sweep(draw, seed, admissible, args.draws)
        totals = [t + c for t, c in zip(totals, counts)]
        wrong, inconclusive, bare = counts
        print(f"{name:10s} {args.draws} draws: {wrong} wrong, "
              f"{inconclusive} inconclusive, {bare} without witness, "
              f"{1e3 * each:.2f} ms each")
    wrong, inconclusive, bare = totals
    print(f"total: {wrong} wrong, {inconclusive} inconclusive, "
          f"{bare} without witness")
    return 1 if any(totals) else 0


if __name__ == "__main__":
    sys.exit(main())
