"""Monte-Carlo accuracy study: reduced circle fit vs the geometric baseline.

Repeatedly draws noisy samples of a known circle, fits both ways, and reports
per-parameter bias and RMSE, the mean parameter gap between the two
estimators and the reduced fit's median Newton iterations. Each noise level
is run on the full circle and on a short arc (0.2 rad), where the fits are
ill-conditioned and a poor start would cost iterations. At small noise the
two estimators should agree to O(sigma^2) while the reduced fit touches the
data exactly once.

Usage:
    python scripts/monte_carlo_accuracy.py
    python scripts/monte_carlo_accuracy.py --sigma 0.002 0.01 0.05 --trials 300
"""

import argparse
import sys

import numpy as np

from gradfit.datagen import SyntheticSpec, generate
from gradfit.errors import GradfitError
from gradfit.fitters import fit_circle_geometric, fit_circle_reduced
from gradfit.moments import MomentVector

TRUE = {"a": 0.3, "b": -0.2, "R": 1.0}

# (label, parameter range of the sampled arc; None is the full circle)
CASES = (("full", None), ("0.2 rad", (0.0, 0.2)))


def run_level(sigma, n, trials, seed, arc=None):
    red_err, geo_err, gaps, iters = [], [], [], []
    failed = 0
    for i in range(trials):
        pts = generate(SyntheticSpec("circle", TRUE, n=n, sigma=sigma,
                                     arc=arc, seed=seed + i))
        centroid = (float(pts[:, 0].mean()), float(pts[:, 1].mean()))
        mv = MomentVector.from_points(pts, 4, offset=centroid)
        try:
            red = fit_circle_reduced(mv)
            geo = fit_circle_geometric(pts)
        except GradfitError:
            failed += 1
            continue
        if not (red.converged and geo.converged):
            failed += 1
            continue
        iters.append(red.iterations)
        red, geo = red.params, geo.params
        red_err.append([red.a - TRUE["a"], red.b - TRUE["b"],
                        red.R - TRUE["R"]])
        geo_err.append([geo.a - TRUE["a"], geo.b - TRUE["b"],
                        geo.R - TRUE["R"]])
        gaps.append(max(abs(red.a - geo.a), abs(red.b - geo.b),
                        abs(red.R - geo.R)))
    red_err = np.asarray(red_err).reshape(-1, 3)
    geo_err = np.asarray(geo_err).reshape(-1, 3)
    nan3 = np.full(3, np.nan)
    return {
        "sigma": sigma,
        "red_rmse": np.sqrt(np.mean(red_err ** 2, axis=0)) if iters else nan3,
        "geo_rmse": np.sqrt(np.mean(geo_err ** 2, axis=0)) if iters else nan3,
        "red_bias": np.mean(red_err, axis=0) if iters else nan3,
        "mean_gap": float(np.mean(gaps)) if iters else np.nan,
        "median_iterations": float(np.median(iters)) if iters else np.nan,
        "failed": failed,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sigma", type=float, nargs="+",
                    default=[0.002, 0.01, 0.05])
    ap.add_argument("--n", type=int, default=50)
    ap.add_argument("--trials", type=int, default=500)
    ap.add_argument("--seed", type=int, default=40000)
    args = ap.parse_args(argv)

    print(f"true circle a={TRUE['a']} b={TRUE['b']} R={TRUE['R']}, "
          f"n={args.n}, {args.trials} trials per level and arc")
    head = (f"{'arc':>8} {'sigma':>8} {'rmse(R) red':>12} "
            f"{'rmse(R) geo':>12} {'|bias| max':>11} {'mean gap':>10} "
            f"{'10*sigma^2':>11} {'median its':>11} {'failed':>7}")
    print(head)
    print("-" * len(head))
    for label, arc in CASES:
        for sigma in args.sigma:
            row = run_level(sigma, args.n, args.trials, args.seed, arc)
            print(f"{label:>8} {sigma:>8.4f} {row['red_rmse'][2]:>12.2e} "
                  f"{row['geo_rmse'][2]:>12.2e} "
                  f"{np.abs(row['red_bias']).max():>11.2e} "
                  f"{row['mean_gap']:>10.2e} {10 * sigma ** 2:>11.2e} "
                  f"{row['median_iterations']:>11.1f} {row['failed']:>7d}")
    print()
    print("reading guide: on the full circle both estimators track")
    print("sigma/sqrt(n) and their mutual gap shrinks like sigma^2, so at desk")
    print("noise levels the one-pass reduced fit is statistically")
    print("interchangeable with the geometric one. On the short arc both lose")
    print("accuracy to the arc's geometry; 'failed' counts trials where a fit")
    print("raised or did not converge, which the other columns leave out.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
