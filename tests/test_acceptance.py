"""End-to-end acceptance checks for the package's headline guarantees.

Each test covers one numbered criterion, prints exactly one pass/fail line
(visible even under pytest's output capture), and pins tolerances and
runtime budgets in the assertions themselves.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from gradfit.analyzer import (decide_reduction, find_common_zero,
                              solve_nullstellensatz)
from gradfit.bench import run_bench
from gradfit.datagen import SyntheticSpec, generate
from gradfit.families import get_family
from gradfit.fitters import (fit_circle_geometric, fit_circle_reduced,
                             _CertObjective, _fa_val_grad_hess)
from gradfit.moments import MomentVector
from gradfit.poly import BivariatePoly, gradient_norm_squared


def _report(capsys, num, label, ok, t0, detail=""):
    line = (f"[criterion {num}] {label}: {'PASS' if ok else 'FAIL'} "
            f"({time.perf_counter() - t0:.2f}s)")
    if detail:
        line += f" -- {detail}"
    with capsys.disabled():
        print(line)


def _random_poly(rng, max_deg=3, nterms=6):
    keys = [(p, q) for p in range(max_deg + 1) for q in range(max_deg + 1 - p)]
    idx = rng.choice(len(keys), size=min(nterms, len(keys)), replace=False)
    return BivariatePoly({keys[i]: float(rng.uniform(-2, 2)) for i in idx})


def _circle_poly_float(a, b, R):
    return BivariatePoly(
        {(2, 0): 1.0, (0, 2): 1.0, (1, 0): -2.0 * a, (0, 1): -2.0 * b,
         (0, 0): a * a + b * b - R * R})


# -- criterion 1 ------------------------------------------------------------


def test_criterion_1_circle_certificates_are_exact(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    problems = []
    for i in range(10):
        theta = {"a": float(rng.uniform(-2, 2)), "b": float(rng.uniform(-2, 2)),
                 "R": float(rng.uniform(0.5, 2.0))}
        decision = decide_reduction(get_family("circle").poly(theta))
        R2 = Fraction(theta["R"]) ** 2
        if not decision.admissible or decision.certificate is None:
            problems.append(f"sample {i}: not admissible")
            continue
        cert = decision.certificate
        if cert.identity_residual != 0.0:
            problems.append(f"sample {i}: residual {cert.identity_residual}")
        if cert.W != BivariatePoly.constant(Fraction(1) / (4 * R2)):
            problems.append(f"sample {i}: W is not 1/(4R^2)")
        if cert.U != BivariatePoly.constant(Fraction(-1) / R2):
            problems.append(f"sample {i}: U is not -1/R^2")
    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < 1.0
    _report(capsys, 1, "circle weight certificates exact", ok, t0,
            "10 circles, W=1/(4R^2), U=-1/R^2, residual 0")
    assert ok, f"{problems}; elapsed {elapsed:.2f}s (budget 1s)"


# -- criterion 2 ------------------------------------------------------------


def test_criterion_2_conic_witnesses_match_closed_forms(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(12)
    problems = []
    worst = 0.0

    def check_central(kind, idx):
        nonlocal worst
        fam = get_family(kind)
        th = fam.sample_theta(rng)
        d = decide_reduction(fam.poly(th))
        if d.admissible or d.witness is None:
            problems.append(f"{kind} {idx}: expected witness")
            return
        a, b, c = th["a"], th["b"], th["c"]
        x2 = b * c / (a * (a - b))
        err = abs(d.witness.x ** 2 - x2) / max(1.0, abs(x2))
        worst = max(worst, err)
        if err > 1e-8:
            problems.append(f"{kind} {idx}: x^2 off by {err:.2e}")

    def check_parabola(idx):
        nonlocal worst
        fam = get_family("parabola")
        th = fam.sample_theta(rng)
        d = decide_reduction(fam.poly(th))
        if d.admissible or d.witness is None:
            problems.append(f"parabola {idx}: expected witness")
            return
        c = th["c"]
        ex, ey = 1j / (2 * c), -1.0 / (4 * c)
        err = max(min(abs(d.witness.x - ex), abs(d.witness.x + ex)),
                  abs(d.witness.y - ey))
        worst = max(worst, err)
        if err > 1e-8:
            problems.append(f"parabola {idx}: witness off by {err:.2e}")

    for i in range(4):
        check_central("ellipse", i)
    for i in range(3):
        check_central("hyperbola", i)
    for i in range(3):
        check_parabola(i)
    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < 5.0
    _report(capsys, 2, "conic witnesses match closed forms", ok, t0,
            f"10 conics, worst deviation {worst:.2e}")
    assert ok, f"{problems}; elapsed {elapsed:.2f}s (budget 5s)"


# -- criterion 3 ------------------------------------------------------------


def _no_common_zero_pair(rng, kind):
    if kind == 0:
        # raising a surface by a constant clears every intersection
        while True:
            P = _random_poly(rng)
            if P.degree() > 0:
                break
        return P, P + float(rng.uniform(0.5, 2.0))
    if kind == 1:
        a, b = float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1))
        P = _circle_poly_float(a, b, float(rng.uniform(0.5, 2.0)))
        return P, gradient_norm_squared(P)
    # P vanishes only on the line x = -d, where Q equals a nonzero constant;
    # built exactly, as rounded float products have a common zero far out
    k = int(rng.integers(1, 4))
    d = Fraction(rng.uniform(-1, 1))
    lin = BivariatePoly({(1, 0): 1, (0, 0): d})
    P = BivariatePoly.constant(Fraction(rng.uniform(0.5, 2.0)))
    for _ in range(k):
        P = P * lin
    Q = lin * BivariatePoly({(0, 1): 1}) + 1
    return P, Q * Fraction(rng.uniform(0.5, 2.0))


def test_criterion_3_witness_and_certificate_are_exclusive(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240817)
    problems = []
    witness_side = 0
    checked = 0
    while checked < 170:
        P, Q = _random_poly(rng), _random_poly(rng)
        if P.degree() <= 0 or Q.degree() <= 0:
            continue
        w = find_common_zero(P, Q)
        cert = solve_nullstellensatz(P, Q)
        if (w is None) == (cert is None):
            problems.append(f"random pair {checked}: w={w is not None} "
                            f"cert={cert is not None}")
        witness_side += w is not None
        checked += 1
    for i in range(30):
        P, Q = _no_common_zero_pair(rng, i % 3)
        w = find_common_zero(P, Q)
        cert = solve_nullstellensatz(P, Q)
        if w is not None or cert is None:
            problems.append(f"constructed pair {i}: w={w is not None} "
                            f"cert={cert is not None}")
    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < 60.0
    _report(capsys, 3, "witness xor certificate on 200 pairs", ok, t0,
            f"{witness_side} with witness, {200 - witness_side} with certificate")
    assert ok, f"{problems[:5]}; elapsed {elapsed:.2f}s (budget 60s)"


# -- criterion 4 ------------------------------------------------------------


def test_criterion_4_moment_objective_equals_direct_sum(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(10, 1001))
        pts = rng.uniform(-2.0, 2.0, size=(n, 2))
        a = float(rng.uniform(-1, 1))
        b = float(rng.uniform(-1, 1))
        R = float(rng.uniform(0.5, 2.0))
        centroid = (float(pts[:, 0].mean()), float(pts[:, 1].mean()))
        view = MomentVector.from_points(pts, 4,
                                        offset=centroid).central_circle_view()
        cx, cy = view.centroid
        assembled, _, _ = _fa_val_grad_hess(view, a - cx, b - cy, R)
        res = (pts[:, 0] - a) ** 2 + (pts[:, 1] - b) ** 2 - R * R
        direct = float(np.sum(res * res)) / (R * R)
        worst = max(worst, abs(assembled - direct) / max(1.0, abs(direct)))
    ok = worst <= 1e-9
    _report(capsys, 4, "statistic-assembled objective equals direct sum",
            ok, t0, f"100 datasets, worst relative gap {worst:.2e}")
    assert ok, f"worst relative gap {worst:.2e} > 1e-9"


# -- criterion 5 ------------------------------------------------------------


def test_criterion_5_per_iteration_cost_separation(capsys):
    t0 = time.perf_counter()
    report = run_bench([1000, 1000000], repetitions=5, seed=3, sigma=0.01)
    red = (report.row("reduced", 1000000).per_iteration_seconds
           / report.row("reduced", 1000).per_iteration_seconds)
    rew = (report.row("reweight", 1000000).per_iteration_seconds
           / report.row("reweight", 1000).per_iteration_seconds)
    elapsed = time.perf_counter() - t0
    ok = red <= 1.5 and rew >= 100.0 and elapsed < 120.0
    _report(capsys, 5, "per-iteration cost flat vs linear", ok, t0,
            f"reduced x{red:.2f} (<=1.5), reweight x{rew:.0f} (>=100)")
    assert ok, (f"reduced ratio {red:.2f}, reweight ratio {rew:.1f}, "
                f"elapsed {elapsed:.1f}s (budget 120s)")


# -- criterion 6 ------------------------------------------------------------


def test_criterion_6_monte_carlo_accuracy(capsys):
    t0 = time.perf_counter()
    sigma, n = 0.01, 50
    errs, gaps = [], []
    for i in range(500):
        pts = generate(SyntheticSpec("circle", {"a": 0.0, "b": 0.0, "R": 1.0},
                                     n=n, sigma=sigma, seed=31000 + i))
        centroid = (float(pts[:, 0].mean()), float(pts[:, 1].mean()))
        mv = MomentVector.from_points(pts, 4, offset=centroid)
        red = fit_circle_reduced(mv).params
        geo = fit_circle_geometric(pts).params
        errs.append([red.a, red.b, red.R - 1.0])
        gaps.append(max(abs(red.a - geo.a), abs(red.b - geo.b),
                        abs(red.R - geo.R)))
    mean_err = np.abs(np.mean(errs, axis=0))
    mean_gap = float(np.mean(gaps))
    err_bound = 5.0 * sigma / np.sqrt(n)
    gap_bound = 10.0 * sigma ** 2
    elapsed = time.perf_counter() - t0
    ok = bool(np.all(mean_err <= err_bound)) and mean_gap <= gap_bound \
        and elapsed < 60.0
    _report(capsys, 6, "Monte-Carlo bias and cross-algorithm gap", ok, t0,
            f"500 trials, max |bias| {mean_err.max():.1e} (<= {err_bound:.1e}),"
            f" mean gap {mean_gap:.1e} (<= {gap_bound:.0e})")
    assert ok, (f"mean error {mean_err}, bound {err_bound}; "
                f"gap {mean_gap}, bound {gap_bound}; elapsed {elapsed:.1f}s")


# -- criterion 7 ------------------------------------------------------------


def test_criterion_7_verdicts_invariant_under_similarity(capsys, similar):
    t0 = time.perf_counter()
    rng = np.random.default_rng(31)
    problems = []
    with_w = without_w = 0
    done = 0
    while done < 50:
        m = done % 5
        if m == 3:
            P = _circle_poly_float(float(rng.uniform(-1, 1)),
                                   float(rng.uniform(-1, 1)),
                                   float(rng.uniform(0.5, 2.0)))
        elif m == 4:
            P = BivariatePoly({(1, 0): float(rng.uniform(0.5, 2)),
                               (0, 1): float(rng.uniform(0.5, 2)),
                               (0, 0): float(rng.uniform(-1, 1))})
        else:
            P = _random_poly(rng)
            if P.degree() <= 0:
                continue
        Pt = similar(P, angle=float(rng.uniform(-3, 3)),
                     scale=float(rng.uniform(0.5, 2.0)),
                     tx=float(rng.uniform(-1, 1)),
                     ty=float(rng.uniform(-1, 1)),
                     mirror=bool(rng.integers(2)))
        before = find_common_zero(P, gradient_norm_squared(P)) is not None
        after = find_common_zero(Pt, gradient_norm_squared(Pt)) is not None
        if before != after:
            problems.append(f"pair {done}: {before} -> {after}")
        with_w += before
        without_w += not before
        done += 1
    ok = not problems
    _report(capsys, 7, "verdicts invariant under similarity maps", ok, t0,
            f"50 pairs ({with_w} with witness, {without_w} without)")
    assert ok, problems


# -- criterion 8 ------------------------------------------------------------


def test_criterion_8_analytic_gradients_match_differences(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(88)
    worst_red = worst_gen = 0.0

    for _ in range(10):
        pts = rng.normal(size=(int(rng.integers(20, 200)), 2)) * 1.3
        view = MomentVector.from_points(pts, 4).central_circle_view()
        shift = np.array([*view.centroid, 0.0])
        for _ in range(10):
            th = np.array([rng.uniform(-1, 1), rng.uniform(-1, 1),
                           rng.uniform(0.6, 2.0)]) - shift
            _, g, _ = _fa_val_grad_hess(view, *th)
            for j in range(3):
                h = 1e-6 * (1.0 + abs(th[j]))
                up, dn = th.copy(), th.copy()
                up[j] += h
                dn[j] -= h
                fd = (_fa_val_grad_hess(view, *up)[0]
                      - _fa_val_grad_hess(view, *dn)[0]) / (2 * h)
                worst_red = max(worst_red,
                                abs(g[j] - fd) / (1.0 + abs(fd)))

    for _ in range(10):
        pts = rng.normal(size=(int(rng.integers(20, 120)), 2)) * 1.1
        mv = MomentVector.from_points(pts, 4)
        obj = _CertObjective(get_family("circle"), 0, mv)
        for _ in range(10):
            th = np.array([rng.uniform(-1, 1), rng.uniform(-1, 1),
                           rng.uniform(0.6, 2.0)])
            _, g = obj._evaluate(th)[:2]
            for j in range(3):
                h = 1e-6 * (1.0 + abs(th[j]))
                up, dn = th.copy(), th.copy()
                up[j] += h
                dn[j] -= h
                fd = (obj._evaluate(up)[0] - obj._evaluate(dn)[0]) / (2 * h)
                worst_gen = max(worst_gen,
                                abs(g[j] - fd) / (1.0 + abs(fd)))

    ok = worst_red <= 1e-6 and worst_gen <= 1e-6
    _report(capsys, 8, "analytic gradients match central differences", ok, t0,
            f"100+100 points, worst reduced {worst_red:.2e}, "
            f"worst generic {worst_gen:.2e}")
    assert ok, f"reduced {worst_red:.2e}, generic {worst_gen:.2e} (tol 1e-6)"
