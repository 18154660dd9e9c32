"""Circle and conic fitters: frozen values, oracles, descent, equivariance."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradfit.analyzer import (ReductionCertificate, analyze_family,
                              certificate_system, decide_reduction,
                              solve_nullstellensatz)
from gradfit.datagen import SyntheticSpec, generate
from gradfit.errors import (
    CenterHitsDataPoint,
    DegenerateData,
    DegreeMismatch,
    GradientVanishesAtSample,
    InvalidRadius,
    InvalidSpec,
    NoCircle,
)
from gradfit import fitters
from gradfit.families import FAMILIES, get_family
from gradfit.fitters import (
    CircleParams,
    ConicParams,
    FitConfig,
    FitResult,
    fit_circle_geometric,
    fit_circle_reduced,
    fit_conic_reweight,
    fit_reduced_generic,
    pratt_init,
    _CertObjective,
)
from gradfit.moments import MomentVector
from gradfit.poly import BivariatePoly, gradient_norm_squared


def circle_points(a, b, R, n, noise=0.0, seed=None):
    t = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    pts = np.column_stack([a + R * np.cos(t), b + R * np.sin(t)])
    if noise:
        pts = pts + np.random.default_rng(seed).normal(scale=noise,
                                                       size=pts.shape)
    return pts


def centered_mv(pts, degree=4):
    return MomentVector.from_points(
        pts, degree, offset=(float(np.mean(pts[:, 0])),
                             float(np.mean(pts[:, 1]))))


def circle_cert(degree=None):
    """The unit circle's certificate; ``degree`` relabels its degree, which
    is all the generic fit reads of it."""
    P = get_family("circle").poly({"a": 0.0, "b": 0.0, "R": 1.0})
    cert = solve_nullstellensatz(P, gradient_norm_squared(P))
    if degree is None:
        return cert
    return dataclasses.replace(cert, degree=degree)


# -- parameter containers ----------------------------------------------------


def test_circle_params_views():
    p = CircleParams(1.0, -2.0, 3.0)
    assert p.c == 1.0 + 4.0 - 9.0
    assert p.to_dict() == {"a": 1.0, "b": -2.0, "R": 3.0}


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
def test_circle_params_rejects_bad_radius(bad):
    with pytest.raises(InvalidRadius):
        CircleParams(0.0, 0.0, bad)


def test_conic_params_normalized_unit_norm():
    p = ConicParams(2.0, 0.0, 2.0, 0.0, 0.0, -2.0)
    assert np.linalg.norm(p.vector) == pytest.approx(1.0, abs=1e-15)


def test_conic_params_rejects_zero_vector():
    with pytest.raises(InvalidSpec):
        ConicParams(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


def test_fit_config_validates():
    with pytest.raises(InvalidSpec):
        FitConfig(max_iterations=0)
    with pytest.raises(InvalidSpec):
        FitConfig(gradient_tol=0.0)
    for tol in ({"gradient_tol": math.nan, "step_tol": math.nan},
                {"step_tol": math.nan}):
        with pytest.raises(InvalidSpec):
            FitConfig(**tol)


# -- reduced circle objective ------------------------------------------------


def test_value_single_point_frozen():
    # one data point (2, 0) against the unit circle at the origin: the
    # point is its own centroid, its central moments all vanish, and the
    # origin is (-2, 0) about it; value 9
    view = MomentVector.from_points([(2.0, 0.0)], 4).central_circle_view()
    assert (view.n, view.centroid, view.central) == (1, (2.0, 0.0),
                                                     (0.0,) * 6)
    value, grad, _ = fitters._fa_val_grad_hess(view, -2.0, 0.0, 1.0)
    assert value == pytest.approx(9.0, abs=1e-12)
    # direct: (x^2 + y^2 - R^2)^2 / R^2 at (2, 0)
    assert value == pytest.approx((4.0 - 1.0) ** 2 / 1.0, abs=1e-12)
    # dF/da = -4 (x - a) P / R^2, dF/db = 0, dF/dR = -4 P / R - 2 P^2 / R^3
    assert grad.tolist() == pytest.approx([-24.0, 0.0, -30.0], abs=1e-12)


def test_value_zero_on_exact_circle():
    # zero up to the cancellation noise of assembling ~1e2-scale statistics
    pts = circle_points(0.4, -1.1, 1.7, 24)
    view = MomentVector.from_points(pts, 4).central_circle_view()
    cx, cy = view.centroid
    value, _, _ = fitters._fa_val_grad_hess(view, 0.4 - cx, -1.1 - cy, 1.7)
    assert abs(value) < 1e-12


@pytest.mark.parametrize("bad", [0.0, -2.0])
def test_reduced_start_requires_positive_radius(bad):
    mv = centered_mv(circle_points(0.0, 0.0, 1.0, 12))
    with pytest.raises(InvalidRadius):
        fit_circle_reduced(mv, FitConfig(init=(0.0, 0.0, bad)))


def test_reduced_start_rejects_non_finite_centre():
    mv = centered_mv(circle_points(0.0, 0.0, 1.0, 12))
    with pytest.raises(InvalidRadius):
        fit_circle_reduced(mv, FitConfig(init=(math.nan, 0.0, 1.0)))


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(42)
    pts = rng.normal(size=(50, 2)) * 1.5
    view = MomentVector.from_points(pts, 4).central_circle_view()

    def value_grad(th):
        return fitters._fa_val_grad_hess(view, *th)[:2]

    worst = 0.0
    for _ in range(30):
        th = np.array([rng.uniform(-2, 2), rng.uniform(-2, 2),
                       rng.uniform(0.5, 2.5)])
        _, grad = value_grad(th)
        fd = np.zeros(3)
        for j in range(3):
            h = 1e-6 * (1.0 + abs(th[j]))
            up, dn = th.copy(), th.copy()
            up[j] += h
            dn[j] -= h
            fd[j] = (value_grad(up)[0] - value_grad(dn)[0]) / (2.0 * h)
        worst = max(worst, float(np.max(np.abs(grad - fd)
                                        / (1.0 + np.abs(fd)))))
    assert worst < 1e-6


# -- reduced circle fit ------------------------------------------------------


def test_reduced_recovers_exact_circle():
    pts = circle_points(1.0, -2.0, 3.0, 20)
    res = fit_circle_reduced(centered_mv(pts))
    assert res.converged
    assert res.params.a == pytest.approx(1.0, abs=1e-9)
    assert res.params.b == pytest.approx(-2.0, abs=1e-9)
    assert res.params.R == pytest.approx(3.0, abs=1e-9)
    assert res.data_passes == 1


def test_reduced_objective_matches_direct_sum():
    pts = circle_points(0.7, 0.2, 1.4, 60, noise=0.05, seed=5)
    res = fit_circle_reduced(centered_mv(pts))
    a, b, R = res.params.a, res.params.b, res.params.R
    direct = float(np.sum(((pts[:, 0] - a) ** 2 + (pts[:, 1] - b) ** 2
                           - R * R) ** 2)) / (R * R)
    assert res.objective == pytest.approx(direct, rel=1e-9)


def test_reduced_noisy_estimate_close():
    pts = circle_points(1.0, -2.0, 3.0, 200, noise=0.01, seed=9)
    res = fit_circle_reduced(centered_mv(pts))
    assert res.converged
    assert abs(res.params.a - 1.0) < 0.01
    assert abs(res.params.b + 2.0) < 0.01
    assert abs(res.params.R - 3.0) < 0.01


def test_reduced_translation_equivariance():
    pts = circle_points(0.3, 0.8, 1.2, 40, noise=0.02, seed=2)
    base = fit_circle_reduced(centered_mv(pts))
    moved = fit_circle_reduced(centered_mv(pts + np.array([250.0, -80.0])))
    assert moved.params.a - base.params.a == pytest.approx(250.0, abs=1e-9)
    assert moved.params.b - base.params.b == pytest.approx(-80.0, abs=1e-9)
    assert moved.params.R == pytest.approx(base.params.R, abs=1e-9)


def test_reduced_descent_is_monotone():
    pts = circle_points(0.5, 0.5, 2.0, 30, noise=0.2, seed=13)
    res = fit_circle_reduced(centered_mv(pts),
                             FitConfig(init=CircleParams(3.0, -2.0, 0.7)))
    trace = res.diagnostics["objective_trace"]
    assert len(trace) >= 2
    # non-increasing up to the objective's evaluation-noise band
    assert all(b <= a + 1e-12 * (1.0 + abs(a))
               for a, b in zip(trace, trace[1:]))


def test_reduced_collinear_raises_no_circle():
    xs = np.linspace(-1.0, 1.0, 15)
    pts = np.column_stack([xs, -0.5 * xs + 1.0])
    with pytest.raises(NoCircle):
        fit_circle_reduced(centered_mv(pts))


def test_reduced_too_few_points():
    with pytest.raises(NoCircle):
        fit_circle_reduced(MomentVector.from_points([(0, 0), (1, 1)], 4))


def test_reduced_shallow_moments_rejected():
    mv = MomentVector.from_points(circle_points(0, 0, 1, 10), 3)
    with pytest.raises(DegreeMismatch):
        fit_circle_reduced(mv)


def test_reduced_max_iterations_flag_not_exception():
    pts = circle_points(0.0, 0.0, 1.0, 30, noise=0.3, seed=1)
    res = fit_circle_reduced(
        centered_mv(pts),
        FitConfig(max_iterations=1, init=CircleParams(2.0, 2.0, 0.5),
                  gradient_tol=1e-15, step_tol=1e-16))
    assert isinstance(res, FitResult)
    assert not res.converged
    assert res.iterations == 1


def test_reduced_non_finite_start_is_refused():
    # R^2 underflows: objective and gradient are inf at the start, which
    # once read as a met gradient test (inf <= inf)
    mv = centered_mv(circle_points(0.0, 0.0, 1.0, 50))
    with pytest.raises(InvalidSpec, match="not finite"):
        fit_circle_reduced(mv, FitConfig(init=(0.0, 0.0, 1e-200)))


def test_reduced_hessian_matches_gradient_differences():
    rng = np.random.default_rng(8)
    view = MomentVector.from_points(rng.normal(size=(80, 2)) * 1.5,
                                    4).central_circle_view()
    for _ in range(10):
        th = np.array([rng.uniform(-1, 1), rng.uniform(-1, 1),
                       rng.uniform(0.5, 2.5)])
        _, _, hess = fitters._fa_val_grad_hess(view, *th)
        H = hess()
        for j in range(3):
            h = 1e-6 * (1.0 + abs(th[j]))
            up, dn = th.copy(), th.copy()
            up[j] += h
            dn[j] -= h
            fd = (fitters._fa_val_grad_hess(view, *up)[1]
                  - fitters._fa_val_grad_hess(view, *dn)[1]) / (2.0 * h)
            assert np.allclose(H[:, j], fd, rtol=1e-6,
                               atol=1e-6 * np.abs(H).max())


@pytest.mark.parametrize("R", [1.3, 1e-100, 1e-200])
def test_reduced_objective_in_floats_equals_numpy_scalars(R):
    # the fit evaluates in Python floats; where R^4 underflows they would
    # raise on division by zero, and the objective divides as numpy does
    view = MomentVector.from_points(circle_points(0.2, -0.1, 1.0, 20),
                                    4).central_circle_view()
    with np.errstate(all="ignore"):
        F, g, hess = fitters._fa_val_grad_hess(view, 0.25, -0.5, R)
        F64, g64, hess64 = fitters._fa_val_grad_hess(
            view, *np.array([0.25, -0.5, R]))
        H, H64 = hess(), hess64()
    assert np.array_equal([F], [F64], equal_nan=True)
    assert np.array_equal(g, g64, equal_nan=True)
    assert np.array_equal(H, H64, equal_nan=True)


def test_reduced_hessian_is_built_only_where_a_step_is_computed(monkeypatch):
    evals, hessians = [], []
    val_grad_hess = fitters._fa_val_grad_hess

    def counting(*args):
        F, g, hess = val_grad_hess(*args)
        evals.append(1)

        def counted():
            hessians.append(1)
            return hess()
        return F, g, counted

    monkeypatch.setattr(fitters, "_fa_val_grad_hess", counting)
    mv = centered_mv(circle_points(0.5, 0.5, 2.0, 30, noise=0.2, seed=13))
    res = fit_circle_reduced(mv)
    assert res.converged and res.iterations == 0
    assert (len(evals), len(hessians)) == (1, 0)
    evals.clear()
    res = fit_circle_reduced(mv, FitConfig(init=CircleParams(3.0, -2.0, 0.7)))
    assert res.converged and res.iterations >= 2
    # one Hessian per step, none at the point the fit ends on
    assert len(hessians) == res.iterations < len(evals)


# -- Pratt's start ------------------------------------------------------------


def arc_points(a, b, R, span, n, noise, seed):
    rng = np.random.default_rng(seed)
    t = rng.uniform(0.0, 2.0 * math.pi) + span * rng.random(n)
    pts = np.column_stack([a + R * np.cos(t), b + R * np.sin(t)])
    return pts + rng.normal(scale=noise, size=pts.shape)


def moment_matrix(pts):
    """M of (x^2+y^2, x, y, 1) about the centroid, and the centroid."""
    c = pts.mean(axis=0)
    u, v = (pts - c).T
    W = np.column_stack([u * u + v * v, u, v, np.ones(len(u))])
    return W.T @ W / len(u), c


def pratt_oracle(M, centroid):
    """Pratt's circle as the generalized eigenvector of M theta = eta N
    theta for the smallest non-negative eta, with M the moment matrix of
    (x^2+y^2, x, y, 1) about the centroid and theta'N theta = B^2+C^2-4AD."""
    N = np.array([[0.0, 0.0, 0.0, -2.0], [0.0, 1.0, 0.0, 0.0],
                  [0.0, 0.0, 1.0, 0.0], [-2.0, 0.0, 0.0, 0.0]])
    vals, vecs = np.linalg.eig(np.linalg.solve(N, M))
    vals = vals.real
    # exactly one eigenvalue is negative, of the size of the spread
    j = min(np.flatnonzero(vals >= -1e-9 * (M[1, 1] + M[2, 2])),
            key=lambda i: vals[i])
    A, B, C, D = vecs[:, j].real
    R = math.sqrt((B * B + C * C - 4.0 * A * D) / (4.0 * A * A))
    return np.array([centroid[0] - B / (2.0 * A),
                     centroid[1] - C / (2.0 * A), R])


def pratt_value(M, centroid, circle):
    """theta'M theta / theta'N theta at a circle, and the rounding floor of
    its evaluation (the size of its terms times a few eps)."""
    a, b, R = circle[0] - centroid[0], circle[1] - centroid[1], circle[2]
    theta = np.array([1.0, -2.0 * a, -2.0 * b, a * a + b * b - R * R])
    scale = 4.0 * R * R
    terms = np.abs(theta)[:, None] * np.abs(M) * np.abs(theta)[None, :]
    return (float(theta @ M @ theta) / scale,
            64.0 * np.finfo(float).eps * float(terms.sum()) / scale)


@pytest.mark.parametrize("span", [0.2, 1.0, 2.0 * math.pi])
@pytest.mark.parametrize("dist", [0.0, 1e3])
def test_pratt_init_equals_generalized_eigenvector(span, dist):
    pts = arc_points(dist, -0.5 * dist, 2.0, span, 200, 2e-3, 7)
    got = pratt_init(centered_mv(pts))
    want = pratt_oracle(*moment_matrix(pts))
    assert np.max(np.abs([got.a - want[0], got.b - want[1],
                          got.R - want[2]])) <= 1e-9 * want[2]


@settings(max_examples=60, deadline=None)
@given(span=st.floats(0.2, 2.0 * math.pi),
       dist=st.floats(0.0, 1e3), phi=st.floats(0.0, 2.0 * math.pi),
       log_r=st.floats(-1.0, 2.0), rel_noise=st.floats(1e-4, 1e-2),
       n=st.integers(3, 300), seed=st.integers(0, 2 ** 32 - 1))
def test_pratt_init_attains_the_oracle_minimum(span, dist, phi, log_r,
                                               rel_noise, n, seed):
    # nearly collinear draws (three points of a short noisy arc, say) leave
    # the minimizer ill-conditioned, so the parameters may differ by more
    # than 1e-9 R; the value they reach may not, beyond its own rounding
    R = 10.0 ** log_r
    pts = arc_points(dist * math.cos(phi), dist * math.sin(phi), R, span, n,
                     rel_noise * R, seed)
    got = pratt_init(centered_mv(pts))
    M, c = moment_matrix(pts)
    want, floor = pratt_value(M, c, pratt_oracle(M, c))
    value, _ = pratt_value(M, c, (got.a, got.b, got.R))
    assert value <= want * (1.0 + 1e-9) + floor


def test_pratt_init_exact_for_the_circumcircle():
    tri = np.array([[0.0, 0.0], [4.0, 0.0], [1.0, 3.0]])
    p = pratt_init(MomentVector.from_points(tri, 4))
    for x, y in tri:
        assert math.hypot(x - p.a, y - p.b) == pytest.approx(p.R, rel=1e-12)


@pytest.mark.parametrize("span", [0.2, 1.0, 2.0 * math.pi])
def test_reduced_on_exact_circle_points_needs_no_iteration(span):
    pts = arc_points(40.0, -25.0, 2.0, span, 200, 0.0, 3)
    res = fit_circle_reduced(centered_mv(pts))
    assert res.converged and res.iterations == 0
    assert res.params.a == pytest.approx(40.0, abs=1e-12)
    assert res.params.b == pytest.approx(-25.0, abs=1e-12)
    assert res.params.R == pytest.approx(2.0, abs=1e-12)


@pytest.mark.parametrize("span", [0.5, 1.5, 2.0 * math.pi])
def test_reduced_default_and_far_start_reach_one_minimum(span):
    pts = arc_points(3.0, 1.0, 2.0, span, 300, 0.02, 19)
    mv = centered_mv(pts)
    default = fit_circle_reduced(mv)
    far = fit_circle_reduced(mv, FitConfig(init=(0.0, 5.0, 6.0)))
    assert default.converged and far.converged
    assert default.iterations <= 1 < far.iterations
    assert default.objective == pytest.approx(far.objective, rel=1e-9)


def test_generic_circle_starts_at_its_minimizer():
    pts = arc_points(3.0, 1.0, 2.0, 1.5, 300, 0.02, 23)
    mv = centered_mv(pts)
    gen = fit_reduced_generic("circle", circle_cert(), mv)
    red = fit_circle_reduced(mv)
    assert gen.converged and gen.iterations <= 1
    assert gen.diagnostics["objective_trace"][0] == pytest.approx(
        red.objective / 4.0, rel=1e-9)


@pytest.mark.parametrize("dist", [1e4, 1e6])
def test_reduced_refuses_moments_shifted_past_their_digits(dist):
    # accumulated about the origin, the shift to the centroid cancels the
    # fourth moments away; refusing beats a fit from noise
    pts = arc_points(dist, -dist, 2.0, 1.5, 300, 0.01, 0)
    mv = MomentVector.from_points(pts, 4)
    with pytest.raises(DegenerateData):
        pratt_init(mv)
    with pytest.raises(NoCircle):
        fit_circle_reduced(mv)
    with pytest.raises(NoCircle):
        fit_circle_reduced(mv, FitConfig(init=(dist, -dist, 2.0)))


def test_reduced_refuses_collinear_moments_from_any_start():
    # no circle fits collinear points; from an explicit start Newton used
    # to run off to R ~ 1e4 and report convergence
    xs = np.linspace(-1.0, 1.0, 15)
    mv = centered_mv(np.column_stack([xs, -0.5 * xs + 1.0]))
    for init in (None, (0.0, 5.0, 6.0)):
        with pytest.raises(NoCircle):
            fit_circle_reduced(mv, FitConfig(init=init))


@pytest.mark.parametrize("span, centre", [
    (2.0 * math.pi, 7.0), (2.0 * math.pi, 70.0), (2.0 * math.pi, 100.0),
    (1.5, 7.0), (0.5, 7.0)])
def test_reduced_about_the_origin_matches_the_centred_fit(span, centre):
    # a unit circle or arc centred at (centre, centre), 10 to 140 radii
    # from the offset (0, 0): the moments keep enough digits to fit
    pts = arc_points(centre, centre, 1.0, span, 300, 1e-3, 5)
    ref = fit_circle_reduced(centered_mv(pts)).params
    res = fit_circle_reduced(MomentVector.from_points(pts, 4))
    assert res.converged
    assert max(abs(res.params.a - ref.a), abs(res.params.b - ref.b),
               abs(res.params.R - ref.R)) <= 1e-6 * ref.R


@settings(max_examples=80, deadline=None)
@given(log_dist=st.floats(-1.0, 7.0), log_r=st.floats(-3.0, 3.0),
       span=st.floats(0.1, 2.0 * math.pi), rel_noise=st.floats(1e-6, 1e-2),
       n=st.integers(3, 300), seed=st.integers(0, 2 ** 32 - 1))
def test_reduced_about_the_origin_fits_within_tolerance_or_refuses(
        log_dist, log_r, span, rel_noise, n, seed):
    # moments about (0, 0) of data anywhere: NoCircle, or a converged fit
    # within 1e-6 R of the fit of the same data accumulated about their
    # centroid, the tolerance pratt_init refuses beyond
    R = 10.0 ** log_r
    dist = 10.0 ** log_dist
    pts = arc_points(dist, -dist, R, span, n, rel_noise * R, seed)
    try:
        res = fit_circle_reduced(MomentVector.from_points(pts, 4))
    except NoCircle:
        return
    ref = fit_circle_reduced(centered_mv(pts)).params
    assert res.converged
    assert max(abs(res.params.a - ref.a), abs(res.params.b - ref.b),
               abs(res.params.R - ref.R)) <= 1e-6 * ref.R


def test_generic_circle_refuses_what_pratt_refuses_from_any_start():
    # a far arc accumulated about the origin: from an explicit start the
    # generic fit used to report a circle 0.1 off as converged
    for dist in (1e3, 1e4, 1e6):
        pts = arc_points(dist, -dist, 2.0, 1.5, 300, 0.01, 0)
        mv = MomentVector.from_points(pts, 4)
        for init in (None, (dist + 0.1, -dist, 2.1)):
            with pytest.raises(NoCircle):
                fit_reduced_generic("circle", circle_cert(), mv,
                                    FitConfig(init=init))


def test_pratt_init_collinear_and_coincident_are_degenerate():
    xs = np.linspace(-1.0, 1.0, 15)
    with pytest.raises(DegenerateData):
        pratt_init(centered_mv(np.column_stack([xs, -0.5 * xs + 1.0])))
    with pytest.raises(DegenerateData):
        pratt_init(MomentVector.from_points(np.full((5, 2), 2.0), 4))
    with pytest.raises(DegenerateData):
        pratt_init(MomentVector.from_points([(0.0, 0.0), (1.0, 1.0)], 4))
    with pytest.raises(DegreeMismatch):
        pratt_init(MomentVector.from_points(circle_points(0, 0, 1, 10), 3))


# -- geometric circle fit ----------------------------------------------------


def test_geometric_recovers_exact_circle():
    pts = circle_points(-0.5, 1.5, 2.0, 25)
    res = fit_circle_geometric(pts)
    assert res.converged
    assert res.params.a == pytest.approx(-0.5, abs=1e-9)
    assert res.params.b == pytest.approx(1.5, abs=1e-9)
    assert res.params.R == pytest.approx(2.0, abs=1e-9)
    assert res.objective < 1e-18


@pytest.mark.parametrize("R", [1e-7, 1e7, 1e8])
def test_geometric_fits_a_clean_circle_at_any_scale(R):
    # the start's degeneracy tests are relative to the data's own scale
    res = fit_circle_geometric(circle_points(3.0 * R, 0.0, R, 50))
    assert res.converged
    p = res.params
    assert max(abs(p.a - 3.0 * R), abs(p.b), abs(p.R - R)) <= 1e-9 * R


@pytest.mark.parametrize("R", [1e6, 1e7])
def test_geometric_step_test_is_relative_to_the_parameters(R):
    # far from the origin the gradient at the exact circle is rounding
    # noise above gradient_tol; the step test must stop the fit there
    res = fit_circle_geometric(circle_points(R, -2.0 * R, R, 50))
    assert res.converged and res.iterations <= 5
    p = res.params
    assert max(abs(p.a - R), abs(p.b + 2.0 * R), abs(p.R - R)) <= 1e-12 * R


@pytest.mark.parametrize("scale", [1e-7, 1.0, 1e8])
def test_geometric_refuses_collinear_samples_at_any_scale(scale):
    xs = np.linspace(0.0, 1.0, 12)
    pts = scale * np.column_stack([xs, 2.0 * xs - 0.3])
    with pytest.raises(DegenerateData):
        fit_circle_geometric(pts)


def test_geometric_rejects_tiny_dataset():
    with pytest.raises(DegenerateData):
        fit_circle_geometric(np.array([[0.0, 0.0]]))


def test_geometric_center_on_sample():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.5]])
    with pytest.raises(CenterHitsDataPoint):
        fit_circle_geometric(pts, FitConfig(init=CircleParams(0.0, 0.0, 1.0)))


def test_geometric_close_to_reduced_on_small_noise():
    sigma = 0.01
    pts = circle_points(1.0, 1.0, 2.0, 100, noise=sigma, seed=21)
    geo = fit_circle_geometric(pts)
    red = fit_circle_reduced(centered_mv(pts))
    assert abs(geo.params.a - red.params.a) < 5 * sigma
    assert abs(geo.params.b - red.params.b) < 5 * sigma
    assert abs(geo.params.R - red.params.R) < 5 * sigma


def test_geometric_descent_is_monotone():
    pts = circle_points(0.0, 0.0, 1.0, 40, noise=0.1, seed=3)
    res = fit_circle_geometric(pts,
                               FitConfig(init=CircleParams(1.5, -1.5, 0.4)))
    trace = res.diagnostics["objective_trace"]
    assert all(b <= a + 1e-12 * (1.0 + abs(a))
               for a, b in zip(trace, trace[1:]))


@pytest.mark.parametrize("start", [CircleParams(0.2, -0.1, 1.3),
                                   {"a": 0.2, "b": -0.1, "R": 1.3},
                                   (0.2, -0.1, 1.3)])
def test_geometric_starts_from_config_init(start):
    pts = circle_points(0.0, 0.0, 1.0, 40, noise=0.01, seed=5)
    res = fit_circle_geometric(pts, cfg=FitConfig(init=start))
    assert res.diagnostics["init"] == {"a": 0.2, "b": -0.1, "R": 1.3}
    assert res.converged


def test_geometric_starts_from_pratt_init_about_the_centroid():
    # a noisy short arc far from the origin, where Pratt's circle differs
    # from the other algebraic fits
    t = np.random.default_rng(9).uniform(0.0, 0.5, 60)
    pts = np.column_stack([40.0 + 2.0 * np.cos(t), -25.0 + 2.0 * np.sin(t)])
    pts += np.random.default_rng(10).normal(scale=0.02, size=pts.shape)
    res = fit_circle_geometric(pts)
    assert res.diagnostics["init"] == pratt_init(centered_mv(pts)).to_dict()
    assert res.converged


def test_geometric_counts_the_passes_of_its_own_start():
    # the same start given and made: the Newton runs are the same, and
    # making it reads the points twice, for the centroid and the moments
    pts = circle_points(0.3, -0.2, 1.0, 50, noise=0.01, seed=8)
    own = fit_circle_geometric(pts)
    given = fit_circle_geometric(
        pts, FitConfig(init=pratt_init(centered_mv(pts))))
    assert given.params == own.params
    assert given.diagnostics == own.diagnostics
    assert own.data_passes - given.data_passes == 2


# -- the damped Newton step --------------------------------------------------


def test_newton_step_damps_a_singular_hessian():
    # solve raises LinAlgError on H = 0; the first damping, 1e-8 times the
    # unit scale an all-zero H is given, makes the step -g / 1e-8
    g = np.array([1.0, -2.0])
    d = fitters._newton_step(np.zeros((2, 2)), g)
    assert d == pytest.approx(-g / 1e-8, rel=1e-12)


def test_newton_step_on_an_indefinite_hessian_descends():
    # the undamped step is orthogonal to g; damping is raised until the
    # step is a descent direction
    H, g = np.diag([1.0, -1.0]), np.array([1.0, 1.0])
    assert np.linalg.solve(H, -g) @ g == 0.0
    d = fitters._newton_step(H, g)
    assert d @ g < 0.0


def test_newton_step_falls_back_to_steepest_descent():
    # every damped solve of a Hessian holding NaN is NaN
    g = np.array([1.0, 2.0])
    d = fitters._newton_step(np.array([[np.nan, 0.0], [0.0, 1.0]]), g)
    assert np.array_equal(d, -g)


# -- conic reweight ----------------------------------------------------------


def test_reweight_recovers_exact_ellipse():
    t = np.linspace(0.0, 2.0 * math.pi, 20, endpoint=False)
    pts = np.column_stack([2.0 * np.cos(t), np.sin(t)])
    res = fit_conic_reweight(pts)
    assert res.converged
    truth = np.array([0.25, 0.0, 1.0, 0.0, 0.0, -1.0])
    truth /= np.linalg.norm(truth)
    got = res.params.vector
    if float(got @ truth) < 0:
        got = -got
    assert np.max(np.abs(got - truth)) < 1e-8
    assert res.objective < 1e-16


def conic_design(x, y):
    return np.column_stack([x * x, x * y, y * y, x, y, np.ones(len(x))])


def test_reweight_first_iterate_is_unweighted_fit():
    # the unweighted fit is taken of the points moved to their centroid and
    # divided by their RMS distance from it, then carried back: the conic
    # found in the caller's frame takes the normalized conic's values
    rng = np.random.default_rng(17)
    t = rng.uniform(0.0, 2.0 * math.pi, 40)
    pts = np.column_stack([2.0 * np.cos(t), np.sin(t)]) + [3.0, -1.0]
    pts += rng.normal(scale=0.05, size=pts.shape)
    one = fit_conic_reweight(pts, FitConfig(max_iterations=1))
    rel = pts - pts.mean(axis=0)
    scale = math.sqrt(float(np.mean(np.sum(rel * rel, axis=1))))
    Zn = conic_design(rel[:, 0] / scale, rel[:, 1] / scale)
    _, vecs = np.linalg.eigh(Zn.T @ Zn)
    Z = conic_design(pts[:, 0], pts[:, 1])
    ref = np.linalg.lstsq(Z, Zn @ vecs[:, 0], rcond=None)[0]
    ref /= np.linalg.norm(ref)
    got = one.params.vector
    if float(got @ ref) < 0:
        ref = -ref
    assert np.max(np.abs(got - ref)) < 1e-12


def test_reweight_converges_far_from_the_origin():
    # in raw coordinates this arc stopped at max_iterations, unconverged
    rng = np.random.default_rng(0)
    t = 0.3 + 1.5 * rng.random(300)
    pts = np.column_stack([40.0 + 2.0 * np.cos(t), -25.0 + 2.0 * np.sin(t)])
    pts += rng.normal(scale=0.01, size=pts.shape)
    res = fit_conic_reweight(pts)
    assert res.converged
    assert res.iterations < 20
    c = pts.mean(axis=0)
    centred = fit_conic_reweight(pts - c).params.vector
    # move the centred conic back by c, as a polynomial identity on samples
    Z = conic_design(pts[:, 0], pts[:, 1])
    ref = np.linalg.lstsq(
        Z, conic_design(pts[:, 0] - c[0], pts[:, 1] - c[1]) @ centred,
        rcond=None)[0]
    ref /= np.linalg.norm(ref)
    got = res.params.vector
    if float(got @ ref) < 0:
        ref = -ref
    assert np.max(np.abs(got - ref)) < 1e-8
    # the objective is reported in the caller's frame
    px = 2 * got[0] * pts[:, 0] + got[1] * pts[:, 1] + got[3]
    py = got[1] * pts[:, 0] + 2 * got[2] * pts[:, 1] + got[4]
    direct = float(np.sum((Z @ got) ** 2 / (px * px + py * py)))
    assert res.objective == pytest.approx(direct, rel=1e-9)
    assert res.diagnostics["objective_trace"][-1] == pytest.approx(
        res.objective, rel=1e-6)


def test_reweight_refuses_a_start():
    pts = circle_points(0.2, -0.1, 1.3, 30, noise=0.03, seed=8)
    with pytest.raises(InvalidSpec, match="takes no start"):
        fit_conic_reweight(pts, FitConfig(init=(1.0, 0.0, 1.0, 0.0, 0.0,
                                                -1.0)))


def test_reweight_requires_six_points():
    with pytest.raises(DegenerateData):
        fit_conic_reweight(circle_points(0, 0, 1, 5))


def test_reweight_gradient_vanishes_at_singular_sample():
    # symmetric ring plus its center: the fitted conic A(x^2+y^2)+F has a
    # stationary point exactly at the center sample
    t = np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False)
    pts = np.vstack([np.column_stack([np.cos(t), np.sin(t)]), [[0.0, 0.0]]])
    with pytest.raises(GradientVanishesAtSample):
        fit_conic_reweight(pts)


def test_reweight_reports_stationarity_diagnostic():
    pts = circle_points(0.2, -0.1, 1.3, 30, noise=0.03, seed=8)
    res = fit_conic_reweight(pts)
    assert "stationarity_residual" in res.diagnostics
    assert math.isfinite(res.diagnostics["stationarity_residual"])
    # one pass for the centroid, one for the normalized design matrix
    assert res.data_passes == 2 + res.iterations


def test_reweight_stationarity_does_not_depend_on_the_frame():
    # in the caller's frame it read 13,286 for this arc and 0.02 for the
    # same fit of the centred points
    rng = np.random.default_rng(0)
    t = 0.3 + 1.5 * rng.random(300)
    pts = np.column_stack([40.0 + 2.0 * np.cos(t), -25.0 + 2.0 * np.sin(t)])
    pts += rng.normal(scale=0.01, size=pts.shape)
    far = fit_conic_reweight(pts).diagnostics["stationarity_residual"]
    near = fit_conic_reweight(pts - pts.mean(axis=0)).diagnostics[
        "stationarity_residual"]
    assert far == pytest.approx(near, rel=1e-6)


# -- certificate-driven generic reduced fit ----------------------------------


def test_generic_circle_matches_reduced_argmin():
    pts = circle_points(1.0, -2.0, 3.0, 50, noise=0.02, seed=31)
    mv = centered_mv(pts)
    red = fit_circle_reduced(mv)
    gen = fit_reduced_generic("circle", circle_cert(), mv)
    assert gen.converged
    assert gen.params.a == pytest.approx(red.params.a, abs=1e-9)
    assert gen.params.b == pytest.approx(red.params.b, abs=1e-9)
    assert gen.params.R == pytest.approx(red.params.R, abs=1e-9)
    assert gen.data_passes == 1


def test_generic_assembled_equals_direct_sum():
    from gradfit.fitters import _CertObjective

    rng = np.random.default_rng(77)
    pts = rng.normal(size=(80, 2)) * 1.2
    mv = MomentVector.from_points(pts, 4)
    obj = _CertObjective(get_family("circle"), 0, mv)
    for _ in range(10):
        th = np.array([rng.uniform(-1, 1), rng.uniform(-1, 1),
                       rng.uniform(0.5, 2.0)])
        F, _ = obj._evaluate(th)[:2]
        a, b, R = th
        P = (pts[:, 0] - a) ** 2 + (pts[:, 1] - b) ** 2 - R * R
        direct = float(np.sum(P * P / (4.0 * R * R)))
        assert F == pytest.approx(direct, rel=1e-9)


def test_generic_gradient_matches_central_differences():
    from gradfit.fitters import _CertObjective

    rng = np.random.default_rng(123)
    pts = rng.normal(size=(40, 2))
    mv = MomentVector.from_points(pts, 4)
    obj = _CertObjective(get_family("circle"), 0, mv)
    worst = 0.0
    for _ in range(15):
        th = np.array([rng.uniform(-1, 1), rng.uniform(-1, 1),
                       rng.uniform(0.6, 2.0)])
        _, g = obj._evaluate(th)[:2]
        fd = np.zeros(3)
        for j in range(3):
            h = 1e-6 * (1.0 + abs(th[j]))
            up, dn = th.copy(), th.copy()
            up[j] += h
            dn[j] -= h
            fd[j] = (obj._evaluate(up)[0] - obj._evaluate(dn)[0]) / (2 * h)
        worst = max(worst, float(np.max(np.abs(g - fd) / (1.0 + np.abs(fd)))))
    assert worst < 1e-6


def test_generic_zero_noise_objective_vanishes():
    pts = circle_points(0.5, 0.5, 1.5, 30)
    res = fit_reduced_generic("circle", circle_cert(), centered_mv(pts))
    assert res.objective < 1e-12
    assert res.params.R == pytest.approx(1.5, abs=1e-9)


def test_generic_line_family_scale_invariant_fit():
    u, v, w = 0.6, 0.8, -0.7
    t = np.linspace(-1.0, 1.0, 30)
    base = np.array([-w * u, -w * v])
    pts = np.column_stack([base[0] - v * t, base[1] + u * t])
    fam = get_family("line")
    P = fam.poly({"u": u, "v": v, "w": w})
    cert = solve_nullstellensatz(P, gradient_norm_squared(P))
    res = fit_reduced_generic(
        "line", cert, MomentVector.from_points(pts, 2),
        FitConfig(init={"u": 0.5, "v": 0.85, "w": -0.6}))
    assert res.objective < 1e-12
    got = np.array([res.params["u"], res.params["v"], res.params["w"]])
    got /= math.hypot(got[0], got[1])
    assert np.max(np.abs(got - np.array([u, v, w]))) < 1e-6


def test_generic_line_fit_keeps_its_scale():
    # W P^2 is unchanged when (u, v, w) is scaled, so a plain Newton step
    # along the scale direction would mostly rescale the start
    fam = get_family("line")
    rng = np.random.default_rng(8)
    for _ in range(12):
        phi = rng.uniform(0.0, 2.0 * math.pi)
        u, v, w = math.cos(phi), math.sin(phi), rng.uniform(-2.0, 2.0)
        t = rng.uniform(-1.0, 1.0, 300)
        pts = np.column_stack([-w * u - v * t, -w * v + u * t])
        pts += rng.normal(0.0, 0.01, pts.shape)
        # ordinary least squares along the wider coordinate
        if np.ptp(pts[:, 0]) >= np.ptp(pts[:, 1]):
            m, c = np.polyfit(pts[:, 0], pts[:, 1], 1)
            start = {"u": m, "v": -1.0, "w": c}
        else:
            m, c = np.polyfit(pts[:, 1], pts[:, 0], 1)
            start = {"u": -1.0, "v": m, "w": c}
        P = fam.poly({"u": u, "v": v, "w": w})
        cert = solve_nullstellensatz(P, gradient_norm_squared(P))
        res = fit_reduced_generic("line", cert,
                                  MomentVector.from_points(pts, 2),
                                  FitConfig(init=start))
        assert res.converged and res.iterations <= 10
        scale = (math.hypot(res.params["u"], res.params["v"])
                 / math.hypot(start["u"], start["v"]))
        assert scale == pytest.approx(1.0, abs=0.03)


def test_generic_circle_above_minimal_certificate_degree():
    # at d <= 1 the identity forces W = 1 / (4 R^2), so the d = 1 fit is
    # the d = 0 fit; moments of degree 4 + d
    pts = circle_points(1.0, -0.5, 2.0, 60, noise=0.02, seed=3)
    low, high = (fit_reduced_generic("circle", circle_cert(degree=d),
                                     centered_mv(pts, 4 + d))
                 for d in (0, 1))
    assert low.converged and high.converged
    for name in "abR":
        assert getattr(high.params, name) == pytest.approx(
            getattr(low.params, name), abs=1e-9)


def test_generic_circle_at_certificate_degree_two_recovers_clean_circle():
    pts = circle_points(1.0, -0.5, 2.0, 60)
    res = fit_reduced_generic("circle", circle_cert(degree=2),
                              centered_mv(pts, 6),
                              FitConfig(init=(1.3, -0.2, 2.5)))
    assert res.converged and res.iterations >= 1
    assert res.params.a == pytest.approx(1.0, abs=1e-9)
    assert res.params.b == pytest.approx(-0.5, abs=1e-9)
    assert res.params.R == pytest.approx(2.0, abs=1e-9)


# -- the compiled certificate objective against a polynomial reference -------


def exact_dtheta(family, th, name, h=Fraction(1, 1024)):
    """dP/dtheta_name: the central difference of ``family.poly``, which
    is the derivative itself because P is quadratic in theta."""
    up, dn = dict(th), dict(th)
    up[name] += h
    dn[name] -= h
    return (family.poly(up) - family.poly(dn)) * (1 / (2 * h))


def float_system(P, Q, degree):
    """``certificate_system``'s A and b rounded to floats: its integer
    rows divided by K."""
    M, cols = certificate_system(P, Q, degree)
    S = (np.array(M, dtype=object) / M[0][-1]).astype(float)
    return S[:, :-1], S[:, -1], cols


def reference_value_grad(family, degree, mv, vec, contract):
    """F and its gradient the direct way: W from certificate_system and
    pinv, then W P^2 and its theta-derivatives (exact central differences
    of P) as polynomials contracted with the moments (the ``contract``
    fixture)."""
    th = dict(zip(family.param_names, map(float, vec)))
    P = family.poly(th)
    px, py = P.partial("x"), P.partial("y")
    A, b, cols = float_system(P, px * px + py * py, degree)
    k = len(cols)
    Ap = np.linalg.pinv(A, rcond=1e-12)
    s = Ap @ b

    def weight(sol):
        return BivariatePoly({mn: sol[k + j] for j, mn in enumerate(cols)})

    W = weight(s)
    grad = []
    for name in family.param_names:
        dP = exact_dtheta(family, th, name)
        dQ = 2.0 * (px * dP.partial("x") + py * dP.partial("y"))
        dA = np.zeros_like(A)
        low, _, _ = float_system(dP, dQ, degree)
        dA[:len(low)] = low  # rows run by degree; the rest are zero
        # derivative of the minimum-norm solution of a consistent system
        ds = -Ap @ (dA @ s) + (np.eye(2 * k) - Ap @ A) @ (dA.T @ (Ap.T @ s))
        grad.append(contract(mv, weight(ds) * P * P + 2.0 * (W * P * dP)))
    return contract(mv, W * P * P), np.array(grad)


def reference_hessian(obj, vec):
    """H one parameter at a time: central differences of the exact
    gradient; for a scale-free family projected orthogonal to theta, as
    the driver's Hessian is."""
    k = len(vec)
    H = np.zeros((k, k))
    for j in range(k):
        h = 1e-5 * (1.0 + abs(vec[j]))
        up, dn = vec.copy(), vec.copy()
        up[j] += h
        dn[j] -= h
        H[:, j] = (obj._evaluate(up)[1] - obj._evaluate(dn)[1]) / (2.0 * h)
    if obj.scale_free:
        t = vec / np.linalg.norm(vec)
        proj = np.eye(k) - np.outer(t, t)
        H = proj @ H @ proj + np.max(np.abs(H)) * np.outer(t, t)
    return H


def random_theta(family, rng):
    if family == "circle":
        return np.array([rng.uniform(-1, 1), rng.uniform(-1, 1),
                         rng.uniform(0.5, 2.0)])
    phi = rng.uniform(0.0, 2.0 * math.pi)
    return np.array([rng.uniform(0.5, 2.0) * math.cos(phi), math.sin(phi),
                     rng.uniform(-1, 1)])


@pytest.mark.parametrize("family", ["circle", "line"])
@pytest.mark.parametrize("d", [0, 1, 2])
def test_compiled_objective_matches_polynomial_reference(family, d,
                                                         contract):
    fam = get_family(family)
    rng = np.random.default_rng(40 + d)
    need = d + (4 if family == "circle" else 2)
    for _ in range(3):
        pts = rng.normal(size=(int(rng.integers(20, 150)), 2)) * 1.3
        offset = (0.2, -0.1) if family == "circle" else (0.0, 0.0)
        mv = MomentVector.from_points(pts, need, offset=offset)
        obj = _CertObjective(fam, d, mv)
        for _ in range(4):
            th = random_theta(family, rng)
            F, g = obj._evaluate(th)[:2]
            F_ref, g_ref = reference_value_grad(fam, d, mv, th, contract)
            assert F == pytest.approx(F_ref, rel=1e-12)
            assert np.max(np.abs(g - g_ref)) <= 1e-12 * np.max(np.abs(g_ref))


def _scaled_circle_poly(th):
    """(a x - 1)^2 + (a y - b)^2 - R^2, the circle of centre (1, b) / a and
    radius R / |a|: its x, y, x^2 and y^2 coefficients are quadratic in
    theta, which a second derivative of Q sees."""
    a, b, R = (Fraction(th[k]) for k in "abR")
    return BivariatePoly({(2, 0): a * a, (0, 2): a * a, (1, 0): -2 * a,
                          (0, 1): -2 * a * b, (0, 0): 1 + b * b - R * R})


HESSIAN_FAMILIES = {
    "circle": get_family("circle"),
    "line": get_family("line"),
    "scaled_circle": dataclasses.replace(
        get_family("circle"), name="scaled_circle",
        build_poly=_scaled_circle_poly),
}


@pytest.mark.parametrize("family", list(HESSIAN_FAMILIES))
@pytest.mark.parametrize("d", [0, 1, 2])
def test_exact_hessian_matches_gradient_differences(family, d):
    fam = HESSIAN_FAMILIES[family]
    rng = np.random.default_rng(60 + d)
    need = d + (2 if family == "line" else 4)
    for _ in range(3):
        pts = rng.normal(size=(int(rng.integers(20, 150)), 2)) * 1.3
        mv = MomentVector.from_points(pts, need)
        obj = _CertObjective(fam, d, mv)
        for _ in range(4):
            th = random_theta("line" if family == "line" else "circle", rng)
            if family == "scaled_circle":
                th[0] = rng.uniform(0.5, 2.0)  # a = 0 is no circle
            P = fam.poly(dict(zip(fam.param_names, th)))
            A, _, _ = float_system(P, gradient_norm_squared(P), d)
            # lines at d >= 1 and circles at d >= 2 have rank-deficient
            # systems, whose solution's derivatives have a null-space part
            deficient = np.linalg.matrix_rank(A) < A.shape[1]
            assert deficient == (d >= (1 if family == "line" else 2))
            F, g, hess, _ = obj.evaluate(th)
            F_ref, g_ref = obj._evaluate(th)[:2]
            if obj.scale_free:  # the driver's gradient is projected
                t = th / np.linalg.norm(th)
                g_ref = (np.eye(len(t)) - np.outer(t, t)) @ g_ref
            assert F == F_ref
            assert np.max(np.abs(g - g_ref)) <= 1e-12 * np.max(np.abs(g_ref))
            H, H_ref = hess(), reference_hessian(obj, th)
            assert np.max(np.abs(H - H_ref)) <= 1e-6 * np.max(np.abs(H_ref))


def line_cloud(seed, n=2000, sigma=0.01):
    """Noisy points along a random unit line, its certificate, and the
    ordinary least-squares start along the wider coordinate."""
    rng = np.random.default_rng(seed)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    u, v, w = math.cos(phi), math.sin(phi), rng.uniform(-2.0, 2.0)
    t = rng.uniform(-1.0, 1.0, n)
    pts = np.column_stack([-w * u - v * t, -w * v + u * t])
    pts += rng.normal(0.0, sigma, pts.shape)
    if np.ptp(pts[:, 0]) >= np.ptp(pts[:, 1]):
        m, c = np.polyfit(pts[:, 0], pts[:, 1], 1)
        start = {"u": m, "v": -1.0, "w": c}
    else:
        m, c = np.polyfit(pts[:, 1], pts[:, 0], 1)
        start = {"u": -1.0, "v": m, "w": c}
    P = get_family("line").poly({"u": u, "v": v, "w": w})
    cert = solve_nullstellensatz(P, gradient_norm_squared(P))
    return pts, cert, start


def test_hessian_is_asked_for_only_where_a_step_is_computed(monkeypatch):
    evals, hessians = [], []
    evaluate = _CertObjective.evaluate

    def counting(self, vec):
        F, g, hess, noise = evaluate(self, vec)
        evals.append(1)

        def counted():
            hessians.append(1)
            return hess()
        return F, g, counted, noise

    monkeypatch.setattr(_CertObjective, "evaluate", counting)
    # a clean circle: Pratt's start is the minimizer
    pts = circle_points(0.5, -0.2, 1.5, 40)
    res = fit_reduced_generic("circle", circle_cert(), centered_mv(pts))
    assert res.converged and res.iterations == 0
    assert (len(evals), len(hessians)) == (1, 0)
    evals.clear()
    pts, cert, start = line_cloud(3)
    res = fit_reduced_generic("line", cert, MomentVector.from_points(pts, 2),
                              FitConfig(init=start))
    assert res.converged and res.iterations >= 2
    # one Hessian per step, none at the point the fit ends on
    assert len(hessians) == res.iterations < len(evals)


@pytest.mark.parametrize("seed", [1, 12])
def test_generic_line_fit_converges_by_the_gradient_test(seed):
    # F = w.(T p p) cancels terms far larger than itself, so its rounding
    # exceeds the driver's relative band near the minimizer; without the
    # objective's own rounding bound, the last Newton step reads as an
    # ascent and the fit stops on the step test short of the minimizer
    pts, cert, start = line_cloud(seed)
    res = fit_reduced_generic("line", cert, MomentVector.from_points(pts, 2),
                              FitConfig(init=start))
    assert res.converged
    assert res.diagnostics["gradient_inf_norm"] <= 1e-10 * (
        1.0 + res.objective)


def test_generic_degree_guard():
    cert = circle_cert()
    deep = ReductionCertificate(U=cert.U, W=cert.W, degree=2)
    mv = MomentVector.from_points(circle_points(0, 0, 1, 12), 4)
    with pytest.raises(DegreeMismatch):
        fit_reduced_generic("circle", deep, mv)


def unit_line(params) -> np.ndarray:
    """(u, v, w) scaled to a unit normal whose larger entry is positive:
    one representative of a line's scale and sign."""
    p = np.array([params["u"], params["v"], params["w"]])
    p /= math.hypot(p[0], p[1])
    return p if p[np.argmax(np.abs(p[:2]))] > 0.0 else -p


def test_generic_line_starts_at_orthogonal_regression():
    # the line's closed-form start is the objective's minimizer: no Newton
    # step is left, and the fit from the least-squares start ends on it
    for seed in (1, 3, 12):
        pts, cert, start = line_cloud(seed)
        mv = MomentVector.from_points(pts, 2)
        res = fit_reduced_generic("line", cert, mv)
        ref = fit_reduced_generic("line", cert, mv, FitConfig(init=start))
        assert res.converged and res.iterations == 0
        assert ref.converged and ref.iterations >= 2
        assert np.max(np.abs(unit_line(res.params)
                             - unit_line(ref.params))) <= 1e-12


@pytest.mark.parametrize("pts, cause", [
    ([(0.5, 2.0)], "2 points"),
    ([(1.0, -1.0)] * 5, "isotropic"),
    ([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)], "isotropic"),
    # a clear line, but its scatter about (0, 0) cancels below the rounding
    # of sums near 1e18
    ([(1e9 + t, 1e9 - t) for t in (-1.0, 0.0, 1.0)], "about the centroid"),
], ids=["one point", "coincident points", "square corners",
        "far from the offset"])
def test_line_start_refuses_points_no_line_fits_best(pts, cause):
    P = get_family("line").poly({"u": 1.0, "v": 0.0, "w": 0.0})
    cert = solve_nullstellensatz(P, gradient_norm_squared(P))
    mv = MomentVector.from_points(pts, 2)
    with pytest.raises(DegenerateData, match=cause):
        fitters._line_start(mv)
    with pytest.raises(DegenerateData):
        fit_reduced_generic("line", cert, mv)


def test_generic_noncircle_takes_a_start_in_parameter_order():
    fam = get_family("line")
    P = fam.poly({"u": 0.1, "v": 1.0, "w": -0.5})
    cert = solve_nullstellensatz(P, gradient_norm_squared(P))
    rng = np.random.default_rng(20)
    xs = np.linspace(-1.0, 1.0, 20)
    pts = np.column_stack([xs, 0.5 - 0.1 * xs + rng.normal(0.0, 0.01, 20)])
    mv = MomentVector.from_points(pts, 2)

    def fit(init):
        res = fit_reduced_generic(fam, cert, mv, FitConfig(init=init))
        blob = res.to_dict()
        del blob["iteration_seconds"]
        return blob

    by_name = fit({"u": 0.0, "v": 1.0, "w": -0.4})
    assert by_name["converged"]
    assert fit((0.0, 1.0, -0.4)) == by_name
    assert fit(np.array([0.0, 1.0, -0.4])) == by_name
    for wrong in [(0.0, 1.0), (0.0, 1.0, -0.4, 2.0)]:
        with pytest.raises(InvalidSpec, match="start of"):
            fit(wrong)


def test_circle_starts_are_read_like_family_starts():
    mv = centered_mv(arc_points(2.0, -1.0, 3.0, 1.0, 200, 0.01, seed=6))

    def fit(init):
        blob = fit_circle_reduced(mv, FitConfig(init=init)).to_dict()
        del blob["iteration_seconds"]
        return blob

    by_name = fit({"a": 2.5, "b": -1.0, "R": 2.0})
    assert fit((2.5, -1.0, 2.0)) == by_name
    assert fit(CircleParams(2.5, -1.0, 2.0)) == by_name
    for bad, match in [({"a": 2.5, "b": -1.0}, "missing parameters"),
                       ({"a": 2.5, "b": -1.0, "R": 2.0, "c": 0.0},
                        "unknown parameters"),
                       ((2.5, -1.0), "start of"),
                       (2.5, "sequence"),
                       (("x", -1.0, 2.0), "numbers")]:
        with pytest.raises(InvalidSpec, match=match):
            fit(bad)
    with pytest.raises(InvalidRadius):
        fit({"a": 2.5, "b": -1.0, "R": -2.0})


def test_generic_line_fits_at_any_offset():
    # the line's parameters move into the accumulator's frame and back
    pts, cert, start = line_cloud(3)
    for cfg in (None, FitConfig(init=start)):
        at_origin, moved = (
            fit_reduced_generic("line", cert, MomentVector.from_points(
                pts, 2, offset=offset), cfg)
            for offset in ((0.0, 0.0), (0.5, 0.0)))
        assert moved.converged
        assert moved.iterations == at_origin.iterations
        assert np.max(np.abs(unit_line(moved.params)
                             - unit_line(at_origin.params))) <= 1e-12
    # x = 0.5 accumulated about a point on it
    vertical = [(0.5, t) for t in np.linspace(-1, 1, 9)]
    res = fit_reduced_generic("line", cert, MomentVector.from_points(
        vertical, 2, offset=(0.5, 0.0)))
    assert res.converged and res.objective < 1e-30
    assert np.max(np.abs(unit_line(res.params) - [1.0, 0.0, -0.5])) < 1e-15


def test_generic_line_far_from_the_origin_matches_the_near_fit():
    # dyadic points, multiples of 2^-20 near the origin, and the same
    # points moved by 2^20 in x and in y, so that the move is exact; each
    # set accumulated about its own centroid
    rng = np.random.default_rng(5)
    u, v, w = math.cos(0.3), math.sin(0.3), 0.7
    t = rng.uniform(-1.0, 1.0, 200)
    near = np.column_stack([-w * u - v * t, -w * v + u * t])
    near = np.round((near + rng.normal(0.0, 0.01, near.shape)) * 2.0 ** 20)
    near /= 2.0 ** 20
    far = near + 2.0 ** 20
    assert np.array_equal(far - 2.0 ** 20, near)
    P = get_family("line").poly({"u": u, "v": v, "w": w})
    cert = solve_nullstellensatz(P, gradient_norm_squared(P))
    fits = [fit_reduced_generic("line", cert, centered_mv(pts, 2))
            for pts in (near, far)]
    assert all(f.converged and f.iterations == 0 for f in fits)
    (un, vn, wn), (uf, vf, wf) = (unit_line(f.params) for f in fits)
    assert abs(uf - un) <= 1e-12 and abs(vf - vn) <= 1e-12
    # the near line u x + v y + w in coordinates moved by (2^20, 2^20)
    moved = Fraction(wn) - (Fraction(un) + Fraction(vn)) * 2 ** 20
    assert abs(Fraction(wf) - moved) <= 1e-12 * abs(moved)


def test_every_admissible_registry_family_has_a_start_and_a_shift():
    # a family the analyzer admits fits its own clean points from an
    # accumulator about their centroid, with no FitConfig, at its start
    admissible = [name for name in sorted(FAMILIES)
                  if analyze_family(name, 3).verdict == "admissible"]
    assert admissible
    rng = np.random.default_rng(17)
    for name in admissible:
        fam = get_family(name)
        assert fam in fitters._FRAMES, f"{name} has no start and shift"
        for draw in range(5):
            theta = fam.sample_theta(rng)
            pts = generate(SyntheticSpec(name, theta, 200, seed=draw))
            P = fam.poly(theta)
            cert = decide_reduction(P, gradient_norm_squared(P)).certificate
            res = fit_reduced_generic(
                fam, cert, centered_mv(pts, cert.degree + 2 * P.degree()))
            assert res.converged and res.iterations == 0, (name, theta)
            got, want = res.to_dict()["params"], theta
            if name == "line":
                got, want = unit_line(got), unit_line(want)
            else:
                got, want = (np.array([p[k] for k in fam.param_names])
                             for p in (got, want))
            assert np.max(np.abs(got - want)) <= 1e-12, (name, theta)


# -- result plumbing ---------------------------------------------------------


def test_fits_without_a_config_use_one_frozen_default():
    default = fitters._DEFAULT_CONFIG
    with pytest.raises(dataclasses.FrozenInstanceError):
        default.max_iterations = 1
    assert default == FitConfig()
    mv = centered_mv(arc_points(2.0, -1.0, 3.0, 1.0, 200, 0.01, seed=5))
    for fit, args in [(fit_circle_reduced, (mv,)),
                      (fit_reduced_generic, ("circle", circle_cert(), mv))]:
        implicit, explicit = fit(*args).to_dict(), \
            fit(*args, FitConfig()).to_dict()
        del implicit["iteration_seconds"], explicit["iteration_seconds"]
        assert implicit == explicit


def test_fit_result_serializes_to_plain_types():
    import json

    pts = circle_points(0.0, 0.0, 1.0, 16, noise=0.01, seed=4)
    res = fit_circle_reduced(centered_mv(pts))
    blob = json.dumps(res.to_dict())
    back = json.loads(blob)
    assert back["family"] == "circle"
    assert back["converged"] is True
    assert set(back["params"]) == {"a", "b", "R"}
