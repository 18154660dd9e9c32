from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradfit.analyzer import coefficients, solve_nullstellensatz
from gradfit.errors import InvalidSpec
from gradfit.families import FAMILIES, CurveFamily, get_family
from gradfit.fitters import FitConfig, _family_map, fit_reduced_generic
from gradfit.moments import MomentVector
from gradfit.poly import BivariatePoly, gradient_norm_squared

RNG = np.random.default_rng(2024)


def test_registry_names():
    assert set(FAMILIES) == {"circle", "ellipse", "hyperbola", "parabola",
                             "line"}


def test_unknown_family_rejected():
    with pytest.raises(InvalidSpec):
        get_family("banana")


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_sampled_theta_is_valid(name):
    fam = get_family(name)
    for _ in range(20):
        fam.validate(fam.sample_theta(RNG))


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_point_at_lies_on_curve(name):
    fam = get_family(name)
    lo, hi = fam.t_range
    for _ in range(10):
        theta = fam.sample_theta(RNG)
        P = fam.poly(theta)
        for t in np.linspace(lo, hi, 17):
            x, y = fam.point_at(theta, float(t))
            assert abs(P.eval(x, y)) < 1e-10


def family_map_value(fmap, th):
    """c0 + C1 theta + theta' C2 theta / 2 in exact arithmetic."""
    c0, C1, C2 = (np.vectorize(Fraction, otypes=[object])(a)
                  for a in (fmap.c0, fmap.C1, fmap.C2))
    th = np.array(th, dtype=object)
    return c0 + th @ C1 + th @ np.tensordot(th, C2, 1) / 2


def line_derived(name, build):
    line = get_family("line")
    return CurveFamily(name, line.param_names, line.t_range, build,
                       line.sample_theta, line.point_at, line.check_theta)


# quadratic in theta with every cross term u v, u w, v w
SQUARED_LINE = line_derived(
    "squared_line", lambda th: get_family("line").build_poly(th) ** 2)
MAPPED = pytest.mark.parametrize(
    "fam", [*FAMILIES.values(), SQUARED_LINE], ids=lambda f: f.name)


@MAPPED
def test_family_map_reproduces_poly_exactly(fam):
    fmap = _family_map(fam)
    for _ in range(5):
        # rationals that are not dyadic, so no float could stand in
        th = {k: Fraction(v).limit_denominator(1000)
              for k, v in fam.sample_theta(RNG).items()}
        P = fam.poly(th)
        mapped = family_map_value(fmap, [th[k] for k in fam.param_names])
        assert list(mapped) == list(coefficients(P, fmap.degree))


@MAPPED
def test_family_map_derivative_is_exact_central_difference(fam):
    fmap = _family_map(fam)
    h = Fraction(1, 1024)
    for _ in range(5):
        theta = fam.sample_theta(RNG)
        vec = np.array([theta[k] for k in fam.param_names])
        dp = fmap.C1 + np.einsum("tsa,s->ta", fmap.C2, vec)
        for j, k in enumerate(fam.param_names):
            up = dict(theta, **{k: Fraction(theta[k]) + h})
            dn = dict(theta, **{k: Fraction(theta[k]) - h})
            # exact: P is quadratic in theta
            fd = (coefficients(fam.poly(up), fmap.degree)
                  - coefficients(fam.poly(dn), fmap.degree)) / (2 * h)
            assert np.allclose(dp[j], fd.astype(float), rtol=1e-15, atol=0)


def test_family_not_quadratic_in_theta_is_refused():
    cubic = line_derived("cubic", lambda th: BivariatePoly(
        {(1, 0): th["u"], (0, 1): th["v"] ** 3, (0, 0): th["w"]}))
    P = get_family("line").poly({"u": 1.0, "v": 0.0, "w": 0.0})
    cert = solve_nullstellensatz(P, gradient_norm_squared(P))
    pts = np.column_stack([np.linspace(-1.0, 1.0, 20), np.zeros(20)])
    with pytest.raises(InvalidSpec, match="not quadratic"):
        fit_reduced_generic(cubic, cert, MomentVector.from_points(pts, 2),
                            FitConfig(init={"u": 0.1, "v": 1.0, "w": 0.0}))


def test_unknown_parameter_names_are_refused():
    for fam in FAMILIES.values():
        theta = {**fam.sample_theta(RNG), "Rr": 5.0, "zz": 1.0}
        for build in (fam.validate, fam.poly):
            with pytest.raises(InvalidSpec,
                               match=r"unknown parameters \['Rr', 'zz'\]"):
                build(theta)


def test_derived_families_need_a_start_and_moments_about_the_origin():
    # the generic fit's closed-form starts and parameter shifts belong to
    # the registry's circle and line: a family derived from the line, even
    # one under its name, fits only from a given start about the origin
    line = get_family("line")
    P = line.poly({"u": 1.0, "v": 0.0, "w": -0.5})
    cert = solve_nullstellensatz(P, gradient_norm_squared(P))
    pts = [(0.5, t) for t in np.linspace(-1.0, 1.0, 9)]
    start = FitConfig(init={"u": 1.0, "v": 0.1, "w": -0.5})
    ref = fit_reduced_generic(line, cert, MomentVector.from_points(pts, 2),
                              start)
    for name in ("derived_line", "line"):
        fam = line_derived(name, lambda th: line.build_poly(th))
        with pytest.raises(InvalidSpec, match="FitConfig.init"):
            fit_reduced_generic(fam, cert, MomentVector.from_points(pts, 2))
        with pytest.raises(InvalidSpec, match="about the origin"):
            fit_reduced_generic(fam, cert, MomentVector.from_points(
                pts, 2, offset=(0.5, 0.0)), start)
        res = fit_reduced_generic(fam, cert,
                                  MomentVector.from_points(pts, 2), start)
        assert res.params == ref.params


def test_generic_fit_refuses_unknown_start_parameters():
    P = get_family("line").poly({"u": 1.0, "v": 0.0, "w": 0.0})
    cert = solve_nullstellensatz(P, gradient_norm_squared(P))
    pts = np.column_stack([np.linspace(-1.0, 1.0, 20), np.zeros(20)])
    with pytest.raises(InvalidSpec, match="unknown parameters"):
        fit_reduced_generic(get_family("line"), cert,
                            MomentVector.from_points(pts, 2),
                            FitConfig(init={"u": 0.1, "v": 1.0, "w": 0.0,
                                            "R": 1.0}))


def test_scale_free_families_are_linear_in_theta():
    # P(s theta) = s P(theta): the line and the central conics, whose
    # coefficients are the parameters themselves
    assert {n for n, f in FAMILIES.items() if _family_map(f).scale_free} == {
        "ellipse", "hyperbola", "line"}


def test_exact_mode_converts_floats_as_dyadics():
    P = get_family("circle").poly({"a": 0.5, "b": 0.25, "R": 1.0})
    # 0.25 + 0.0625 - 1 with no rounding anywhere
    assert P.coeff(0, 0) == Fraction(-11, 16)
    assert P.coeff(1, 0) == Fraction(-1, 1)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_poly_refuses_a_float_domain(name):
    fam = get_family(name)
    theta = fam.sample_theta(RNG)
    assert fam.poly(theta, exact=True) == fam.poly(theta)
    with pytest.raises(InvalidSpec, match="exact only"):
        fam.poly(theta, exact=False)


@pytest.mark.parametrize("name,theta", [
    ("circle", {"a": 0.0, "b": 0.0}),                      # missing R
    ("circle", {"a": 0.0, "b": 0.0, "R": 0.0}),
    ("circle", {"a": 0.0, "b": 0.0, "R": -2.0}),
    ("circle", {"a": float("nan"), "b": 0.0, "R": 1.0}),
    ("ellipse", {"a": 1.0, "b": 1.0, "c": -1.0}),          # circle in disguise
    ("ellipse", {"a": 1.0, "b": 0.0, "c": -1.0}),
    ("hyperbola", {"a": 1.0, "b": -1.0, "c": 0.0}),
    ("parabola", {"c": 0.0}),
    ("line", {"u": 0.0, "v": 0.0, "w": 1.0}),
])
def test_invalid_thetas_rejected(name, theta):
    with pytest.raises(InvalidSpec):
        get_family(name).validate(theta)


@settings(max_examples=40, deadline=None)
@given(a=st.floats(-2, 2), b=st.floats(-2, 2),
       R=st.floats(0.1, 3), t=st.floats(0, 7))
def test_circle_points_at_exact_distance(a, b, R, t):
    fam = get_family("circle")
    x, y = fam.point_at({"a": a, "b": b, "R": R}, t)
    assert abs(np.hypot(x - a, y - b) - R) < 1e-12
