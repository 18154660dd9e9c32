"""Analyzer: witness search, certificates, exclusivity, family reports."""

import cmath
import json
from fractions import Fraction

import numpy as np
import pytest

from gradfit.analyzer import (
    CommonZeroWitness,
    analyze_family,
    certificate_system,
    decide_reduction,
    default_degree_bound,
    find_common_zero,
    solve_nullstellensatz,
    _solve_exact_at,
)
from gradfit.errors import BoundExhausted, DegenerateInput, InvalidSpec
from gradfit.families import CurveFamily, get_family
from gradfit.poly import (
    BivariatePoly,
    gradient_norm_squared,
    parse_poly,
)

X = BivariatePoly.variable("x")
Y = BivariatePoly.variable("y")


def circle_poly(a, b, R):
    return BivariatePoly(
        {(2, 0): 1, (0, 2): 1, (1, 0): -2 * a, (0, 1): -2 * b,
         (0, 0): a * a + b * b - R * R},
    )


def random_poly(rng, max_deg=3, nterms=6):
    keys = [(p, q) for p in range(max_deg + 1) for q in range(max_deg + 1 - p)]
    idx = rng.choice(len(keys), size=min(nterms, len(keys)), replace=False)
    return BivariatePoly(
        {keys[i]: float(rng.uniform(-2, 2)) for i in idx}, exact=False
    )


# -- witness search ---------------------------------------------------------

def test_circle_has_no_common_zero():
    for a, b, R in [(0.0, 0.0, 1.0), (1.0, -2.0, 3.0), (0.5, 0.5, 0.5)]:
        P = circle_poly(a, b, R)
        assert find_common_zero(P, gradient_norm_squared(P)) is None


def test_ellipse_witness_matches_closed_form():
    a, b, c = 1.0, 2.0, 1.0
    P = BivariatePoly({(2, 0): a, (0, 2): b, (0, 0): c}, exact=False)
    w = find_common_zero(P, gradient_norm_squared(P))
    assert w is not None
    xe = cmath.sqrt(b * c / (a * (a - b)))
    ye = cmath.sqrt(-a * c / (b * (a - b)))
    assert min(abs(w.x - s * xe) for s in (1, -1)) < 1e-8
    assert min(abs(w.y - s * ye) for s in (1, -1)) < 1e-8


def test_parabola_witness_is_i_over_2c():
    for c in (1.0, 0.5, 2.0):
        P = Y - c * X ** 2
        w = find_common_zero(P.to_float(), gradient_norm_squared(P).to_float())
        assert w is not None
        assert min(abs(w.x - s * 0.5j / c) for s in (1, -1)) < 1e-8
        assert abs(w.y - (-1.0 / (4 * c))) < 1e-8


def test_parabola_double_root_witness_is_found():
    # the x-eliminated resultant is (y + 1/(4c))^2: the witness lies on its
    # double root, which root finding must not move off the true value
    for c in (0.6055845711802689, 0.6925030583875271):
        P = get_family("parabola").poly({"c": c}, exact=True)
        decision = decide_reduction(P)
        assert not decision.admissible
        assert abs(decision.witness.y + 1.0 / (4 * c)) < 1e-8


def test_flat_parabola_witness_is_found():
    # c = 4e-6: the normalized |grad P|^2 is 1 + 6.4e-11 x^2, so the
    # y-resultant keeps that tiny x^2 term (the witness's x = +-i/(2c)), and
    # the x-resultant's double root y = -1/(4c) splits by about 1e-3 of its
    # size in rounding, so only its value, not its computed roots, admits y
    c = 4e-6
    P = get_family("parabola").poly({"c": c}, exact=True)
    for Pk in (P, P.to_float()):
        w = find_common_zero(Pk, gradient_norm_squared(Pk))
        assert w is not None
        assert min(abs(w.x - s * 0.5j / c) for s in (1, -1)) <= 1e-8 * 0.5 / c
        assert abs(w.y + 1.0 / (4 * c)) <= 1e-8 / (4 * c)
        assert not decide_reduction(Pk).admissible


def test_float_shared_factor_with_inexact_coefficients_gives_witness():
    # both resultants of P = (y - 0.7x)(x + 2) and Q = (y - 0.7x)(y + 1)
    # vanish identically; in floats they are rounding noise of about 1e-17
    # of their Sylvester bound, which a trim relative to their own largest
    # coefficient keeps, so the shared-factor slices never ran
    x, y = parse_poly("x", exact=False), parse_poly("y", exact=False)
    line = y - 0.7 * x
    P, Q = line * (x + 2.0), line * (y + 1.0)
    w = find_common_zero(P, Q)
    assert w is not None
    assert abs(w.y - 0.7 * w.x) <= 1e-8 * max(1.0, abs(w.x))
    decision = decide_reduction(P, Q, 4)
    assert not decision.admissible and decision.witness is not None


@pytest.mark.parametrize("a, R", [(0.0, 1e-4), (1.0, 1e-3)])
def test_small_circle_resultant_is_not_taken_for_noise(a, R):
    # the resultants of a circle of radius R and its |grad P|^2 are
    # constants of order R^4, here 6e-18 and 2e-15 of their Sylvester
    # bound, as small as a shared factor's rounding noise; they are computed
    # accurately, so they must still prove that there is no common zero
    P = get_family("circle").poly({"a": a, "b": 0.0, "R": R}, exact=True)
    for Pk in (P, P.to_float()):
        assert find_common_zero(Pk, gradient_norm_squared(Pk)) is None
    assert decide_reduction(P).admissible


def test_parabola_sweep_has_no_wrong_verdict():
    # guards the lift that once missed the double root of the parabola's
    # x-eliminated resultant (BoundExhausted for about one c in a thousand)
    for c in np.random.default_rng(7).uniform(0.5, 2.0, 1000):
        P = get_family("parabola").poly({"c": float(c)}, exact=True)
        assert not decide_reduction(P).admissible


def test_witness_residuals_meet_tolerance():
    rng = np.random.default_rng(31)
    seen = 0
    while seen < 15:
        P, Q = random_poly(rng), random_poly(rng)
        if P.degree() <= 0 or Q.is_zero():
            continue
        w = find_common_zero(P, Q)
        if w is None:
            continue
        assert max(w.residual_P, w.residual_Q) <= 1e-8
        seen += 1


def test_constant_p_rejected():
    with pytest.raises(DegenerateInput):
        find_common_zero(BivariatePoly.constant(3), X + Y)


def test_shared_factor_yields_witness():
    # common factor (y - x): resultant vanishes identically
    P = (Y - X) * (X + 2)
    Q = (Y - X) * (Y + 1)
    w = find_common_zero(P.to_float(), Q.to_float())
    assert w is not None
    assert abs(w.x - w.y) < 1e-6


def test_vanishing_leading_coefficient_not_mistaken_for_zero():
    # leading y-coefficient of P dies at x = 0 but no common zero exists:
    # Q - P*y = 2 rules one out identically
    P = (X * Y ** 2 + X + 3).to_float()
    Q = P * Y + 2.0
    assert find_common_zero(P, Q) is None
    cert = solve_nullstellensatz(P, Q, 9)
    assert cert is not None


def test_both_univariate_same_variable():
    # everything constant in y: handled through the x-elimination
    P = (X ** 2 - 1).to_float()
    Q = (X - 1).to_float() * 2.0
    w = find_common_zero(P, Q)
    assert w is not None
    assert abs(w.x - 1.0) < 1e-8
    assert find_common_zero((X ** 2 - 1).to_float(), (X - 3).to_float()) is None


# -- certificates -----------------------------------------------------------

@pytest.mark.parametrize("d", [0, 1, 2])
def test_certificate_system_exact_and_float_agree(d):
    rng = np.random.default_rng(90 + d)
    P, Q = random_poly(rng), random_poly(rng, max_deg=4)
    A, b, cols = certificate_system(P.to_exact(), Q.to_exact(), d)
    Af, bf, cols_f = certificate_system(P, Q, d)
    assert all(isinstance(v, Fraction) for v in [*A.flat, *b])
    assert Af.dtype == bf.dtype == np.float64
    assert cols == cols_f and len(cols) == (d + 1) * (d + 2) // 2
    assert np.array_equal(A.astype(float), Af)
    assert np.array_equal(b.astype(float), bf)


@pytest.mark.parametrize("d", [0, 1, 2])
def test_certificate_system_lower_degree_rows_are_a_prefix(d):
    # the generic fit builds dA from (dP, dQ), of lower degree than (P, Q),
    # and uses it as the leading rows of A's shape
    low_P, low_Q = X * Y + 3 * X - 2, X ** 2 - Y + 5
    high_P, high_Q = X ** 3 - 2 * Y ** 2, 4 * X * Y ** 3
    A, b, cols = certificate_system(low_P, low_Q, d)
    A2, _, _ = certificate_system(high_P, high_Q, d)
    Asum, bsum, _ = certificate_system(low_P + high_P, low_Q + high_Q, d)
    m = len(A)
    assert m < len(A2) == len(Asum)
    assert (Asum[:m] == A + A2[:m]).all() and (Asum[m:] == A2[m:]).all()
    assert (bsum[:m] == b).all() and not bsum[m:].any()


@pytest.mark.parametrize("d", [2, 3])
def test_exact_solve_above_minimal_degree_is_minimum_norm(d):
    # above degree 0 the circle's system has free columns, so the exact
    # solver projects onto the solution set through its Gram system
    P = circle_poly(Fraction(1, 2), Fraction(-3, 4), Fraction(5, 4))
    Q = gradient_norm_squared(P)
    U, W = _solve_exact_at(P, Q, d)
    A, b, cols = certificate_system(P.to_float(), Q.to_float(), d)
    assert np.linalg.matrix_rank(A) < A.shape[1]
    exact = [float(poly.coeff(p, q)) for poly in (U, W) for p, q in cols]
    assert np.max(np.abs(np.array(exact) - np.linalg.pinv(A) @ b)) < 1e-12


def test_circle_certificate_exact_at_degree_zero():
    P = circle_poly(Fraction(1), Fraction(-2), Fraction(3, 2))
    Q = gradient_norm_squared(P)
    cert = solve_nullstellensatz(P, Q, 9)
    assert cert is not None and cert.degree == 0
    R2 = Fraction(3, 2) ** 2
    assert cert.U == BivariatePoly.constant(-1 / R2)
    assert cert.W == BivariatePoly.constant(1 / (4 * R2))
    assert cert.identity_residual == 0.0


def test_ellipse_certificate_infeasible_at_all_degrees():
    P = BivariatePoly({(2, 0): 1, (0, 2): 2, (0, 0): 1})
    Q = gradient_norm_squared(P)
    assert solve_nullstellensatz(P, Q, 9) is None


def test_unit_ideal_certificate():
    cert = solve_nullstellensatz(BivariatePoly.constant(1), X ** 2 + Y ** 2, 9)
    assert cert is not None and cert.degree == 0
    assert cert.U == BivariatePoly.constant(1)
    assert cert.W == BivariatePoly.constant(0)


def test_minimal_degree_is_reported():
    # x^2 and (x+1)^2: coprime, but no degree-0 combination reaches 1
    P = X ** 2
    Q = (X + 1) ** 2
    cert = solve_nullstellensatz(P, Q, 9)
    assert cert is not None
    assert cert.degree == 1
    assert cert.identity_residual == 0.0


def test_float_certificate_residual_bound():
    P = circle_poly(0.25, -0.75, 1.25).to_float()
    Q = gradient_norm_squared(P)
    cert = solve_nullstellensatz(P, Q, 9)
    assert cert is not None and cert.degree == 0
    assert cert.identity_residual <= 1e-10
    assert (P * cert.U + Q * cert.W - 1).max_coeff_mag() <= 1e-10


# -- combined decision ------------------------------------------------------

def test_decide_circle_admissible():
    d = decide_reduction(circle_poly(0.5, 0.5, 2.0).to_float())
    assert d.admissible and d.certificate is not None and d.witness is None


def test_decide_ellipse_not_admissible():
    P = BivariatePoly({(2, 0): 1.0, (0, 2): 2.0, (0, 0): 1.0}, exact=False)
    d = decide_reduction(P)
    assert not d.admissible and d.witness is not None


def test_decide_raises_bound_exhausted_when_inconclusive():
    with pytest.raises(BoundExhausted):
        decide_reduction(X ** 2, (X + 1) ** 2, max_degree=0)


def test_default_degree_bound_is_bezout_flavored():
    P = circle_poly(0, 0, 1)
    assert default_degree_bound(P, gradient_norm_squared(P)) == 9
    assert default_degree_bound(X ** 4 + Y, X ** 5 - Y) == 20


def test_exclusivity_on_random_pairs():
    rng = np.random.default_rng(99)
    checked = 0
    while checked < 25:
        P = random_poly(rng, max_deg=2, nterms=5)
        Q = random_poly(rng, max_deg=2, nterms=5)
        if P.degree() <= 0 or Q.is_zero():
            continue
        w = find_common_zero(P, Q)
        cert = solve_nullstellensatz(P, Q, 9)
        assert (w is None) != (cert is None), f"exclusivity broken for {P}, {Q}"
        checked += 1


def test_invariance_under_similarity_transforms(similar):
    rng = np.random.default_rng(17)
    for _ in range(12):
        P = random_poly(rng, max_deg=2, nterms=5)
        if P.degree() <= 0:
            continue
        Pt = similar(
            P,
            angle=float(rng.uniform(-3, 3)),
            scale=float(rng.uniform(0.5, 2.0)),
            tx=float(rng.uniform(-1, 1)),
            ty=float(rng.uniform(-1, 1)),
            mirror=bool(rng.integers(2)),
        )
        before = find_common_zero(P, gradient_norm_squared(P)) is not None
        after = find_common_zero(Pt, gradient_norm_squared(Pt)) is not None
        assert before == after


# -- family analysis --------------------------------------------------------

def test_analyze_circle_family():
    rep = analyze_family("circle", 6, rng=np.random.default_rng(1))
    assert rep.verdict == "admissible" and rep.consistent
    for s in rep.samples:
        R = Fraction(s.theta["R"])
        assert s.certificate.W == BivariatePoly.constant(1 / (4 * R * R))
        assert s.certificate.U == BivariatePoly.constant(-1 / (R * R))
        assert s.certificate.identity_residual == 0.0


def test_analyze_ellipse_family():
    rep = analyze_family("ellipse", 6, rng=np.random.default_rng(2))
    assert rep.verdict == "not_admissible" and rep.consistent
    for s in rep.samples:
        a, b, c = (s.theta[k] for k in "abc")
        xe = cmath.sqrt(b * c / (a * (a - b)))
        w = s.witness
        assert min(abs(w.x - sg * xe) for sg in (1, -1)) < 1e-8


def test_analyze_parabola_and_hyperbola_families():
    for name in ("parabola", "hyperbola"):
        rep = analyze_family(name, 4, rng=np.random.default_rng(3))
        assert rep.verdict == "not_admissible" and rep.consistent


def test_analyze_line_family_is_admissible():
    rep = analyze_family("line", 5, rng=np.random.default_rng(4))
    assert rep.verdict == "admissible" and rep.consistent
    # the gradient norm of a line is constant, so W is its exact reciprocal
    for s in rep.samples:
        u, v = Fraction(s.theta["u"]), Fraction(s.theta["v"])
        assert s.certificate.W == BivariatePoly.constant(1 / (u * u + v * v))


def test_negative_degree_bound_is_invalid_spec():
    # refused before any work: the family report used to record it as a
    # per-sample error, and the two solvers raised a bare ValueError
    P = circle_poly(0, 0, 1)
    Q = gradient_norm_squared(P)
    for call in (lambda: decide_reduction(P, max_degree=-1),
                 lambda: solve_nullstellensatz(P, Q, -1),
                 lambda: analyze_family("circle", 2, max_degree=-1)):
        with pytest.raises(InvalidSpec, match="max_degree"):
            call()


def test_analyze_family_records_errors_without_aborting():
    def broken_poly(theta, exact):
        if theta["k"] > 0.5:
            raise RuntimeError("synthetic failure")
        return (X ** 2 + Y ** 2 - 1).to_float()

    fam = CurveFamily(
        "broken", ("k",), (0.0, 1.0),
        broken_poly,
        lambda rng: {"k": float(rng.uniform(0, 1))},
        lambda theta, t: (0.0, 0.0),
    )
    rep = analyze_family(fam, 8, rng=np.random.default_rng(5))
    kinds = {s.verdict for s in rep.samples}
    assert "error" in kinds and "admissible" in kinds
    assert all(s.error for s in rep.samples if s.verdict == "error")


def test_family_report_serializes_to_json():
    rep = analyze_family("circle", 2, rng=np.random.default_rng(6))
    blob = json.dumps(rep.to_dict())
    back = json.loads(blob)
    assert back["family"] == "circle"
    assert len(back["samples"]) == 2
    assert back["samples"][0]["certificate"]["degree"] == 0


def test_witness_serialization():
    w = CommonZeroWitness(0.5j, -0.25 + 0j, 1e-12, 2e-12)
    d = w.to_dict()
    assert d["x"] == [0.0, 0.5] and d["y"] == [-0.25, 0.0]


def test_unknown_family_rejected():
    from gradfit.errors import InvalidSpec

    with pytest.raises(InvalidSpec):
        get_family("astroid")
