"""Analyzer: witness search, certificates, exclusivity, family reports."""

import cmath
import json
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
import sympy

import groebner_reference as ref
from gradfit import analyzer
from gradfit.analyzer import (
    WITNESS_TOL,
    CommonZeroWitness,
    ReductionDecision,
    _basis,
    _Pair,
    _values,
    _zeros,
    analyze_family,
    certificate_layout,
    certificate_system,
    coefficients,
    decide_reduction,
    find_common_zero,
    solve_nullstellensatz,
    _sliced_zeros,
    _solve_exact_at,
)
from gradfit.errors import DegenerateInput, NumericalFailure
from gradfit.families import FAMILIES, CurveFamily, get_family
from gradfit.poly import (
    BivariatePoly,
    gradient_norm_squared,
    monomials,
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
    return BivariatePoly({keys[i]: float(rng.uniform(-2, 2)) for i in idx})


# -- witness search ---------------------------------------------------------

def test_circle_has_no_common_zero():
    for a, b, R in [(0.0, 0.0, 1.0), (1.0, -2.0, 3.0), (0.5, 0.5, 0.5)]:
        P = circle_poly(a, b, R)
        assert find_common_zero(P, gradient_norm_squared(P)) is None


def test_ellipse_witness_matches_closed_form():
    a, b, c = 1.0, 2.0, 1.0
    P = BivariatePoly({(2, 0): a, (0, 2): b, (0, 0): c})
    w = find_common_zero(P, gradient_norm_squared(P))
    assert w is not None
    xe = cmath.sqrt(b * c / (a * (a - b)))
    ye = cmath.sqrt(-a * c / (b * (a - b)))
    assert min(abs(w.x - s * xe) for s in (1, -1)) < 1e-8
    assert min(abs(w.y - s * ye) for s in (1, -1)) < 1e-8


def test_parabola_witness_is_i_over_2c():
    for c in (1.0, 0.5, 2.0):
        P = Y - c * X ** 2
        w = find_common_zero(P, gradient_norm_squared(P))
        assert w is not None
        assert min(abs(w.x - s * 0.5j / c) for s in (1, -1)) < 1e-8
        assert abs(w.y - (-1.0 / (4 * c))) < 1e-8


def test_parabola_double_root_witness_is_found():
    # for these c, root finding on the x-eliminated resultant
    # (y + 1/(4c))^2 moves its double root y = -1/(4c) off the true value
    for c in (0.6055845711802689, 0.6925030583875271):
        P = get_family("parabola").poly({"c": c})
        decision = decide_reduction(P)
        assert not decision.admissible
        assert abs(decision.witness.y + 1.0 / (4 * c)) < 1e-8


def test_flat_parabola_witness_is_found():
    # c = 4e-6: the normalized |grad P|^2 is 1 + 6.4e-11 x^2, and that tiny
    # x^2 term is what puts the witness at x = +-i/(2c)
    c = 4e-6
    P = get_family("parabola").poly({"c": c})
    w = find_common_zero(P, gradient_norm_squared(P))
    assert w is not None
    assert min(abs(w.x - s * 0.5j / c) for s in (1, -1)) <= 1e-8 * 0.5 / c
    assert abs(w.y + 1.0 / (4 * c)) <= 1e-8 / (4 * c)
    assert not decide_reduction(P).admissible


def test_float_shared_factor_with_inexact_coefficients_gives_witness():
    # P = (y - 0.7x)(x + 2) and Q = (y - 0.7x)(y + 1) share the line
    # y = 0.7x exactly (0.7 as its double), so their ideal is not
    # zero-dimensional and the witness comes from a random line through it
    x, y = parse_poly("x"), parse_poly("y")
    line = y - 0.7 * x
    P, Q = line * (x + 2.0), line * (y + 1.0)
    w = find_common_zero(P, Q)
    assert w is not None
    assert abs(w.y - 0.7 * w.x) <= 1e-8 * max(1.0, abs(w.x))
    decision = decide_reduction(P, Q)
    assert not decision.admissible and decision.witness is not None


@pytest.mark.parametrize("a, R", [(0.0, 1e-4), (1.0, 1e-3)])
def test_small_circle_resultant_is_not_taken_for_noise(a, R):
    # a circle of radius R and its |grad P|^2 have no common zero however
    # small R is, though their resultants are constants of order R^4, as
    # small as rounding noise
    P = get_family("circle").poly({"a": a, "b": 0.0, "R": R})
    assert find_common_zero(P, gradient_norm_squared(P)) is None
    assert decide_reduction(P).admissible


def test_parabola_sweep_has_no_wrong_verdict():
    # a lift from the parabola's x-eliminated resultant misses its double
    # root for about one c in a thousand; every verdict needs its witness
    for c in np.random.default_rng(7).uniform(0.5, 2.0, 1000):
        P = get_family("parabola").poly({"c": float(c)})
        decision = decide_reduction(P)
        assert not decision.admissible and decision.witness is not None


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
    # common factor (y - x): a line of common zeros, sliced by x = t
    P = (Y - X) * (X + 2)
    Q = (Y - X) * (Y + 1)
    w = find_common_zero(P, Q)
    assert w is not None
    assert abs(w.x - w.y) < 1e-6


def test_vanishing_leading_coefficient_not_mistaken_for_zero():
    # leading y-coefficient of P dies at x = 0 but no common zero exists:
    # Q - P*y = 2 rules one out identically
    P = X * Y ** 2 + X + 3
    Q = P * Y + 2.0
    assert find_common_zero(P, Q) is None
    cert = solve_nullstellensatz(P, Q)
    assert cert is not None


def test_both_univariate_same_variable():
    # everything constant in y: the common zeros are the line x = 1, which
    # the slice x = t misses and y = t meets
    P = X ** 2 - 1
    Q = (X - 1) * 2.0
    w = find_common_zero(P, Q)
    assert w is not None
    assert abs(w.x - 1.0) < 1e-8
    assert find_common_zero(X ** 2 - 1, X - 3) is None


def test_very_flat_parabola_gets_its_witness():
    # c = 1e-7: |grad P|^2 = 1 + 4e-14 x^2 keeps its x^2 term, which alone
    # puts the common zero at (+-i/(2c), -1/(4c))
    c = 1e-7
    P = Y - BivariatePoly({(2, 0): c})
    w = find_common_zero(P, gradient_norm_squared(P))
    assert w is not None
    assert max(w.residual_P, w.residual_Q) <= WITNESS_TOL
    assert min(abs(w.x - s * 0.5j / c) for s in (1, -1)) <= 1e-8 * 0.5 / c
    assert abs(w.y + 0.25 / c) <= 1e-8 * 0.25 / c


@pytest.mark.parametrize("name", ["ellipse", "hyperbola", "parabola"])
def test_every_inadmissible_family_sample_gets_a_witness(name):
    family, rng = get_family(name), np.random.default_rng(1)
    for _ in range(50):
        P = family.poly(family.sample_theta(rng))
        w = find_common_zero(P, gradient_norm_squared(P))
        assert max(w.residual_P, w.residual_Q) <= WITNESS_TOL


def test_cubic_pair_zeros_all_come_off_the_basis():
    # two random cubics meet in 9 points: the quotient ring has dimension
    # 9, against a central conic's 4, and every eigenvector gives one zero
    rng = np.random.default_rng(0)
    P, Q = random_poly(rng, nterms=10), random_poly(rng, nterms=10)
    zeros = _zeros(_basis(P, Q))
    assert zeros.shape == (2, 9)
    pair = _Pair(P, Q)
    for x, y in zeros.T:
        assert max(pair.residuals(_values(pair.F, x, y), x, y)) <= WITNESS_TOL
    w = find_common_zero(P, Q)
    assert max(w.residual_P, w.residual_Q) <= WITNESS_TOL



# -- the integer basis and normal forms against the Fraction reference --------

def _reference_cases():
    cases = []
    for name, family in FAMILIES.items():
        rng = np.random.default_rng(4)
        cases += [pytest.param(family.poly(family.sample_theta(rng)),
                               id=f"{name}-{i}") for i in range(6)]
    # a tall quotient ring, a cubic, a mixed term; then x^2 - y^2, whose one
    # common zero is multiple, and x^2 and x^2 + y^2, which share a curve
    # of zeros with their squared gradients: the slice is what is tested
    cases += [pytest.param(parse_poly(t), id=t) for t in
              ["x^12 + y - 1", "y^2 - x^3 - x", "x^2 + x y + y^2 - 1",
               "x^2", "x^2 - y^2", "x^2 + y^2"]]
    return cases


def assert_same_basis(G, R):
    """G from ``_basis``, R from the Fraction reference: the same leading
    monomials, and each element of G, primitive, a rational multiple of the
    monic one."""
    assert (G is None) == (R is None)
    assert [lm for lm, _ in G or []] == [lm for lm, _ in R or []]
    for (lm, g), (_, r) in zip(G or [], R or []):
        assert all(type(v) is int for v in g.values())
        assert math.gcd(*g.values()) == 1
        assert {m: Fraction(v, g[lm]) for m, v in g.items()} == r


def assert_same_zeros(z, rz):
    assert (z is None) == (rz is None)
    if z is not None:
        assert z.shape == rz.shape and z.tobytes() == rz.tobytes()


@pytest.mark.parametrize("P", _reference_cases())
def test_integer_basis_and_zeros_match_the_fraction_reference(P):
    Q = gradient_norm_squared(P)
    with np.errstate(all="ignore"):
        G = _basis(P, Q)
        R = ref.basis(P.terms, Q.terms)
        assert_same_basis(G, R)
        zeros = None if G is None else _zeros(G)
        assert_same_zeros(zeros, None if R is None else ref.zeros(R))
        if G is None or zeros is not None:
            return
        # a curve of common zeros: on each seeded line, and as sliced
        sliced = None
        for triple in ref.slices(P, Q):
            G = _basis(*map(BivariatePoly, triple))
            R = ref.basis(*triple)
            assert_same_basis(G, R)
            zeros = None if G is None else _zeros(G)
            assert_same_zeros(zeros, None if R is None else ref.zeros(R))
            if sliced is None:
                sliced = zeros
        assert sliced is not None
        assert_same_zeros(_sliced_zeros(P, Q), sliced)


@pytest.mark.parametrize("name", ["ellipse", "hyperbola", "parabola",
                                  "circle", "line"])
def test_verdicts_call_nothing_in_the_fractions_module(name):
    # the verdict runs on integers from the family's polynomial to the
    # witness or the verified certificate
    family, rng = get_family(name), np.random.default_rng(6)
    thetas = [family.sample_theta(rng) for _ in range(5)]
    calls = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_globals.get("__name__") == "fractions":
            calls.add(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        decisions = [decide_reduction(family.poly(theta)) for theta in thetas]
    finally:
        sys.setprofile(None)
    assert not calls
    assert {d.admissible for d in decisions} == {name in ("circle", "line")}


# -- certificates -----------------------------------------------------------

def exact_system(P, Q, d):
    """``certificate_system``'s A and b as arrays of Fractions: its integer
    rows divided by K."""
    M, cols = certificate_system(P, Q, d)
    K = M[0][-1]
    S = np.array([[Fraction(v, K) for v in row] for row in M], dtype=object)
    return S[:, :-1], S[:, -1], cols


@pytest.mark.parametrize("d", [0, 1, 2])
def test_certificate_system_exact_and_float_agree(d):
    # the generic fit fills the same layout with float coefficient vectors
    rng = np.random.default_rng(90 + d)
    P, Q = random_poly(rng), random_poly(rng, max_deg=4)
    M, _ = certificate_system(P, Q, d)
    assert all(type(v) is int for row in M for v in row)
    dens = [c.denominator for R in (P, Q) for c in R.terms.values()]
    assert M[0][-1] == math.lcm(*dens) > 1
    A, b, cols = exact_system(P, Q, d)
    dp, dq = int(P.degree()), int(Q.degree())
    layout = certificate_layout(dp, dq, d)
    Af = layout.fill(coefficients(P, dp).astype(float),
                     coefficients(Q, dq).astype(float))
    assert Af.dtype == np.float64
    assert cols == layout.cols and len(cols) == (d + 1) * (d + 2) // 2
    assert np.array_equal(A.astype(float), Af)
    assert b[0] == 1 and not b[1:].any()


@pytest.mark.parametrize("d", [0, 1, 2])
def test_certificate_system_lower_degree_rows_are_a_prefix(d):
    # the generic fit builds dA from (dP, dQ), of lower degree than (P, Q),
    # and uses it as the leading rows of A's shape
    low_P, low_Q = X * Y + 3 * X - 2, X ** 2 - Y + 5
    high_P, high_Q = X ** 3 - 2 * Y ** 2, 4 * X * Y ** 3
    A, b, cols = exact_system(low_P, low_Q, d)
    A2, _, _ = exact_system(high_P, high_Q, d)
    Asum, bsum, _ = exact_system(low_P + high_P, low_Q + high_Q, d)
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
    A, b, cols = exact_system(P, Q, d)
    A, b = A.astype(float), b.astype(float)
    assert np.linalg.matrix_rank(A) < A.shape[1]
    exact = [float(poly.coeff(p, q)) for poly in (U, W) for p, q in cols]
    assert np.max(np.abs(np.array(exact) - np.linalg.pinv(A) @ b)) < 1e-12


def sympy_solution(P, Q, d):
    """sympy's exact minimum-norm solution of P*U + Q*W = 1 over U, W of
    degree <= d, as U's then W's coefficients on ``monomials(d)``; None
    where the system is inconsistent. Posed from sympy's own expansion."""
    x, y = sympy.symbols("x y")
    mons = monomials(d)
    s = sympy.symbols(f"s0:{2 * len(mons)}")

    def expr(coeffs):
        return sum(c * x ** p * y ** q for (p, q), c in coeffs)

    def exact(R):
        return expr((m, sympy.Rational(c.numerator, c.denominator))
                    for m, c in R.terms.items())

    U, W = expr(zip(mons, s)), expr(zip(mons, s[len(mons):]))
    eqs = sympy.Poly(exact(P) * U + exact(Q) * W - 1, x, y).coeffs()
    A, b = sympy.linear_eq_to_matrix(eqs, s)
    if A.rank() < A.row_join(b).rank():
        return None
    return [Fraction(int(v.p), int(v.q)) for v in A.pinv() * b]


def rational_poly(rng, dens, max_deg=2, nterms=4):
    keys = monomials(max_deg)
    idx = rng.choice(len(keys), size=min(nterms, len(keys)), replace=False)
    return BivariatePoly({keys[i]: Fraction(int(rng.integers(-9, 10)),
                                            int(rng.choice(dens)))
                          for i in idx})


@pytest.mark.parametrize("dens", [(1, 2, 4, 8), (3, 7, 21)],
                         ids=["dyadic", "thirds_sevenths"])
@pytest.mark.parametrize("d", [0, 1, 2])
def test_integer_solver_matches_sympy(dens, d):
    # random pairs (almost always with common zeros), pairs with
    # Q = P R + c (a certificate of degree deg R), x^2 and (x + 1)^2
    # (consistent from degree 1) and a circle (rank-deficient at d >= 2)
    rng = np.random.default_rng([d, len(dens)])
    pairs = []
    for _ in range(3):
        c = Fraction(int(rng.integers(1, 9)), int(rng.choice(dens)))
        P = rational_poly(rng, dens)
        pairs += [(rational_poly(rng, dens), rational_poly(rng, dens)),
                  (P, P * rational_poly(rng, dens, max_deg=d, nterms=2) + c),
                  (X ** 2 * c, (X + 1) ** 2),
                  (circle_poly(c, c - 1, c + Fraction(1, dens[-1])), None)]
    outcomes = set()
    for P, Q in pairs:
        Q = gradient_norm_squared(P) if Q is None else Q
        got, want = _solve_exact_at(P, Q, d), sympy_solution(P, Q, d)
        outcomes.add(want is None)
        if want is None:
            assert got is None
        else:
            assert [R.coeff(p, q) for R in got
                    for p, q in monomials(d)] == want
    assert outcomes == {True, False}


def test_identity_check_catches_a_wrong_certificate(monkeypatch):
    solve = analyzer._solve_exact_at

    def off(P, Q, d):
        got = solve(P, Q, d)
        if got is not None:
            got = got[0], got[1] * (1 + Fraction(1, 2 ** 60))
        return got

    monkeypatch.setattr(analyzer, "_solve_exact_at", off)
    P = circle_poly(0.25, -0.75, 1.25)
    with pytest.raises(NumericalFailure,
                       match="exact certificate failed verification"):
        solve_nullstellensatz(P, gradient_norm_squared(P))


def test_exact_core_eliminates_integers_only(monkeypatch):
    # the system's rows and, with free columns, its Gram system: Fractions
    # are built only for the solution
    seen = []
    rref = analyzer._rref

    def spy(M):
        seen.extend(type(v) for row in M for v in row)
        return rref(M)

    monkeypatch.setattr(analyzer, "_rref", spy)
    P = circle_poly(0.25, -0.75, 1.25)
    assert _solve_exact_at(P, gradient_norm_squared(P), 2) is not None
    assert solve_nullstellensatz(X ** 2, (X + 1) ** 2).degree == 1
    assert seen and set(seen) == {int}


def test_circle_certificate_exact_at_degree_zero():
    P = circle_poly(Fraction(1), Fraction(-2), Fraction(3, 2))
    Q = gradient_norm_squared(P)
    cert = solve_nullstellensatz(P, Q)
    assert cert is not None and cert.degree == 0
    R2 = Fraction(3, 2) ** 2
    assert cert.U == BivariatePoly.constant(-1 / R2)
    assert cert.W == BivariatePoly.constant(1 / (4 * R2))
    assert cert.identity_residual == 0.0


def test_ellipse_certificate_infeasible_at_all_degrees():
    P = BivariatePoly({(2, 0): 1, (0, 2): 2, (0, 0): 1})
    Q = gradient_norm_squared(P)
    assert solve_nullstellensatz(P, Q) is None


def test_unit_ideal_certificate():
    cert = solve_nullstellensatz(BivariatePoly.constant(1), X ** 2 + Y ** 2)
    assert cert is not None and cert.degree == 0
    assert cert.U == BivariatePoly.constant(1)
    assert cert.W == BivariatePoly.constant(0)


def test_minimal_degree_is_reported():
    # x^2 and (x+1)^2: coprime, but no degree-0 combination reaches 1
    P = X ** 2
    Q = (X + 1) ** 2
    cert = solve_nullstellensatz(P, Q)
    assert cert is not None
    assert cert.degree == 1
    assert cert.identity_residual == 0.0


def test_float_certificate_residual_bound():
    P = circle_poly(0.25, -0.75, 1.25)
    Q = gradient_norm_squared(P)
    cert = solve_nullstellensatz(P, Q)
    assert cert is not None and cert.degree == 0
    assert cert.identity_residual <= 1e-10
    assert (P * cert.U + Q * cert.W - 1).is_zero()


# -- combined decision ------------------------------------------------------

def test_decide_circle_admissible():
    d = decide_reduction(circle_poly(0.5, 0.5, 2.0))
    assert d.admissible and d.certificate is not None and d.witness is None


def test_decide_ellipse_not_admissible():
    P = BivariatePoly({(2, 0): 1.0, (0, 2): 2.0, (0, 0): 1.0})
    d = decide_reduction(P)
    assert not d.admissible and d.witness is not None


def test_decide_walks_to_the_certificate_without_a_bound():
    d = decide_reduction(X ** 2, (X + 1) ** 2)
    assert d.admissible and d.certificate.degree == d.max_degree == 1


def test_small_float_circle_is_admissible_at_degree_zero():
    d = decide_reduction(parse_poly("x^2 + y^2 - 1e-8"))
    assert d.admissible and d.certificate.degree == 0
    assert d.certificate.identity_residual == 0.0


@pytest.mark.parametrize("parsed", [False, True])
def test_flat_parabola_is_not_admissible(parsed):
    # P and Q share (+-i/(2c), -1/(4c)) for c = 2e-6, read from a float or
    # from text, the same double
    c = parse_poly("0.000002 x^2") if parsed else BivariatePoly({(2, 0): 2e-6})
    d = decide_reduction(Y - c)
    assert not d.admissible and d.certificate is None and d.max_degree is None
    assert abs(d.witness.y + 1 / 8e-6) <= 1e-8 / 8e-6


def test_unpolished_witness_is_not_admissible_without_a_certificate_search(
        monkeypatch):
    # find_common_zero raises NumericalFailure only once the basis of
    # <P, Q> came out other than {1}, so the verdict is already known
    def no_search(P, Q):
        raise AssertionError("solve_nullstellensatz was called")

    monkeypatch.setattr(analyzer, "_newton_refine",
                        lambda pair, x, y: (complex(x), complex(y), 1.0, 1.0))
    monkeypatch.setattr(analyzer, "solve_nullstellensatz", no_search)
    d = decide_reduction(Y - 2 * X ** 2)
    assert d == ReductionDecision(False, None, None, None)


@pytest.mark.parametrize("degree", [20, 100])
def test_zeros_that_overflow_are_never_witnesses(degree):
    # the basis of x^d + y - 1 and its squared gradient has zeros whose
    # powers overflow a double; each stays unpolished, with no numpy warning
    # (an error under this suite's settings) and no OverflowError
    d = decide_reduction(parse_poly(f"x^{degree} + y - 1"))
    assert d == ReductionDecision(False, None, None, None)


def test_residual_whose_power_overflows_is_inf():
    for x in (1e3, np.complex128(1e3)):
        assert analyzer._rel_residual(1.0, 400, x, 0.0) == math.inf
    assert analyzer._rel_residual(complex("nan"), 2, 1.0, 0.0) == math.inf
    assert analyzer._rel_residual(3.0, 2, 2.0, 0.5) == 0.75


def test_exclusivity_on_random_pairs():
    rng = np.random.default_rng(99)
    checked = 0
    while checked < 25:
        P = random_poly(rng, max_deg=2, nterms=5)
        Q = random_poly(rng, max_deg=2, nterms=5)
        if P.degree() <= 0 or Q.is_zero():
            continue
        w = find_common_zero(P, Q)
        cert = solve_nullstellensatz(P, Q)
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


def test_analyze_family_records_errors_without_aborting():
    def broken_poly(theta):
        if theta["k"] > 0.5:
            raise RuntimeError("synthetic failure")
        return X ** 2 + Y ** 2 - 1

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
