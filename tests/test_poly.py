"""Polynomial core: arithmetic, calculus, resultants, text form."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gradfit.errors import DegenerateElimination, NonFiniteValue, ParseError
from gradfit.poly import (
    COEFF_EQ_TOL,
    BivariatePoly,
    coefficient_matrices,
    dense_resultant,
    format_poly,
    gradient_norm_squared,
    parse_poly,
)

X = BivariatePoly.variable("x")
Y = BivariatePoly.variable("y")


def circle_poly(a, b, R, exact=True):
    terms = {
        (2, 0): 1,
        (0, 2): 1,
        (1, 0): -2 * a,
        (0, 1): -2 * b,
        (0, 0): a * a + b * b - R * R,
    }
    return BivariatePoly(terms, exact=exact)


# -- strategies -------------------------------------------------------------

exponents = st.tuples(st.integers(0, 6), st.integers(0, 6)).filter(
    lambda pq: pq[0] + pq[1] <= 6
)
int_coeffs = st.integers(min_value=-9, max_value=9)
sparse_polys = st.builds(
    lambda d: BivariatePoly(d, exact=True),
    st.dictionaries(exponents, int_coeffs, max_size=12),
)

small_exponents = st.tuples(st.integers(0, 2), st.integers(0, 2))
small_polys = st.builds(
    lambda d: BivariatePoly(d, exact=True),
    st.dictionaries(small_exponents, int_coeffs, min_size=1, max_size=5),
)


# -- construction & equality ------------------------------------------------

def test_zero_terms_pruned():
    P = BivariatePoly({(1, 0): 1, (0, 1): 0})
    assert (0, 1) not in P.terms
    assert P.degree() == 1


def test_zero_poly_degree_sentinel():
    assert BivariatePoly.zero().degree() == float("-inf")


def test_exact_mode_inferred_from_coefficients():
    assert BivariatePoly({(0, 0): Fraction(1, 3)}).exact
    assert not BivariatePoly({(0, 0): 0.5}).exact


def test_float_equality_is_scale_free():
    P = BivariatePoly({(2, 0): 1e8, (0, 0): 1.0}, exact=False)
    Q = BivariatePoly({(2, 0): 1e8 * (1 + 1e-15), (0, 0): 1.0}, exact=False)
    assert P == Q
    assert P != P + 1.0


def test_immutability():
    P = X + Y
    with pytest.raises(AttributeError):
        P.terms = {}


# -- evaluation -------------------------------------------------------------

def test_eval_on_unit_circle():
    P = circle_poly(0, 0, 1)
    assert P.eval(1, 0) == 0


def test_eval_parabola_complex_point():
    P = Y - X * X  # y - x^2, c = 1
    assert abs(P.to_float().eval(0.5j, -0.25)) == 0.0


def test_eval_direct_arithmetic():
    P = BivariatePoly({(2, 1): 3, (0, 0): 2})
    assert P.eval(2, 5) == 62


@given(sparse_polys, st.integers(-3, 3), st.integers(-3, 3))
@settings(max_examples=60)
def test_eval_matches_naive_sum(P, x, y):
    naive = sum(c * Fraction(x) ** p * Fraction(y) ** q for (p, q), c in P.terms.items())
    assert P.eval(Fraction(x), Fraction(y)) == naive


# -- ring axioms ------------------------------------------------------------

@given(sparse_polys, sparse_polys, sparse_polys)
@settings(max_examples=50)
def test_distributive_law_exact(P1, P2, P3):
    assert (P1 + P2) * P3 == P1 * P3 + P2 * P3


@given(sparse_polys, sparse_polys)
@settings(max_examples=50)
def test_commutativity_exact(P1, P2):
    assert P1 * P2 == P2 * P1
    assert P1 + P2 == P2 + P1


@given(sparse_polys)
@settings(max_examples=30)
def test_pow_repeated_product(P):
    assert P ** 3 == P * P * P
    assert P ** 0 == BivariatePoly.constant(1)


def test_float_coefficients_are_real_floats():
    P = BivariatePoly({(2, 0): 1, (1, 1): Fraction(1, 2),
                       (0, 1): np.float64(0.25), (0, 0): -1.5 + 0j},
                      exact=False)
    assert P.terms == {(2, 0): 1.0, (1, 1): 0.5, (0, 1): 0.25, (0, 0): -1.5}
    for Q in (P, P * P, P.partial("x"), parse_poly("1.5 x - 2e-3"),
              circle_poly(1, 2, 3).to_float()):
        assert all(type(c) is float for c in Q.terms.values())


@pytest.mark.parametrize("c", [2j, np.complex128(1 + 1e-300j)])
def test_float_poly_refuses_complex_coefficients(c):
    # x^2 + y^2 - 1 + 2i xy: its imaginary part must not be dropped
    with pytest.raises(TypeError):
        BivariatePoly({(2, 0): 1.0, (0, 2): 1.0, (0, 0): -1.0, (1, 1): c},
                      exact=False)


def test_mixed_mode_promotes_to_float():
    P = (X + Y) * 0.5
    assert not P.exact


# -- calculus ---------------------------------------------------------------

def test_partial_derivative_basic():
    P = BivariatePoly({(2, 1): 3, (0, 0): 2})
    assert P.partial("x") == BivariatePoly({(1, 1): 6})
    assert P.partial("y") == BivariatePoly({(2, 0): 3})


def test_gradient_norm_circle_identity():
    # (x-a)^2 + (y-b)^2 - R^2 has squared gradient 4P + 4R^2
    a, b, R = Fraction(3), Fraction(-2), Fraction(5, 4)
    P = circle_poly(a, b, R)
    Q = gradient_norm_squared(P)
    assert Q == 4 * P + BivariatePoly.constant(4 * R * R)


def test_gradient_norm_ellipse():
    a, b, c = Fraction(1), Fraction(2), Fraction(1)
    P = a * X ** 2 + b * Y ** 2 + c
    assert gradient_norm_squared(P) == 4 * a * a * X ** 2 + 4 * b * b * Y ** 2


def test_gradient_norm_parabola():
    c = Fraction(3)
    P = Y - c * X ** 2
    assert gradient_norm_squared(P) == 4 * c * c * X ** 2 + BivariatePoly.constant(1)


@given(sparse_polys, st.floats(-1, 1), st.floats(-1, 1))
@settings(max_examples=60)
def test_gradient_norm_matches_finite_differences(P, x, y):
    assume(not P.is_zero())
    Q = gradient_norm_squared(P).to_float()
    Pf = P.to_float()
    h = 1e-5
    fdx = (Pf.eval(x + h, y) - Pf.eval(x - h, y)) / (2 * h)
    fdy = (Pf.eval(x, y + h) - Pf.eval(x, y - h)) / (2 * h)
    approx = fdx * fdx + fdy * fdy
    exact = Q.eval(x, y)
    scale = max(1.0, abs(exact))
    assert abs(approx - exact) <= 1e-6 * scale


# -- resultants -------------------------------------------------------------

def float_resultant(P, Q, elim):
    """Ascending coefficients, in the other variable, of the resultant of P
    and Q in ``elim`` as the analyzer computes it: the inputs trimmed, laid
    out by ``coefficient_matrices`` and eliminated by ``dense_resultant``;
    trailing zeros dropped."""
    def trim(R):  # terms at most COEFF_EQ_TOL of the largest dropped
        cut = COEFF_EQ_TOL * R.max_coeff_mag()
        return BivariatePoly({k: c for k, c in R.to_float().terms.items()
                              if abs(c) > cut}, exact=False)

    P, Q = trim(P), trim(Q)
    F = coefficient_matrices((P, Q), 1 + int(max(0, P.degree(), Q.degree())))
    if elim == "x":
        F = F.transpose(0, 2, 1)
    coeffs = dense_resultant(*F).tolist()
    while coeffs and coeffs[-1] == 0.0:
        coeffs.pop()
    return coeffs


def _deg_in(P, elim):
    """Degree of P in ``elim``, -1 for the zero polynomial."""
    i = 0 if elim == "x" else 1
    return max((k[i] for k in P.terms), default=-1)


def exact_resultant(P, Q, elim):
    """The oracle: sympy's resultant of exact P and Q in ``elim``, ascending
    Fraction coefficients in the other variable, trailing zeros dropped.

    sympy's multivariate resultant puts the input of higher degree first
    without the sign (-1)^(mn) that the swap costs, so the inputs go in in
    that order here and the sign is applied."""
    sympy = pytest.importorskip("sympy")
    i = 0 if elim == "x" else 1
    gens = sympy.symbols("s t")

    def to_sympy(R):
        return sympy.Poly.from_dict(
            {(k[i], k[1 - i]): sympy.Rational(c.numerator, c.denominator)
             for k, c in R.terms.items()}, *gens)

    m, n = _deg_in(P, elim), _deg_in(Q, elim)
    f, g, sign = to_sympy(P), to_sympy(Q), 1
    if m < n:
        f, g, sign = g, f, -1 if m * n % 2 else 1
    coeffs = [sign * Fraction(c.p, c.q)
              for c in f.resultant(g).all_coeffs()[::-1]]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def max_gap(want, have) -> float:
    """Largest difference between two ascending coefficient lists."""
    n = max(len(want), len(have))
    want = [float(c) for c in want] + [0.0] * (n - len(want))
    have = list(have) + [0.0] * (n - len(have))
    return max((abs(a - b) for a, b in zip(want, have)), default=0.0)


def assert_resultant(P, Q, elim, want):
    """The oracle gives ``want`` and the float path matches it to 1e-12 of
    its largest coefficient."""
    assert exact_resultant(P, Q, elim) == want
    assert max_gap(want, float_resultant(P, Q, elim)) <= 1e-12 * max(
        abs(float(c)) for c in want)


def test_resultant_linear_pair():
    assert_resultant(Y - X, Y + X, "y", [0, 2])


def test_resultant_with_constant():
    P = Y ** 3 + X * Y - 1  # degree 3 in y
    assert_resultant(P, BivariatePoly.constant(5), "y", [125])


def test_resultant_unit_circle_no_common_zero():
    P = circle_poly(0, 0, 1)
    assert_resultant(P, gradient_norm_squared(P), "y", [16])


def test_resultant_sign_with_lower_degree_first():
    # 2^3 (-3 (-1/2)^3 - 1) = -5: the sign sympy's resultant loses when the
    # input of lower degree comes first, with odd degrees
    assert_resultant(2 * Y + 1, -3 * Y ** 3 - 1, "y", [-5])


def test_resultant_float_mode_matches_exact():
    P = circle_poly(Fraction(1, 2), Fraction(-1, 3), Fraction(7, 4))
    Q = gradient_norm_squared(P)
    want = exact_resultant(P, Q, "y")
    assert max_gap(want, float_resultant(P, Q, "y")) <= 1e-12 * max(
        abs(float(c)) for c in want)


def test_resultant_both_constant_in_variable():
    with pytest.raises(DegenerateElimination):
        float_resultant(X + 1, X ** 2 - 2, "y")


def test_resultant_eliminate_x():
    assert_resultant(X - Y, X + Y, "x", [0, 2])


def test_resultant_against_independent_cas():
    # the oracle and the float path against the determinant of sympy's
    # Sylvester matrix, the resultant's definition
    sympy = pytest.importorskip("sympy")
    from sympy.polys.subresultants_qq_zz import sylvester
    x, y = sympy.symbols("x y")
    rng = random.Random(20240817)
    for _ in range(8):
        terms_p = {
            (rng.randint(0, 2), rng.randint(0, 2)): rng.randint(-5, 5) for _ in range(4)
        }
        terms_q = {
            (rng.randint(0, 2), rng.randint(0, 2)): rng.randint(-5, 5) for _ in range(4)
        }
        P = BivariatePoly(terms_p)
        Q = BivariatePoly(terms_q)
        if _deg_in(P, "y") < 0 or _deg_in(Q, "y") < 0:
            continue
        if _deg_in(P, "y") <= 0 and _deg_in(Q, "y") <= 0:
            continue
        sp = sum(c * x ** p * y ** q for (p, q), c in P.terms.items())
        sq = sum(c * x ** p * y ** q for (p, q), c in Q.terms.items())
        det = sympy.expand(sylvester(sp, sq, y).det())
        want = [Fraction(int(c)) for c in sympy.Poly(det, x).all_coeffs()[::-1]]
        while want and want[-1] == 0:
            want.pop()
        assert exact_resultant(P, Q, "y") == want
        assert max_gap(want, float_resultant(P, Q, "y")) <= 1e-9 * max(
            (abs(c) for c in want), default=1)


quartic_exponents = st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(
    lambda pq: pq[0] + pq[1] <= 4
)
quartics = st.dictionaries(quartic_exponents, st.integers(-5, 5), min_size=1,
                           max_size=6)


@given(quartics, quartics, st.sampled_from("xy"),
       st.sampled_from(["neither", "P", "Q"]))
@settings(max_examples=300, deadline=None)
def test_float_resultant_matches_exact(p_terms, q_terms, elim, constant):
    # ``constant`` drops the eliminated variable from one input: the P**n
    # and Q**m cases, which the float path raises to the power directly
    i = 0 if elim == "x" else 1
    if constant == "P":
        p_terms = {k: c for k, c in p_terms.items() if k[i] == 0}
    if constant == "Q":
        q_terms = {k: c for k, c in q_terms.items() if k[i] == 0}
    P, Q = BivariatePoly(p_terms), BivariatePoly(q_terms)
    m, k = _deg_in(P, elim), _deg_in(Q, elim)
    if m <= 0 and k <= 0 and m == k:
        with pytest.raises(DegenerateElimination):
            float_resultant(P, Q, elim)
        return
    want = [float(c) for c in exact_resultant(P, Q, elim)]
    have = float_resultant(P, Q, elim)
    if not want:
        # a zero input or a shared factor: the float determinants are then
        # zero or rounding noise, far below the bound (sum |P|)^k (sum |Q|)^m
        # on the Sylvester determinants
        scale = (sum(abs(float(c)) for c in P.terms.values()) ** max(k, 0)
                 * sum(abs(float(c)) for c in Q.terms.values()) ** max(m, 0))
    else:
        scale = max(abs(c) for c in want)
    assert max_gap(want, have) <= 1e-9 * scale


@given(st.lists(st.tuples(st.integers(-5, 5), st.integers(-11, 0)),
                min_size=1, max_size=4),
       st.integers(1, 3), st.sampled_from("xy"))
@settings(max_examples=200, deadline=None)
def test_float_power_resultant_keeps_small_coefficients(row, n, elim):
    # P constant in the eliminated variable s, Q = s^n + 1: the resultant is
    # P**n, each coefficient exact up to rounding of its own terms however
    # small beside the largest (only the inputs' 1e-12 trim applies)
    assume(any(a for a, _ in row))
    keep = "y" if elim == "x" else "x"
    t = BivariatePoly.variable(keep)
    P = sum((Fraction(a) * Fraction(10) ** k * t ** i
             for i, (a, k) in enumerate(row)), BivariatePoly.zero())
    Q = BivariatePoly.variable(elim) ** n + 1
    want = exact_resultant(P, Q, elim)
    have = float_resultant(P, Q, elim)
    bound = np.polynomial.polynomial.polypow(
        [abs(a) * 10.0 ** k for a, k in row], n)
    assert len(have) == len(want)
    for w, h, b in zip(want, have, bound):
        assert abs(float(w) - h) <= 1e-12 * abs(b)


# -- text form --------------------------------------------------------------

def test_parse_circle_text():
    P = parse_poly("1 x^2 + 1 y^2 - 1")
    assert P == circle_poly(0, 0, 1)
    assert P.exact


def test_parse_rational_and_float_coefficients():
    P = parse_poly("3/4 x y - 2 y^2")
    assert P.exact and P.coeff(1, 1) == Fraction(3, 4)
    Q = parse_poly("1.5 x - 2e-3")
    assert not Q.exact


def test_parse_bare_variables_and_signs():
    P = parse_poly("x - y + 2")
    assert P == X - Y + 2


def test_parse_rejects_garbage():
    for bad in ["", "x +", "1 z^2", "x ^ y"]:
        with pytest.raises(ParseError):
            parse_poly(bad)


@pytest.mark.parametrize("text,exact", [
    ("1e999 x^2 + 1 y^2 - 1", None),
    ("1e999 x^2 + 1 y^2 - 1", True),
    ("1 x^2 - 1e999 y", False),
    ("1e308 x + 1e308 x", True),   # finite terms, overflowing sum
    ("3/4 x + 1e999 x", None),
])
def test_parse_refuses_non_finite_coefficients(text, exact):
    with pytest.raises(NonFiniteValue, match=r"1e\d+ [xy]"):
        parse_poly(text, exact=exact)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("exact", [False, True])
def test_non_finite_coefficients_are_refused(value, exact):
    with pytest.raises(NonFiniteValue, match=r"x\^2\*y\^0"):
        BivariatePoly({(2, 0): value, (0, 2): 1.0, (0, 0): -1.0}, exact=exact)


def test_format_canonical_order():
    P = BivariatePoly({(0, 0): -1, (0, 2): 1, (2, 0): 1})
    assert format_poly(P) == "1 x^2 + 1 y^2 - 1"


@given(sparse_polys)
@settings(max_examples=50)
def test_format_parse_roundtrip(P):
    assume(not P.is_zero())
    assert parse_poly(format_poly(P)) == P
