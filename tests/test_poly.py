"""Polynomial core: arithmetic, calculus, text form."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gradfit.errors import NonFiniteValue, ParseError
from gradfit.poly import (
    BivariatePoly,
    format_poly,
    gradient_norm_squared,
    parse_poly,
)

X = BivariatePoly.variable("x")
Y = BivariatePoly.variable("y")


def circle_poly(a, b, R):
    terms = {
        (2, 0): 1,
        (0, 2): 1,
        (1, 0): -2 * a,
        (0, 1): -2 * b,
        (0, 0): a * a + b * b - R * R,
    }
    return BivariatePoly(terms)


# -- strategies -------------------------------------------------------------

exponents = st.tuples(st.integers(0, 6), st.integers(0, 6)).filter(
    lambda pq: pq[0] + pq[1] <= 6
)
int_coeffs = st.integers(min_value=-9, max_value=9)
sparse_polys = st.builds(
    BivariatePoly,
    st.dictionaries(exponents, int_coeffs, max_size=12),
)

rational_coeffs = st.builds(
    Fraction, st.integers(-10 ** 6, 10 ** 6),
    st.sampled_from([1, 2, 3, 7, 21, 2 ** 53, 3 * 2 ** 40, 10 ** 9]))
rational_polys = st.builds(
    BivariatePoly, st.dictionaries(exponents, rational_coeffs, max_size=8))

small_exponents = st.tuples(st.integers(0, 2), st.integers(0, 2))
small_polys = st.builds(
    BivariatePoly,
    st.dictionaries(small_exponents, int_coeffs, min_size=1, max_size=5),
)


# -- construction & equality ------------------------------------------------

def test_zero_terms_pruned():
    P = BivariatePoly({(1, 0): 1, (0, 1): 0})
    assert (0, 1) not in P.terms
    assert P.degree() == 1


def test_zero_poly_degree_sentinel():
    assert BivariatePoly.zero().degree() == float("-inf")


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
    assert abs(P.eval(0.5j, -0.25)) == 0.0


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


def test_float_coefficients_are_exact_fractions():
    # each float is held as the exact value of its double
    assert type(BivariatePoly({(0, 0): 0.1}).coeff(0, 0)) is Fraction
    assert BivariatePoly({(0, 0): 0.1}).coeff(0, 0) == Fraction(0.1)
    P = BivariatePoly({(2, 0): 1, (1, 1): Fraction(1, 2),
                       (0, 1): np.float64(0.1), (1, 0): np.float32(0.1),
                       (0, 0): -1.5})
    assert P.terms == {(2, 0): 1, (1, 1): Fraction(1, 2),
                       (0, 1): Fraction(0.1), (1, 0): Fraction(float(np.float32(0.1))),
                       (0, 0): Fraction(-3, 2)}
    for Q in (P, P * P, P.partial("x"), P + 0.1, circle_poly(0.1, 2, 3)):
        assert all(type(c) is Fraction for c in Q.terms.values())


@pytest.mark.parametrize("c", [2j, np.complex128(1 + 1e-300j)])
def test_float_poly_refuses_complex_coefficients(c):
    # x^2 + y^2 - 1 + 2i xy: its imaginary part must not be dropped
    with pytest.raises(TypeError):
        BivariatePoly({(2, 0): 1.0, (0, 2): 1.0, (0, 0): -1.0, (1, 1): c})


def test_float_scalar_keeps_the_product_exact():
    P = (X + Y) * 0.5
    assert P.terms == {(1, 0): Fraction(1, 2), (0, 1): Fraction(1, 2)}
    assert all(type(c) is Fraction for c in P.terms.values())


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
    Q = gradient_norm_squared(P)
    h = 1e-5
    fdx = (P.eval(x + h, y) - P.eval(x - h, y)) / (2 * h)
    fdy = (P.eval(x, y + h) - P.eval(x, y - h)) / (2 * h)
    approx = fdx * fdx + fdy * fdy
    exact = Q.eval(x, y)
    scale = max(1.0, abs(exact))
    assert abs(approx - exact) <= 1e-6 * scale


@given(rational_polys | st.builds(BivariatePoly.constant, rational_coeffs))
@example(BivariatePoly.zero())
@example(BivariatePoly.constant(Fraction(-5, 7)))
@settings(max_examples=150)
def test_gradient_norm_on_integers_matches_fraction_arithmetic(P):
    # formed on integers over one common denominator, Q is the exact value
    # of Px^2 + Py^2; the zero polynomial and constants give 0
    px, py = P.partial("x"), P.partial("y")
    assert gradient_norm_squared(P).terms == (px * px + py * py).terms
    if P.degree() <= 0:
        assert gradient_norm_squared(P).is_zero()


# -- text form --------------------------------------------------------------

def test_parse_circle_text():
    P = parse_poly("1 x^2 + 1 y^2 - 1")
    assert P == circle_poly(0, 0, 1)


def test_parse_rational_and_float_coefficients():
    P = parse_poly("3/4 x y - 2 y^2")
    assert P.coeff(1, 1) == Fraction(3, 4)
    # a decimal is the exact value of its double
    Q = parse_poly("1.5 x - 2e-3")
    assert Q.terms == {(1, 0): Fraction(3, 2), (0, 0): -Fraction(2e-3)}
    assert all(type(c) is Fraction for c in Q.terms.values())


def test_parse_bare_variables_and_signs():
    P = parse_poly("x - y + 2")
    assert P == X - Y + 2


def test_parse_rejects_garbage():
    for bad in ["", "x +", "1 z^2", "x ^ y"]:
        with pytest.raises(ParseError):
            parse_poly(bad)


# The case ids keep the suffix of a coefficient-mode flag that parse_poly
# no longer takes, so each case reads under the same name as before.
@pytest.mark.parametrize("text", [
    pytest.param("1e999 x^2 + 1 y^2 - 1", id="1e999 x^2 + 1 y^2 - 1-None"),
    pytest.param("1e999*x^2 + 1*y^2 - 1",  # '*' between factors
                 id="1e999 x^2 + 1 y^2 - 1-True"),
    pytest.param("1 x^2 - 1e999 y", id="1 x^2 - 1e999 y-False"),
    pytest.param("1e308 x + 1e308 x",  # finite terms, overflowing sum
                 id="1e308 x + 1e308 x-True"),
    pytest.param("3/4 x + 1e999 x", id="3/4 x + 1e999 x-None"),
    # a literal beyond the range is refused, even where the sum is not
    pytest.param("-1e308 x + 1e309 x", id="-1e308 x + 1e309 x"),
    # and at once: its exact value would have a billion digits
    pytest.param("1e1000000000 x", id="1e1000000000 x"),
])
def test_parse_refuses_non_finite_coefficients(text):
    with pytest.raises(NonFiniteValue, match=r"1e\d+ [xy]"):
        parse_poly(text)


def test_parse_sums_repeated_terms_exactly():
    # each literal is converted exactly, then summed: 1 plus the double of
    # 0.1, not the double nearest 1.1, and 3/10 is not rounded away
    assert parse_poly("x + 0.1 x").coeff(1, 0) == 1 + Fraction(0.1)
    assert parse_poly("3/10 x + 0.1 x").coeff(1, 0) == (Fraction(3, 10)
                                                        + Fraction(0.1))


def test_parse_refuses_any_coefficient_beyond_the_double_range():
    # integers are exact too, and a sum of them is refused where it leaves
    # the range of finite doubles
    top = 2 ** 1023
    for text in [f"{2 * top} x", f"{top} x + {top} x"]:
        with pytest.raises(NonFiniteValue, match="double range"):
            parse_poly(text)
    assert parse_poly(f"{top} x + {top // 2} x").coeff(1, 0) == 3 * top // 2


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("float32", [False, True])
def test_non_finite_coefficients_are_refused(value, float32):
    if float32:  # a numpy real that is not a Python float
        value = np.float32(value)
    with pytest.raises(NonFiniteValue, match=r"x\^2\*y\^0"):
        BivariatePoly({(2, 0): value, (0, 2): 1.0, (0, 0): -1.0})


def test_format_canonical_order():
    P = BivariatePoly({(0, 0): -1, (0, 2): 1, (2, 0): 1})
    assert format_poly(P) == "1 x^2 + 1 y^2 - 1"


def test_format_writes_decimals_as_fractions():
    assert format_poly(parse_poly("2.25 x")) == "9/4 x"


@given(sparse_polys)
@settings(max_examples=50)
def test_format_parse_roundtrip(P):
    assume(not P.is_zero())
    assert parse_poly(format_poly(P)) == P


# -- the integer form against Fraction arithmetic ----------------------------

# ints, non-dyadic Fractions, exact doubles and zero; a term list may repeat
# a monomial or cancel one, and the reference sums it in Fractions
any_coeffs = (st.integers(-10 ** 20, 10 ** 20)
              | st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6),
                          st.sampled_from([3, 7, 10, 3 * 2 ** 40, 10 ** 9]))
              | st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
              | st.just(0))
term_lists = st.lists(st.tuples(exponents, any_coeffs), max_size=8).flatmap(
    lambda ts: st.lists(st.sampled_from(ts), max_size=3).map(
        lambda again: ts + [(m, -c) for m, c in again])
    if ts else st.just(ts))


def reference(pairs) -> dict:
    """The term list summed in Fractions, zero terms dropped."""
    out = {}
    for m, c in pairs:
        out[m] = out.get(m, 0) + Fraction(c)
    return {m: c for m, c in out.items() if c}


def build(pairs) -> BivariatePoly:
    return sum((BivariatePoly({m: c}) for m, c in pairs), BivariatePoly.zero())


def ref_mul(f, g) -> dict:
    return reference([((a + e, b + h), u * v) for (a, b), u in f.items()
                      for (e, h), v in g.items()])


def ref_partial(f, idx) -> dict:
    return reference([((p - 1, q) if idx == 0 else (p, q - 1), c * (p, q)[idx])
                      for (p, q), c in f.items() if (p, q)[idx]])


def float_eval(f, x, y):
    return sum((c * x ** p * y ** q for (p, q), c in f.items()), 0.0)


def assert_terms(P, expected):
    assert type(P.terms) is dict
    assert all(type(c) is Fraction for c in P.terms.values())
    assert P.terms == expected


@given(term_lists, term_lists, st.integers(0, 3),
       st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)),
       st.floats(-2, 2, allow_nan=False))
@settings(max_examples=150, deadline=None)
def test_integer_form_matches_fraction_arithmetic(s, t, n, r, x):
    f, g = reference(s), reference(t)
    P, Q = build(s), build(t)
    # construction: from one dict, and from a sum with repeats and cancels
    assert_terms(P, f)
    assert_terms(BivariatePoly(dict(s)), reference(dict(s).items()))
    assert_terms(P + Q, reference(s + t))
    assert_terms(P - Q, reference(s + [(m, -c) for m, c in t]))
    assert_terms(-P, {m: -c for m, c in f.items()})
    assert_terms(P * Q, ref_mul(f, g))
    power = {(0, 0): Fraction(1)}
    for _ in range(n):
        power = ref_mul(power, f)
    assert_terms(P ** n, power)
    assert (P == Q) == (f == g)
    assert (P == 3) == (f == {(0, 0): 3})
    for idx, var in enumerate("xy"):
        assert_terms(P.partial(var), ref_partial(f, idx))
    assert P.degree() == max((p + q for p, q in f), default=float("-inf"))
    for m in [(0, 0), (1, 0), *f]:
        got = P.coeff(*m)
        assert type(got) is Fraction and got == f.get(m, 0)
    # at a rational point exactly; at a float point bit for bit, with the
    # terms in the reference's order
    exact = sum((c * r ** p * (r + 1) ** q for (p, q), c in f.items()),
                Fraction(0))
    got = P.eval(r, r + 1)
    assert type(got) is Fraction and got == exact
    assert (BivariatePoly(f).eval(x, 0.5 * x).hex()
            == float_eval(f, x, 0.5 * x).hex())
    if f:
        assert parse_poly(format_poly(P)) == P
