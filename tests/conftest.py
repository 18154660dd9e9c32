"""Fixtures shared by several test modules."""

import math
from fractions import Fraction

import pytest

from gradfit.errors import DegreeMismatch
from gradfit.poly import BivariatePoly


@pytest.fixture
def similar():
    """``image(P, angle, scale, tx, ty, mirror)``: P composed with the
    similarity map that mirrors across the x-axis (if ``mirror``), rotates
    by about ``angle``, scales by ``scale`` and translates by (tx, ty), in
    that order. Its zero set is the inverse map's image of P's. The map is
    exact: its rotation is the Pythagorean one whose half-angle tangent is
    the double nearest tan(angle / 2), and scale and shift are the exact
    values of their doubles, so a circle's image is a circle."""
    def image(P, angle, scale, tx, ty, mirror):
        x = BivariatePoly.variable("x")
        y = BivariatePoly.variable("y") * (-1 if mirror else 1)
        t = Fraction(math.tan(angle / 2))
        c, s = ((1 - t * t) / (1 + t * t) * Fraction(scale),
                2 * t / (1 + t * t) * Fraction(scale))
        u = c * x - s * y + Fraction(tx)
        v = s * x + c * y + Fraction(ty)
        return sum((coef * u ** p * v ** q
                    for (p, q), coef in P.terms.items()),
                   BivariatePoly.zero())
    return image


@pytest.fixture
def contract():
    """``contract(mv, poly)``: the sum of poly over the accumulator's
    (centred) data, read from its moments term by term; the reference
    objective the compiled one is checked against. DegreeMismatch for a
    term beyond the accumulated degree."""
    def contract(mv, poly):
        acc = 0.0
        for (p, q), coeff in poly.terms.items():
            if p + q > mv.max_total_degree:
                raise DegreeMismatch(
                    f"term x^{p} y^{q} exceeds accumulated degree "
                    f"{mv.max_total_degree}")
            acc += float(coeff) * float(mv.entry(p, q))
        return acc
    return contract
