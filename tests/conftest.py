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
    by ``angle``, scales by ``scale`` and translates by (tx, ty), in that
    order. Its zero set is the inverse map's image of P's."""
    def image(P, angle, scale, tx, ty, mirror):
        x = BivariatePoly.variable("x", P.exact)
        y = BivariatePoly.variable("y", P.exact) * (-1 if mirror else 1)
        c, s = scale * math.cos(angle), scale * math.sin(angle)
        u, v = c * x - s * y + tx, s * x + c * y + ty
        return sum((coef * u ** p * v ** q for (p, q), coef in P.terms.items()),
                   BivariatePoly.zero(P.exact))
    return image


@pytest.fixture
def contract():
    """``contract(mv, poly)``: the sum of poly over the accumulator's
    (centred) data, read from its moments term by term; the reference
    objective the compiled one is checked against. DegreeMismatch for a
    term beyond the accumulated degree."""
    def contract(mv, poly):
        acc = Fraction(0) if mv.exact and poly.exact else 0.0
        for (p, q), coeff in poly.terms.items():
            if p + q > mv.max_total_degree:
                raise DegreeMismatch(
                    f"term x^{p} y^{q} exceeds accumulated degree "
                    f"{mv.max_total_degree}")
            val = mv.entry(p, q)
            if isinstance(acc, Fraction):
                acc += Fraction(coeff) * val
            else:
                acc += float(coeff) * float(val)
        return acc
    return contract
