"""Fixtures shared by several test modules."""

import math

import pytest

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
