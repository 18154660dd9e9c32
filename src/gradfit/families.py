"""Built-in polynomial curve families.

Each family bundles what the analyzer, the fitters, and the data generator
need: the defining polynomial P(x, y; theta), a sampler for nondegenerate
random parameters, and a real-point parametrization for synthetic data,
evaluated on an array of curve parameters t at once.

Registered families:

* ``circle``    (x-a)^2 + (y-b)^2 - R^2, theta = (a, b, R)
* ``ellipse``   a x^2 + b y^2 + c with a, b > 0 > c and a != b
* ``hyperbola`` a x^2 + b y^2 + c with a > 0 > b, c < 0
* ``parabola``  y - c x^2
* ``line``      u x + v y + w with u^2 + v^2 = 1
"""

from __future__ import annotations

import math
from fractions import Fraction
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import InvalidSpec
from .poly import BivariatePoly


@dataclass(frozen=True)
class CurveFamily:
    """A parametric family of plane curves P(x, y; theta) = 0."""

    name: str
    param_names: tuple[str, ...]
    t_range: tuple[float, float]
    build_poly: Callable = field(repr=False)
    sample_theta: Callable = field(repr=False)
    point_at: Callable = field(repr=False)  # (theta, t array) -> (x, y)
    check_theta: Callable = field(repr=False, default=lambda theta: None)

    def poly(self, theta: dict, exact: bool = False) -> BivariatePoly:
        """P(x, y; theta). In exact mode float parameters convert exactly
        (dyadic rationals), so downstream elimination is rigorous."""
        self.validate(theta)
        return self.build_poly(theta, exact)

    def validate(self, theta: dict) -> None:
        missing = [k for k in self.param_names if k not in theta]
        if missing:
            raise InvalidSpec(f"{self.name}: missing parameters {missing}")
        unknown = theta.keys() - self.param_names
        if unknown:
            raise InvalidSpec(f"{self.name}: unknown parameters "
                              f"{sorted(unknown)}")
        for k in self.param_names:
            v = theta[k]
            if not math.isfinite(float(v)):
                raise InvalidSpec(f"{self.name}: parameter {k} is not finite")
        self.check_theta(theta)


# -- circle -----------------------------------------------------------------

def _circle_poly(theta, exact):
    # convert before combining: in exact mode the constant term must be the
    # exact a^2 + b^2 - R^2 of the (dyadic) parameters, not a float rounding
    conv = Fraction if exact else float
    a, b, R = (conv(theta[k]) for k in ("a", "b", "R"))
    return BivariatePoly(
        {(2, 0): 1, (0, 2): 1, (1, 0): -2 * a, (0, 1): -2 * b,
         (0, 0): a * a + b * b - R * R},
        exact=exact,
    )


def _circle_sample(rng):
    return {
        "a": float(rng.uniform(-2.0, 2.0)),
        "b": float(rng.uniform(-2.0, 2.0)),
        "R": float(rng.uniform(0.5, 2.0)),
    }


def _circle_point(theta, t):
    a, b, R = theta["a"], theta["b"], theta["R"]
    return (a + R * np.cos(t), b + R * np.sin(t))


def _circle_check(theta):
    if float(theta["R"]) <= 0.0:
        raise InvalidSpec("circle: radius must be positive")


# -- canonical central conics ----------------------------------------------

def _conic_poly(theta, exact):
    a, b, c = theta["a"], theta["b"], theta["c"]
    return BivariatePoly({(2, 0): a, (0, 2): b, (0, 0): c}, exact=exact)


def _ellipse_sample(rng):
    a = float(rng.uniform(0.5, 2.0))
    # keep b away from a: equal coefficients degenerate into a circle
    b = a
    while abs(b - a) < 0.2:
        b = float(rng.uniform(0.5, 2.0))
    return {"a": a, "b": b, "c": float(rng.uniform(-2.0, -0.5))}


def _ellipse_point(theta, t):
    a, b, c = (float(theta[k]) for k in "abc")
    if not (a > 0 and b > 0 and c < 0):
        raise InvalidSpec("ellipse: need a, b > 0 > c for real points")
    return (math.sqrt(-c / a) * np.cos(t), math.sqrt(-c / b) * np.sin(t))


def _ellipse_check(theta):
    a, b, c = (float(theta[k]) for k in "abc")
    if a == 0 or b == 0 or c == 0:
        raise InvalidSpec("ellipse: a, b, c must all be nonzero")
    if a == b:
        raise InvalidSpec("ellipse: a == b is a circle; use the circle family")


def _hyperbola_sample(rng):
    return {
        "a": float(rng.uniform(0.5, 2.0)),
        "b": float(rng.uniform(-2.0, -0.5)),
        "c": float(rng.uniform(-2.0, -0.5)),
    }


def _hyperbola_point(theta, t):
    a, b, c = (float(theta[k]) for k in "abc")
    if not (a > 0 > b and c < 0):
        raise InvalidSpec("hyperbola: need a > 0 > b and c < 0 for real points")
    # right branch of x^2/(|c|/a) - y^2/(|c|/|b|) = 1
    return (math.sqrt(-c / a) * np.cosh(t), math.sqrt(c / b) * np.sinh(t))


def _hyperbola_check(theta):
    a, b, c = (float(theta[k]) for k in "abc")
    if a == 0 or b == 0 or c == 0:
        raise InvalidSpec("hyperbola: a, b, c must all be nonzero")


# -- parabola ---------------------------------------------------------------

def _parabola_poly(theta, exact):
    c = theta["c"]
    return BivariatePoly({(0, 1): 1, (2, 0): -c}, exact=exact)


def _parabola_sample(rng):
    return {"c": float(rng.uniform(0.5, 2.0))}


def _parabola_point(theta, t):
    c = float(theta["c"])
    return (t, c * t * t)


def _parabola_check(theta):
    if float(theta["c"]) == 0.0:
        raise InvalidSpec("parabola: c must be nonzero (c = 0 is a line)")


# -- line -------------------------------------------------------------------

def _line_poly(theta, exact):
    u, v, w = theta["u"], theta["v"], theta["w"]
    return BivariatePoly({(1, 0): u, (0, 1): v, (0, 0): w}, exact=exact)


def _line_sample(rng):
    phi = float(rng.uniform(0.0, 2.0 * math.pi))
    return {"u": math.cos(phi), "v": math.sin(phi),
            "w": float(rng.uniform(-2.0, 2.0))}


def _line_point(theta, t):
    u, v, w = (float(theta[k]) for k in "uvw")
    norm2 = u * u + v * v
    # foot of the perpendicular from the origin, then walk the direction
    bx, by = (-w * u / norm2, -w * v / norm2)
    return (bx - v * t, by + u * t)


def _line_check(theta):
    u, v = float(theta["u"]), float(theta["v"])
    if u == 0.0 and v == 0.0:
        raise InvalidSpec("line: (u, v) must be nonzero")


FAMILIES: dict[str, CurveFamily] = {
    f.name: f
    for f in (
        CurveFamily("circle", ("a", "b", "R"), (0.0, 2.0 * math.pi),
                    _circle_poly, _circle_sample, _circle_point, _circle_check),
        CurveFamily("ellipse", ("a", "b", "c"), (0.0, 2.0 * math.pi),
                    _conic_poly, _ellipse_sample, _ellipse_point,
                    _ellipse_check),
        CurveFamily("hyperbola", ("a", "b", "c"), (-1.0, 1.0),
                    _conic_poly, _hyperbola_sample, _hyperbola_point,
                    _hyperbola_check),
        CurveFamily("parabola", ("c",), (-1.0, 1.0),
                    _parabola_poly, _parabola_sample, _parabola_point,
                    _parabola_check),
        CurveFamily("line", ("u", "v", "w"), (-1.0, 1.0),
                    _line_poly, _line_sample, _line_point, _line_check),
    )
}


def get_family(name: str) -> CurveFamily:
    try:
        return FAMILIES[name]
    except KeyError:
        raise InvalidSpec(
            f"unknown family {name!r}; available: {', '.join(sorted(FAMILIES))}"
        ) from None
