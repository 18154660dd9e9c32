"""Sparse bivariate polynomial arithmetic over the rationals.

Polynomials in x, y are stored as a map ``(p, q) -> coefficient`` in canonical
sparse form (no zero terms). Every coefficient is a ``fractions.Fraction``: a
float fed in is converted exactly (every finite double is a dyadic rational),
so certificate computations are free of rounding. All values are immutable
after construction and every operation is a pure function, so instances can
be shared freely across threads.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from functools import lru_cache
from numbers import Rational, Real
from types import MappingProxyType
from typing import Mapping

from .errors import NonFiniteValue, ParseError

NEG_INF = float("-inf")


def _to_fraction(c, term) -> Fraction:
    """c as a Fraction, a float as the exact value of its double;
    NonFiniteValue naming the term (p, q) if c is not finite."""
    if type(c) is Fraction:
        return c
    if isinstance(c, Rational):
        return Fraction(c)
    if not isinstance(c, Real):
        raise TypeError(f"unsupported coefficient type {type(c)!r}")
    c = float(c)
    if not math.isfinite(c):
        raise NonFiniteValue(f"coefficient of x^{term[0]}*y^{term[1]} is "
                             f"not finite: {c}")
    return Fraction(c)


class BivariatePoly:
    """A sparse polynomial in two variables with rational coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        for (p, q), c in dict(terms or {}).items():
            p, q = int(p), int(q)
            if p < 0 or q < 0:
                raise ValueError("exponents must be nonnegative")
            cc = _to_fraction(c, (p, q))
            if cc != 0:
                clean[(p, q)] = cc
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("BivariatePoly is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> "BivariatePoly":
        return cls({})

    @classmethod
    def constant(cls, c) -> "BivariatePoly":
        return cls({(0, 0): c})

    @classmethod
    def variable(cls, name: str) -> "BivariatePoly":
        if name == "x":
            return cls({(1, 0): 1})
        if name == "y":
            return cls({(0, 1): 1})
        raise ValueError("variable must be 'x' or 'y'")

    # -- basic queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self):
        """Total degree; the zero polynomial reports -inf."""
        if not self.terms:
            return NEG_INF
        return max(p + q for p, q in self.terms)

    def coeff(self, p: int, q: int) -> Fraction:
        return self.terms.get((p, q), Fraction(0))

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self.terms)
        for k, c in other.terms.items():
            terms[k] = terms.get(k, 0) + c
        return BivariatePoly(terms)

    __radd__ = __add__

    def __neg__(self):
        return BivariatePoly({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms: dict = {}
        for (p1, q1), c1 in self.terms.items():
            for (p2, q2), c2 in other.terms.items():
                k = (p1 + p2, q1 + q2)
                terms[k] = terms.get(k, 0) + c1 * c2
        return BivariatePoly(terms)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = BivariatePoly.constant(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    # -- evaluation ---------------------------------------------------------

    def eval(self, x, y):
        """Value at a point, the sum of the terms: exact at a rational
        point."""
        rational = isinstance(x, Rational) and isinstance(y, Rational)
        zero = Fraction(0) if rational else 0.0
        return sum((c * x ** p * y ** q for (p, q), c in self.terms.items()),
                   zero)

    __call__ = eval

    # -- calculus -----------------------------------------------------------

    def partial(self, var: str) -> "BivariatePoly":
        idx = _var_index(var)
        terms = {}
        for (p, q), c in self.terms.items():
            e = (p, q)[idx]
            if e == 0:
                continue
            k = (p - 1, q) if idx == 0 else (p, q - 1)
            terms[k] = terms.get(k, 0) + c * e
        return BivariatePoly(terms)

    def __repr__(self):
        return f"BivariatePoly({format_poly(self)!r})"


def _var_index(var: str) -> int:
    if var == "x":
        return 0
    if var == "y":
        return 1
    raise ValueError("variable must be 'x' or 'y'")


def _coerce(value):
    if isinstance(value, BivariatePoly):
        return value
    if isinstance(value, (int, float, Fraction)):
        return BivariatePoly.constant(value)
    return NotImplemented


def gradient_norm_squared(P: BivariatePoly) -> BivariatePoly:
    """Squared gradient magnitude (dP/dx)^2 + (dP/dy)^2 as a polynomial."""
    px = P.partial("x")
    py = P.partial("y")
    return px * px + py * py


# ---------------------------------------------------------------------------
# text form: `1 x^2 + 1 y^2 - 1`, coefficients decimal or rational num/den
# ---------------------------------------------------------------------------

_TERM_RE = re.compile(
    r"""\s*(?P<sign>[+-])?\s*
        (?P<coeff>(?:\d+\s*/\s*\d+)|(?:(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?))?
        \s*(?P<xv>x(?:\^(?P<px>\d+))?)?
        \s*(?P<yv>y(?:\^(?P<py>\d+))?)?
        \s*""",
    re.X,
)


def parse_poly(text: str) -> BivariatePoly:
    """Parse the term-list text form.

    Coefficients may be decimals (``-1.5``, ``2e-3``) or rationals (``3/4``);
    a decimal is read as the exact value of its double, and a repeated
    term's coefficients are summed exactly. A decimal beyond the double
    range (``1e999``), or a sum beyond it, is a NonFiniteValue.
    """
    src = text.replace("*", " ").strip()
    if not src:
        raise ParseError("empty polynomial expression")
    pos = 0
    first = True
    terms: dict = {}
    while pos < len(src):
        m = _TERM_RE.match(src, pos)
        if not m or m.end() == pos:
            raise ParseError(f"cannot parse polynomial near {src[pos:pos + 20]!r}")
        sign, coeff, xv, yv = m.group("sign"), m.group("coeff"), m.group("xv"), m.group("yv")
        if coeff is None and xv is None and yv is None:
            raise ParseError(f"cannot parse polynomial near {src[pos:pos + 20]!r}")
        if not first and sign is None:
            raise ParseError(f"missing +/- before term at {src[pos:pos + 20]!r}")
        if coeff is None:
            value: object = Fraction(1)
        elif "/" in coeff:
            num, den = coeff.split("/")
            if int(den) == 0:
                raise ParseError(f"zero denominator in {coeff!r}")
            value = Fraction(int(num), int(den))
        elif "." in coeff or "e" in coeff or "E" in coeff:
            value = float(coeff)  # 1e999 is inf: refused with the sum
            if math.isfinite(value):
                value = Fraction(value)
        else:
            value = Fraction(int(coeff))
        if sign == "-":
            value = -value
        p = int(m.group("px") or (1 if xv else 0))
        q = int(m.group("py") or (1 if yv else 0))
        total = terms[(p, q)] = terms.get((p, q), 0) + value
        if not abs(total) <= sys.float_info.max:
            raise NonFiniteValue(f"coefficient beyond the double range at "
                                 f"term {src[pos:m.end()].strip()!r}")
        pos = m.end()
        first = False
    return BivariatePoly(terms)


def format_poly(P: BivariatePoly) -> str:
    """Emit the canonical text form, terms ordered by descending (total
    degree, x-degree), each coefficient an integer or a reduced fraction."""
    if not P.terms:
        return "0"
    keys = sorted(P.terms, key=lambda k: (k[0] + k[1], k[0]), reverse=True)
    out = []
    for i, (p, q) in enumerate(keys):
        c = P.terms[(p, q)]
        neg = c < 0
        body = str(-c if neg else c)
        if p:
            body += f" x^{p}" if p > 1 else " x"
        if q:
            body += f" y^{q}" if q > 1 else " y"
        if i == 0:
            out.append(("-" + body) if neg else body)
        else:
            out.append(("- " if neg else "+ ") + body)
    return " ".join(out)


# ---------------------------------------------------------------------------
# monomial basis
# ---------------------------------------------------------------------------


@lru_cache(maxsize=64)
def monomials(d: int) -> tuple[tuple[int, int], ...]:
    """The exponents (p, q) of x^p y^q with p + q <= d, lexicographic: the
    basis of coefficient vectors of degree d and of moment sums to degree d."""
    return tuple((p, q) for p in range(d + 1) for q in range(d + 1 - p))


@lru_cache(maxsize=64)
def monomial_index(d: int) -> Mapping[tuple[int, int], int]:
    """(p, q) -> its position in ``monomials(d)``; shared, so read-only."""
    return MappingProxyType({k: i for i, k in enumerate(monomials(d))})
