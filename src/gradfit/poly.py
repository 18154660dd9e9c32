"""Sparse bivariate polynomial arithmetic over the rationals.

A polynomial in x, y is stored as integer numerators, a map ``(p, q) -> int``
with no zero terms, over one positive denominator, in lowest terms, and
nothing else. A float fed in is converted exactly (every finite double is a
dyadic rational), so certificate computations are free of rounding, and they
run on integers. ``terms`` builds the coefficients as ``fractions.Fraction``
values on each read. All values are immutable after construction, pickle and
copy as their numerators and denominator, and every operation is a pure
function, so instances can be shared freely across threads.
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


def exact_ratio(c) -> tuple[int, int]:
    """c as (numerator, positive denominator), Python ints; a float as its
    double's exact value. NonFiniteValue or TypeError unless c is real."""
    if type(c) is int:
        return c, 1
    if type(c) is not float:
        if isinstance(c, Rational):
            return int(c.numerator), int(c.denominator)
        if not isinstance(c, Real):
            raise TypeError(f"unsupported coefficient type {type(c)!r}")
        c = float(c)
    if not math.isfinite(c):
        raise NonFiniteValue(f"not finite: {c}")
    return c.as_integer_ratio()


class BivariatePoly:
    """A sparse polynomial in two variables with rational coefficients."""

    __slots__ = ("_num", "_den")

    def __init__(self, terms=None, den: int = 1):
        """The polynomial terms / den: ``terms`` maps (p, q) to an int, a
        Rational or a finite real, ``den`` is a nonzero int."""
        ratios = {}
        for (p, q), c in dict(terms or {}).items():
            try:
                ratios[int(p), int(q)] = exact_ratio(c)
            except NonFiniteValue:
                raise NonFiniteValue(f"coefficient of x^{p}*y^{q} is not "
                                     f"finite: {float(c)}") from None
        L = math.lcm(*(d for _, d in ratios.values()))
        num = {m: n * (L // d) for m, (n, d) in ratios.items() if n}
        if num and min(map(min, num)) < 0:
            raise ValueError("exponents must be nonnegative")
        if not den:
            raise ZeroDivisionError("zero denominator")
        den *= L
        g = math.gcd(den, *num.values()) * (1 if den > 0 else -1)
        if g != 1:  # lowest terms, den > 0
            num = {m: n // g for m, n in num.items()}
            den //= g
        setattr = object.__setattr__
        setattr(self, "_num", num)
        setattr(self, "_den", den)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("BivariatePoly is immutable")

    def __reduce__(self):
        return BivariatePoly, (self._num, self._den)

    @property
    def terms(self) -> dict:
        """The coefficients, a new dict ``(p, q) -> Fraction`` without zero
        terms."""
        return {m: Fraction(n, self._den) for m, n in self._num.items()}

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
        return not self._num

    def degree(self):
        """Total degree; the zero polynomial reports -inf."""
        if not self._num:
            return NEG_INF
        return max(p + q for p, q in self._num)

    def coeff(self, p: int, q: int) -> Fraction:
        return Fraction(self._num.get((p, q), 0), self._den)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        num = {m: n * other._den for m, n in self._num.items()}
        for m, n in other._num.items():
            num[m] = num.get(m, 0) + n * self._den
        return BivariatePoly(num, self._den * other._den)

    __radd__ = __add__

    def __neg__(self):
        return BivariatePoly({m: -n for m, n in self._num.items()}, self._den)

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
        return BivariatePoly(add_product({}, self._num, other._num),
                             self._den * other._den)

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
        return self._den == other._den and self._num == other._num

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
        num = {}
        for (p, q), n in self._num.items():
            e = (p, q)[idx]
            if e:
                num[(p - 1, q) if idx == 0 else (p, q - 1)] = n * e
        return BivariatePoly(num, self._den)

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


def integer_terms(P: BivariatePoly) -> tuple[dict, int]:
    """P = N / D as stored: N (p, q) -> int, shared with P so read-only,
    and D > 0, the least common denominator of P's coefficients."""
    return P._num, P._den


def add_product(total: dict, f: Mapping, g: Mapping) -> dict:
    """Add the product of the term maps f and g, (p, q) -> coefficient,
    into ``total`` and return it; zero sums stay in it."""
    for (a, b), u in f.items():
        for (e, h), v in g.items():
            k = (a + e, b + h)
            total[k] = total.get(k, 0) + u * v
    return total


def gradient_norm_squared(P: BivariatePoly) -> BivariatePoly:
    """Squared gradient magnitude (dP/dx)^2 + (dP/dy)^2 as a polynomial,
    formed on integers: for P = N / L (``integer_terms``) it is
    (Nx^2 + Ny^2) / L^2."""
    terms, L = integer_terms(P)
    px = {(p - 1, q): p * c for (p, q), c in terms.items() if p}
    py = {(p, q - 1): q * c for (p, q), c in terms.items() if q}
    total = add_product(add_product({}, px, px), py, py)
    return BivariatePoly(total, L * L)


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
    terms = P.terms
    if not terms:
        return "0"
    keys = sorted(terms, key=lambda k: (k[0] + k[1], k[0]), reverse=True)
    out = []
    for i, (p, q) in enumerate(keys):
        c = terms[(p, q)]
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
