"""Sparse bivariate polynomial arithmetic.

Polynomials in x, y are stored as a map ``(p, q) -> coefficient`` in canonical
sparse form (no zero terms). Two coefficient domains are supported, flagged per
polynomial:

* exact mode: ``fractions.Fraction`` entries. Floats fed into an exact
  polynomial are converted exactly (every float is a dyadic rational), so
  certificate computations are free of rounding.
* floating mode: real ``float`` entries in double precision.

Mixing modes in arithmetic promotes to floating. All values are immutable
after construction and every operation is a pure function, so instances can
be shared freely across threads. Numerical code takes the coefficients as
dense complex matrices (``coefficient_matrices``). Elimination is floating
only: ``dense_resultant`` computes the resultant from those matrices.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache
from numbers import Rational
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .errors import DegenerateElimination, NonFiniteValue, ParseError

# Relative tolerance for floating coefficient equality, after normalizing by
# the largest coefficient magnitude.
COEFF_EQ_TOL = 1e-12

NEG_INF = float("-inf")


def _to_exact(c, term) -> Fraction:
    if isinstance(c, Rational):
        return Fraction(c)
    if isinstance(c, float):
        return Fraction(_to_float(c, term))  # exact: floats are dyadic
    raise TypeError(f"unsupported coefficient type {type(c)!r}")


def _to_float(c, term) -> float:
    """c as a float; NonFiniteValue naming the term (p, q) if not finite."""
    if isinstance(c, complex):
        if c.imag != 0.0:
            raise TypeError("float mode supports real coefficients only")
        c = c.real
    c = float(c)
    if not math.isfinite(c):
        raise NonFiniteValue(f"coefficient of x^{term[0]}*y^{term[1]} is "
                             f"not finite: {c}")
    return c


class BivariatePoly:
    """A sparse polynomial in two variables with exact or floating coefficients."""

    __slots__ = ("terms", "exact")

    def __init__(self, terms=None, exact: bool | None = None):
        items = dict(terms or {})
        if exact is None:
            exact = all(isinstance(c, Rational) for c in items.values())
        conv = _to_exact if exact else _to_float
        clean = {}
        for (p, q), c in items.items():
            p, q = int(p), int(q)
            if p < 0 or q < 0:
                raise ValueError("exponents must be nonnegative")
            cc = conv(c, (p, q))
            if cc != 0:
                clean[(p, q)] = cc
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "exact", bool(exact))

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("BivariatePoly is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, exact: bool = True) -> "BivariatePoly":
        return cls({}, exact=exact)

    @classmethod
    def constant(cls, c, exact: bool | None = None) -> "BivariatePoly":
        return cls({(0, 0): c}, exact=exact)

    @classmethod
    def variable(cls, name: str, exact: bool = True) -> "BivariatePoly":
        if name == "x":
            return cls({(1, 0): 1}, exact=exact)
        if name == "y":
            return cls({(0, 1): 1}, exact=exact)
        raise ValueError("variable must be 'x' or 'y'")

    # -- basic queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self):
        """Total degree; the zero polynomial reports -inf."""
        if not self.terms:
            return NEG_INF
        return max(p + q for p, q in self.terms)

    def coeff(self, p: int, q: int):
        zero = Fraction(0) if self.exact else 0.0
        return self.terms.get((p, q), zero)

    def max_coeff_mag(self) -> float:
        if not self.terms:
            return 0.0
        return max(abs(float(c)) for c in self.terms.values())

    # -- mode conversion ----------------------------------------------------

    def to_float(self) -> "BivariatePoly":
        if not self.exact:
            return self
        return BivariatePoly({k: _to_float(c, k) for k, c in self.terms.items()}, exact=False)

    def to_exact(self) -> "BivariatePoly":
        if self.exact:
            return self
        return BivariatePoly({k: _to_exact(c, k) for k, c in self.terms.items()}, exact=True)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other, self.exact)
        if other is NotImplemented:
            return NotImplemented
        exact = self.exact and other.exact
        a = self if exact or not self.exact else self.to_float()
        b = other if exact or not other.exact else other.to_float()
        terms = dict(a.terms)
        for k, c in b.terms.items():
            terms[k] = terms.get(k, 0) + c
        return BivariatePoly(terms, exact=exact)

    __radd__ = __add__

    def __neg__(self):
        return BivariatePoly({k: -c for k, c in self.terms.items()}, exact=self.exact)

    def __sub__(self, other):
        other = _coerce(other, self.exact)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other, self.exact)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce(other, self.exact)
        if other is NotImplemented:
            return NotImplemented
        exact = self.exact and other.exact
        a = self if exact or not self.exact else self.to_float()
        b = other if exact or not other.exact else other.to_float()
        terms: dict = {}
        for (p1, q1), c1 in a.terms.items():
            for (p2, q2), c2 in b.terms.items():
                k = (p1 + p2, q1 + q2)
                terms[k] = terms.get(k, 0) + c1 * c2
        return BivariatePoly(terms, exact=exact)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = BivariatePoly.constant(1, exact=self.exact)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, BivariatePoly):
            other = _coerce(other, self.exact)
            if other is NotImplemented:
                return NotImplemented
        if self.exact and other.exact:
            return self.terms == other.terms
        a, b = self.to_float(), other.to_float()
        scale = max(a.max_coeff_mag(), b.max_coeff_mag())
        if scale == 0.0:
            return True
        tol = COEFF_EQ_TOL * scale
        for k in set(a.terms) | set(b.terms):
            if abs(a.terms.get(k, 0.0) - b.terms.get(k, 0.0)) > tol:
                return False
        return True

    __hash__ = None  # tolerance-based equality is incompatible with hashing

    # -- evaluation ---------------------------------------------------------

    def eval(self, x, y):
        """Value at a point, the sum of the terms: exact for an exact
        polynomial at a rational point."""
        rational = isinstance(x, Rational) and isinstance(y, Rational)
        zero = Fraction(0) if self.exact and rational else 0.0
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
        return BivariatePoly(terms, exact=self.exact)

    def __repr__(self):
        return f"BivariatePoly({format_poly(self)!r})"


def _var_index(var: str) -> int:
    if var == "x":
        return 0
    if var == "y":
        return 1
    raise ValueError("variable must be 'x' or 'y'")


def _coerce(value, exact_hint: bool):
    if isinstance(value, BivariatePoly):
        return value
    if isinstance(value, (int, float, Fraction)):
        exact = exact_hint and not isinstance(value, float)
        return BivariatePoly.constant(value, exact=exact)
    return NotImplemented


def gradient_norm_squared(P: BivariatePoly) -> BivariatePoly:
    """Squared gradient magnitude (dP/dx)^2 + (dP/dy)^2 as a polynomial."""
    px = P.partial("x")
    py = P.partial("y")
    return px * px + py * py


def structural_trim(P: BivariatePoly, rel_tol: float = COEFF_EQ_TOL) -> BivariatePoly:
    """Drop floating terms below ``rel_tol`` times the largest coefficient.

    Elimination code calls this so that roundoff residue cannot inflate the
    degree structure. Exact polynomials are returned unchanged.
    """
    if P.exact or not P.terms:
        return P
    cut = rel_tol * P.max_coeff_mag()
    return BivariatePoly(
        {k: c for k, c in P.terms.items() if abs(c) > cut}, exact=False
    )


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


def parse_poly(text: str, exact: bool | None = None) -> BivariatePoly:
    """Parse the term-list text form.

    Coefficients may be decimals (``-1.5``, ``2e-3``) or rationals (``3/4``);
    a decimal is read as its double, which an exact polynomial holds
    exactly. A decimal beyond the double range (``1e999``) is a
    NonFiniteValue. Mode is inferred when ``exact`` is None: the polynomial
    is exact iff every coefficient is an integer or a rational.
    """
    src = text.replace("*", " ").strip()
    if not src:
        raise ParseError("empty polynomial expression")
    pos = 0
    first = True
    terms: dict = {}
    saw_float = False
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
            value = float(coeff)
            saw_float = True
        else:
            value = Fraction(int(coeff))
        if sign == "-":
            value = -value
        p = int(m.group("px") or (1 if xv else 0))
        q = int(m.group("py") or (1 if yv else 0))
        total = terms[(p, q)] = terms.get((p, q), 0) + value
        if isinstance(total, float) and not math.isfinite(total):
            raise NonFiniteValue(
                f"coefficient not finite at term {src[pos:m.end()].strip()!r}")
        pos = m.end()
        first = False
    if exact is None:
        exact = not saw_float
    return BivariatePoly(terms, exact=exact)


def _format_coeff(c, exact: bool) -> str:
    if exact:
        f = Fraction(c)
        return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"
    r = float(c)
    if r == int(r) and abs(r) < 1e16:
        return str(int(r))
    return repr(r)


def format_poly(P: BivariatePoly) -> str:
    """Emit the canonical text form, terms ordered by descending (total degree, x-degree)."""
    if not P.terms:
        return "0"
    keys = sorted(P.terms, key=lambda k: (k[0] + k[1], k[0]), reverse=True)
    out = []
    for i, (p, q) in enumerate(keys):
        c = P.terms[(p, q)]
        neg = c < 0
        mag = -c if neg else c
        body = _format_coeff(mag, P.exact)
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


# ---------------------------------------------------------------------------
# floating Sylvester resultant: dense coefficient matrices, determinants at
# roots of unity, FFT interpolation
# ---------------------------------------------------------------------------


def coefficient_matrices(polys, size: int) -> np.ndarray:
    """Stack of dense complex ``size`` x ``size`` matrices, entry [k, p, q]
    the coefficient of x^p y^q in the k-th polynomial (size > degree)."""
    F = np.zeros((len(polys), size, size), dtype=complex)
    for k, P in enumerate(polys):
        for (p, q), c in P.terms.items():
            F[k, p, q] = complex(c)
    return F


def _zero_resultant(m: int, n: int) -> bool:
    """Whether the resultant of inputs of degrees m, n (-1: zero) in the
    eliminated variable is 0; DegenerateElimination if neither has it."""
    if m <= 0 and n <= 0 and m == n:
        raise DegenerateElimination(
            "both inputs are zero" if m < 0 else
            "both inputs have degree 0 in the eliminated variable; fall back "
            "to univariate gcd")
    return min(m, n) < 0


def _degrees(C: np.ndarray) -> tuple[int, int]:
    """Highest row and column holding a nonzero entry, -1 for none."""
    rows, cols = np.nonzero(C)
    return (int(rows.max()), int(cols.max())) if rows.size else (-1, -1)


def sylvester_dets(A: np.ndarray, B: np.ndarray,
                   t: np.ndarray) -> np.ndarray:
    """det S(t) at each point of t, S the Sylvester matrix in s of A and B
    (dense coefficient matrices, A[i, j] of t^i s^j, neither zero): one
    Horner pass evaluates the rows of A and B at all points, slice
    assignment lays out the stack of Sylvester matrices, and one stacked
    determinant evaluates them."""
    return _sylvester_dets(A, B, t, _degrees(A), _degrees(B))


def _sylvester_dets(A, B, t, degrees_a, degrees_b) -> np.ndarray:
    """``sylvester_dets`` given the ``_degrees`` of A and B."""
    (dpk, m), (dqk, n) = degrees_a, degrees_b
    # highest power of s first, as in the Sylvester matrix's rows
    rows = np.concatenate([A[:, m::-1], B[:, n::-1]], axis=1)
    top = max(dpk, dqk)
    vals = rows[top]
    for row in rows[:top][::-1]:
        vals = vals * t[:, None] + row
    S = np.zeros((len(t), m + n, m + n), dtype=complex)
    for r in range(n):
        S[:, r, r:r + m + 1] = vals[..., :m + 1]
    for r in range(m):
        S[:, n + r, r:r + n + 1] = vals[..., m + 1:]
    return np.linalg.det(S)


def dense_resultant(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Resultant of two real floating polynomials in their second variable
    s, from dense coefficient matrices (A[i, j] of t^i s^j): its ascending
    real coefficients in t. An input constant in s gives its row to the
    power of the other's degree in s, untrimmed. Otherwise det S(t), of
    degree at most n deg_t A + m deg_t B (m, n the degrees in s), is
    sampled at one more root of unity (``sylvester_dets``, all nodes in
    one stack) and interpolated by FFT, and the coefficients at most 1e-10
    of the largest are set to zero."""
    degrees_a, degrees_b = _degrees(A), _degrees(B)
    (dpk, m), (dqk, n) = degrees_a, degrees_b
    if _zero_resultant(m, n):
        return np.zeros(1)
    if min(m, n) == 0:
        return np.polynomial.polynomial.polypow(
            A[:, 0] if m == 0 else B[:, 0], max(m, n)).real
    count = n * dpk + m * dqk + 1
    nodes = np.exp(2j * np.pi * np.arange(count) / count)
    # the resultant of real polynomials is real
    coeffs = (np.fft.fft(_sylvester_dets(A, B, nodes, degrees_a,
                                         degrees_b)) / count).real
    mag = abs(coeffs)
    coeffs[mag <= 1e-10 * mag.max()] = 0.0
    return coeffs
