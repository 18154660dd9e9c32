"""Sparse bivariate polynomial arithmetic.

Polynomials in x, y are stored as a map ``(p, q) -> coefficient`` in canonical
sparse form (no zero terms). Two coefficient domains are supported, flagged per
polynomial:

* exact mode: ``fractions.Fraction`` entries. Floats fed into an exact
  polynomial are converted exactly (every float is a dyadic rational), so
  elimination and certificate computations are free of rounding.
* floating mode: real ``float`` entries in double precision.

Mixing modes in arithmetic promotes to floating. All values are immutable
after construction and every operation is a pure function, so instances can
be shared freely across threads. Numerical code takes the coefficients as
dense complex matrices (``coefficient_matrices``); the floating resultant
(``dense_resultant``) works on those.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

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

    def deg_in(self, var: str):
        """Degree in one variable; -inf for the zero polynomial."""
        idx = _var_index(var)
        if not self.terms:
            return NEG_INF
        return max(k[idx] for k in self.terms)

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


def univariate_coeffs(P: BivariatePoly, var: str) -> list:
    """Dense ascending coefficient list of a polynomial involving one variable only."""
    idx = _var_index(var)
    other = 1 - idx
    if P.terms and any(k[other] for k in P.terms):
        raise ValueError(f"polynomial is not univariate in {var}")
    d = P.deg_in(var)
    if d == NEG_INF:
        return []
    zero = Fraction(0) if P.exact else 0.0
    out = [zero] * (int(d) + 1)
    for k, c in P.terms.items():
        out[k[idx]] = c
    return out


# ---------------------------------------------------------------------------
# similarity transforms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimilarityTransform:
    """Composition of mirror (across the x-axis, applied first), rotation,
    uniform scaling by a nonzero factor, then translation."""

    angle: float = 0.0
    scale: float = 1.0
    tx: float = 0.0
    ty: float = 0.0
    mirror: bool = False

    def __post_init__(self):
        if self.scale == 0.0:
            raise ValueError("scale must be nonzero")

    @classmethod
    def identity(cls) -> "SimilarityTransform":
        return cls()

    @classmethod
    def translation(cls, tx: float, ty: float) -> "SimilarityTransform":
        return cls(tx=tx, ty=ty)

    @classmethod
    def scaling(cls, c: float) -> "SimilarityTransform":
        return cls(scale=c)

    @classmethod
    def rotation(cls, angle: float) -> "SimilarityTransform":
        return cls(angle=angle)

    def linear_matrix(self) -> tuple[tuple[float, float], tuple[float, float]]:
        cs, sn = math.cos(self.angle), math.sin(self.angle)
        mu = -1.0 if self.mirror else 1.0
        c = self.scale
        return ((c * cs, -c * sn * mu), (c * sn, c * cs * mu))

    def apply(self, x: float, y: float) -> tuple[float, float]:
        (axx, axy), (ayx, ayy) = self.linear_matrix()
        return (axx * x + axy * y + self.tx, ayx * x + ayy * y + self.ty)

    def inverse(self) -> "SimilarityTransform":
        ang = self.angle if self.mirror else -self.angle
        inv = SimilarityTransform(angle=ang, scale=1.0 / self.scale, mirror=self.mirror)
        (axx, axy), (ayx, ayy) = inv.linear_matrix()
        return SimilarityTransform(
            angle=ang,
            scale=1.0 / self.scale,
            mirror=self.mirror,
            tx=-(axx * self.tx + axy * self.ty),
            ty=-(ayx * self.tx + ayy * self.ty),
        )

    def compose(self, inner: "SimilarityTransform") -> "SimilarityTransform":
        """Transform equal to applying ``inner`` first, then ``self``."""
        angle = self.angle + (-inner.angle if self.mirror else inner.angle)
        t1x, t1y = self.apply(inner.tx, inner.ty)
        return SimilarityTransform(
            angle=angle,
            scale=self.scale * inner.scale,
            mirror=self.mirror ^ inner.mirror,
            tx=t1x,
            ty=t1y,
        )


def apply_transform(P: BivariatePoly, T: SimilarityTransform) -> BivariatePoly:
    """The polynomial in transformed coordinates: composes P with the inverse map.

    Exact polynomials stay exact: every float entry of the map is a dyadic
    rational and converts without rounding.
    """
    inv = T.inverse()
    (axx, axy), (ayx, ayy) = inv.linear_matrix()
    bx, by = inv.tx, inv.ty
    exact = P.exact
    xs = BivariatePoly({(1, 0): axx, (0, 1): axy, (0, 0): bx}, exact=exact)
    ys = BivariatePoly({(1, 0): ayx, (0, 1): ayy, (0, 0): by}, exact=exact)
    max_p = max((k[0] for k in P.terms), default=0)
    max_q = max((k[1] for k in P.terms), default=0)
    xpow = _power_table(xs, max_p, exact)
    ypow = _power_table(ys, max_q, exact)
    acc = BivariatePoly.zero(exact=exact)
    for (p, q), c in P.terms.items():
        acc = acc + xpow[p] * ypow[q] * c
    return acc


def _power_table(base: BivariatePoly, n: int, exact: bool) -> list[BivariatePoly]:
    table = [BivariatePoly.constant(1, exact=exact)]
    for _ in range(n):
        table.append(table[-1] * base)
    return table


# ---------------------------------------------------------------------------
# Sylvester resultant
# ---------------------------------------------------------------------------

# univariate polynomials over Fraction: ascending tuples, trailing zeros trimmed


def _up_trim(c: list) -> tuple:
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _up_sub(a, b):
    n = max(len(a), len(b))
    return _up_trim([(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0) for i in range(n)])


def _up_mul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return _up_trim(out)


def _up_divexact(a, b):
    """Exact division of univariate polynomials over the rationals."""
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    if not a:
        return ()
    rem = list(a)
    out = [Fraction(0)] * (len(a) - len(b) + 1)
    lead = b[-1]
    for k in range(len(a) - len(b), -1, -1):
        coef = rem[k + len(b) - 1] / lead
        out[k] = coef
        if coef != 0:
            for j, bj in enumerate(b):
                rem[k + j] -= coef * bj
    if any(r != 0 for r in rem):
        raise ArithmeticError("inexact polynomial division in fraction-free elimination")
    return _up_trim(out)


def _bareiss_det(M: list[list[tuple]]) -> tuple:
    """Fraction-free Bareiss determinant of a matrix of univariate polynomials."""
    n = len(M)
    if n == 0:
        return (Fraction(1),)
    sign = 1
    prev = (Fraction(1),)
    for k in range(n - 1):
        if not M[k][k]:
            for r in range(k + 1, n):
                if M[r][k]:
                    M[k], M[r] = M[r], M[k]
                    sign = -sign
                    break
            else:
                return ()
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = _up_sub(_up_mul(M[i][j], M[k][k]), _up_mul(M[i][k], M[k][j]))
                M[i][j] = _up_divexact(num, prev)
            M[i][k] = ()
        prev = M[k][k]
    det = M[n - 1][n - 1]
    if sign < 0:
        det = tuple(-c for c in det)
    return det


def _clear_denominators(P: BivariatePoly) -> tuple[BivariatePoly, Fraction]:
    """Scale an exact polynomial to integer coefficients; returns (scaled, factor)."""
    lam = Fraction(1)
    for c in P.terms.values():
        lam = Fraction(math.lcm(lam.numerator, Fraction(c).denominator))
    return BivariatePoly({k: c * lam for k, c in P.terms.items()}, exact=True), lam


def _coeff_rows(P: BivariatePoly, elim: str, keep: str) -> list[BivariatePoly]:
    """Coefficients of the eliminated variable, highest power first, each a
    polynomial in the kept variable."""
    e = _var_index(elim)
    k = _var_index(keep)
    d = int(P.deg_in(elim))
    rows = [dict() for _ in range(d + 1)]
    for key, c in P.terms.items():
        rows[d - key[e]][(key[k], 0) if keep == "x" else (0, key[k])] = c
    return [BivariatePoly(r, exact=P.exact) for r in rows]


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


def sylvester_resultant(P: BivariatePoly, Q: BivariatePoly, eliminate: str = "y") -> BivariatePoly:
    """Resultant of P and Q with respect to one variable.

    Returns the determinant of their Sylvester matrix, viewed as polynomials in
    the eliminated variable over polynomials in the other. Exact inputs take a
    fraction-free Bareiss elimination; floating inputs go through
    ``dense_resultant``, which evaluates the determinant on roots of unity
    and interpolates by FFT.
    """
    keep = "x" if eliminate == "y" else "y"
    _var_index(eliminate)
    if not (P.exact and Q.exact):
        P = structural_trim(P.to_float())
        Q = structural_trim(Q.to_float())
        size = 1 + int(max(0, P.degree(), Q.degree()))
        F = coefficient_matrices((P, Q), size)
        if eliminate == "x":
            F = F.transpose(0, 2, 1)
        coeffs = dense_resultant(*F)
        return BivariatePoly({(i, 0) if keep == "x" else (0, i): c
                              for i, c in enumerate(coeffs)}, exact=False)
    m = P.deg_in(eliminate)
    n = Q.deg_in(eliminate)
    m = -1 if m == NEG_INF else int(m)
    n = -1 if n == NEG_INF else int(n)
    if _zero_resultant(m, n):
        return BivariatePoly.zero(exact=True)
    if m <= 0:
        return P ** n  # P constant in the eliminated variable
    if n <= 0:
        return Q ** m

    P, lp = _clear_denominators(P)
    Q, lq = _clear_denominators(Q)
    scale_back = Fraction(1) / (lp ** n * lq ** m)
    prow = _coeff_rows(P, eliminate, keep)
    qrow = _coeff_rows(Q, eliminate, keep)
    size = m + n
    M = [[() for _ in range(size)] for _ in range(size)]
    for r in range(n):
        for j, c in enumerate(prow):
            M[r][r + j] = tuple(univariate_coeffs(c, keep))
    for r in range(m):
        for j, c in enumerate(qrow):
            M[n + r][r + j] = tuple(univariate_coeffs(c, keep))
    det = _bareiss_det(M)
    terms = {}
    for i, c in enumerate(det):
        if c != 0:
            terms[(i, 0) if keep == "x" else (0, i)] = c * scale_back
    return BivariatePoly(terms, exact=True)
