"""Reduction-of-complexity analyzer.

Decides, for a polynomial curve P and its squared gradient Q, which of two
mutually exclusive situations holds:

* P and Q share a common zero in C^2 — then no polynomial weight W can agree
  with 1/Q on the whole curve, and the family admits no reduced objective; a
  refined :class:`CommonZeroWitness` is produced as evidence;
* P*U + Q*W = 1 has polynomial solutions — then W is a valid weight
  polynomial, the reduced objective exists, and a verified
  :class:`ReductionCertificate` is produced.

Both are decided on the exact values of the coefficients. A Groebner basis
of <P, Q> is {1} exactly when there is no common zero (weak
Nullstellensatz). Otherwise the witness comes off the same basis by
Stetter's eigenvector method: x and y act on the quotient ring by matrices
of exact normal forms, rounded to doubles, whose shared eigenvectors hold
the values of the normal monomials at the common zeros; a curve of common
zeros is first cut by a random line. A damped 2-D Newton iteration on P, Q
and their partials, compiled once into a stack of dense coefficient
matrices, polishes each point to the witness tolerance. Certificate search
poses the identity as a linear system in the coefficients of U and W,
solved over the rationals at degree 0 first, and at higher degrees only
for a pair whose basis is {1}.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import DegenerateInput, InvalidSpec, NumericalFailure
from .families import CurveFamily, get_family
from .poly import (
    NEG_INF,
    BivariatePoly,
    format_poly,
    gradient_norm_squared,
    monomial_index,
    monomials,
)

WITNESS_TOL = 1e-8          # relative residual accepted for a common zero
_MIX = 0.7548776662466927   # r of T_x + r T_y (``_zeros``): irrational-
                            # looking, so distinct zeros get distinct x + r y


@dataclass(frozen=True)
class CommonZeroWitness:
    """A point of C^2 where both P and Q vanish (within tolerance)."""

    x: complex
    y: complex
    residual_P: float
    residual_Q: float

    def to_dict(self) -> dict:
        return {
            "x": [self.x.real, self.x.imag],
            "y": [self.y.real, self.y.imag],
            "residual_P": self.residual_P,
            "residual_Q": self.residual_Q,
        }


@dataclass(frozen=True)
class ReductionCertificate:
    """Polynomials U, W with P*U + Q*W = 1, exactly. ``identity_residual``
    is the residual of that identity, always 0.0."""

    U: BivariatePoly
    W: BivariatePoly
    identity_residual: float
    degree: int

    def to_dict(self) -> dict:
        return {
            "U": format_poly(self.U),
            "W": format_poly(self.W),
            "identity_residual": self.identity_residual,
            "degree": self.degree,
        }


# ---------------------------------------------------------------------------
# small numerical helpers
# ---------------------------------------------------------------------------


def _int_degree(P: BivariatePoly) -> int:
    d = P.degree()
    return 0 if d == NEG_INF else int(d)


def _values(F: np.ndarray, x: complex, y: complex) -> np.ndarray:
    """Every polynomial of the stack at (x, y), in one product."""
    p = np.arange(F.shape[-1])
    return (F @ y ** p) @ x ** p


def _rel_residual(value: complex, degree: int, x: complex, y: complex) -> float:
    """|P(x, y)| of P scaled to largest coefficient 1, relative to the
    point's size."""
    return float(abs(value)) / max(1.0, abs(x), abs(y)) ** degree


def _newton_refine(pair: "_Pair", x, y, iters: int = 60):
    """Damped Newton on the 2x2 system (P, Q) = 0. Returns (x, y, resP, resQ)."""
    vals = _values(pair.F, x, y)
    best = max(pair.residuals(vals, x, y))
    for _ in range(iters):
        if best <= 1e-14:
            break
        f1, f2, j11, j21, j12, j22 = vals
        det = j11 * j22 - j12 * j21
        if abs(det) < 1e-30:
            break
        dx = (f1 * j22 - f2 * j12) / det
        dy = (j11 * f2 - j21 * f1) / det
        step = 1.0
        for _ in range(12):
            nx, ny = x - step * dx, y - step * dy
            nvals = _values(pair.F, nx, ny)
            r = max(pair.residuals(nvals, nx, ny))
            if r < best:
                x, y, vals, best = nx, ny, nvals, r
                break
            step *= 0.5
        else:
            break  # no damped step improved
    x, y = complex(x), complex(y)
    return (x, y) + pair.residuals(vals, x, y)


class _Pair:
    """P and Q compiled once for the Newton polish: ``F`` stacks the dense
    coefficient matrices (entry [p, q] of x^p y^q) of P and Q, each scaled
    to largest coefficient 1, and of their partials Px, Qx, Py, Qy, so one
    ``_values`` product evaluates all six at a point."""

    def __init__(self, P, Q):
        self.degree = (_int_degree(P), _int_degree(Q))
        n = 1 + max(self.degree)
        F = self.F = np.zeros((6, n, n), dtype=complex)
        for k, R in enumerate((P, Q)):
            terms = {m: float(c) for m, c in R.terms.items()}
            scale = max(map(abs, terms.values()), default=1.0)
            for (p, q), c in terms.items():
                c /= scale
                F[k, p, q] = c
                if p:
                    F[2 + k, p - 1, q] = p * c
                if q:
                    F[4 + k, p, q - 1] = q * c

    def residuals(self, vals, x, y) -> tuple[float, float]:
        """The relative residuals of P and Q from ``_values(F, x, y)``."""
        return tuple(_rel_residual(v, d, x, y)
                     for v, d in zip(vals[:2], self.degree))


# ---------------------------------------------------------------------------
# Groebner bases and common zeros
# ---------------------------------------------------------------------------


def _grevlex(m) -> tuple:
    """Sort key of x^p y^q in graded reverse-lex order with x > y."""
    return (m[0] + m[1], m[0])


def _remainder(f: dict, G: list) -> dict:
    """f reduced by G, a list of (leading monomial, monic polynomial) with
    polynomials as dicts of Fractions, in graded reverse-lex order."""
    f, rem = dict(f), {}
    while f:
        m = max(f, key=_grevlex)
        lm, g = next(((lm, g) for lm, g in G
                      if lm[0] <= m[0] and lm[1] <= m[1]), (None, None))
        if g is None:
            rem[m] = f.pop(m)
            continue
        c, sp, sq = f[m], m[0] - lm[0], m[1] - lm[1]
        for (p, q), v in g.items():
            k = (p + sp, q + sq)
            f[k] = f.get(k, 0) - c * v
            if not f[k]:
                del f[k]
    return rem


def _basis(*polys) -> list | None:
    """A Groebner basis of the ideal of exact polynomials (dicts of
    Fractions) in graded reverse-lex order, as (leading monomial, monic
    polynomial) pairs, or None if 1 lies in the ideal: Buchberger's
    algorithm, skipping pairs with coprime leading monomials and stopping as
    soon as a constant appears."""
    G, pairs, todo = [], [], list(polys[::-1])
    while todo or pairs:
        if todo:
            f = todo.pop()
        else:  # the S-polynomial of the pair of least lcm
            pairs.sort(key=lambda t: _grevlex(t[0]), reverse=True)
            lcm, i, j = pairs.pop()
            f = {}
            for (lm, g), sign in ((G[i], 1), (G[j], -1)):
                for (p, q), v in g.items():
                    k = (p + lcm[0] - lm[0], q + lcm[1] - lm[1])
                    f[k] = f.get(k, 0) + sign * v
        r = _remainder({k: v for k, v in f.items() if v}, G)
        if not r:
            continue
        lm = max(r, key=_grevlex)
        if lm == (0, 0):
            return None
        pairs += [((max(lm[0], lg[0]), max(lm[1], lg[1])), i, len(G))
                  for i, (lg, _) in enumerate(G)
                  if min(lm[0], lg[0]) or min(lm[1], lg[1])]
        G.append((lm, {m: v / r[lm] for m, v in r.items()}))
    return G


def _zeros(G: list):
    """The common zeros of a Groebner basis G, as a (2, k) array of their x
    and y, or None when there are infinitely many. Stetter's eigenvector
    method: the k monomials that no leading monomial divides, 1 first, span
    the quotient ring; x and y act on it by the matrices T_x and T_y whose
    rows are the exact normal forms of x and y times each of them, rounded
    here; and each eigenvector of T_x + r T_y holds those monomials' values
    at one zero, so its products with the rows of 1, the normal forms of x
    and y, give x and y there."""
    lms = [lm for lm, _ in G]
    a = min((p for p, q in lms if q == 0), default=None)
    b = min((q for p, q in lms if p == 0), default=None)
    if a is None or b is None:
        return None
    normal = [(p, q) for p in range(a) for q in range(b)
              if not any(l[0] <= p and l[1] <= q for l in lms)]
    forms = {m: {m: 1} for m in normal}

    def normal_form(m):
        # m - (m / lm) g leaves the tail of g times m / lm, of lower monomials
        if m not in forms:
            lm, g = next(h for h in G if h[0][0] <= m[0] and h[0][1] <= m[1])
            form = forms[m] = {}
            for (p, q), c in g.items():
                if (p, q) != lm:
                    t = (p + m[0] - lm[0], q + m[1] - lm[1])
                    for n, v in normal_form(t).items():
                        form[n] = form.get(n, 0) - c * v
        return forms[m]

    index = {m: i for i, m in enumerate(normal)}
    T = np.zeros((2, len(normal), len(normal)))
    for i, (p, q) in enumerate(normal):
        for v, m in enumerate(((p + 1, q), (p, q + 1))):
            for n, c in normal_form(m).items():
                T[v, i, index[n]] = c
    _, V = np.linalg.eig(T[0] + _MIX * T[1])
    return T[:, 0] @ V / V[0]


def _sliced_zeros(P: BivariatePoly, Q: BivariatePoly):
    """Common zeros of P and Q on a seeded random line x = t, else y = t:
    a curve of common zeros meets one of them in finitely many points."""
    rng = np.random.default_rng(1729)
    for line in ((1, 0), (0, 1)):
        t = Fraction(int(rng.integers(-2 ** 20, 2 ** 20)), 2 ** 19)
        G = _basis(P.terms, Q.terms, {line: Fraction(1), (0, 0): -t})
        zeros = None if G is None else _zeros(G)
        if zeros is not None:
            return zeros
    return np.empty((2, 0))


def find_common_zero(P: BivariatePoly, Q: BivariatePoly):
    """A common zero of P and Q in C^2, or None if there is none.

    Decided on the exact values of the coefficients: the Groebner basis of
    <P, Q> is {1} exactly when there is no common zero (weak
    Nullstellensatz). Otherwise the zeros are read off the basis
    (``_zeros``), from a random line through a curve of them when there are
    infinitely many, each is polished by a damped two-dimensional Newton
    iteration, and the first whose relative residuals both meet
    ``WITNESS_TOL`` is returned. NumericalFailure if none does: never a
    guess.
    """
    if _int_degree(P) == 0:
        raise DegenerateInput("P is constant; nothing to intersect")
    G = _basis(P.terms, Q.terms)
    if G is None:
        return None
    zeros = _zeros(G)
    if zeros is None:
        zeros = _sliced_zeros(P, Q)
    pair = _Pair(P, Q)
    for x, y in zip(*zeros):
        x, y, rp, rq = _newton_refine(pair, x, y)
        if rp <= WITNESS_TOL and rq <= WITNESS_TOL:
            return CommonZeroWitness(x, y, rp, rq)
    raise NumericalFailure(
        "no common zero of the basis met the witness tolerance "
        f"(degrees {_int_degree(P)}, {_int_degree(Q)})"
    )


# ---------------------------------------------------------------------------
# Nullstellensatz certificates
# ---------------------------------------------------------------------------


def _row(p: int, q: int) -> int:
    """Row of x^p y^q: rows run by total degree, so the rows of a system of
    lower row degree are a prefix of a higher one's."""
    t = p + q
    return t * (t + 1) // 2 + q


class CertificateLayout:
    """Where the coefficients of P and Q sit in the system A s = b of P*U +
    Q*W = 1 (see ``certificate_system``).

    ``fill(p, q)`` takes P's coefficient vector on ``monomials(p_degree)``
    and Q's on ``monomials(q_degree)`` and returns A, of shape ``shape``;
    leading axes of p and q are kept, so one call fills a stack of systems.
    """

    def __init__(self, p_degree: int, q_degree: int, d: int):
        self.cols = monomials(d)
        k = len(self.cols)
        drow = d + max(p_degree, q_degree)
        self.shape = ((drow + 1) * (drow + 2) // 2, 2 * k)
        rows, cols, src = [], [], []
        for base, degree, first in ((0, p_degree, 0),
                                    (k, q_degree, len(monomials(p_degree)))):
            for i, (a, e) in enumerate(monomials(degree)):
                # distinct monomials land in distinct rows of each column
                for j, (p, q) in enumerate(self.cols):
                    rows.append(_row(a + p, e + q))
                    cols.append(base + j)
                    src.append(first + i)
        self._at = (np.array(rows), np.array(cols))
        self._src = np.array(src)

    def fill(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        pq = np.concatenate([p, q], axis=-1)
        zero = Fraction(0) if pq.dtype == object else 0.0
        A = np.full(pq.shape[:-1] + self.shape, zero, dtype=pq.dtype)
        A[(...,) + self._at] = pq[..., self._src]
        return A


@lru_cache(maxsize=64)
def certificate_layout(p_degree: int, q_degree: int,
                       d: int) -> CertificateLayout:
    """The shared layout of the certificate systems of every pair (P, Q) of
    degrees (p_degree, q_degree) at certificate degree d."""
    return CertificateLayout(p_degree, q_degree, d)


def certificate_system(P: BivariatePoly, Q: BivariatePoly, d: int):
    """The linear system A s = b equating the coefficients of P*U + Q*W with 1.

    The unknowns s are U's then W's coefficients on the monomials ``cols`` of
    total degree <= d. The rows are the monomials of total degree
    <= d + max(deg P, deg Q), ordered by total degree, so x^0 y^0 is row 0
    and the system of a lower-degree pair is the leading rows of a
    higher-degree one's. A and b hold Fractions (dtype object). Returns
    (A, b, cols).
    """
    dp, dq = _int_degree(P), _int_degree(Q)
    layout = certificate_layout(dp, dq, d)
    A = layout.fill(coefficients(P, dp), coefficients(Q, dq))
    b = np.full(len(A), Fraction(0), dtype=object)
    b[0] = Fraction(1)
    return A, b, layout.cols


def coefficients(P: BivariatePoly, degree: int) -> np.ndarray:
    """P's coefficient vector on ``monomials(degree)``, of Fractions."""
    index = monomial_index(degree)
    vec = np.full(len(index), Fraction(0), dtype=object)
    for mn, c in P.terms.items():
        vec[index[mn]] = c
    return vec


def _rref(M: list[list[Fraction]]):
    """Reduced row echelon form in place; returns pivot column list."""
    rows, cols = len(M), len(M[0]) if M else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if M[i][c] != 0), None)
        if pivot is None:
            continue
        M[r], M[pivot] = M[pivot], M[r]
        pv = M[r][c]
        M[r] = [v / pv for v in M[r]]
        for i in range(rows):
            if i != r and M[i][c] != 0:
                f = M[i][c]
                M[i] = [a - f * b for a, b in zip(M[i], M[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return pivots


def _solve_exact_at(P, Q, d):
    A, b, cols = certificate_system(P, Q, d)
    k = len(cols)
    ncols = 2 * k
    M = [row + [bi] for row, bi in zip(A.tolist(), b.tolist())]
    pivots = _rref(M)
    piv_set = set(pivots)
    for row in M:
        if all(v == 0 for v in row[:ncols]) and row[ncols] != 0:
            return None  # inconsistent: infeasible at this degree
    # particular solution with free variables zero
    x0 = [Fraction(0)] * ncols
    for r, c in enumerate(pivots):
        x0[c] = M[r][ncols]
    free = [c for c in range(ncols) if c not in piv_set]
    if free:
        # minimum-norm solution: project x0 onto the affine solution set
        basis = []
        for fcol in free:
            v = [Fraction(0)] * ncols
            v[fcol] = Fraction(1)
            for r, c in enumerate(pivots):
                v[c] = -M[r][fcol]
            basis.append(v)
        m = len(basis)
        G = [[sum(basis[i][t] * basis[j][t] for t in range(ncols))
              for j in range(m)] for i in range(m)]
        h = [-sum(basis[i][t] * x0[t] for t in range(ncols)) for i in range(m)]
        # G is the Gram matrix of independent vectors: every column pivots
        Gh = [row + [hi] for row, hi in zip(G, h)]
        _rref(Gh)
        coef = [row[m] for row in Gh]
        for i in range(m):
            if coef[i] != 0:
                for t in range(ncols):
                    x0[t] += coef[i] * basis[i][t]
    U = BivariatePoly({mno: x0[j] for j, mno in enumerate(cols)})
    W = BivariatePoly({mno: x0[k + j] for j, mno in enumerate(cols)})
    return U, W


def solve_nullstellensatz(P: BivariatePoly, Q: BivariatePoly):
    """Minimal-degree polynomials U, W with P*U + Q*W = 1, or None when P
    and Q have a common zero in C^2 and no such polynomials exist.

    P and Q are decided on the exact values of their coefficients. The
    degree-0 system is solved first, as every admissible registry family's
    certificate has that degree; then membership of 1 in <P, Q> is tested,
    and only a member walks up the degrees, which ends because a
    certificate exists. Each degree is solved by Gauss-Jordan elimination
    over the rationals, giving the exact minimum-norm solution.
    """
    if P.is_zero() or Q.is_zero():
        raise DegenerateInput("P and Q must be nonzero")
    got = _solve_exact_at(P, Q, 0)
    if got is None and _basis(P.terms, Q.terms) is not None:
        return None
    d = 0
    while got is None:
        d += 1
        got = _solve_exact_at(P, Q, d)
    U, W = got
    if not (P * U + Q * W - 1).is_zero():
        raise NumericalFailure("exact certificate failed verification")
    return ReductionCertificate(U, W, 0.0, d)


# ---------------------------------------------------------------------------
# verdicts and family reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReductionDecision:
    """Outcome for one (P, Q) pair. ``max_degree`` is the certificate's
    degree when the verdict is admissible, None otherwise."""

    admissible: bool
    witness: CommonZeroWitness | None
    certificate: ReductionCertificate | None
    max_degree: int | None

    def to_dict(self) -> dict:
        return {
            "admissible": self.admissible,
            "witness": self.witness.to_dict() if self.witness else None,
            "certificate": self.certificate.to_dict() if self.certificate else None,
            "max_degree": self.max_degree,
        }


def decide_reduction(P: BivariatePoly,
                     Q: BivariatePoly | None = None) -> ReductionDecision:
    """Full verdict for one polynomial, decided on the exact values of its
    coefficients: witness search, then certificate.

    Q defaults to the squared gradient of P. A pair with a common zero none
    of whose computed points polishes to ``WITNESS_TOL`` is still not
    admissible, with no witness.
    """
    if Q is None:
        Q = gradient_norm_squared(P)
    try:
        witness = find_common_zero(P, Q)
    except NumericalFailure:
        # raised only once the basis of <P, Q> came out other than {1}
        return ReductionDecision(False, None, None, None)
    if witness is not None:
        return ReductionDecision(False, witness, None, None)
    cert = solve_nullstellensatz(P, Q)
    if cert is None:
        return ReductionDecision(False, None, None, None)
    return ReductionDecision(True, None, cert, cert.degree)


def circle_certificate() -> ReductionCertificate:
    """The unit circle's certificate. Every circle's minimal certificate has
    the same degree, and the generic fit re-solves W at each iterate and
    reads only that degree, so this one serves any circle fit."""
    P = get_family("circle").poly({"a": 0.0, "b": 0.0, "R": 1.0})
    decision = decide_reduction(P)
    if not decision.admissible or decision.certificate is None:
        raise NumericalFailure("no certificate for the unit circle")
    return decision.certificate


@dataclass(frozen=True)
class SampleReport:
    index: int
    theta: dict
    verdict: str                      # admissible | not_admissible | error
    witness: CommonZeroWitness | None = None
    certificate: ReductionCertificate | None = None
    error: str | None = None

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "theta": {k: float(v) for k, v in self.theta.items()},
            "verdict": self.verdict,
            "witness": self.witness.to_dict() if self.witness else None,
            "certificate": self.certificate.to_dict() if self.certificate else None,
            "error": self.error,
        }


@dataclass(frozen=True)
class FamilyReport:
    family: str
    samples: tuple
    consistent: bool
    verdict: str

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "consistent": self.consistent,
            "verdict": self.verdict,
            "samples": [s.to_dict() for s in self.samples],
        }


def _analyze_one(family: CurveFamily, idx: int, theta: dict) -> SampleReport:
    try:
        P = family.poly(theta)
        Q = gradient_norm_squared(P)
        decision = decide_reduction(P, Q)
    except Exception as exc:
        return SampleReport(idx, theta, "error", error=f"{type(exc).__name__}: {exc}")
    if decision.admissible:
        return SampleReport(idx, theta, "admissible",
                            certificate=decision.certificate)
    return SampleReport(idx, theta, "not_admissible", witness=decision.witness)


def analyze_family(family, samples: int, rng=None) -> FamilyReport:
    """Per-sample admissibility verdicts over random parameters of a family,
    each decided exactly on the polynomial of its parameters.

    Errors in individual samples are recorded, never abort the batch. The
    report carries a consistency flag: every sample that did not error must
    land on the same verdict. The family's verdict is that one, "mixed" if
    they differ, or "inconclusive" if every sample errored.
    """
    if isinstance(family, str):
        family = get_family(family)
    if samples < 1:
        raise InvalidSpec(f"samples must be at least 1, got {samples}")
    if rng is None:
        rng = np.random.default_rng(0)
    thetas = [family.sample_theta(rng) for _ in range(samples)]
    reports = [_analyze_one(family, i, t) for i, t in enumerate(thetas)]
    decided = {r.verdict for r in reports if r.verdict in ("admissible", "not_admissible")}
    consistent = len(decided) <= 1
    if not decided:
        verdict = "inconclusive"
    elif not consistent:
        verdict = "mixed"
    else:
        verdict = decided.pop()
    return FamilyReport(family.name, tuple(reports), consistent, verdict)
