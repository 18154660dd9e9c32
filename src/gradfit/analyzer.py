"""Reduction-of-complexity analyzer.

Decides, for a polynomial curve P and its squared gradient Q, which of two
mutually exclusive situations holds:

* P and Q share a common zero in C^2 — then no polynomial weight W can agree
  with 1/Q on the whole curve, and the family admits no reduced objective; a
  refined :class:`CommonZeroWitness` is produced as evidence;
* P*U + Q*W = 1 has polynomial solutions — then W is a valid weight
  polynomial, the reduced objective exists, and a verified
  :class:`ReductionCertificate` is produced.

Both are decided on the exact values of the coefficients, in integer
arithmetic. A Groebner basis of <P, Q>, of primitive integer polynomials,
is {1} exactly when there is no common zero (weak Nullstellensatz).
Otherwise the witness comes off the same basis by Stetter's eigenvector
method: x and y act on the quotient ring by matrices of exact normal forms,
rounded to doubles, whose shared eigenvectors hold the values of the normal
monomials at the common zeros; a curve of common zeros is first cut by a
random line. A damped 2-D Newton iteration on P, Q
and their partials, compiled once into a stack of dense coefficient
matrices, polishes each point to the witness tolerance. Certificate search
poses the identity as a linear system in the coefficients of U and W,
scaled by one common denominator to integers and solved by fraction-free
elimination, at degree 0 first, and at higher degrees only for a pair
whose basis is {1}; the identity is then verified on integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import DegenerateInput, InvalidSpec, NumericalFailure
from .families import CurveFamily, get_family
from .poly import (
    NEG_INF,
    BivariatePoly,
    add_product,
    format_poly,
    gradient_norm_squared,
    integer_terms,
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
    """Polynomials U, W of total degree ``degree`` with P*U + Q*W = 1,
    exactly: the identity is verified on integers before a certificate is
    made, so ``identity_residual``, its residual, is 0.0 for every one."""

    U: BivariatePoly
    W: BivariatePoly
    degree: int
    identity_residual = 0.0

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
    point's size; inf where the value or the size's power is not finite,
    so that such a point is never a witness. The power is taken of a
    Python float, which raises OverflowError where numpy's gives inf."""
    try:
        r = float(abs(value)) / float(max(1.0, abs(x), abs(y))) ** degree
    except OverflowError:
        return math.inf
    return r if r < math.inf else math.inf


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
            num, den = integer_terms(R)
            terms = {m: c / den for m, c in num.items()}
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
    """A multiple of f reduced by G, a list of (leading monomial, dict of
    ints) in graded reverse-lex order: to cancel a leading term, f and the
    divisor are scaled by each other's leading coefficient over their gcd."""
    f, rem = dict(f), {}
    while f:
        m = max(f, key=_grevlex)
        lm, g = next(((lm, g) for lm, g in G
                      if lm[0] <= m[0] and lm[1] <= m[1]), (None, None))
        if g is None:
            rem[m] = f.pop(m)
            continue
        h = math.gcd(f[m], g[lm])
        a, c = g[lm] // h, f[m] // h
        if a != 1:
            f = {k: a * v for k, v in f.items()}
            rem = {k: a * v for k, v in rem.items()}
        sp, sq = m[0] - lm[0], m[1] - lm[1]
        for (p, q), v in g.items():
            k = (p + sp, q + sq)
            f[k] = f.get(k, 0) - c * v
            if not f[k]:
                del f[k]
    return rem


def _basis(*polys) -> list | None:
    """A Groebner basis of the ideal of the polynomials in graded reverse-lex
    order, as (leading monomial, polynomial) pairs, each a primitive dict
    (p, q) -> int, or None if 1 lies in the ideal: Buchberger's algorithm on
    integers, skipping pairs with coprime leading monomials and stopping as
    soon as a constant appears."""
    G, pairs, todo = [], [], [integer_terms(R)[0] for R in polys[::-1]]
    while todo or pairs:
        if todo:
            f = todo.pop()
        else:  # the S-polynomial of the pair of least lcm
            pairs.sort(key=lambda t: _grevlex(t[0]), reverse=True)
            lcm, i, j = pairs.pop()
            f = {}
            for (lm, g), (l2, g2), s in ((G[i], G[j], 1), (G[j], G[i], -1)):
                for (p, q), v in g.items():
                    k = (p + lcm[0] - lm[0], q + lcm[1] - lm[1])
                    f[k] = f.get(k, 0) + s * g2[l2] * v
        r = _remainder({k: v for k, v in f.items() if v}, G)
        if not r:
            continue
        lm = max(r, key=_grevlex)
        if lm == (0, 0):
            return None
        pairs += [((max(lm[0], lg[0]), max(lm[1], lg[1])), i, len(G))
                  for i, (lg, _) in enumerate(G)
                  if min(lm[0], lg[0]) or min(lm[1], lg[1])]
        content = math.gcd(*r.values())
        G.append((lm, {m: v // content for m, v in r.items()}))
    return G


def _zeros(G: list):
    """The common zeros of a Groebner basis G, as a (2, k) array of their x
    and y, or None when there are infinitely many. Stetter's eigenvector
    method: the k monomials that no leading monomial divides, 1 first, span
    the quotient ring; x and y act on it by the matrices T_x and T_y whose
    rows are the exact normal forms of x and y times each of them, held as
    integer numerators over one denominator and rounded here once per entry;
    and each eigenvector of T_x + r T_y holds those monomials' values at
    one zero, so its products with the rows of 1, the normal forms of x and
    y, give x and y there."""
    lms = [lm for lm, _ in G]
    a = min((p for p, q in lms if q == 0), default=None)
    b = min((q for p, q in lms if p == 0), default=None)
    if a is None or b is None:
        return None
    normal = [(p, q) for p in range(a) for q in range(b)
              if not any(l[0] <= p and l[1] <= q for l in lms)]
    forms = {m: ({m: 1}, 1) for m in normal}

    def normal_form(m):
        # m - (m / lm) g / lc leaves minus the tail of g times m / lm, over
        # g's leading coefficient lc, of lower monomials
        if m not in forms:
            lm, g = next(h for h in G if h[0][0] <= m[0] and h[0][1] <= m[1])
            sp, sq = m[0] - lm[0], m[1] - lm[1]
            num, den = {}, 1
            for (p, q), c in g.items():
                if (p, q) != lm:
                    form, d = normal_form((p + sp, q + sq))
                    num = {n: v * d for n, v in num.items()}
                    for n, v in form.items():
                        num[n] = num.get(n, 0) - c * den * v
                    den *= d
            den *= g[lm]
            h = math.gcd(den, *num.values())
            forms[m] = ({n: v // h for n, v in num.items()}, den // h)
        return forms[m]

    index = {m: i for i, m in enumerate(normal)}
    T = [[[0.0] * len(normal) for _ in normal] for _ in "xy"]
    for i, (p, q) in enumerate(normal):
        for v, m in enumerate(((p + 1, q), (p, q + 1))):
            form, den = normal_form(m)
            for n, c in form.items():
                T[v][i][index[n]] = c / den  # int division rounds correctly
    T = np.array(T)
    _, V = np.linalg.eig(T[0] + _MIX * T[1])
    return T[:, 0] @ V / V[0]


def _sliced_zeros(P: BivariatePoly, Q: BivariatePoly):
    """Common zeros of P and Q on a seeded random line x = t, else y = t:
    a curve of common zeros meets one of them in finitely many points."""
    rng = np.random.default_rng(1729)
    for line in ((1, 0), (0, 1)):
        k = int(rng.integers(-2 ** 20, 2 ** 20))  # t = k / 2^19
        G = _basis(P, Q, BivariatePoly({line: 2 ** 19, (0, 0): -k}))
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
    G = _basis(P, Q)
    if G is None:
        return None
    # a zero far out overflows its powers: its residual is inf, and numpy's
    # warnings of it say nothing more
    with np.errstate(all="ignore"):
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
    and Q's on ``monomials(q_degree)`` and returns A, of shape ``shape``
    and of their dtype; leading axes of p and q are kept, so one call fills
    a stack of systems.
    """

    def __init__(self, p_degree: int, q_degree: int, d: int):
        self.cols = monomials(d)
        k = len(self.cols)
        drow = d + max(p_degree, q_degree)
        self.shape = ((drow + 1) * (drow + 2) // 2, 2 * k)
        # distinct monomials land in distinct rows of each column
        spots = [(_row(a + p, e + q), base + j)
                 for base, degree in ((0, p_degree), (k, q_degree))
                 for a, e in monomials(degree)
                 for j, (p, q) in enumerate(self.cols)]
        self._at = tuple(np.array(c) for c in zip(*spots))
        self._src = np.arange(len(spots)) // k

    def fill(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        pq = np.concatenate([p, q], axis=-1)
        A = np.zeros(pq.shape[:-1] + self.shape, dtype=pq.dtype)
        A[(...,) + self._at] = pq[..., self._src]
        return A


@lru_cache(maxsize=64)
def certificate_layout(p_degree: int, q_degree: int,
                       d: int) -> CertificateLayout:
    """The shared layout of the certificate systems of every pair (P, Q) of
    degrees (p_degree, q_degree) at certificate degree d."""
    return CertificateLayout(p_degree, q_degree, d)


def certificate_system(P: BivariatePoly, Q: BivariatePoly, d: int):
    """The linear system A s = b equating the coefficients of P*U + Q*W with
    1, times K, the least common denominator of P's and Q's coefficients,
    so that every entry is an integer. Scaling keeps the solution set, and
    so its minimum-norm point.

    The unknowns s are U's then W's coefficients on the monomials ``cols`` of
    total degree <= d. The rows are the monomials of total degree
    <= d + max(deg P, deg Q), ordered by total degree, so x^0 y^0 is row 0
    and the system of a lower-degree pair is the leading rows of a
    higher-degree one's. Returns (M, cols), M the rows of [K A | K b] as
    lists of Python ints; b is 1 in row 0 only, so K is M[0][-1].
    """
    dp, dq = _int_degree(P), _int_degree(Q)
    layout = certificate_layout(dp, dq, d)
    (p, lp), (q, lq) = integer_terms(P), integer_terms(Q)
    K = math.lcm(lp, lq)
    vecs = []
    for terms, scale, degree in ((p, K // lp, dp), (q, K // lq, dq)):
        index = monomial_index(degree)
        vec = np.zeros(len(index), dtype=object)  # Python ints, any size
        for m, c in terms.items():
            vec[index[m]] = c * scale
        vecs.append(vec)
    M = [row + [0] for row in layout.fill(*vecs).tolist()]
    M[0][-1] = K
    return M, layout.cols


def coefficients(P: BivariatePoly, degree: int) -> np.ndarray:
    """P's coefficient vector on ``monomials(degree)``, of Fractions."""
    index = monomial_index(degree)
    vec = np.full(len(index), Fraction(0), dtype=object)
    for mn, c in P.terms.items():
        vec[index[mn]] = c
    return vec


def _rref(M: list[list[int]]):
    """Gauss-Jordan elimination of integer rows in place, fraction-free: a
    row loses a pivot column's entry by a cross multiplication with the
    pivot row and is then divided by the gcd of its entries, so the rows
    stay primitive and carry no common factor from step to step. Returns
    the pivot columns and D, the least common multiple of the pivots, to
    which every pivot row is finally scaled: each then holds D at its own
    pivot column and 0 at the others, so M / D is the reduced row echelon
    form."""
    rows, cols = len(M), len(M[0]) if M else 0
    pivots, r = [], 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if M[i][c]), None)
        if pivot is None:
            continue
        M[r], M[pivot] = M[pivot], M[r]
        top, pv = M[r], M[r][c]
        for i, row in enumerate(M):
            f = row[c]
            if f and i != r:
                row = [pv * a - f * b for a, b in zip(row, top)]
                g = math.gcd(*row)
                M[i] = [v // g for v in row] if g > 1 else row
        pivots.append(c)
        r += 1
        if r == rows:
            break
    D = math.lcm(*(M[i][c] for i, c in enumerate(pivots)))
    for i, c in enumerate(pivots):
        if M[i][c] != D:
            s = D // M[i][c]
            M[i] = [v * s for v in M[i]]
    return pivots, D


def _dot(u, v) -> int:
    return sum(a * b for a, b in zip(u, v))


def _solve_exact_at(P, Q, d):
    """The minimum-norm solution (U, W) of ``certificate_system`` at degree
    d, or None where it is inconsistent, solved on integers: U and W are
    their integer numerators over one common denominator."""
    M, cols = certificate_system(P, Q, d)
    k = len(cols)
    n = 2 * k
    pivots, D = _rref(M)
    if pivots and pivots[-1] == n:
        return None  # a pivot in b: infeasible at this degree
    # D times the particular solution with free variables zero
    x = [0] * n
    for r, c in enumerate(pivots):
        x[c] = M[r][n]
    den = D
    free = sorted(set(range(n)) - set(pivots))
    if free:
        # minimum-norm solution: project x onto the affine solution set
        # along D times the null-space basis; the Gram matrix of independent
        # vectors pivots in every column, in order
        basis = []
        for fcol in free:
            v = [0] * n
            v[fcol] = D
            for r, c in enumerate(pivots):
                v[c] = -M[r][fcol]
            basis.append(v)
        G = [[_dot(u, v) for v in basis] + [-_dot(u, x)] for u in basis]
        _, E = _rref(G)
        coef = [row[-1] for row in G]
        x = [E * xt + sum(c * v[t] for c, v in zip(coef, basis) if c)
             for t, xt in enumerate(x)]
        den *= E
    return tuple(BivariatePoly(dict(zip(cols, x[first:first + k])), den)
                 for first in (0, k))


def _is_identity(P, Q, U, W) -> bool:
    """Whether P*U + Q*W = 1 exactly, checked on integers: the identity
    times the four polynomials' common denominators (``integer_terms``)."""
    (p, lp), (q, lq), (u, lu), (w, lw) = map(integer_terms, (P, Q, U, W))
    p = {m: c * lq * lw for m, c in p.items()}
    q = {m: c * lp * lu for m, c in q.items()}
    total = add_product(add_product({}, p, u), q, w)
    return ({k: v for k, v in total.items() if v}
            == {(0, 0): lp * lq * lu * lw})


def solve_nullstellensatz(P: BivariatePoly, Q: BivariatePoly):
    """Minimal-degree polynomials U, W with P*U + Q*W = 1, or None when P
    and Q have a common zero in C^2 and no such polynomials exist.

    P and Q are decided on the exact values of their coefficients. The
    degree-0 system is solved first, as every admissible registry family's
    certificate has that degree; then membership of 1 in <P, Q> is tested,
    and only a member walks up the degrees, which ends because a
    certificate exists. Each degree's system is scaled to integers and
    solved by fraction-free elimination, giving the exact minimum-norm
    solution, and the identity is verified exactly on integers.
    """
    if P.is_zero() or Q.is_zero():
        raise DegenerateInput("P and Q must be nonzero")
    got = _solve_exact_at(P, Q, 0)
    if got is None and _basis(P, Q) is not None:
        return None
    d = 0
    while got is None:
        d += 1
        got = _solve_exact_at(P, Q, d)
    U, W = got
    if not _is_identity(P, Q, U, W):
        raise NumericalFailure("exact certificate failed verification")
    return ReductionCertificate(U, W, d)


# ---------------------------------------------------------------------------
# verdicts and family reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReductionDecision:
    """Outcome for one (P, Q) pair: admissible exactly when it holds a
    certificate. A pair that is not admissible may hold a witness."""

    witness: CommonZeroWitness | None
    certificate: ReductionCertificate | None

    @property
    def admissible(self) -> bool:
        return self.certificate is not None

    @property
    def max_degree(self) -> int | None:
        """The certificate's degree when admissible, None otherwise."""
        return None if self.certificate is None else self.certificate.degree

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
        return ReductionDecision(None, None)
    if witness is not None:
        return ReductionDecision(witness, None)
    return ReductionDecision(None, solve_nullstellensatz(P, Q))


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
