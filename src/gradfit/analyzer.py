"""Reduction-of-complexity analyzer.

Decides, for a polynomial curve P and its squared gradient Q, which of two
mutually exclusive situations holds:

* P and Q share a common zero in C^2 — then no polynomial weight W can agree
  with 1/Q on the whole curve, and the family admits no reduced objective; a
  refined :class:`CommonZeroWitness` is produced as evidence;
* P*U + Q*W = 1 has polynomial solutions — then W is a valid weight
  polynomial, the reduced objective exists, and a verified
  :class:`ReductionCertificate` is produced.

Witness search compiles P, Q and their partials once into dense coefficient
matrices and runs on them: Sylvester resultants (every FFT node's matrix in
one stacked determinant), root-finding, lifting, and a damped 2-D Newton
polish that evaluates all six at a point in one product. Certificate search
poses the identity as a linear system in the coefficients of U and W.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import (
    BoundExhausted,
    DegenerateElimination,
    DegenerateInput,
    InvalidSpec,
    NumericalFailure,
)
from .families import CurveFamily, get_family
from .poly import (
    COEFF_EQ_TOL,
    NEG_INF,
    BivariatePoly,
    coefficient_matrices,
    dense_resultant,
    format_poly,
    gradient_norm_squared,
    monomial_index,
    monomials,
    structural_trim,
    sylvester_dets,
)

WITNESS_TOL = 1e-8          # relative residual accepted for a common zero
CERT_FLOAT_TOL = 1e-10      # identity residual accepted for a float certificate
RANK_CUTOFF = 1e-10         # singular values below cutoff*largest are zero
_SAMPLE_TRIES = 8           # random slices tried when the resultant vanishes
# a float resultant at most this times its Sylvester bound may be rounding
# noise; it is, if its interpolant misses the determinants between its nodes
# by more than this fraction of its size there
_RESULTANT_ZERO = 16 * np.finfo(float).eps
_RESULTANT_MISS = 1e-2


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
    """Polynomials U, W with P*U + Q*W = 1, plus the verified residual."""

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


def _unit_normalize(P: BivariatePoly) -> BivariatePoly:
    scale = P.max_coeff_mag()
    if scale == 0.0 or scale == 1.0:
        return P
    return P * (1.0 / scale)


def _int_degree(P: BivariatePoly) -> int:
    d = P.degree()
    return 0 if d == NEG_INF else int(d)


def _compile(polys):
    """``coefficient_matrices`` of the polynomials, each with its terms at
    most 1e-12 of its largest dropped and that largest scaled to 1, their
    total degrees and largest coefficient magnitudes."""
    F = coefficient_matrices(polys, 1 + max(_int_degree(P) for P in polys))
    mag = abs(F)
    scale = mag.max(axis=(1, 2))
    F[mag <= COEFF_EQ_TOL * scale[:, None, None]] = 0.0
    scale[scale == 0.0] = 1.0
    F *= (1.0 / scale)[:, None, None]
    scale = abs(F).max(axis=(1, 2))
    degree = [max((p + q).tolist(), default=0)
              for p, q in (np.nonzero(C) for C in F)]
    return F, degree, np.maximum(scale, 1e-300).tolist()


def _values(F: np.ndarray, x: complex, y: complex) -> np.ndarray:
    """Every polynomial of the stack at (x, y), in one product."""
    p = np.arange(F.shape[-1])
    return (F @ y ** p) @ x ** p


def _rel_residual(value: complex, degree: int, scale: float, x: complex,
                  y: complex) -> float:
    """|P(x, y)| relative to P's largest coefficient and the point's size."""
    return float(abs(value)) / (scale * max(1.0, abs(x), abs(y)) ** degree)


def _poly_roots(coeffs: np.ndarray) -> np.ndarray:
    """Roots of an ascending complex coefficient array: companion-matrix
    eigenvalues. They are not Newton-polished: at a multiple root the
    derivative vanishes too, and polishing moves an accurate eigenvalue
    away from the true root. The companion matrix is ``np.roots``' own,
    built without its checks; the zero roots come last, as there."""
    c = np.asarray(coeffs, dtype=complex)
    alive = np.flatnonzero(c)
    if c.size <= 1 or alive.size == 0:
        return np.empty(0, dtype=complex)
    low, high = alive[0], alive[-1]
    roots = np.empty(0, dtype=complex)
    if high > low:
        A = np.eye(high - low, k=-1, dtype=complex)
        A[0, :] = -c[low:high][::-1] / c[high]
        roots = np.linalg.eigvals(A)
    return np.concatenate((roots, np.zeros(low, dtype=complex)))


def _slice_coeffs(C: np.ndarray, degree: int, val: complex,
                  elim: str) -> np.ndarray | None:
    """Coefficients of the polynomial with dense matrix C (and total degree
    ``degree``) with the kept variable frozen at ``val``; the eliminated
    variable is the remaining unknown. None if the whole slice vanishes
    (the polynomial contains the line)."""
    pw = val ** np.arange(C.shape[0])
    out = pw @ C if elim == "y" else C @ pw
    mag = abs(out)
    if np.all(mag <= 1e-10 * max(1.0, abs(val)) ** degree):
        return None
    # drop the high coefficients at most 1e-9 of the largest
    return out[:np.flatnonzero(mag > 1e-9 * mag.max())[-1] + 1]


def _newton_refine(search: "_Search", x, y, iters: int = 60):
    """Damped Newton on the 2x2 system (P, Q) = 0. Returns (x, y, resP, resQ)."""
    vals = _values(search.F, x, y)
    best = max(search.residuals(vals, x, y))
    for _ in range(iters):
        f1, f2, j11, j21, j12, j22 = vals
        det = j11 * j22 - j12 * j21
        if abs(det) < 1e-30:
            break
        dx = (f1 * j22 - f2 * j12) / det
        dy = (j11 * f2 - j21 * f1) / det
        step = 1.0
        for _ in range(12):
            nx, ny = x - step * dx, y - step * dy
            nvals = _values(search.F, nx, ny)
            r = max(search.residuals(nvals, nx, ny))
            if r < best:
                x, y, vals, best = nx, ny, nvals, r
                break
            step *= 0.5
        else:
            break  # no damped step improved
        if best <= 1e-14:
            break
    x, y = complex(x), complex(y)
    return (x, y) + search.residuals(vals, x, y)


# ---------------------------------------------------------------------------
# common-zero search
# ---------------------------------------------------------------------------


_MATCH_TOL = 1e-3  # relative gap for pairing roots of the two slices


def _lift_candidates(pu, qu) -> tuple[list[complex], bool]:
    """Candidate values of the lift unknown from two slice polynomials.

    Lifting intersects the root sets: a common zero needs a root of both
    slices at (numerically) the same place. Returns (candidates, ruled_out):
    ruled_out is True when the slice pair provably has no common root — one
    side is a nonzero constant (the classic vanishing-leading-coefficient
    artifact of resultants) or the root sets are disjoint.
    """
    if pu is None and qu is None:
        return [0.0 + 0.0j], False  # both vanish identically on the slice
    if pu is None or qu is None:
        alive = qu if pu is None else pu
        if alive.size <= 1:
            return [], True
        # the other polynomial vanishes on the whole slice, so every root of
        # the surviving one is already a candidate common zero
        return list(_poly_roots(alive)), False
    if pu.size <= 1 or qu.size <= 1:
        return [], True
    proots = _poly_roots(pu)
    qroots = _poly_roots(qu)
    cands = []
    for rp in proots:
        gaps = np.abs(qroots - rp)
        j = int(np.argmin(gaps))
        if gaps[j] <= _MATCH_TOL * max(1.0, abs(rp)):
            cands.append((rp + qroots[j]) / 2.0)
    return cands, not cands


def _on_spectrum(val: complex, spectrum) -> bool:
    """Whether val sits on a coordinate spectrum ``(R, roots)`` (None admits
    all): near a computed root of the resultant R, or a root of R up to 1e-3
    of its terms' sizes at val, which keeps far-out multiple roots whose
    computed copies split by the square root of R's rounding. A finite common
    zero's coordinates are roots of the resultants; candidates that drift
    toward infinity along an asymptote, where scale-relative residuals lose
    meaning, fail both tests."""
    if spectrum is None:
        return True
    R, roots = spectrum
    if roots.size and np.min(abs(roots - val)) <= 1e-3 * max(1.0, abs(val)):
        return True
    p = np.arange(R.size)
    terms = R * val ** (p - p[-1] if abs(val) > 1.0 else p)  # no overflow
    return bool(abs(terms.sum()) <= 1e-3 * abs(terms).sum())


def _is_noise(PQ, R) -> bool:
    """Whether R, the float resultant of the pair PQ interpolated from
    Sylvester determinants at the R.size-th roots of unity, is rounding
    noise: a true resultant's interpolant matches fresh determinants halfway
    between those nodes to its accuracy, noise's misses them by its size."""
    t = np.exp(2j * np.pi * (np.arange(R.size) + 0.5) / R.size)
    value = np.polynomial.polynomial.polyval(t, R)
    miss = abs(sylvester_dets(*PQ, t) - value).max()
    return bool(miss > _RESULTANT_MISS * abs(value).max())


class _Search:
    """One find_common_zero run, compiled once: ``F`` stacks the dense
    coefficient matrices of the unit-normalized, trimmed P and Q and of Px,
    Qx, Py, Qy, so one ``_values`` product evaluates all six at a point."""

    def __init__(self, P, Q):
        PQ, self.degree, self.scale = _compile((P, Q))
        k = np.arange(PQ.shape[-1])  # rolled: row/column 0 times k = 0
        self.F = np.concatenate([PQ, np.roll(k[:, None] * PQ, -1, axis=1),
                                 np.roll(k * PQ, -1, axis=2)])
        self.spectrum = {"x": None, "y": None}  # (R, roots) per coordinate

    def residuals(self, vals, x, y) -> tuple[float, float]:
        """The relative residuals of P and Q from ``_values(F, x, y)``."""
        return tuple(_rel_residual(v, d, s, x, y)
                     for v, d, s in zip(vals[:2], self.degree, self.scale))

    def try_slice(self, val: complex, elim: str):
        """Lift one slice. Returns (witness|None, fully_resolved)."""
        pu, qu = (_slice_coeffs(self.F[i], self.degree[i], val, elim)
                  for i in (0, 1))
        cands, ruled_out = _lift_candidates(pu, qu)
        if ruled_out:
            return None, True
        resolved = True
        for cand in cands:
            if elim == "y":
                x, y, rp, rq = _newton_refine(self, val, cand)
            else:
                x, y, rp, rq = _newton_refine(self, cand, val)
            if rp <= WITNESS_TOL and rq <= WITNESS_TOL:
                if _on_spectrum(x, self.spectrum["x"]) and \
                        _on_spectrum(y, self.spectrum["y"]):
                    return CommonZeroWitness(x, y, rp, rq), True
                continue  # diverged toward infinity: provably not affine
            resolved = False
        return None, resolved


def find_common_zero(P: BivariatePoly, Q: BivariatePoly):
    """A common zero of P and Q in C^2, or None if there is none.

    Runs on P and Q compiled once into dense coefficient matrices
    (``_Search``). Eliminates each variable with a Sylvester resultant
    (``poly.dense_resultant``: all FFT nodes in one stacked determinant). A
    nonzero constant resultant settles the matter immediately. Otherwise
    resultant roots are the only admissible coordinates: each is lifted by
    intersecting slice root sets and polished with a damped two-dimensional
    Newton iteration, and a candidate is accepted only when both residuals
    meet the witness tolerance and both coordinates lie on the admissible
    spectra (this kills the classical artifacts — vanishing leading
    coefficients and escapes to infinity along asymptotes). An identically
    zero resultant (shared factor) is handled by lifting random slices. An
    unresolvable search raises NumericalFailure rather than guessing.
    """
    if _int_degree(P) == 0:
        raise DegenerateInput("P is constant; nothing to intersect")
    search = _Search(P, Q)
    resultants = {}
    for elim in ("y", "x"):
        PQ = search.F[:2] if elim == "y" else search.F[:2].transpose(0, 2, 1)
        try:
            R = resultants[elim] = dense_resultant(*PQ)
        except DegenerateElimination:
            resultants[elim] = None  # degenerate direction
            continue
        # every coefficient of R is at most (sum |P|)^n (sum |Q|)^m, with m
        # and n the degrees in the eliminated variable. R at rounding level
        # of that bound is a shared factor's rounding noise or a true but
        # small resultant (a small circle's); only noise is zeroed
        m, n = (np.nonzero(C)[1].max(initial=-1) for C in PQ)
        sizes = abs(PQ).sum(axis=(1, 2))
        if 0.0 < abs(R).max() <= _RESULTANT_ZERO * sizes[0] ** n \
                * sizes[1] ** m and _is_noise(PQ, R):
            R[:] = 0.0
        R[abs(R) <= COEFF_EQ_TOL * abs(R).max()] = 0.0
        if R[0] != 0 and not R[1:].any():
            return None  # a nonzero constant resultant proves emptiness
        # the kept coordinate's admissible spectrum; none if R is zero
        search.spectrum["x" if elim == "y" else "y"] = \
            (R, _poly_roots(R)) if R.any() else None

    rng = np.random.default_rng(1729)
    any_definitive = False
    for elim in ("y", "x"):
        R = resultants[elim]
        if R is None:
            continue
        if not R.any():
            # shared factor: infinitely many common points; sample slices
            for _ in range(_SAMPLE_TRIES):
                val = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
                witness, _ = search.try_slice(val, elim)
                if witness is not None:
                    return witness
            continue
        all_resolved = True
        for r in search.spectrum["x" if elim == "y" else "y"][1]:
            witness, resolved = search.try_slice(complex(r), elim)
            if witness is not None:
                return witness
            all_resolved = all_resolved and resolved
        any_definitive = any_definitive or all_resolved
    if any_definitive:
        return None
    raise NumericalFailure(
        "common-zero search could not certify either outcome "
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
    higher-degree one's. A and b hold Fractions (dtype object) when P and Q
    are both exact, float64 otherwise. Returns (A, b, cols).
    """
    exact = P.exact and Q.exact
    dp, dq = _int_degree(P), _int_degree(Q)
    layout = certificate_layout(dp, dq, d)
    A = layout.fill(coefficients(P, dp, exact), coefficients(Q, dq, exact))
    one = Fraction(1) if exact else 1.0
    b = np.full(len(A), 0 * one, dtype=A.dtype)
    b[0] = one
    return A, b, layout.cols


def coefficients(P: BivariatePoly, degree: int, exact: bool) -> np.ndarray:
    """P's coefficient vector on ``monomials(degree)``."""
    index = monomial_index(degree)
    if exact:
        vec = np.full(len(index), Fraction(0), dtype=object)
    else:
        vec = np.zeros(len(index))
    for mn, c in P.terms.items():
        vec[index[mn]] = c
    return vec


def _solve_float_at(P, Q, d):
    A, b, cols = certificate_system(P, Q, d)
    k = len(cols)
    sol, *_ = np.linalg.lstsq(A, b, rcond=RANK_CUTOFF)
    if np.linalg.norm(A @ sol - b) > 1e-8:
        return None
    U = BivariatePoly({m: sol[j] for j, m in enumerate(cols)}, exact=False)
    W = BivariatePoly({m: sol[k + j] for j, m in enumerate(cols)}, exact=False)
    return U, W


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
    U = BivariatePoly({mno: x0[j] for j, mno in enumerate(cols)}, exact=True)
    W = BivariatePoly({mno: x0[k + j] for j, mno in enumerate(cols)}, exact=True)
    return U, W


def _identity_residual(P, Q, U, W) -> float:
    E = P * U + Q * W - 1
    if E.exact:
        return 0.0 if E.is_zero() else E.max_coeff_mag()
    return E.max_coeff_mag()


def _check_degree_bound(max_degree) -> None:
    if max_degree is not None and max_degree < 0:
        raise InvalidSpec(f"max_degree must be >= 0, got {max_degree}")


def solve_nullstellensatz(P: BivariatePoly, Q: BivariatePoly, max_degree: int):
    """Minimal-degree polynomials U, W with P*U + Q*W = 1, if any exist with
    total degree <= max_degree; None when the identity is infeasible that far.

    Feasibility is monotone in the degree bound, so the floating path first
    decides at max_degree with a single least-squares solve, then walks up
    from zero to locate the minimal degree. Exact (rational) inputs use
    Gauss-Jordan elimination over the rationals and return the exact
    minimum-norm solution.
    """
    _check_degree_bound(max_degree)
    if P.is_zero() or Q.is_zero():
        raise DegenerateInput("P and Q must be nonzero")
    exact = P.exact and Q.exact

    if exact:
        for d in range(max_degree + 1):
            got = _solve_exact_at(P, Q, d)
            if got is not None:
                U, W = got
                res = _identity_residual(P, Q, U, W)
                if res != 0.0:
                    raise NumericalFailure("exact certificate failed verification")
                return ReductionCertificate(U, W, 0.0, d)
        return None

    sP = P.max_coeff_mag()
    sQ = Q.max_coeff_mag()
    Pn = _unit_normalize(structural_trim(P.to_float()))
    Qn = _unit_normalize(structural_trim(Q.to_float()))
    if _solve_float_at(Pn, Qn, max_degree) is None:
        return None
    for d in range(max_degree + 1):
        got = _solve_float_at(Pn, Qn, d)
        if got is None:
            continue
        U, W = got
        U = U * (1.0 / sP)
        W = W * (1.0 / sQ)
        res = _identity_residual(P.to_float(), Q.to_float(), U, W)
        if res <= CERT_FLOAT_TOL:
            return ReductionCertificate(U, W, res, d)
    return None


# ---------------------------------------------------------------------------
# verdicts and family reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReductionDecision:
    """Outcome for one (P, Q) pair."""

    admissible: bool
    witness: CommonZeroWitness | None
    certificate: ReductionCertificate | None
    max_degree: int

    def to_dict(self) -> dict:
        return {
            "admissible": self.admissible,
            "witness": self.witness.to_dict() if self.witness else None,
            "certificate": self.certificate.to_dict() if self.certificate else None,
            "max_degree": self.max_degree,
        }


def default_degree_bound(P: BivariatePoly, Q: BivariatePoly) -> int:
    return max(3, _int_degree(P)) * max(3, _int_degree(Q))


def decide_reduction(P: BivariatePoly, Q: BivariatePoly | None = None,
                     max_degree: int | None = None) -> ReductionDecision:
    """Full verdict for one polynomial: witness search, then certificate.

    Q defaults to the squared gradient of P. Raises BoundExhausted when
    neither a witness nor a certificate materializes — an inconclusive state
    distinct from both definite answers.
    """
    _check_degree_bound(max_degree)
    if Q is None:
        Q = gradient_norm_squared(P)
    if max_degree is None:
        max_degree = default_degree_bound(P, Q)
    witness = find_common_zero(P, Q)
    if witness is not None:
        return ReductionDecision(False, witness, None, max_degree)
    cert = solve_nullstellensatz(P, Q, max_degree)
    if cert is None:
        raise BoundExhausted(
            f"no witness and no certificate through degree {max_degree}"
        )
    return ReductionDecision(True, None, cert, max_degree)


def circle_certificate() -> ReductionCertificate:
    """The unit circle's certificate. Every circle's minimal certificate has
    the same degree, and the generic fit re-solves W at each iterate and
    reads only that degree, so this one serves any circle fit."""
    P = get_family("circle").poly({"a": 0.0, "b": 0.0, "R": 1.0}, exact=True)
    decision = decide_reduction(P)
    if not decision.admissible or decision.certificate is None:
        raise NumericalFailure("no certificate for the unit circle")
    return decision.certificate


@dataclass(frozen=True)
class SampleReport:
    index: int
    theta: dict
    verdict: str                      # admissible | not_admissible | inconclusive | error
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


def _analyze_one(family: CurveFamily, idx: int, theta: dict,
                 max_degree: int | None) -> SampleReport:
    try:
        P = family.poly(theta, exact=True)
        Q = gradient_norm_squared(P)
        decision = decide_reduction(P, Q, max_degree)
    except BoundExhausted:
        return SampleReport(idx, theta, "inconclusive")
    except Exception as exc:
        return SampleReport(idx, theta, "error", error=f"{type(exc).__name__}: {exc}")
    if decision.admissible:
        return SampleReport(idx, theta, "admissible",
                            certificate=decision.certificate)
    return SampleReport(idx, theta, "not_admissible", witness=decision.witness)


def analyze_family(family, samples: int, rng=None,
                   max_degree: int | None = None) -> FamilyReport:
    """Per-sample admissibility verdicts over random parameters of a family,
    each decided on the exact polynomial of its parameters.

    Errors in individual samples are recorded, never abort the batch. The
    report carries a consistency flag: every nondegenerate sample of one
    family must land on the same verdict.
    """
    if isinstance(family, str):
        family = get_family(family)
    if samples < 1:
        raise InvalidSpec(f"samples must be at least 1, got {samples}")
    _check_degree_bound(max_degree)
    if rng is None:
        rng = np.random.default_rng(0)
    thetas = [family.sample_theta(rng) for _ in range(samples)]
    reports = [_analyze_one(family, i, t, max_degree)
               for i, t in enumerate(thetas)]
    decided = {r.verdict for r in reports if r.verdict in ("admissible", "not_admissible")}
    consistent = len(decided) <= 1
    if not decided:
        verdict = "inconclusive"
    elif not consistent:
        verdict = "mixed"
    else:
        verdict = decided.pop()
    return FamilyReport(family.name, tuple(reports), consistent, verdict)
