"""Curve fitters.

Four fitting routines around one damped-Newton core:

* ``fit_circle_reduced``   minimizes the moment-assembled circle objective;
  each iteration touches only the six central moments and the count, so the
  total cost is one data pass plus O(iterations). It starts from
  ``pratt_init``, Pratt's closed-form fit from the same moments, which is
  the objective's own minimizer, so the driver mostly confirms it. Both
  work on the statistics about the data's centroid and refuse moments
  whose rounding could move the circle by more than 1e-6 R.
* ``fit_circle_geometric`` damped Gauss-Newton on the signed distance
  residuals sqrt((x-a)^2+(y-b)^2) - R; the O(kn) baseline. It starts from
  ``pratt_init`` on the degree-4 moments about the points' centroid.
* ``fit_conic_reweight``   gradient-weighted algebraic conic fit by weight
  freezing: eigenvector steps on the weighted scatter matrix with weights
  1/|grad P|^2 recomputed between steps, on centred and scaled points;
  the generic O(kn) baseline.
* ``fit_reduced_generic``  the certificate-driven reduction: given W with
  P*U + |grad P|^2*W = 1, minimizes the contraction of W*P^2 against a
  moment vector, re-solving the (tiny) certificate system at each iterate.
  P's coefficients are read once per family as a quadratic map of theta
  (every family's are of degree <= 2 in theta), and the objective is
  compiled once per fit into that map, the map to Q and a moment tensor,
  so an evaluation does no polynomial arithmetic. Its gradient and
  Hessian are exact, from the derivatives of the certificate system's
  minimum-norm solution, and the Hessian is computed only where Newton
  takes a step. The circle and the line start at closed-form minimizers
  and fit moments about any offset (``_FRAMES``).

Non-convergence is reported through ``FitResult.converged``, never raised.
Every accepted iteration is non-increasing in its objective up to the
objective's own evaluation-noise band (see ``_damped_newton``).
"""

from __future__ import annotations

import math
import time
from collections import namedtuple
from dataclasses import asdict, astuple, dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .analyzer import ReductionCertificate, certificate_layout, coefficients
from .errors import (
    CenterHitsDataPoint,
    DegenerateData,
    DegreeMismatch,
    GradientVanishesAtSample,
    ImaginaryRadius,
    InvalidRadius,
    InvalidSpec,
    NoCircle,
    NonFiniteInput,
    NumericalFailure,
)
from .families import CurveFamily, get_family
from .moments import MomentVector
from .poly import monomial_index, monomials

__all__ = [
    "CircleParams",
    "ConicParams",
    "FitConfig",
    "FitResult",
    "fit_circle_reduced",
    "fit_circle_geometric",
    "fit_conic_reweight",
    "fit_reduced_generic",
    "pratt_init",
]

_CERT_ACCEPT = 1e-8
# the generic objective's rounding bound per unit of sum |w| (|T| |p| |p|);
# its measured rounding errors stay below a quarter of eps times that sum
_CERT_ROUNDING = 16.0 * np.finfo(float).eps
# the moment circle fits refuse moments whose rounding could move Pratt's
# circle by more than this fraction of R
_ROUNDING_TOL = 1e-6
# Pratt's fit refuses a determinant below this fraction of Mz^2 (collinear)
_PRATT_DET_TOL = 1e-12
_PRATT_NEWTON_STEPS = 50
_CIRCLE = get_family("circle")


# ---------------------------------------------------------------------------
# parameter containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CircleParams:
    """Center (a, b) and radius R > 0 of the circle (x-a)^2+(y-b)^2 = R^2."""

    a: float
    b: float
    R: float

    def __post_init__(self):
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "b", float(self.b))
        object.__setattr__(self, "R", float(self.R))
        if not (math.isfinite(self.a) and math.isfinite(self.b)
                and math.isfinite(self.R)):
            raise InvalidRadius("circle parameters must be finite")
        if self.R <= 0.0:
            raise InvalidRadius(f"radius must be positive, got {self.R}")

    @property
    def c(self) -> float:
        """The constant term a^2 + b^2 - R^2 of the expanded equation."""
        return self.a * self.a + self.b * self.b - self.R * self.R

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ConicParams:
    """Unit-norm coefficients of A x^2 + B xy + C y^2 + D x + E y + F = 0."""

    A: float
    B: float
    C: float
    D: float
    E: float
    F: float

    def __post_init__(self):
        vec = np.array([self.A, self.B, self.C, self.D, self.E, self.F],
                       dtype=float)
        if not np.all(np.isfinite(vec)):
            raise InvalidSpec("conic coefficients must be finite")
        norm = float(np.linalg.norm(vec))
        if norm == 0.0:
            raise InvalidSpec("conic coefficients must not all vanish")
        vec /= norm
        for name, val in zip("ABCDEF", vec):
            object.__setattr__(self, name, float(val))

    @property
    def vector(self) -> np.ndarray:
        return np.array([self.A, self.B, self.C, self.D, self.E, self.F])

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class FitConfig:
    """Stopping rules and start of a fit. A Newton fit stops when the
    gradient's largest entry is at most gradient_tol (1 + |F|) or an
    accepted step's is at most step_tol (1 + max |theta|), so the step test
    is relative to the parameters' size; ``fit_conic_reweight`` stops when
    its unit-norm coefficient vector moves by at most step_tol. The start
    ``init`` is a CircleParams, a dict of the family's parameters or a
    sequence of them in the family's order, such as (a, b, R)."""

    max_iterations: int = 100
    gradient_tol: float = 1e-10
    step_tol: float = 1e-12
    init: object = None

    def __post_init__(self):
        if self.max_iterations < 1:
            raise InvalidSpec("max_iterations must be at least 1")
        if not (self.gradient_tol > 0 and self.step_tol > 0):  # NaN too
            raise InvalidSpec("tolerances must be positive")


# the configuration of a fit called without one; frozen, so one serves all
_DEFAULT_CONFIG = FitConfig()


@dataclass(frozen=True)
class FitResult:
    family: str
    params: object
    objective: float
    iterations: int
    converged: bool
    iteration_seconds: tuple
    data_passes: int
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# the reduced circle objective and its derivatives
# ---------------------------------------------------------------------------


def _fa_val_grad_hess(view, a, b, R):
    """Value, gradient and Hessian of F(a,b,R) = E/R^2 for (a, b) about
    the centroid of ``view`` (a ``CentralCircleView``): E is the sum of
    (z - 2ax - 2by + c)^2 over the data, z = x^2 + y^2, c = a^2+b^2-R^2.
    The Hessian as a zero-argument callable, built only when called."""
    n = float(view.n)
    Mxx, Myy, Mxy, Mxz, Myz, Mzz = view.central
    # E's coefficients in a, b, c; those of a c and b c vanish here
    nxx, nyy = n * Mxx, n * Myy
    e0, ea, eb = n * Mzz, -4.0 * (n * Mxz), -4.0 * (n * Myz)
    eaa, ebb, eab = 4.0 * nxx, 4.0 * nyy, 8.0 * (n * Mxy)
    ec = 2.0 * (nxx + nyy)
    c = a * a + b * b - R * R
    T = ec + 2.0 * c * n  # dE/dc
    E = (e0 + a * ea + b * eb + a * a * eaa + b * b * ebb + a * b * eab
         + c * ec + c * c * n)
    E_a = ea + 2.0 * a * eaa + b * eab + 2.0 * a * T
    E_b = eb + 2.0 * b * ebb + a * eab + 2.0 * b * T
    E_R = -2.0 * R * T
    R2 = R * R
    if R2 * R2 == 0.0 and not isinstance(R2, np.float64):
        # R^4 underflows, and floats raise on dividing by it: numpy scalars
        # divide to the inf or nan the driver refuses, here without warnings
        with np.errstate(all="ignore"):
            F, grad, hess = _fa_val_grad_hess(view, a, b, np.float64(R))
            H = hess()
        return F, grad, lambda: H
    R3 = R2 * R
    F = E / R2
    grad = np.array([E_a / R2, E_b / R2, E_R / R2 - 2.0 * E / R3])

    def hess():
        E_aa = 2.0 * eaa + 2.0 * T + 8.0 * a * a * n
        E_ab = eab + 8.0 * a * b * n
        E_aR = -8.0 * a * R * n
        E_bb = 2.0 * ebb + 2.0 * T + 8.0 * b * b * n
        E_bR = -8.0 * b * R * n
        E_RR = -2.0 * T + 8.0 * R * R * n
        R4 = R2 * R2
        return np.array([
            [E_aa / R2, E_ab / R2, E_aR / R2 - 2.0 * E_a / R3],
            [E_ab / R2, E_bb / R2, E_bR / R2 - 2.0 * E_b / R3],
            [E_aR / R2 - 2.0 * E_a / R3, E_bR / R2 - 2.0 * E_b / R3,
             E_RR / R2 - 4.0 * E_R / R3 + 6.0 * E / R4],
        ])

    return F, grad, hess


def _read_start(names, p) -> dict:
    """A start given as CircleParams, a dict of the parameters ``names`` or
    a sequence of them in that order, as a dict of floats in that order.
    InvalidSpec for other parameters or another number of them."""
    if isinstance(p, CircleParams):
        p = p.to_dict()
    elif not isinstance(p, dict):
        try:
            p = tuple(p)
        except TypeError:
            raise InvalidSpec(f"a start must be a dict or a sequence of "
                              f"{names}, got {p!r}") from None
        if len(p) != len(names):
            raise InvalidSpec(f"a start of {len(p)} values for the "
                              f"{len(names)} parameters {names}")
        p = dict(zip(names, p))
    unknown = sorted(p.keys() - set(names))
    if unknown:
        raise InvalidSpec(f"a start of unknown parameters {unknown}")
    missing = [k for k in names if k not in p]
    if missing:
        raise InvalidSpec(f"a start with missing parameters {missing}")
    try:
        return {k: float(p[k]) for k in names}
    except (TypeError, ValueError) as exc:
        raise InvalidSpec(f"a start's parameters must be numbers: "
                          f"{exc}") from None


def _circle_feasible(th) -> bool:
    return bool(np.all(np.isfinite(th)) and th[2] > 0.0)


# ---------------------------------------------------------------------------
# damped Newton core
# ---------------------------------------------------------------------------


def _newton_step(H, g):
    """Solve H d = -g, escalating Levenberg damping until d is a descent
    direction; falls back to steepest descent."""
    k = len(g)
    scale = float(np.max(np.abs(H)))
    if not math.isfinite(scale) or scale == 0.0:
        scale = 1.0
    lam = 0.0
    for _ in range(14):
        try:
            d = np.linalg.solve(H + lam * np.eye(k), -g)
        except np.linalg.LinAlgError:
            d = None
        if d is not None and np.all(np.isfinite(d)) and float(d @ g) < 0.0:
            return d
        lam = 1e-8 * scale if lam == 0.0 else lam * 100.0
    return -g


_NOISE_BAND = 1024.0 * np.finfo(float).eps
_MAX_HALVINGS = 60

# one _damped_newton run; evals counts objective evaluations, the start's too
_Run = namedtuple("_Run",
                  "theta F g gmax iterations converged times evals trace")


def _damped_newton(fun, theta0, cfg: FitConfig, feasible) -> _Run:
    """Minimize fun: R^k -> (value, gradient, Hessian, noise) by Newton steps
    with halving on ascent and on leaving ``feasible``. The Hessian is a
    zero-argument callable, called only where a step is computed; noise is
    an absolute bound on the value's rounding, 0 where the value is a short
    sum whose rounding the relative band covers.

    Accepted steps never increase the objective beyond its evaluation-noise
    band, the larger of ``_NOISE_BAND`` (1 + |F|) and the two values'
    rounding bounds: once the true decrease of a Newton step falls below
    the float resolution of the assembled objective, strict-descent line
    search would reject it at random and stall short of the minimizer; such
    steps are accepted anyway when they halve the gradient norm, which is
    geometric progress toward stationarity."""
    theta = np.array(theta0, dtype=float)
    F, g, hess, noise = fun(theta)
    gl = g.tolist()
    gmax = max(map(abs, gl))
    if not (math.isfinite(F) and all(map(math.isfinite, gl))):
        raise InvalidSpec(f"objective or gradient not finite at the start "
                          f"(objective {F})")
    evals = 1
    times: list = []
    trace = [float(F)]

    def _grad_ok(gmax, Fv):
        return bool(gmax <= cfg.gradient_tol * (1.0 + abs(Fv)))

    converged = _grad_ok(gmax, F)
    iters = 0
    while not converged and iters < cfg.max_iterations:
        t0 = time.perf_counter()
        delta = _newton_step(hess(), g)
        accepted = False
        for _ in range(_MAX_HALVINGS):
            cand = theta + delta
            if not feasible(cand):
                delta = 0.5 * delta
                continue
            Fc, gc, hc, nc = fun(cand)
            gcmax = float(abs(gc).max())
            evals += 1
            band = max(_NOISE_BAND * (1.0 + abs(F)), noise + nc)
            if math.isfinite(Fc) and (
                    Fc <= F or (Fc - F <= band and gcmax <= 0.5 * gmax)):
                accepted = True
                break
            delta = 0.5 * delta
        if not accepted:
            times.append(time.perf_counter() - t0)
            break
        step = float(np.max(np.abs(delta)))
        theta, F, g, gmax, hess, noise = cand, Fc, gc, gcmax, hc, nc
        iters += 1
        times.append(time.perf_counter() - t0)
        trace.append(float(F))
        if _grad_ok(gmax, F) or step <= cfg.step_tol * (
                1.0 + float(np.max(np.abs(theta)))):
            converged = True
    return _Run(theta, F, g, gmax, iters, converged, times, evals, trace)


def _result(family: str, params, run: _Run, data_passes: int,
            **extra) -> FitResult:
    """The FitResult of a Newton fit; ``extra`` adds diagnostics."""
    return FitResult(
        family=family,
        params=params,
        objective=float(run.F),
        iterations=run.iterations,
        converged=run.converged,
        iteration_seconds=tuple(run.times),
        data_passes=data_passes,
        diagnostics={"gradient_inf_norm": run.gmax,
                     "objective_trace": tuple(run.trace), **extra},
    )


# ---------------------------------------------------------------------------
# circle fitters
# ---------------------------------------------------------------------------


def _pratt(Mxx, Myy, Mxy, Mxz, Myz, Mzz):
    """Centre (about the centroid) and radius of Pratt's circle from the
    mean central moments; see ``pratt_init``."""
    Mz = Mxx + Myy
    cov = Mxx * Myy - Mxy * Mxy
    A2 = 4.0 * cov - 3.0 * Mz * Mz - Mzz
    A1 = Mzz * Mz + 4.0 * cov * Mz - Mxz * Mxz - Myz * Myz - Mz * Mz * Mz
    A0 = (Mxz * Mxz * Myy + Myz * Myz * Mxx - Mzz * cov
          - 2.0 * Mxz * Myz * Mxy + Mz * Mz * cov)
    eta = 0.0
    settled = False
    for _ in range(_PRATT_NEWTON_STEPS):
        y = A0 + eta * (A1 + eta * (A2 + 4.0 * eta * eta))
        dy = A1 + eta * (2.0 * A2 + 16.0 * eta * eta)
        if dy == 0.0:
            break
        new = eta - y / dy
        settled = abs(new - eta) <= 1e-12 * abs(new)
        eta = new
        if settled:
            break
    # data on an exact circle have eta = 0, which rounding (of the sums, or
    # of their shift to the centroid) can move a little below 0; that root,
    # not 0, keeps the centre consistent with the moments. The pencil's one
    # truly negative root is of the order of -Mz
    if not (settled and math.isfinite(eta) and eta >= -1e-6 * Mz):
        raise DegenerateData("Newton's method finds no non-negative root "
                             "of Pratt's characteristic polynomial")
    det = eta * eta - eta * Mz + cov
    if not abs(det) > _PRATT_DET_TOL * Mz * Mz:
        raise DegenerateData("Pratt's system is singular (collinear or "
                             "coincident samples)")
    a = (Mxz * (Myy - eta) - Myz * Mxy) / (2.0 * det)
    b = (Myz * (Mxx - eta) - Mxz * Mxy) / (2.0 * det)
    r2 = a * a + b * b + Mz + 2.0 * eta
    if not (math.isfinite(r2) and r2 > 0.0):
        raise ImaginaryRadius(f"Pratt's fit gives R^2 = {r2}")
    return a, b, math.sqrt(r2)


def _pratt_checked(mv: MomentVector):
    """The ``CentralCircleView`` and Pratt's circle (a, b, R) computed
    from it, as floats: ``_pratt`` refuses any circle that is not finite
    with R > 0.

    DegenerateData also when the rounding of the central moments could
    move the circle by more than ``_ROUNDING_TOL`` R: the sum over the six
    moments of the move that each one's rounding bound causes alone, a
    first-order bound that grows with the centroid's distance from the
    accumulator's offset."""
    if mv.n < 3:
        raise DegenerateData(f"need at least 3 points, got {mv.n}")
    view = mv.central_circle_view()
    base = _pratt(*view.central)
    moved = 0.0
    for j, err in enumerate(view.rounding):
        if view.central[j] + err == view.central[j]:
            # below the moment's last digit, as about the centroid itself
            continue
        central = list(view.central)
        central[j] += err
        try:
            other = _pratt(*central)
        except (DegenerateData, ImaginaryRadius):
            moved = math.inf
            break
        moved += max(abs(p - q) for p, q in zip(other, base))
    if not moved <= _ROUNDING_TOL * base[2]:
        raise DegenerateData(
            f"the moments' rounding could move the circle by {moved:.3g}, "
            f"more than {_ROUNDING_TOL:g} R: the data lie too far from the "
            "accumulator's offset (accumulate about the centroid)")
    cx, cy = view.centroid
    return view, (base[0] + cx, base[1] + cy, base[2])


def _moment_circle_start(mv: MomentVector):
    """``_pratt_checked``, refusing as NoCircle, for any circle start."""
    try:
        return _pratt_checked(mv)
    except (DegenerateData, ImaginaryRadius) as exc:
        raise NoCircle(f"no circle fits these moments: {exc}") from exc


def pratt_init(mv: MomentVector) -> CircleParams:
    """Pratt's algebraic circle fit from the degree-4 moments.

    The reduced objective sum P^2/R^2 is 4 theta'M theta / theta'N theta
    with theta = (1, -2a, -2b, a^2+b^2-R^2), M the moment matrix of
    (x^2+y^2, x, y, 1) and theta'N theta = 4R^2, so its minimizer is the
    generalized eigenvector of M theta = eta N theta for the smallest
    non-negative eta. That eta is found by Newton's method from 0 on the
    characteristic polynomial written in central moments (Chernov,
    *Circular and Linear Regression*, 2010); no matrix is formed.

    DegenerateData for fewer than 3 points, collinear or coincident
    samples, or moments whose rounding could move the circle by more than
    1e-6 R. The last happens when the data lie far from the accumulator's
    offset: measured at offset (0, 0), between 100 and 1000 radii for a
    full circle and between 10 and 100 for arcs of 0.5 to 3 rad."""
    return CircleParams(*_pratt_checked(mv)[1])


def fit_circle_reduced(mv: MomentVector, cfg: FitConfig = None) -> FitResult:
    """Minimize the moment-assembled circle objective; the data are touched
    only through the accumulator (one pass, done by the caller).

    Newton runs on the objective's statistics about the data's centroid,
    whatever the accumulator's offset, so its arithmetic cancels no more
    than that of a centred accumulator. NoCircle where ``pratt_init``
    raises, whatever the start."""
    cfg = cfg if cfg is not None else _DEFAULT_CONFIG
    view, start = _moment_circle_start(mv)
    if cfg.init is not None:
        start = astuple(CircleParams(**_read_start(_CIRCLE.param_names,
                                                   cfg.init)))
    cx, cy = view.centroid

    def fun(th):
        return (*_fa_val_grad_hess(view, *th.tolist()), 0.0)

    run = _damped_newton(fun, [start[0] - cx, start[1] - cy, start[2]], cfg,
                         _circle_feasible)
    a, b, R = run.theta.tolist()
    return _result("circle", CircleParams(a + cx, b + cy, R), run, 1,
                   init={"a": start[0], "b": start[1], "R": start[2]})


def _as_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise InvalidSpec(f"expected an (n, 2) point array, got {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise NonFiniteInput("data points must be finite")
    return pts


def fit_circle_geometric(points, cfg: FitConfig = None) -> FitResult:
    """Damped Gauss-Newton on the distance residuals r_i = d_i - R.

    One pass over all n points per objective/Jacobian evaluation, and two
    more, for the centroid and the moments, to start at Pratt's fit when
    ``cfg.init`` gives no start."""
    cfg = cfg if cfg is not None else _DEFAULT_CONFIG
    pts = _as_points(points)
    n = pts.shape[0]
    if n < 3:
        raise DegenerateData(f"need at least 3 points, got {n}")
    x = pts[:, 0]
    y = pts[:, 1]
    if cfg.init is not None:
        init = CircleParams(**_read_start(_CIRCLE.param_names, cfg.init))
    else:
        # points whose powers overflow are NonFiniteInput, without numpy's
        # overflow warnings
        with np.errstate(over="ignore", invalid="ignore"):
            centroid = (float(x.mean()), float(y.mean()))
            mv = MomentVector.from_points(pts, 4, offset=centroid)
        init = pratt_init(mv)
    ones = np.ones(n)

    def fun(th):
        a, b, R = th
        dx = x - a
        dy = y - b
        d = np.hypot(dx, dy)
        if np.any(d == 0.0):
            raise CenterHitsDataPoint(
                f"trial center ({a}, {b}) coincides with a data point")
        r = d - R
        J = np.column_stack([-dx / d, -dy / d, -ones])
        g = 2.0 * (J.T @ r)
        H = 2.0 * (J.T @ J)  # Gauss-Newton curvature
        return float(r @ r), g, lambda: H, 0.0

    run = _damped_newton(fun, [init.a, init.b, init.R], cfg, _circle_feasible)
    # the centroid and the moments of Pratt's start are two passes more
    return _result("circle", CircleParams(*run.theta), run,
                   run.evals + (2 if cfg.init is None else 0),
                   init=init.to_dict())


# ---------------------------------------------------------------------------
# generic conic reweight baseline
# ---------------------------------------------------------------------------


def _canonical_sign(vec: np.ndarray) -> np.ndarray:
    for v in vec:
        if abs(v) > 1e-14:
            return -vec if v < 0.0 else vec
    return vec


def _conic_grad2(theta: np.ndarray, x: np.ndarray, y: np.ndarray):
    A, B, C, D, E, _ = theta
    px = 2.0 * A * x + B * y + D
    py = B * x + 2.0 * C * y + E
    return px, py, px * px + py * py


def _conic_design(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.column_stack([x * x, x * y, y * y, x, y, np.ones(len(x))])


def _conic_unnormalized(theta, centre, scale) -> np.ndarray:
    """The unit-norm, sign-canonical conic whose value at (x, y) is
    scale^2 times the value of ``theta`` at ((x, y) - centre) / scale."""
    A, B, C, D, E, F = theta
    cx, cy = centre
    vec = np.array([
        A, B, C,
        scale * D - 2.0 * A * cx - B * cy,
        scale * E - B * cx - 2.0 * C * cy,
        (scale * scale * F - scale * (D * cx + E * cy)
         + A * cx * cx + B * cx * cy + C * cy * cy),
    ])
    return _canonical_sign(vec / np.linalg.norm(vec))


def fit_conic_reweight(points, cfg: FitConfig = None) -> FitResult:
    """Gradient-weighted algebraic conic fit by alternating weight freezing
    and an exact unit-norm quadratic minimization (smallest eigenvector of
    the weighted scatter matrix). O(n) per iteration.

    It iterates on the points moved to their centroid and divided by their
    RMS distance from it (Hartley's normalization), then maps the conic
    back; the objective and its trace are in the caller's frame, the
    stationarity residual and ``smallest_eigenvalue`` in the normalized
    one, so that they do not depend on where the data lie. It always
    starts from unit weights: InvalidSpec if ``cfg.init`` gives a start."""
    cfg = cfg if cfg is not None else _DEFAULT_CONFIG
    if cfg.init is not None:
        raise InvalidSpec("fit_conic_reweight takes no start: it begins "
                          "from unit weights")
    pts = _as_points(points)
    n = pts.shape[0]
    if n < 6:
        raise DegenerateData(f"need at least 6 points, got {n}")
    centre = pts.mean(axis=0)
    rel = pts - centre
    scale = math.sqrt(float(np.mean(np.sum(rel * rel, axis=1))))
    if not scale > 0.0:
        raise DegenerateData("all samples coincide")
    x = rel[:, 0] / scale
    y = rel[:, 1] / scale
    Z = _conic_design(x, y)
    weights = np.ones(n)
    theta = None
    trace: list = []
    times: list = []
    converged = False
    iters = 0
    eig_min = math.nan
    while iters < cfg.max_iterations:
        t0 = time.perf_counter()
        S = Z.T @ (weights[:, None] * Z)
        S = 0.5 * (S + S.T)
        evals, vecs = np.linalg.eigh(S)
        cand = _canonical_sign(vecs[:, 0])
        eig_min = float(evals[0])
        step = math.inf if theta is None else min(
            float(np.linalg.norm(cand - theta)),
            float(np.linalg.norm(cand + theta)))
        _, _, grad2 = _conic_grad2(cand, x, y)
        # relative zero: a sample sitting at a singular point of the trial
        # conic has |grad|^2 at rounding-noise level of the others
        if np.any(grad2 <= 1e-24 * max(1.0, float(np.mean(grad2)))):
            raise GradientVanishesAtSample(
                "curve gradient vanishes at a sample; weight undefined")
        weights = 1.0 / grad2
        if not np.all(np.isfinite(weights)):
            raise GradientVanishesAtSample(
                "weight overflow: curve gradient is numerically zero at "
                "a sample")
        theta = cand
        trace.append(float(np.sum((Z @ theta) ** 2 * weights)))
        iters += 1
        times.append(time.perf_counter() - t0)
        if step <= cfg.step_tol:
            converged = True
            break
    stationarity = _conic_stationarity(theta, Z, x, y)
    theta = _conic_unnormalized(theta, centre, scale)
    x = pts[:, 0]
    y = pts[:, 1]
    Z = _conic_design(x, y)
    resid = Z @ theta
    objective = float(np.sum(resid * resid / _conic_grad2(theta, x, y)[2]))
    return FitResult(
        family="conic",
        params=ConicParams(*theta),
        objective=objective,
        iterations=iters,
        converged=converged,
        iteration_seconds=tuple(times),
        data_passes=2 + iters,
        diagnostics={
            "stationarity_residual": stationarity,
            "objective_trace": tuple(scale * scale * t for t in trace),
            "smallest_eigenvalue": eig_min,
        },
    )


def _conic_stationarity(theta, Z, x, y) -> float:
    """Infinity norm of the tangential full-objective gradient at theta,
    including the term from differentiating the weights; reported as a
    diagnostic — the freezing iteration does not drive it to zero."""
    px, py, grad2 = _conic_grad2(theta, x, y)
    w = 1.0 / grad2
    P = Z @ theta
    zeros = np.zeros_like(x)
    ones = np.ones_like(x)
    dpx = np.column_stack([2.0 * x, y, zeros, ones, zeros, zeros])
    dpy = np.column_stack([zeros, x, 2.0 * y, zeros, ones, zeros])
    dgrad2 = 2.0 * px[:, None] * dpx + 2.0 * py[:, None] * dpy
    full = (2.0 * (P * w) @ Z) - ((P * P * w * w) @ dgrad2)
    tangential = full - float(full @ theta) * theta
    return float(np.max(np.abs(tangential)))


# ---------------------------------------------------------------------------
# certificate-driven generic reduced fit
# ---------------------------------------------------------------------------


# P's coefficients on monomials(degree) as c0 + C1 theta + theta' C2 theta / 2
_FamilyMap = namedtuple("_FamilyMap", "degree c0 C1 C2 scale_free")


@lru_cache(maxsize=None)
def _family_map(family: CurveFamily) -> _FamilyMap:
    """P's coefficient vector as a quadratic map of theta, read exactly from
    ``build_poly`` at theta = 0, e_i and e_i + e_j (i <= j): C2[i, j] is
    the second difference P(e_i + e_j) - P(e_i) - P(e_j) + P(0).

    InvalidSpec unless the map gives ``build_poly`` exactly at a sampled
    theta, that is unless P is quadratic in theta. ``scale_free`` when
    c0 = 0 and C2 = 0, as for the line u x + v y + w: then W scales like
    1 / |grad P|^2 and F(s theta) = F(theta)."""
    names = family.param_names
    k = len(names)
    sample = family.sample_theta(np.random.default_rng(0))
    sample = np.array([Fraction(sample[n]) for n in names], dtype=object)
    keys = [(), *((i,) for i in range(k)),
            *((i, j) for i in range(k) for j in range(i, k))]
    polys = [family.build_poly({n: key.count(j) for j, n in enumerate(names)})
             for key in keys]
    polys.append(family.build_poly(dict(zip(names, sample))))
    degree = int(max(P.degree() for P in polys))
    *vecs, at_sample = (coefficients(P, degree) for P in polys)
    v = dict(zip(keys, vecs))
    c0 = v[()]
    C2 = np.array([[v[min(i, j), max(i, j)] - v[(i,)] - v[(j,)] + c0
                    for j in range(k)] for i in range(k)])
    C1 = np.array([v[(i,)] - c0 - C2[i, i] / 2 for i in range(k)])
    mapped = c0 + sample @ C1 + sample @ np.tensordot(sample, C2, 1) / 2
    if list(mapped) != list(at_sample):
        raise InvalidSpec(f"{family.name}: P is not quadratic in the "
                          "parameters")
    return _FamilyMap(degree, c0.astype(float), C1.astype(float),
                      C2.astype(float), not (any(c0) or any(C2.flat)))


# T's entries are the moments at ``keys``, indexed by ``at``
_ObjectiveShape = namedtuple("_ObjectiveShape", "layout square keys at")


@lru_cache(maxsize=None)
def _objective_shape(deg: int, degree: int) -> _ObjectiveShape:
    """What ``_CertObjective`` compiles from deg P and the certificate
    degree alone: the certificate layout, the bilinear map ``square`` and
    T's index. Q_k = sum over x and y of (D p)_i (D p)_j over the
    pairs with beta_i + beta_j = kappa_k, D the partial derivative on
    alpha = monomials(deg); T[i, j, l] = m(gamma_i + alpha_j + alpha_l)
    for gamma the certificate's monomials."""
    alpha = monomials(deg)
    layout = certificate_layout(deg, 2 * deg - 2, degree)
    beta = monomial_index(deg - 1)
    kappa = monomial_index(2 * deg - 2)
    D = np.zeros((2, len(beta), len(alpha)))
    for i, (a, e) in enumerate(alpha):
        if a:
            D[0, beta[a - 1, e], i] = a
        if e:
            D[1, beta[a, e - 1], i] = e
    prod = np.zeros((len(kappa), len(beta), len(beta)))
    for (a1, e1), i in beta.items():
        for (a2, e2), j in beta.items():
            prod[kappa[a1 + a2, e1 + e2], i, j] = 1.0
    keys = monomials(degree + 2 * deg)
    index = monomial_index(degree + 2 * deg)
    at = np.array([[[index[g0 + a0 + b0, g1 + a1 + b1] for b0, b1 in alpha]
                    for a0, a1 in alpha] for g0, g1 in layout.cols])
    return _ObjectiveShape(layout, np.einsum("cia,kij,cjb->kab", D, prod, D),
                           keys, at)


class _CertObjective:
    """F(theta) = <moments, W_theta * P_theta^2>, where W_theta is the
    minimum-norm solution of the certificate system P*U + Q*W = 1 at theta.

    Compiled once per fit. Polynomials are coefficient vectors: P's on the
    monomials alpha of degree <= deg P, given by the family's quadratic map
    (``_family_map``), W's on the monomials gamma of the certificate
    degree. ``_square`` is the symmetric bilinear map p -> Q = Px^2 + Py^2,
    the analyzer's layout fills A from (p, q), and T[i, j, l] =
    m(gamma_i + alpha_j + alpha_l) holds the moments, so F = w.(T p p).

    Every derivative is exact: p is quadratic in theta and q = Q(p, p), so
    their second derivatives are C2 and sums of Q's products of the first;
    the solution s = A+ b of the consistent system A s = b is
    differentiated twice through the derivative of the pseudoinverse
    (Golub & Pereyra, 1973), rank-deficient systems included, where the
    rank is constant near theta. An evaluation is a few small matrix
    products and one SVD at one theta, and its cost is independent of the
    number of data points. It returns the Hessian as a callable, so the
    driver computes it only where it steps, and a bound on F's rounding:
    w.(T p p) cancels terms far larger than itself."""

    def __init__(self, family: CurveFamily, degree: int, mv: MomentVector):
        self.family = family
        self.names = family.param_names
        self.degree = degree
        self._map = _family_map(family)
        self.scale_free = self._map.scale_free
        self._layout, self._square, keys, at = _objective_shape(
            self._map.degree, degree)
        self._T = np.array([float(mv.entry(*key)) for key in keys])[at]
        self._absT = np.abs(self._T)

    def theta_dict(self, vec) -> dict:
        return {k: float(v) for k, v in zip(self.names, vec)}

    def feasible(self, vec) -> bool:
        if not np.all(np.isfinite(vec)):
            return False
        try:
            self.family.validate(self.theta_dict(vec))
        except InvalidSpec:
            return False
        return True

    def _evaluate(self, theta):
        """F, its gradient, a callable giving its Hessian, and F's rounding
        bound at a feasible theta."""
        kc = len(self._layout.cols)
        _, c0, C1, C2, _ = self._map
        C2theta = theta @ C2
        dp = C1 + C2theta
        p = c0 + theta @ (C1 + 0.5 * C2theta)
        Bp = self._square @ p
        A = self._layout.fill(p, Bp @ p)
        dA = self._layout.fill(dp, 2.0 * dp @ Bp.T)
        U, sv, Vt = np.linalg.svd(A)
        r = int(np.count_nonzero(sv > 1e-12 * sv[0]))
        Ap = (Vt[:r].T / sv[:r]) @ U[:, :r].T
        V0 = Vt[r:]  # a basis of A's null space
        s = Ap[:, 0]  # b is the first unit vector
        res = A @ s
        res[0] -= 1.0
        if not math.sqrt(res @ res) <= _CERT_ACCEPT:
            raise NumericalFailure(
                f"certificate of degree {self.degree} lost at "
                f"theta={self.theta_dict(theta)}")
        # the minimum-norm solution's derivative, zero-residual case:
        # ds_j = -A+ a_j + N e_j with a_j = dA_j s, e_j = dA_j' A+' s and
        # N = V0' V0 the projector on A's null space
        y = s @ Ap
        a = dA @ s
        e = y @ dA
        ds = -a @ Ap.T
        if len(V0):
            ds += (e @ V0.T) @ V0
        w, dw = s[kc:], ds[:, kc:]
        Tp = self._T @ p
        t = Tp @ p
        dt = 2.0 * dp @ Tp.T
        F = float(w @ t)
        grad = dw @ t + dt @ w
        size = abs(p)
        noise = _CERT_ROUNDING * float(abs(w) @ (self._absT @ size @ size))

        def hess():
            d2A = self._layout.fill(
                C2, 2.0 * (np.einsum("ja,kab,lb->jlk", dp, self._square, dp)
                           + C2 @ Bp.T))
            # the product rule on ds_j; its part in A's row space is
            # -A+ (d2A_jl s + dA_j ds_l + dA_l ds_j)
            Ads = np.einsum("jrc,lc->jlr", dA, ds)
            d2w = -(d2A @ s + Ads + Ads.transpose(1, 0, 2)) @ Ap[kc:].T
            if len(V0):
                # the part in A's null space, none at full column rank:
                # N (d2A_jl' y - dA_l' z_j - dA_j' z_l), z_j = A+'(A+ a_j +
                # e_j). The product rule gives one more term, N dA_j' (I -
                # A A+) dA_l A+ y, but N dA_j' (I - A A+) = 0 wherever the
                # rank is constant
                z = (a @ Ap.T + e) @ Ap
                Az = np.einsum("lrc,jr->jlc", dA, z)
                m = y @ d2A - Az - Az.transpose(1, 0, 2)
                d2w += (m @ V0.T) @ V0[:, kc:]
            wT = (w @ self._T.reshape(kc, -1)).reshape(len(p), len(p))
            dwdt = dw @ dt.T
            return (d2w @ t + dwdt + dwdt.T
                    + 2.0 * (dp @ wT @ dp.T + C2 @ (wT @ p)))

        return F, grad, hess, noise

    def evaluate(self, vec):
        """``_damped_newton``'s objective: (F, gradient, Hessian callable,
        rounding bound). For a scale-free family the gradient and Hessian
        are projected orthogonal to theta."""
        vec = np.asarray(vec, dtype=float)
        F, g, hess, noise = self._evaluate(vec)
        if not self.scale_free:
            return F, g, hess, noise
        # Euler's identity gives H theta = -g, so a plain Newton step
        # mostly rescales theta; keep the step orthogonal to theta and
        # give theta's own direction H's scale
        t = vec / math.sqrt(vec @ vec)

        def projected():
            H = hess()
            proj = np.eye(len(t)) - np.outer(t, t)
            return proj @ H @ proj + float(np.max(np.abs(H))) * np.outer(t, t)

        return F, g - (g @ t) * t, projected, noise


def _line_start(mv: MomentVector) -> dict:
    """Orthogonal regression from the sums of degree <= 2, in the
    accumulator's frame: the line through the centroid whose unit normal
    (u, v) is the smallest eigenvector of the central scatter (Pearson,
    1901). Q = u^2 + v^2 is constant on a line, so this is the objective's
    own minimizer, the line's analogue of Pratt's fit. DegenerateData for
    fewer than 2 points, or a scatter isotropic (no line fits best) or too
    near it to resolve from moments far from the accumulator's offset."""
    if mv.n < 2:
        raise DegenerateData(f"need at least 2 points, got {mv.n}")
    cx, cy, sxx, sxy, syy = (float(mv.entry(*k)) / mv.n for k in (
        (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)))
    raw = sxx + syy  # the central scatter is taken from it by cancellation
    sxx, sxy, syy = sxx - cx * cx, sxy - cx * cy, syy - cy * cy
    if not math.hypot(sxx - syy, 2.0 * sxy) > 1e-12 * raw:
        raise DegenerateData(
            "the scatter's eigenvalues do not differ beyond its rounding: "
            "isotropic data, or data too far from the accumulator's offset "
            "(accumulate about the centroid)")
    phi = 0.5 * math.atan2(2.0 * sxy, sxx - syy)  # the major axis
    u, v = -math.sin(phi), math.cos(phi)
    return {"u": u, "v": v, "w": -(u * cx + v * cy)}


def _circle_shift(p, ox, oy):
    return {"a": p["a"] - ox, "b": p["b"] - oy, "R": p["R"]}


# (start, shift) of the families closed under translation: the closed-form
# minimizer in the accumulator's frame, and exact parameters in x-ox, y-oy
_FRAMES = {
    _CIRCLE: (lambda mv: _circle_shift(
        dict(zip("abR", _moment_circle_start(mv)[1])), *mv.offset),
        _circle_shift),
    get_family("line"): (_line_start, lambda p, ox, oy: {
        **p, "w": p["w"] + p["u"] * ox + p["v"] * oy}),
}


def fit_reduced_generic(family, cert: ReductionCertificate, mv: MomentVector,
                        cfg: FitConfig = None) -> FitResult:
    """Minimize the certificate-weighted objective assembled from moments.

    Same damped Newton driver as the reduced circle fit; the data enter
    only through the accumulator. The circle and the line start at their
    closed-form minimizers and fit at any offset (``_FRAMES``). Circle
    moments that ``pratt_init`` refuses raise NoCircle, whatever the start."""
    cfg = cfg if cfg is not None else _DEFAULT_CONFIG
    fam = get_family(family) if isinstance(family, str) else family
    ox, oy = mv.offset
    start, shift = _FRAMES.get(fam, (None, None))
    if start is None and (cfg.init is None or (ox, oy) != (0.0, 0.0)):
        raise InvalidSpec(f"family {fam.name!r} has no start of its own: it "
                          "needs FitConfig.init and moments about the origin")
    if cfg.init is None:
        theta0 = start(mv)
    else:
        if fam == _CIRCLE:
            _moment_circle_start(mv)  # NoCircle whatever the start
        theta0 = _read_start(fam.param_names, cfg.init)
        fam.validate(theta0)
        theta0 = shift(theta0, ox, oy) if shift else theta0

    deg = _family_map(fam).degree
    need = cert.degree + 2 * deg
    if mv.max_total_degree < need:
        raise DegreeMismatch(
            f"moment degree {mv.max_total_degree} < required {need} "
            f"(certificate degree {cert.degree}, curve degree {deg})")

    obj = _CertObjective(fam, cert.degree, mv)
    run = _damped_newton(obj.evaluate, [theta0[k] for k in fam.param_names],
                         cfg, obj.feasible)
    params = obj.theta_dict(run.theta)
    params = shift(params, -ox, -oy) if shift else params
    return _result(fam.name, CircleParams(**params) if fam == _CIRCLE
                   else params, run, 1, certificate_degree=cert.degree)
