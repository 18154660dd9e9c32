"""The three workloads: seeded inputs, one operation and the check of its
output.

Inputs are made here with numpy's seeded PCG64, never with
``gradfit.datagen.generate``, so the program under test receives data it did
not produce. ``prepare`` runs in the parent process and writes the inputs to
a work directory; ``load`` reads them back in the worker before timing starts.

``run`` makes the public calls a user makes. It looks the program's
functions up when it calls them (``gradfit.fit_circle_reduced``, not a name
bound at import), so that the traced run's span wrappers (spans.instrument)
are seen; traced and untraced runs execute the same code. ``key`` gives the
part of an output that the two runs must agree on, bit for bit.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
from fractions import Fraction
from pathlib import Path

import numpy as np

# -- shared helpers -----------------------------------------------------------


def _digest(*parts) -> str:
    """SHA-256 of arrays (their bytes) and JSON-able values, in order."""
    h = hashlib.sha256()
    for part in parts:
        h.update(np.ascontiguousarray(part).tobytes() if isinstance(part, np.ndarray)
                 else json.dumps(part, sort_keys=True).encode())
    return h.hexdigest()


def _loguniform(rng, lo, hi, size=None):
    return np.exp(rng.uniform(math.log(lo), math.log(hi), size))


def _circle_tolerance(sigma, n, R):
    # statistical error of centre and radius (about sigma*sqrt(2/n)) plus the
    # known O(sigma^2/R) bias of the algebraic objective, with wide margins
    return 10.0 * sigma * math.sqrt(2.0 / n) + 4.0 * sigma * sigma / R


def _circle_distance(params, a, b, R):
    """Largest distance from the generating circle to the fitted one."""
    t = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    x, y = a + R * np.cos(t), b + R * np.sin(t)
    return float(np.max(np.abs(np.hypot(x - params["a"], y - params["b"])
                               - params["R"])))


class OpFailed(Exception):
    """An operation whose result reports a failure, such as a fit that did
    not converge: counted as failed, not as a wrong output."""


class CheckFailed(Exception):
    """An output reported as a success that does not meet its workload's
    correctness check."""


# -- csv_1e6 ------------------------------------------------------------------


class Csv1e6:
    """``gradfit fit FILE --algo reduced --json`` on a 1e6-point CSV."""

    name = "csv_1e6"
    imports = "gradfit,gradfit.cli"
    trace_ops = 1
    warmup = 0
    N, A, B, R, SIGMA = 1_000_000, 0.3, -0.2, 1.0, 0.01

    def prepare(self, seed, work: Path) -> list:
        rng = np.random.default_rng([seed, 1])
        t = rng.uniform(0.0, 2.0 * math.pi, self.N)
        pts = np.column_stack([self.A + self.R * np.cos(t),
                               self.B + self.R * np.sin(t)])
        pts += rng.normal(0.0, self.SIGMA, pts.shape)
        body = "".join(f"{x!r},{y!r}\n" for x, y in pts.tolist())
        text = f"# circle a={self.A} b={self.B} R={self.R} sigma={self.SIGMA}\n" + body
        with open(work / "points.csv", "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())  # no write-back during the timed phase
        return [hashlib.sha256(text.encode()).hexdigest()]

    def load(self, work: Path) -> list:
        return [str(work / "points.csv")]

    def run(self, path):
        import gradfit.cli
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = gradfit.cli.main(["fit", path, "--algo", "reduced", "--json"])
        # a typed error is reported on stderr only, with a non-zero code
        text = out.getvalue()
        return code, (json.loads(text) if text or code == 0 else None)

    def key(self, out):
        code, blob = out
        return (code, None if blob is None else (
            blob["params"], blob["objective"], blob["iterations"], blob["converged"]))

    def check(self, path, out):
        code, blob = out
        if code != 0:
            raise OpFailed(f"exit code {code}")
        if not blob["converged"]:
            raise CheckFailed("exit code 0 for a fit that did not converge")
        dist = _circle_distance(blob["params"], self.A, self.B, self.R)
        tol = _circle_tolerance(self.SIGMA, self.N, self.R)
        if dist > tol:
            raise CheckFailed(f"fit is {dist:.3g} from the generating circle "
                              f"(tolerance {tol:.3g})")

    def ingest_peak_mb(self, path) -> float:
        """Peak traced allocation of one ingest call, in MiB."""
        import tracemalloc
        from gradfit import ingest
        tracemalloc.start()
        try:
            ingest(path)
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()


# -- arcs_small ---------------------------------------------------------------


class ArcsSmall:
    """Thousands of small independent fits, full circles down to 0.2 rad."""

    name = "arcs_small"
    imports = "gradfit"
    COUNT = 4096
    trace_ops = 1024
    warmup = 64
    GRAD_RATIO = 2e-5
    RESOLVE = 5.0

    def prepare(self, seed, work: Path) -> list:
        rng = np.random.default_rng([seed, 2])
        k = self.COUNT
        sizes = rng.integers(50, 501, k)
        dist = _loguniform(rng, 1.0, 1e3, k)
        phi = rng.uniform(0.0, 2.0 * math.pi, k)
        radius = _loguniform(rng, 0.1, 100.0, k)
        sigma = radius * _loguniform(rng, 1e-3, 1e-2, k)
        span = _loguniform(rng, 0.2, 2.0 * math.pi, k)
        # keep each arc's sagitta at least RESOLVE standard errors of its
        # estimate (about 3.35 sigma / sqrt(n) for points spread evenly
        # along the arc); below that the noise can flatten or invert the arc,
        # no finite circle fits it best, and the fit rightly does not converge
        sagitta = radius * (1.0 - np.cos(span / 2.0))
        sigma = np.minimum(sigma, sagitta * np.sqrt(sizes) / (3.35 * self.RESOLVE))
        start = rng.uniform(0.0, 2.0 * math.pi, k)
        arcs, digests = [], []
        for i in range(k):
            t = start[i] + span[i] * rng.random(sizes[i])
            pts = np.column_stack([dist[i] * math.cos(phi[i]) + radius[i] * np.cos(t),
                                   dist[i] * math.sin(phi[i]) + radius[i] * np.sin(t)])
            pts += rng.normal(0.0, sigma[i], pts.shape)
            arcs.append(pts)
            digests.append(_digest(pts))
        np.savez(work / "arcs.npz", points=np.concatenate(arcs), sizes=sizes)
        return digests

    def load(self, work: Path) -> list:
        with np.load(work / "arcs.npz") as f:
            points, sizes = f["points"], f["sizes"]
        return np.split(points, np.cumsum(sizes)[:-1])

    def run(self, pts):
        import gradfit
        centroid = pts.mean(axis=0)
        mv = gradfit.MomentVector.from_points(pts, 4, offset=centroid)
        return gradfit.fit_circle_reduced(mv)

    def key(self, result):
        p = result.params
        return (p.a, p.b, p.R, result.objective, result.iterations, result.converged)

    def check(self, pts, result):
        """Converged, and the gradient of sum P^2/R^2, recomputed from the
        centred points, is zero relative to the sum of its terms' sizes.

        The bound sits between what converged fits reach (below 2e-6) and
        what a centre or radius off by 1% of its standard error gives
        (above 4e-5)."""
        if not result.converged:
            raise OpFailed(f"not converged after {result.iterations} iterations")
        c = pts.mean(axis=0)
        du = pts[:, 0] - c[0] - (result.params.a - c[0])
        dv = pts[:, 1] - c[1] - (result.params.b - c[1])
        R = result.params.R
        P = du * du + dv * dv - R * R
        terms = (-4.0 * P * du / R**2, -4.0 * P * dv / R**2,
                 -4.0 * P / R - 2.0 * P * P / R**3)
        ratio = max(abs(float(g.sum())) / float(np.abs(g).sum()) for g in terms)
        if ratio > self.GRAD_RATIO:
            raise CheckFailed(f"objective gradient ratio {ratio:.3g} at the fit")


# -- certify_fit --------------------------------------------------------------


class CertifyFit:
    """Prove-then-fit: verdict for every request, generic fit when admissible."""

    name = "certify_fit"
    imports = "gradfit"
    # no parabolas: analyzer.find_common_zero misses their common zero for
    # about one c in a thousand, and decide_reduction then raises
    # BoundExhausted (README.md, Known failures); a second hyperbola keeps
    # verdict-only requests at 60%
    CYCLE = ("circle", "ellipse", "hyperbola", "line", "hyperbola")
    ADMISSIBLE = {"circle", "line"}
    COUNT = 2000
    trace_ops = 100
    warmup = 10
    FIT_POINTS, SIGMA = 2000, 0.01

    def _theta(self, family, rng) -> dict:
        u = rng.uniform(0.0, 1.0, 3)
        if family == "circle":
            return {"a": -2.0 + 4.0 * u[0], "b": -2.0 + 4.0 * u[1], "R": 0.5 + 1.5 * u[2]}
        if family == "ellipse":
            a = 0.5 + 1.5 * u[0]
            b = 0.5 + (a - 0.5 + 0.2 + 1.1 * u[1]) % 1.5  # |a - b| >= 0.2
            return {"a": a, "b": b, "c": -2.0 + 1.5 * u[2]}
        if family == "hyperbola":
            return {"a": 0.5 + 1.5 * u[0], "b": -2.0 + 1.5 * u[1], "c": -2.0 + 1.5 * u[2]}
        phi = 2.0 * math.pi * u[0]  # line
        return {"u": math.cos(phi), "v": math.sin(phi), "w": -2.0 + 4.0 * u[1]}

    def _points(self, family, th, rng):
        n = self.FIT_POINTS
        if family == "circle":
            t = rng.uniform(0.0, 2.0 * math.pi, n)
            pts = np.column_stack([th["a"] + th["R"] * np.cos(t),
                                   th["b"] + th["R"] * np.sin(t)])
        else:
            t = rng.uniform(-1.0, 1.0, n)
            pts = np.column_stack([-th["w"] * th["u"] - th["v"] * t,
                                   -th["w"] * th["v"] + th["u"] * t])
        return pts + rng.normal(0.0, self.SIGMA, pts.shape)

    @staticmethod
    def _line_init(pts) -> dict:
        """Ordinary least squares along the wider coordinate: a cheap start
        that errors-in-variables bias keeps off the optimum."""
        x, y = pts[:, 0], pts[:, 1]
        if np.ptp(x) >= np.ptp(y):
            m, c = np.polyfit(x, y, 1)
            return {"u": float(m), "v": -1.0, "w": float(c)}   # m x - y + c
        m, c = np.polyfit(y, x, 1)
        return {"u": -1.0, "v": float(m), "w": float(c)}       # -x + m y + c

    def prepare(self, seed, work: Path) -> list:
        rng = np.random.default_rng([seed, 3])
        requests, clouds, digests = [], [], []
        for i in range(self.COUNT):
            family = self.CYCLE[i % len(self.CYCLE)]
            req = {"family": family, "theta": self._theta(family, rng)}
            if family in self.ADMISSIBLE:
                pts = self._points(family, req["theta"], rng)
                req["cloud"] = len(clouds)
                if family == "line":
                    req["init"] = self._line_init(pts)
                clouds.append(pts)
                digests.append(_digest(req, pts))
            else:
                digests.append(_digest(req))
            requests.append(req)
        (work / "requests.json").write_text(json.dumps(requests), encoding="utf-8")
        np.save(work / "clouds.npy", np.stack(clouds))
        return digests

    def load(self, work: Path) -> list:
        requests = json.loads((work / "requests.json").read_text(encoding="utf-8"))
        clouds = np.load(work / "clouds.npy")
        for req in requests:
            if "cloud" in req:
                req["points"] = clouds[req["cloud"]]
        return requests

    @staticmethod
    def _fit_inputs(family, req, cert, P):
        """Moment degree, offset and config for the generic fit."""
        from gradfit import FitConfig
        degree = cert.degree + 2 * int(P.degree())
        # the generic fitter accepts a centred accumulator for circles only
        offset = req["points"].mean(axis=0) if family.name == "circle" else (0.0, 0.0)
        cfg = FitConfig(init=req["init"]) if "init" in req else None
        return degree, offset, cfg

    def run(self, req):
        import gradfit
        family = gradfit.get_family(req["family"])
        P = family.poly(req["theta"], exact=True)
        Q = gradfit.gradient_norm_squared(P)
        decision = gradfit.decide_reduction(P, Q)
        fit = None
        if decision.admissible:
            degree, offset, cfg = self._fit_inputs(family, req,
                                                   decision.certificate, P)
            mv = gradfit.MomentVector.from_points(req["points"], degree, offset=offset)
            fit = gradfit.fit_reduced_generic(family, decision.certificate, mv, cfg)
        return decision, fit

    def key(self, out):
        decision, fit = out
        w, c = decision.witness, decision.certificate
        return (decision.admissible, decision.max_degree,
                None if w is None else (w.x, w.y, w.residual_P, w.residual_Q),
                None if c is None else (c.U.terms, c.W.terms, c.degree,
                                        c.identity_residual),
                None if fit is None else (_params(fit), fit.objective,
                                          fit.iterations, fit.converged))

    def check(self, req, out):
        decision, fit = out
        family, th = req["family"], req["theta"]
        if decision.admissible != (family in self.ADMISSIBLE):
            raise CheckFailed(f"{family}: admissible={decision.admissible}")
        if decision.admissible:
            _check_certificate(family, th, decision.certificate)
            _check_generic_fit(family, th, fit, self.SIGMA, self.FIT_POINTS)
        else:
            _check_witness(family, th, decision.witness)


def _params(fit) -> dict:
    p = fit.params
    return p.to_dict() if hasattr(p, "to_dict") else dict(p)


def _pq(family, th, x, y):
    """P and |grad P|^2 of the family at (x, y), written out by hand."""
    if family == "circle":
        dx, dy = x - th["a"], y - th["b"]
        return dx * dx + dy * dy - th["R"] ** 2, 4 * (dx * dx + dy * dy)
    if family in ("ellipse", "hyperbola"):
        a, b, c = th["a"], th["b"], th["c"]
        return a * x * x + b * y * y + c, (2 * a * x) ** 2 + (2 * b * y) ** 2
    u, v, w = th["u"], th["v"], th["w"]
    return u * x + v * y + w, u * u + v * v


def _eval_terms(poly, x, y):
    return sum(Fraction(c) * x**p * y**q for (p, q), c in poly.terms.items())


def _check_certificate(family, th, cert):
    """P*U + Q*W must be exactly 1 at rational sample points."""
    if cert is None:
        raise CheckFailed(f"{family}: admissible without a certificate")
    exact = {k: Fraction(v) for k, v in th.items()}
    for x, y in ((Fraction(1, 3), Fraction(-2, 7)), (Fraction(5, 2), Fraction(3)),
                 (Fraction(-11, 13), Fraction(1, 8))):
        P, Q = _pq(family, exact, x, y)
        value = P * _eval_terms(cert.U, x, y) + Q * _eval_terms(cert.W, x, y)
        if value != 1:
            raise CheckFailed(f"{family}: P*U + Q*W = {float(value)} at ({x}, {y})")


def _check_witness(family, th, w):
    """P and Q both vanish at the complex witness, relative to their size."""
    if w is None:
        raise CheckFailed(f"{family}: inadmissible without a witness")
    x, y = complex(w.x), complex(w.y)
    scale = max(1.0, abs(x), abs(y)) ** 2 * max(1.0, *(abs(v) for v in th.values())) ** 2
    for name, value in zip("PQ", _pq(family, th, x, y)):
        if abs(value) > 1e-6 * scale:
            raise CheckFailed(f"{family}: |{name}| = {abs(value):.3g} at the witness")


def _check_generic_fit(family, th, fit, sigma, n):
    if fit is None:
        raise CheckFailed(f"{family}: admissible but not fitted")
    if not fit.converged:
        raise OpFailed(f"{family}: generic fit did not converge")
    p = _params(fit)
    if family == "circle":
        dist = _circle_distance(p, th["a"], th["b"], th["R"])
        tol = _circle_tolerance(sigma, n, th["R"])
    else:
        # distance from the generating segment's ends to the fitted line
        norm = math.hypot(p["u"], p["v"])
        ends = [(-th["w"] * th["u"] - th["v"] * t, -th["w"] * th["v"] + th["u"] * t)
                for t in (-1.0, 1.0)]
        dist = max(abs(p["u"] * x + p["v"] * y + p["w"]) / norm for x, y in ends)
        tol = 10.0 * sigma * math.sqrt(8.0 / n)
    if dist > tol:
        raise CheckFailed(f"{family}: fit is {dist:.3g} from the generating "
                          f"curve (tolerance {tol:.3g})")


WORKLOADS = {w.name: w for w in (Csv1e6(), ArcsSmall(), CertifyFit())}
