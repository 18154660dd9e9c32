"""Command-line front end.

Subcommands
-----------
``fit``       ingest points (or a saved moment file), run one of the fitting
              algorithms, print the result.
``analyze``   decide whether a polynomial (or a whole curve family) admits
              the gradient-weight reduction; print verdict plus witness or
              certificate.
``generate``  write synthetic noisy samples of a curve family as CSV.
``bench``     time the reduced, generic and reweight fits across dataset
              sizes.

Exit codes are stable per error class so scripts can branch on them:

====  =======================================================
code  meaning
====  =======================================================
0     success (fits: converged)
1     unexpected error, or a GradfitError of no class below
2     usage error
3     ParseError                (malformed text input or moment file)
4     NonFiniteValue / NonFiniteInput
5     InvalidSpec / InvalidRadius
      (also: a file that cannot be read or written)
6     NoCircle / DegenerateData
7     fit finished without converging
8     GradientVanishesAtSample
9     NumericalFailure
10    ``analyze --family`` report whose samples disagree ("mixed") or
      all errored ("inconclusive")
11    ImaginaryRadius
12    DegreeMismatch
13    CenterHitsDataPoint
14    DegenerateInput
141   standard output closed before everything was written
      (broken pipe, as in ``gradfit generate ... | head``)
====  =======================================================

Structured output (``--json``) is byte-identical across runs with the same
seed and flags, apart from the ``*_seconds`` timing fields.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .analyzer import analyze_family, decide_reduction
from .bench import run_bench
from .datagen import SyntheticSpec, generate, ingest, write_points
from .errors import (CenterHitsDataPoint, DegenerateData, DegenerateInput,
                     DegreeMismatch, GradfitError, GradientVanishesAtSample,
                     ImaginaryRadius, InvalidRadius, InvalidSpec, NoCircle,
                     NonFiniteInput, NonFiniteValue, NumericalFailure,
                     ParseError)
from .families import FAMILIES, get_family
from .fitters import (FitConfig, fit_circle_geometric, fit_circle_reduced,
                      fit_conic_reweight)
from .moments import MomentVector
from .poly import format_poly, parse_poly

_EXIT_CODES = {
    ParseError: 3,
    NonFiniteValue: 4,
    NonFiniteInput: 4,
    InvalidSpec: 5,
    InvalidRadius: 5,
    NoCircle: 6,
    DegenerateData: 6,
    GradientVanishesAtSample: 8,
    NumericalFailure: 9,
    ImaginaryRadius: 11,
    DegreeMismatch: 12,
    CenterHitsDataPoint: 13,
    DegenerateInput: 14,
    GradfitError: 1,
}

EXIT_NOT_CONVERGED = 7
EXIT_BROKEN_PIPE = 141  # what a shell reports for a writer killed by SIGPIPE


def exit_code_for(exc: BaseException) -> int:
    for cls in type(exc).__mro__:
        if cls in _EXIT_CODES:
            return _EXIT_CODES[cls]
    return 1


def _emit_json(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------


def _accumulate(points: np.ndarray, degree: int) -> MomentVector:
    """Moments about the centroid. Points whose powers overflow the float
    sums are NonFiniteInput, reported without numpy's overflow warnings."""
    if len(points) == 0:
        raise NoCircle("need at least 3 points, got 0")
    with np.errstate(over="ignore", invalid="ignore"):
        centroid = (float(points[:, 0].mean()), float(points[:, 1].mean()))
        return MomentVector.from_points(points, degree, offset=centroid)


def _cannot(verb: str, path, exc: OSError) -> InvalidSpec:
    return InvalidSpec(f"cannot {verb} {path}: {exc.strerror or exc}")


def _load_moments(path) -> MomentVector:
    """A saved moment file; unreadable is InvalidSpec, malformed ParseError."""
    try:
        return MomentVector.load(path)
    except OSError as exc:
        raise _cannot("read", path, exc) from None
    except (ValueError, KeyError, TypeError, AttributeError,
            RecursionError) as exc:
        # JSON syntax or nesting, a missing field, a wrong format tag or type
        raise ParseError(f"{path}: not a moment file: "
                         f"{type(exc).__name__}: {exc}") from None


def _fit_config(args) -> FitConfig:
    return FitConfig(max_iterations=args.max_iterations,
                     gradient_tol=args.gradient_tol,
                     step_tol=args.step_tol)


def cmd_fit(args) -> int:
    if args.moments:
        if args.algo != "reduced":
            raise InvalidSpec(
                f"--algo {args.algo} reads raw points, not a moment file")
        if args.input:
            raise InvalidSpec("give either a point file or --moments, not both")
        mv = _load_moments(args.moments)
    else:
        if not args.input:
            raise InvalidSpec("no input: give a point file or --moments")
        try:
            points = ingest(args.input)
        except OSError as exc:
            raise _cannot("read", args.input, exc) from None
        mv = _accumulate(points, 4) if args.algo == "reduced" else None

    if args.save_moments:
        if mv is None:
            raise InvalidSpec("--save-moments needs --algo reduced")
        try:
            mv.dump(args.save_moments)
        except OSError as exc:
            raise _cannot("write", args.save_moments, exc) from None

    cfg = _fit_config(args)
    if args.algo == "reduced":
        result = fit_circle_reduced(mv, cfg)
    elif args.algo == "geometric":
        result = fit_circle_geometric(points, cfg=cfg)
    else:
        result = fit_conic_reweight(points, cfg)

    if args.json:
        blob = result.to_dict()
        blob["algorithm"] = args.algo
        _emit_json(blob)
    else:
        print(f"family: {result.family}")
        print(f"algorithm: {args.algo}")
        print(f"converged: {'yes' if result.converged else 'no'}")
        print(f"iterations: {result.iterations}")
        print(f"objective: {result.objective:.12e}")
        print(f"data passes: {result.data_passes}")
        for name, value in result.params.to_dict().items():
            print(f"{name} = {value:.12g}")
    return 0 if result.converged else EXIT_NOT_CONVERGED


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def _print_decision(decision) -> None:
    print("ADMISSIBLE" if decision.admissible else "NOT ADMISSIBLE")
    if decision.witness is not None:
        w = decision.witness
        print(f"witness: x = {w.x}, y = {w.y}")
        print(f"residuals: P {w.residual_P:.3e}, Q {w.residual_Q:.3e}")
    if decision.certificate is not None:
        c = decision.certificate
        print(f"certificate degree: {c.degree}")
        print(f"U = {format_poly(c.U)}")
        print(f"W = {format_poly(c.W)}")
        print(f"identity residual: {c.identity_residual:.3e}")


def cmd_analyze(args) -> int:
    if (args.poly is None) == (args.family is None):
        raise InvalidSpec("give a polynomial or --family, not both or neither")
    if args.poly is not None:
        P = parse_poly(args.poly)
        decision = decide_reduction(P)
        if args.json:
            _emit_json(decision.to_dict())
        else:
            _print_decision(decision)
        return 0
    fam = get_family(args.family)
    rng = np.random.default_rng(args.seed)
    report = analyze_family(fam, args.samples, rng=rng)
    if args.json:
        _emit_json(report.to_dict())
    else:
        print(f"family: {report.family}")
        print(f"samples: {len(report.samples)}")
        print(f"consistent: {'yes' if report.consistent else 'no'}")
        print(f"verdict: {report.verdict}")
        first = report.samples[0]
        if first.witness is not None:
            print(f"sample witness: x = {first.witness.x}, "
                  f"y = {first.witness.y}")
        if first.certificate is not None:
            print(f"sample certificate: W = {format_poly(first.certificate.W)}")
    return 0 if report.verdict in ("admissible", "not_admissible") else 10


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


def _parse_theta(pairs) -> dict:
    theta = {}
    for item in pairs:
        key, eq, value = item.partition("=")
        if not eq or not key:
            raise InvalidSpec(f"expected name=value, got {item!r}")
        try:
            theta[key] = float(value)
        except ValueError:
            raise InvalidSpec(f"parameter {key}: bad number {value!r}") from None
    return theta


def cmd_generate(args) -> int:
    fam = get_family(args.family)
    if args.random_params:
        if args.params:
            raise InvalidSpec("give --params or --random-params, not both")
        theta = fam.sample_theta(np.random.default_rng(args.seed))
    else:
        if not args.params:
            raise InvalidSpec("no parameters: give --params or --random-params")
        theta = _parse_theta(args.params)
    arc = tuple(args.arc) if args.arc else None
    spec = SyntheticSpec(args.family, theta, n=args.n, sigma=args.sigma,
                         arc=arc, seed=args.seed)
    pts = generate(spec)
    if args.json:
        _emit_json({"spec": {"family": spec.family, "theta": dict(spec.theta),
                             "n": spec.n, "sigma": spec.sigma,
                             "arc": list(spec.t_range()), "seed": spec.seed},
                    "points": [[float(x), float(y)] for x, y in pts]})
        return 0
    header = [f"family={args.family} "
              + " ".join(f"{k}={theta[k]:.12g}" for k in fam.param_names),
              f"n={args.n} sigma={args.sigma} seed={args.seed}"]
    if args.output:
        try:
            write_points(args.output, pts, header="\n".join(header))
        except OSError as exc:
            raise _cannot("write", args.output, exc) from None
    else:
        for line in header:
            print(f"# {line}")
        for x, y in pts:
            print(f"{float(x)!r},{float(y)!r}")
    return 0


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def cmd_bench(args) -> int:
    report = run_bench(args.n, repetitions=args.reps, seed=args.seed,
                       sigma=args.sigma)
    if args.json:
        _emit_json(report.to_dict())
    else:
        print(report.table())
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gradfit",
        description="Gradient-weighted algebraic curve fitting tools.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit a curve to points")
    p_fit.add_argument("input", nargs="?", help="CSV file of x,y lines")
    p_fit.add_argument("--algo", default="reduced",
                       choices=("reduced", "geometric", "reweight"))
    p_fit.add_argument("--moments", metavar="FILE",
                       help="fit from a saved moment file instead of points")
    p_fit.add_argument("--save-moments", metavar="FILE",
                       help="serialize the accumulated moments")
    p_fit.add_argument("--max-iterations", type=int,
                       default=FitConfig.max_iterations)
    p_fit.add_argument("--gradient-tol", type=float,
                       default=FitConfig.gradient_tol)
    p_fit.add_argument("--step-tol", type=float, default=FitConfig.step_tol,
                       help="Newton fits stop when a step's largest entry is "
                       "at most STEP_TOL (1 + max |theta|); reweight stops "
                       "when its unit-norm conic moves by at most STEP_TOL")
    p_fit.add_argument("--json", action="store_true")
    p_fit.set_defaults(func=cmd_fit)

    p_an = sub.add_parser("analyze",
                          help="decide gradient-weight reducibility")
    p_an.add_argument("poly", nargs="?",
                      help="polynomial in x and y, e.g. '1 x^2 + 1 y^2 - 1'; "
                      "a decimal is read as the exact value of its double")
    p_an.add_argument("--family", choices=sorted(FAMILIES))
    p_an.add_argument("--samples", type=int, default=5)
    p_an.add_argument("--seed", type=int)
    p_an.add_argument("--json", action="store_true")
    p_an.set_defaults(func=cmd_analyze)

    p_gen = sub.add_parser("generate", help="write synthetic curve samples")
    p_gen.add_argument("--family", default="circle", choices=sorted(FAMILIES))
    p_gen.add_argument("--params", nargs="+", metavar="NAME=VALUE")
    p_gen.add_argument("--random-params", action="store_true")
    p_gen.add_argument("--n", type=int, default=100)
    p_gen.add_argument("--sigma", type=float, default=0.0)
    p_gen.add_argument("--arc", type=float, nargs=2, metavar=("LO", "HI"))
    p_gen.add_argument("--seed", type=int)
    p_gen.add_argument("--output", metavar="FILE")
    p_gen.add_argument("--json", action="store_true")
    p_gen.set_defaults(func=cmd_generate)

    p_bench = sub.add_parser(
        "bench", help="time the reduced, generic and reweight fits")
    p_bench.add_argument("--n", type=int, nargs="+",
                         default=[1000, 10000, 100000])
    p_bench.add_argument("--reps", type=int, default=5)
    p_bench.add_argument("--sigma", type=float, default=0.01)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--json", action="store_true")
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse: 2 on usage error, 0 on --help
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed reader shows here, not at exit
        return code
    except GradfitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exit_code_for(exc)
    except BrokenPipeError:
        # drop what is still buffered, so the flush at exit cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
