"""Case studies: which curve families admit a data-independent gradient weight.

For each registered family this script asks the analyzer whether the
gradient-weight normalization can be replaced by a polynomial weight W with
U*P + W*Q = 1 (Q the squared gradient).  Circles and lines admit such a
weight; the noncircular conics instead produce a complex point where P and Q
vanish together, which blocks any polynomial reduction.  For the conics the
witness is compared against its closed form.

Usage:
    python scripts/conic_case_studies.py [--seed 7] [--samples 4]
"""

import argparse
import sys

import numpy as np

from gradfit.analyzer import decide_reduction
from gradfit.families import get_family


def rounded(P):
    """P's terms, each coefficient rounded to 6 significant digits."""
    terms = [f"{float(c):+.6g}" + "".join(f" {v}^{e}" for v, e in zip("xy", k)
                                          if e)
             for k, c in sorted(P.terms.items(), reverse=True)]
    return " ".join(terms).lstrip("+") or "0"


def study_admissible(name, rng, samples):
    fam = get_family(name)
    print(f"== {name}: reducible ==")
    for _ in range(samples):
        theta = fam.sample_theta(rng)
        decision = decide_reduction(fam.poly(theta))
        shown = " ".join(f"{k}={theta[k]:.3f}" for k in fam.param_names)
        cert = decision.certificate
        print(f"  {shown}")
        print(f"    admissible={decision.admissible}  "
              f"residual={cert.identity_residual}")
        print(f"    W = {rounded(cert.W)}   U = {rounded(cert.U)}")
    print()


def study_blocked(name, rng, samples):
    fam = get_family(name)
    print(f"== {name}: not reducible ==")
    for _ in range(samples):
        theta = fam.sample_theta(rng)
        decision = decide_reduction(fam.poly(theta))
        shown = " ".join(f"{k}={theta[k]:.3f}" for k in fam.param_names)
        w = decision.witness
        print(f"  {shown}")
        if w is None:
            print(f"    admissible={decision.admissible}  decided by the "
                  "ideal test; no witness found")
            continue
        print(f"    admissible={decision.admissible}  "
              f"witness x={w.x:.6g} y={w.y:.6g}")
        if name in ("ellipse", "hyperbola"):
            a, b, c = theta["a"], theta["b"], theta["c"]
            closed = b * c / (a * (a - b))
            print(f"    x^2 = {w.x ** 2:.6g}   closed form bc/(a(a-b)) "
                  f"= {closed:.6g}   gap {abs(w.x ** 2 - closed):.2e}")
        else:  # parabola y = c x^2 pins the witness completely
            c = theta["c"]
            print(f"    closed form (i/(2c), -1/(4c)) = "
                  f"({1j / (2 * c):.6g}, {-1 / (4 * c):.6g})")
    print()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--samples", type=int, default=3)
    args = ap.parse_args(argv)
    rng = np.random.default_rng(args.seed)

    study_admissible("circle", rng, args.samples)
    study_admissible("line", rng, args.samples)
    study_blocked("ellipse", rng, args.samples)
    study_blocked("hyperbola", rng, args.samples)
    study_blocked("parabola", rng, args.samples)
    print("summary: the weight 1/||gradient||^2 collapses to a constant only "
          "when the")
    print("gradient norm is constant on the curve -- circles and lines; every")
    print("noncircular conic hits a common zero of P and its squared gradient.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
