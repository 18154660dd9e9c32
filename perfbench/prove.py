"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the root of a source checkout:
    python3 perfbench/prove.py --seeds 10 [--workloads csv_1e6 ...] [--out FILE]

For every workload and end-to-end metric this prints the median of the runs
and the distance between the first and third quartile as a share of the
median (``statistics.quantiles(values, n=4)``), next to a third of the
metric's bound from BENCHMARK.json, the spread the benchmark is tuned to stay
under. One traced run per workload, at the first seed, adds the per-layer
metrics. ``--out`` writes the same table, with every run's values, as JSON.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", nargs="+",
                    default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--out")
    args = ap.parse_args(argv)

    def run(name, seed, trace):
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
             "--trace", str(trace)],
            capture_output=True, text=True, check=True).stdout
        lines = out.strip().splitlines()
        result = json.loads(lines[-1])
        if not result["correct"]:
            raise SystemExit(f"{name} seed {seed}: incorrect output")
        return json.loads(lines[-2])["info"], result

    table = {}
    steady = True
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    for name in args.workloads:
        runs, failed = [], []
        for seed in seeds:
            info, result = run(name, seed, 0)
            runs.append({k: v["value"] for k, v in result["metrics"].items()})
            failed.append(result["failed"])
        _, traced = run(name, args.first_seed, 1)
        rows = {"failed": failed,
                "traced": {k: v["value"] for k, v in traced["metrics"].items()}}
        for metric in spec["end_to_end"]:
            values = [r[metric["name"]] for r in runs]
            q1, _, q3 = quantiles(values, n=4)
            spread = (q3 - q1) / median(values)
            ok = spread < metric["bound"] / 3
            steady = steady and ok
            rows[metric["name"]] = {"median": median(values), "q1": q1, "q3": q3,
                                    "spread": spread, "values": values}
            print(f"{name:12s} {metric['name']:12s} median {median(values):.6g} "
                  f"{metric['unit']:4s} spread {spread:.4f} "
                  f"(bound/3 {metric['bound'] / 3:.4f}){'' if ok else '  WIDE'}",
                  flush=True)
        table[name] = rows
    if args.out:
        env = {k: info.get(k) for k in ("commit", "source_sha256", "nproc",
                                        "python", "numpy", "blas_threads")}
        Path(args.out).write_text(json.dumps(
            {"environment": env, "run_seconds": spec["run_seconds"],
             "seeds": list(seeds),
             "workloads": table}, indent=1) + "\n")
    return 0 if steady else 3


if __name__ == "__main__":
    sys.exit(main())
