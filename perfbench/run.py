"""Benchmark of gradfit, driven from outside through its public functions.

Usage, from the root of a source checkout:
    python3 perfbench/run.py --workload csv_1e6 --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json and perfbench/README.md): csv_1e6, arcs_small,
certify_fit. This process makes the seeded inputs, measures set-up time over
several fresh interpreters, then runs the timed phase in one more fresh
interpreter (worker.py) and checks its outputs. With ``--trace 0`` the last
line of output holds the end-to-end metrics, with times given at a fixed
machine speed (reference.py); with ``--trace 1`` it holds the
per-layer metrics of a traced run. The line before it records the
environment, the input fingerprint, the failure share and the raw times.

The program is imported from ``src/`` of the current directory; without it
the benchmark exits with status 2 and prints no result.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import numpy as np

import reference
import spans
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SETUP_RUNS = 5        # fresh interpreters timed for setup_s before and after
                      # the timed phase
DEADLINE_S = 170.0    # the whole invocation must end within 180 s
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _commit(root: Path):
    """HEAD of the checkout's git repository, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((src / "gradfit").rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _worker(src, wl, *rest):
    return [sys.executable, str(HERE / "worker.py"), str(src), wl.imports, *rest]


def _setup_seconds(cmd, env, deadline, runs) -> tuple:
    """Set-up times of ``runs`` fresh interpreters, raw and at the reference
    speed (reference.py), which is sampled between them."""
    refs, raw = [reference.sample()], []
    for _ in range(runs):
        start = time.monotonic()
        done = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              check=True, timeout=deadline - start)
        raw.append(float(done.stdout.split("\n", 1)[0]) - start)
        refs.append(reference.sample())
    return raw, [t * reference.scale(refs[k], refs[k + 1]) for k, t in enumerate(raw)]


def _run_worker(cmd, env, deadline):
    """The worker's summary."""
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=deadline - time.monotonic())
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with status {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def _metrics(names_units, values) -> dict:
    missing = [name for name, _ in names_units if name not in values]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    return {name: {"value": values[name], "unit": unit} for name, unit in names_units}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    root = Path.cwd()
    src = root / "src"
    if not (src / "gradfit" / "__init__.py").is_file():
        print(f"error: no gradfit sources under {src}", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    wl = WORKLOADS[args.workload]
    env = dict(os.environ)
    for var in BLAS_VARS:
        env.setdefault(var, "1")

    base = root / ".perfbench_work"
    work = base / f"{wl.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        digests = wl.prepare(args.seed, work)
        run_cmd = _worker(src, wl, "run", wl.name, str(work), str(args.seconds),
                          str(args.trace))
        if args.trace:
            result = _run_worker(run_cmd, env, deadline)
            shutil.copyfile(work / "spans.jsonl", base / f"spans-{wl.name}.jsonl")
            values = {"datagen.ingest_peak_mb": 0.0,  # csv_1e6 alone ingests
                      **spans.layer_metrics(spans.load(work / "spans.jsonl"),
                                            result["ops_per_pass"]),
                      **result["extra"],
                      "tracing.overhead_s": (result["traced_op_p50_s"]
                                             - result["untraced_op_p50_s"])}
            metrics = _metrics([(m["name"], m["unit"]) for m in spec["per_layer"]],
                               values)
        else:
            # set-up samples are spread over the whole run, so that a slow or
            # fast spell of the machine does not decide their median alone
            ready = _worker(src, wl, "ready")
            _setup_seconds(ready, env, deadline, 1)  # warm-up: bytecode caches
            raw, setup = _setup_seconds(ready, env, deadline, SETUP_RUNS)
            result = _run_worker(run_cmd, env, deadline)
            raw_after, setup_after = _setup_seconds(ready, env, deadline, SETUP_RUNS)
            raw, setup = raw + raw_after, setup + setup_after
            values = dict(result["metrics"], setup_s=median(setup))
            result["raw"]["setup_s"] = median(raw)
            result["setup_samples_s"] = setup
            metrics = _metrics([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                               values)
    except (OSError, RuntimeError, ValueError, subprocess.SubprocessError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    info = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas_threads": {var: env[var] for var in BLAS_VARS},
        "commit": _commit(root), "source_sha256": _source_sha256(src),
        "inputs": len(digests),
        "inputs_sha256": hashlib.sha256("".join(digests).encode()).hexdigest(),
        "error_rate": result["failed"] / result["attempted"],
        **{k: v for k, v in result.items() if k not in ("metrics", "extra")},
    }
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": result["wrong"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
