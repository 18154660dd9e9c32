"""One workload in a fresh interpreter: import, report readiness, then run.

Started by run.py:
    python3 perfbench/worker.py SRC IMPORTS ready
    python3 perfbench/worker.py SRC IMPORTS run WORKLOAD WORKDIR SECONDS TRACE

The first line printed is the monotonic clock right after the program's
modules (``IMPORTS``, comma-separated, found under ``SRC``) are imported;
run.py subtracts the time it started the process, which gives the set-up
time. In ``run`` mode the worker then loads the prepared inputs, runs the
timed phase (see measure.py) and prints its summary as one JSON line.
"""

import importlib
import json
import sys
import time
from pathlib import Path


def main(argv) -> int:
    sys.path.insert(0, argv[1])
    for mod in argv[2].split(","):
        importlib.import_module(mod)
    print(time.monotonic(), flush=True)
    if argv[3] == "ready":
        return 0
    # the benchmark's own modules come after the ready line, so that set-up
    # time holds the program's imports and nothing else
    import measure
    from workloads import WORKLOADS
    name, work, seconds, trace = argv[4], Path(argv[5]), float(argv[6]), argv[7] == "1"
    wl = WORKLOADS[name]
    inputs = wl.load(work)
    result = (measure.run_traced(wl, inputs, seconds, work) if trace
              else measure.run_untraced(wl, inputs, seconds))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
