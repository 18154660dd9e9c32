"""Machine-speed reference: fixed pure-Python work timed beside the program.

A shared virtual machine changes speed with its neighbours' load: a fixed
loop can take 1.7 times as long in one minute as in the next. Timed runs of
the same code minutes apart then differ by more than any change worth
measuring. So the benchmark times this reference between blocks of
operations (and around each set-up sample), and gives every time at the
reference speed: a time ``t`` measured while the reference took ``r``
seconds is reported as ``t * NOMINAL_S / r``, the time it would take on a
machine where the reference takes ``NOMINAL_S``. The raw times are printed
beside the scaled ones.

The work is parsing text lines into float pairs and summing over them,
close to what the program's CSV ingest and its Python-level fitting loops
spend their time on.
"""

import time
from statistics import median

NOMINAL_S = 0.02    # about the reference's time on a 2.1 GHz Xeon vCPU
REPS = 3            # timings per sample; the sample is their median

_LINES = [f"{(i * 0.6180339887498949) % 1.0!r},{(i * 0.41421356237309503) % 1.0 - 0.5!r}"
          for i in range(20_000)]


def _work() -> float:
    pts = []
    for line in _LINES:
        x, y = line.split(",")
        pts.append((float(x), float(y)))
    total = 0.0
    for x, y in pts:
        total += x * x - y * y
    return total


def sample() -> float:
    """Seconds the reference work takes now: the median of ``REPS`` timings."""
    times = []
    for _ in range(REPS):
        t0 = time.perf_counter()
        _work()
        times.append(time.perf_counter() - t0)
    return median(times)


def scale(before: float, after: float) -> float:
    """Factor taking times measured between two samples to the reference speed."""
    return NOMINAL_S / ((before + after) / 2.0)
