"""Synthetic data generation and text ingestion.

Noise model: exact points on the curve, sampled uniformly in the natural
parameter over the requested arc, plus i.i.d. isotropic Gaussian offsets of
standard deviation sigma per coordinate. The generator is numpy's seeded
PCG64 (``np.random.default_rng``), so a fixed seed reproduces the point set
bit for bit across runs.

Text format: UTF-8, one ``x,y`` pair per line; ``#`` starts a comment
(full-line or trailing); blank lines are skipped. ``ingest`` returns the
points as an (n, 2) float64 array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpec, NonFiniteValue, ParseError
from .families import get_family


@dataclass(frozen=True)
class SyntheticSpec:
    family: str
    theta: dict
    n: int
    sigma: float = 0.0
    arc: tuple | None = None  # (t_lo, t_hi); None = family default
    seed: int | None = None

    def __post_init__(self):
        fam = get_family(self.family)  # raises InvalidSpec for unknown names
        fam.validate(self.theta)
        if self.n < 1:
            raise InvalidSpec(f"need at least one point, got n={self.n}")
        if not (self.sigma >= 0.0 and math.isfinite(self.sigma)):
            raise InvalidSpec(f"noise level must be finite and >= 0, "
                              f"got {self.sigma}")
        if self.arc is not None:
            lo, hi = self.arc
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise InvalidSpec(f"arc range must be finite with lo < hi, "
                                  f"got {self.arc}")

    def t_range(self) -> tuple:
        return self.arc if self.arc is not None \
            else get_family(self.family).t_range


def generate(spec: SyntheticSpec) -> np.ndarray:
    """Points of shape (n, 2), deterministic for a given seed."""
    fam = get_family(spec.family)
    rng = np.random.default_rng(spec.seed)
    lo, hi = spec.t_range()
    pts = np.column_stack(fam.point_at(spec.theta, rng.uniform(lo, hi, spec.n)))
    if spec.sigma > 0.0:
        pts = pts + rng.normal(0.0, spec.sigma, size=pts.shape)
    return pts


# Text handed to numpy per call: about 25,000 lines of ``x,y``. A chunk numpy
# refuses is parsed again line by line, so this also bounds what one such
# line costs.
_CHUNK_CHARS = 1 << 20


def ingest(path) -> np.ndarray:
    """Parse a point-per-line text file into an (n, 2) float64 array.

    The file is read once, front to back, so pipes and FIFOs work as well as
    regular files. Each chunk of about ``_CHUNK_CHARS`` characters goes to
    numpy's C reader; every value it reads, ``float`` reads the same. A chunk
    it refuses (a parse error, no data, other than two columns, a non-finite
    value, undecodable bytes) is parsed again by the line parser, which
    returns the same points or raises ParseError / NonFiniteValue with the
    line number in the file. Only that chunk pays for the slow parse. The
    file is opened here, not by numpy, which would also decompress ``.gz``
    names and fetch URLs.
    """
    parts, done = [], 0
    # undecodable bytes survive as lone surrogates, so universal newlines
    # still number the lines and the bad one is reported by number
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        while lines := fh.readlines(_CHUNK_CHARS):
            pts = _read_chunk(lines)
            parts.append(pts if pts is not None
                         else _parse_lines(lines, path, done))
            done += len(lines)
    return np.concatenate([np.empty((0, 2)), *parts])


def _read_chunk(lines):
    """numpy's reading of ``lines``, or None unless it is certainly the
    line parser's."""
    text = "".join(lines)
    if not text.isascii():
        try:
            text.encode("utf-8")  # numpy would skip bad bytes in a comment
        except UnicodeEncodeError:
            return None
    if not any(ln.split("#", 1)[0].strip() for ln in lines):
        return None  # numpy warns on input without data
    try:
        pts = np.loadtxt(lines, delimiter=",", comments="#", dtype=float,
                         ndmin=2)
    except ValueError:
        return None
    return pts if pts.shape[1] == 2 and np.isfinite(pts).all() else None


def _parse_lines(lines, path, done=0) -> np.ndarray:
    """The reference parser behind ``ingest``: one ``float`` pair per line.

    ``lines`` come from a text file opened with ``errors="surrogateescape"``
    and follow the first ``done`` lines of ``path``, which names the file
    in error messages.
    """
    points = []
    for lineno, raw in enumerate(lines, start=done + 1):
        if not raw.isascii():
            try:
                raw.encode("utf-8")
            except UnicodeEncodeError:
                bad = raw.encode("utf-8", "surrogateescape").strip()
                raise ParseError(f"{path}: line {lineno}: not UTF-8 "
                                 f"text: {bad!r}") from None
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != 2:
            raise ParseError(
                f"{path}: line {lineno}: expected 'x,y', got {raw.strip()!r}")
        try:
            x, y = float(fields[0]), float(fields[1])
        except ValueError:
            raise ParseError(
                f"{path}: line {lineno}: not a number pair: "
                f"{raw.strip()!r}") from None
        if not (math.isfinite(x) and math.isfinite(y)):
            raise NonFiniteValue(
                f"{path}: line {lineno}: non-finite value {raw.strip()!r}")
        points.append((x, y))
    return np.array(points, dtype=float).reshape(-1, 2)


def write_points(path, points, header: str | None = None) -> None:
    """Write points as ``x,y`` lines; the optional header becomes a comment."""
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            for ln in header.splitlines():
                fh.write(f"# {ln}\n")
        for x, y in np.asarray(points, dtype=float):
            fh.write(f"{float(x)!r},{float(y)!r}\n")
