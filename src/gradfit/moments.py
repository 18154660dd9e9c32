"""Streaming, mergeable raw-moment accumulation.

A :class:`MomentVector` holds every m[p,q] = sum x^p y^q with p+q <= D for a
dataset, in one pass and constant memory. The circle objective and the generic
reduced objective are both assembled from these sums, so after accumulation
the raw points can be discarded.

Numerical notes:

* floating accumulators use Neumaier compensated summation per slot — the
  fourth-power sums feeding Mzz are the dominant cancellation hazard;
* callers may center the data by a visible ``offset`` (usually the centroid):
  powers are taken of (x - ox, y - oy), which improves the conditioning of
  fourth moments by orders of magnitude, and fits translate their result back.
"""

from __future__ import annotations

import functools
import json
import math
import re
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import DegreeMismatch, InvalidSpec, NonFiniteInput
from .poly import monomial_index, monomials

_CHUNK = 1 << 16
# chunks of at most this many points gather each key's powers u^p and v^q
# into two (K, k) blocks and multiply those in one call; longer chunks form
# the products one row block per power of u, which copies nothing. At D = 4
# (from_points, interleaved in-process medians on 2 cores) the gather takes
# 0.8-0.9 of the row blocks' time from 384 to 1230 points (32 vs 39 us at
# 384, 59 vs 75 at 1024), then 2.8 times theirs from 1260 on (183 vs 65
# us); 1024 leaves a margin below that step. All give the same bits
_GATHER_MAX = 1024

FORMAT_TAG = "moment-vector/1"

_EPS = 2.0 ** -52
# the central moments' rounding in units of eps (sigma + rho)^d (see
# ``MomentVector.central_circle_view``): over 1000 arcs of 0.2 rad to 2 pi,
# 20 to 3000 points and centroids 0.5 to 1e4 radii from the offset, the
# largest error measured against exact arithmetic was 13.3 units
_CENTRAL_ROUNDING = 32.0


class _Layout(NamedTuple):
    """What every accumulator of degree D shares, so all of it read-only:
    its moment keys ``monomials(D)`` and their ``index``, and the powers
    ``p`` and ``q`` of u and v in each key."""

    keys: tuple
    index: object
    p: np.ndarray
    q: np.ndarray


@functools.cache
def _layout(D: int) -> _Layout:
    keys = monomials(D)
    p = np.array([p for p, _ in keys], dtype=np.intp)
    q = np.array([q for _, q in keys], dtype=np.intp)
    p.flags.writeable = q.flags.writeable = False
    return _Layout(keys, monomial_index(D), p, q)


class CentralCircleView(NamedTuple):
    """The statistics of the circle fits about the data's centroid.

    ``centroid`` is the data's mean point; ``central`` holds the mean
    central moments (Mxx, Myy, Mxy, Mxz, Myz, Mzz), z = x^2 + y^2; each
    entry of ``rounding`` bounds the rounding that the shift from the
    accumulator's offset to the centroid adds to the matching central
    moment, which grows with the distance between the two."""

    n: int
    centroid: tuple
    central: tuple
    rounding: tuple


def _add_compensated(s: np.ndarray, c: np.ndarray, vals: np.ndarray):
    """The running sums ``s`` plus ``vals`` and the compensations ``c`` plus
    the rounding error of each addition (Neumaier), as new arrays; ``s`` and
    ``c`` are left as they are. NonFiniteInput if a sum or a compensation
    overflows (numpy warns of it first)."""
    t = s + vals
    c = c + np.where(np.abs(s) >= np.abs(vals), (s - t) + vals, (vals - t) + s)
    if not (np.isfinite(t).all() and np.isfinite(c).all()):
        raise NonFiniteInput("the moment sums overflow")
    return t, c


class MomentVector:
    """Accumulator for raw moments up to a fixed total degree.

    Single-writer: accumulate/extend mutate in place and return self.
    Concurrent ingestion should use one accumulator per worker and ``merge``.
    """

    __slots__ = ("max_total_degree", "offset", "n", "_sum", "_comp")

    def __init__(self, max_total_degree: int, offset=(0.0, 0.0)):
        if max_total_degree < 0:
            raise ValueError("max_total_degree must be nonnegative")
        self.max_total_degree = int(max_total_degree)
        ox, oy = offset
        if not (math.isfinite(ox) and math.isfinite(oy)):
            raise NonFiniteInput("offset must be finite")
        self.offset = (float(ox), float(oy))
        self.n = 0
        self._sum = np.zeros(len(_layout(self.max_total_degree).keys))
        self._comp = np.zeros(len(self._sum))

    # -- ingestion ----------------------------------------------------------

    def accumulate(self, x: float, y: float) -> "MomentVector":
        """Absorb one point; every m[p,q] grows by x^p y^q."""
        return self._absorb(np.array([[x], [y]], dtype=float))

    def extend(self, xs, ys) -> "MomentVector":
        """Absorb the points (xs[i], ys[i]), both of any shape with the same
        number of entries; equals repeated ``accumulate`` within roundoff,
        and bit for bit equals ``from_points`` of the same points."""
        xs = np.asarray(xs, dtype=float).ravel()
        ys = np.asarray(ys, dtype=float).ravel()
        if xs.shape != ys.shape:
            raise ValueError("xs and ys must have equal length")
        return self._absorb(np.stack((xs, ys)))

    def _absorb(self, xy: np.ndarray) -> "MomentVector":
        """Absorb the points of the (2, n) float array ``xy`` (x in row 0,
        y in row 1; a transposed (n, 2) array is not copied).

        Per chunk of ``_CHUNK`` points, the powers of (u, v) = (x, y) minus
        the offset form one (D+1, 2, k) block, row j the product of row j-1
        and row 1, and each moment's products u^p v^q are one contiguous
        row summed pairwise on its own, exactly as ``np.sum`` of that
        product would be.

        The chunks' sums are added with compensation, except a chunk into
        an accumulator whose sums and compensations are all zero (an empty
        one, but not one loaded with n = 0 and some sums): 0 + s is exact
        and leaves every compensation 0, so those sums are copied.
        NonFiniteInput, with the accumulator unchanged, if a coordinate is
        not finite or the points' powers overflow a sum, or adding them
        overflows the accumulator's (numpy warns of the overflow first)."""
        if not np.isfinite(xy).all():
            raise NonFiniteInput("non-finite coordinate in the points")
        D = self.max_total_degree
        n = xy.shape[1]
        offset = np.array(self.offset).reshape(2, 1)
        layout = _layout(D)
        width, K = min(n, _CHUNK), len(layout.keys)
        # one allocation for the power block and the product rows: as two,
        # malloc gave their pages back and faulted them in again on every
        # call at some sizes (97 faults per 2000-point call at D = 4)
        block = np.empty((2 * (D + 1) + K) * width)
        powers = block[:2 * (D + 1) * width].reshape(D + 1, 2, width)
        rows = block[2 * (D + 1) * width:].reshape(K, width)
        chunks = []
        for lo in range(0, n, _CHUNK):
            k = min(n - lo, _CHUNK)
            P = powers[:, :, :k]
            P[0] = 1.0
            if D:
                np.subtract(xy[:, lo:lo + k], offset, out=P[1])
            for j in range(2, D + 1):
                np.multiply(P[j - 1], P[1], out=P[j])
            if k <= _GATHER_MAX:
                sums = (P[layout.p, 0] * P[layout.q, 1]).sum(axis=1)
            else:
                lo_row = 0
                for p in range(D + 1):
                    np.multiply(P[p, 0], P[:D + 1 - p, 1],
                                out=rows[lo_row:lo_row + D + 1 - p, :k])
                    lo_row += D + 1 - p
                sums = rows[:, :k].sum(axis=1)
            if not np.isfinite(sums).all():
                raise NonFiniteInput("the points' powers overflow the "
                                     "float moment sums")
            chunks.append(sums)
        # every addition makes new arrays, assigned once all chunks are in
        s, c = self._sum, self._comp
        for sums in chunks:
            if np.count_nonzero(s) or np.count_nonzero(c):
                s, c = _add_compensated(s, c, sums)
            else:
                s = s + sums
        self._sum, self._comp = s, c
        self.n += n
        return self

    @classmethod
    def from_points(cls, points, max_total_degree: int,
                    offset=(0.0, 0.0)) -> "MomentVector":
        """An accumulator of ``points``: an (n, 2) array or a list of
        (x, y) pairs, or one (x, y) pair. InvalidSpec for any other shape;
        an empty input gives an empty accumulator."""
        mv = cls(max_total_degree, offset=offset)
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1 and pts.size in (0, 2):
            pts = pts.reshape(-1, 2)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise InvalidSpec(f"expected an (n, 2) point array, got {pts.shape}")
        return mv._absorb(pts.T)

    # -- merging ------------------------------------------------------------

    def merge(self, other: "MomentVector") -> "MomentVector":
        """Entrywise sum of two accumulators over the same degree and offset."""
        if self.max_total_degree != other.max_total_degree:
            raise DegreeMismatch(f"cannot merge D={self.max_total_degree} "
                                 f"with D={other.max_total_degree}")
        if self.offset != other.offset:
            raise ValueError("cannot merge accumulators with different offsets")
        out = MomentVector(self.max_total_degree, offset=self.offset)
        out.n = self.n + other.n
        s, c = _add_compensated(self._sum, self._comp, other._sum)
        out._sum, out._comp = _add_compensated(s, c, other._comp)
        return out

    # -- views --------------------------------------------------------------

    def entry(self, p: int, q: int):
        """The accumulated sum of x^p y^q (in centered coordinates)."""
        i = _layout(self.max_total_degree).index.get((int(p), int(q)))
        if i is None:
            raise DegreeMismatch(f"moment ({p},{q}) exceeds max_total_degree")
        return self._sum[i] + self._comp[i]

    def central_circle_view(self) -> "CentralCircleView":
        """The circle statistics about the data's centroid, computed from
        the float sums by the binomial shift, and a bound on the rounding
        each central moment carries (see ``CentralCircleView``)."""
        if self.max_total_degree < 4:
            raise DegreeMismatch("circle view needs moments of total degree 4")
        if self.n == 0:
            raise ValueError("empty accumulator has no centroid")
        sums = (self._sum + self._comp).tolist()
        at = _layout(self.max_total_degree).index
        n = self.n
        cx = sums[at[1, 0]] / n
        cy = sums[at[0, 1]] / n
        x2, xy, y2 = (sums[at[2, 0]] / n, sums[at[1, 1]] / n,
                      sums[at[0, 2]] / n)
        xz = (sums[at[3, 0]] + sums[at[1, 2]]) / n
        yz = (sums[at[2, 1]] + sums[at[0, 3]]) / n
        zz = (sums[at[4, 0]] + 2.0 * sums[at[2, 2]] + sums[at[0, 4]]) / n
        k = cx * cx + cy * cy
        s2 = x2 + y2
        central = (
            x2 - cx * cx,
            y2 - cy * cy,
            xy - cx * cy,
            xz - 2.0 * (cx * x2 + cy * xy) - cx * s2 + 2.0 * k * cx,
            yz - 2.0 * (cx * xy + cy * y2) - cy * s2 + 2.0 * k * cy,
            (zz - 4.0 * (cx * xz + cy * yz)
             + 4.0 * (cx * cx * x2 + 2.0 * cx * cy * xy + cy * cy * y2)
             + 2.0 * k * s2 - 3.0 * k * k),
        )
        # the sums of degree d about the offset, and so the central moments
        # shifted from them, carry rounding of a small multiple of
        # eps (sigma + rho)^d, where sigma is the RMS distance from the
        # centroid and rho the centroid's distance from the offset; the
        # shift adds all of it beyond the eps sigma^d of a centred sum
        sigma = math.sqrt(max(central[0] + central[1], 0.0))
        rho = math.sqrt(k)
        unit = _CENTRAL_ROUNDING * _EPS
        try:
            r2 = unit * ((sigma + rho) ** 2 - sigma ** 2)
            r3 = unit * ((sigma + rho) ** 3 - sigma ** 3)
            r4 = unit * ((sigma + rho) ** 4 - sigma ** 4)
        except OverflowError:
            raise NonFiniteInput("shifting the moments to the centroid "
                                 "overflows float arithmetic") from None
        rounding = (r2, r2, r2, r3, r3, r4)
        return CentralCircleView(n, (cx + self.offset[0], cy + self.offset[1]),
                                 central, rounding)

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        sums = (self._sum + self._comp).tolist()
        return {
            "format": FORMAT_TAG,
            "max_total_degree": self.max_total_degree,
            "n": self.n,
            "offset": list(self.offset),
            "exact": False,
            "entries": [[p, q, m] for (p, q), m in
                        zip(_layout(self.max_total_degree).keys, sums)],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "MomentVector":
        """The accumulator a ``to_dict`` record describes; ValueError naming
        the field or the moment unless it lists every moment of its degree
        once, finite. An ``"exact": true`` record's ``"num/den"`` moments are
        read as their nearest doubles."""
        if d.get("format") != FORMAT_TAG:
            raise ValueError(f"not a {FORMAT_TAG} record")
        offset = d["offset"]
        if type(offset) is not list or len(offset) != 2:
            raise ValueError(f"offset must be two numbers, got {offset!r}")
        D = _field(d, "max_total_degree", int)
        offset = tuple(_number("offset", v) for v in offset)
        exact = _field(d, "exact", bool)
        n = _field(d, "n", int)
        values = {}
        for p, q, val in d["entries"]:
            key = (p, q)
            if not all(type(e) is int and e >= 0 for e in key):
                raise ValueError(f"moment {key}: exponents must be integers "
                                 f">= 0")
            if p + q > D:
                raise ValueError(f"moment {key} exceeds max_total_degree {D}")
            if key in values:
                raise ValueError(f"moment {key} appears more than once")
            if exact:
                ratio = re.fullmatch(r"(-?\d+)/(\d+)", str(val))
                if ratio is None or int(ratio[2]) == 0:
                    raise ValueError(f"moment {key} must be 'num/den' with "
                                     f"den > 0, got {val!r}")
                val = Fraction(int(ratio[1]), int(ratio[2]))
            values[key] = _number(f"moment {key}", val)
        # the keys are distinct and within the degree, so if one is missing
        # the walk in key order meets it within len(values) + 1 steps
        if len(values) < (D + 1) * (D + 2) // 2:
            missing = next((p, q) for p in range(D + 1)
                           for q in range(D + 1 - p) if (p, q) not in values)
            raise ValueError(f"moment {missing} is missing")
        mv = cls(D, offset=offset)
        mv.n = n
        mv._sum[:] = [values[k] for k in _layout(D).keys]
        return mv

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=1)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "MomentVector":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def __repr__(self):
        return (f"MomentVector(D={self.max_total_degree}, n={self.n}, "
                f"offset={self.offset})")


def _field(d: dict, name: str, kind: type):
    """The record's field ``name``: a JSON boolean if ``kind`` is bool, an
    integer >= 0 if it is int (by exact type, as True is an int too)."""
    value = d[name]
    if type(value) is not kind or (kind is int and value < 0):
        want = "true or false" if kind is bool else "an integer >= 0"
        raise ValueError(f"{name} must be {want}, got {value!r}")
    return value


def _number(name: str, value) -> float:
    """A finite number (a bool is not one), an integer or a Fraction as its
    nearest double; beyond the float range, named without its digits."""
    if isinstance(value, bool) or not isinstance(value, (int, float, Fraction)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:
        raise ValueError(f"{name} is beyond the float range") from None
    if not math.isfinite(x):
        raise ValueError(f"{name} is not finite: {value!r}")
    return x

