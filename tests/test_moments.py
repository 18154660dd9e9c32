"""Moment accumulation: single-pass sums, merging, z-views, serialization."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradfit.errors import DegreeMismatch, InvalidSpec, NonFiniteInput
from gradfit.moments import (_CHUNK, _SQUARE_MAX, MomentVector,
                             _add_compensated, _square_at, merge)
from gradfit.poly import BivariatePoly, monomial_index, monomials


def test_keys_cover_total_degree_simplex():
    keys = monomials(2)
    assert keys == ((0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0))
    assert [monomial_index(2)[k] for k in keys] == list(range(len(keys)))


def test_single_point_powers_of_one_and_zero():
    mv = MomentVector(4).accumulate(1.0, 0.0)
    for p in range(5):
        assert mv.entry(p, 0) == 1.0
    for (p, q) in monomials(4):
        if q > 0:
            assert mv.entry(p, q) == 0.0
    assert mv.entry(0, 0) == mv.n == 1


def test_single_point_direct_arithmetic():
    mv = MomentVector(2).accumulate(2.0, 3.0)
    assert mv.entry(1, 0) == 2
    assert mv.entry(0, 1) == 3
    assert mv.entry(2, 0) == 4
    assert mv.entry(1, 1) == 6
    assert mv.entry(0, 2) == 9


def test_symmetric_pair_cancels_odd_moments():
    mv = MomentVector(2).accumulate(1.0, 0.0).accumulate(-1.0, 0.0)
    assert mv.entry(1, 0) == 0.0
    assert mv.entry(2, 0) == 2.0


def test_count_tracks_entry_00():
    mv = MomentVector(3)
    rng = np.random.default_rng(0)
    mv.extend(rng.normal(size=100), rng.normal(size=100))
    assert mv.n == 100
    assert mv.entry(0, 0) == 100.0


def test_rejects_non_finite():
    mv = MomentVector(2)
    with pytest.raises(NonFiniteInput):
        mv.accumulate(float("nan"), 0.0)
    with pytest.raises(NonFiniteInput):
        mv.extend([1.0, float("inf")], [0.0, 0.0])


# -- merge ------------------------------------------------------------------

def test_merge_empty_is_identity():
    rng = np.random.default_rng(1)
    mv = MomentVector(3).extend(rng.normal(size=20), rng.normal(size=20))
    out = merge(mv, MomentVector(3))
    for k in monomials(3):
        assert out.entry(*k) == pytest.approx(mv.entry(*k), rel=1e-15, abs=1e-15)
    assert out.n == mv.n


def test_merge_of_single_points_equals_two_point_accumulator():
    a = MomentVector(4).accumulate(0.3, -1.2)
    b = MomentVector(4).accumulate(2.5, 0.7)
    both = MomentVector(4).accumulate(0.3, -1.2).accumulate(2.5, 0.7)
    m = merge(a, b)
    for k in monomials(4):
        assert m.entry(*k) == pytest.approx(both.entry(*k), rel=1e-14, abs=1e-14)
    assert m.n == 2


def test_merge_degree_mismatch():
    with pytest.raises(DegreeMismatch):
        merge(MomentVector(2), MomentVector(3))


def test_merge_offset_mismatch():
    with pytest.raises(ValueError):
        merge(MomentVector(2, offset=(1.0, 0.0)), MomentVector(2))


@given(st.lists(st.tuples(st.integers(-5, 5), st.integers(-5, 5)), max_size=12),
       st.lists(st.tuples(st.integers(-5, 5), st.integers(-5, 5)), max_size=12))
@settings(max_examples=40)
def test_merge_commutes_exactly_in_exact_mode(pts_a, pts_b):
    a = MomentVector(4, exact=True)
    b = MomentVector(4, exact=True)
    for x, y in pts_a:
        a.accumulate(x, y)
    for x, y in pts_b:
        b.accumulate(x, y)
    ab, ba = merge(a, b), merge(b, a)
    assert all(ab.entry(*k) == ba.entry(*k) for k in monomials(4))
    assert ab.n == ba.n


def test_float_permutation_stability():
    rng = np.random.default_rng(42)
    xs = rng.normal(scale=3.0, size=500)
    ys = rng.normal(scale=3.0, size=500)
    fwd = MomentVector(4).extend(xs, ys)
    perm = rng.permutation(500)
    rev = MomentVector(4).extend(xs[perm], ys[perm])
    for k in monomials(4):
        a, b = fwd.entry(*k), rev.entry(*k)
        assert abs(a - b) <= 1e-12 * max(1.0, abs(a))


def _per_key_reference(xs, ys, D, offset, chunk):
    """Sums and compensations as extend computed them before the power
    block: one np.sum per key and chunk of ``chunk`` points"""
    keys = [(p, q) for p in range(D + 1) for q in range(D + 1 - p)]
    s = np.zeros(len(keys))
    c = np.zeros(len(keys))
    for lo in range(0, xs.size, chunk):
        u = xs[lo:lo + chunk] - offset[0]
        v = ys[lo:lo + chunk] - offset[1]
        up = [np.ones_like(u)]
        vq = [np.ones_like(v)]
        for _ in range(D):
            up.append(up[-1] * u)
            vq.append(vq[-1] * v)
        _add_compensated(s, c, np.array([np.sum(up[p] * vq[q])
                                         for p, q in keys]))
    return s, c


def _absorbed(entry, D, offset, xs, ys):
    if entry == "extend":
        return MomentVector(D, offset=offset).extend(xs, ys)
    if entry == "from_points":
        return MomentVector.from_points(np.column_stack([xs, ys]), D,
                                        offset=offset)
    mv = MomentVector(D, offset=offset)
    for x, y in zip(xs.tolist(), ys.tolist()):
        mv.accumulate(x, y)
    return mv


# on one chunk, on full chunks and on a partial last chunk; on both sides of
# the chunk length where the products change form; at every degree up to 7
# (at D = 0 the power block is the row of ones alone); through each entry
# point, accumulate being a chunk of one point
_KERNEL_CASES = (
    [pytest.param("extend", 4, n, id=str(n))
     for n in [1, 50, 500, 4096, 4097, 65536, 65537, 200000]]
    + [pytest.param(entry, D, n, id=f"{entry}-D{D}-{n}")
       for D in range(8)
       for entry, sizes in [
           ("extend", [1, _SQUARE_MAX, _SQUARE_MAX + 1, _CHUNK + 1]),
           ("from_points", [1, _SQUARE_MAX, _SQUARE_MAX + 1, _CHUNK + 1]),
           ("accumulate", [1, 50])]
       for n in sizes])


@pytest.mark.parametrize("entry, D, n", _KERNEL_CASES)
def test_extend_sums_equal_per_key_reference(entry, D, n):
    rng = np.random.default_rng(n)
    xs = rng.normal(3.0, 2.0, n)
    ys = rng.normal(-1.0, 0.5, n)
    offset = (2.5, -0.75)
    mv = _absorbed(entry, D, offset, xs, ys)
    s, c = _per_key_reference(xs, ys, D, offset,
                              1 if entry == "accumulate" else _CHUNK)
    assert mv.n == n
    assert mv._sum.tobytes() == s.tobytes()
    assert mv._comp.tobytes() == c.tobytes()


@pytest.mark.parametrize("shape", [(2, 500), (5, 3), (7,), (2, 2, 2), (3,)])
def test_from_points_refuses_anything_but_n_by_2(shape):
    # each of these used to be read as some other set of points
    with pytest.raises(InvalidSpec, match=re.escape(str(shape))):
        MomentVector.from_points(np.arange(float(np.prod(shape))).reshape(shape),
                                 4)


def test_from_points_takes_pairs_a_single_pair_and_nothing():
    assert MomentVector.from_points((1.5, -2.0), 2).to_dict() == \
        MomentVector(2).accumulate(1.5, -2.0).to_dict()
    pairs = [(1.5, -2.0), (0.25, 4.0), (-3.0, 1.0)]
    assert MomentVector.from_points(pairs, 3, offset=(1.0, 1.0)).to_dict() == \
        MomentVector(3, offset=(1.0, 1.0)).extend(*zip(*pairs)).to_dict()
    for empty in ([], np.empty((0, 2))):
        assert MomentVector.from_points(empty, 4).n == 0


def test_layout_cannot_be_changed_through_a_caller():
    used = MomentVector(3).extend([1.0, 2.0], [3.0, -1.0])
    assert used._keys is monomials(3) and used._index is monomial_index(3)
    with pytest.raises(TypeError):
        used._index[(3, 1)] = 0
    with pytest.raises(TypeError):
        used._keys[0] = (3, 1)
    with pytest.raises(ValueError):
        _square_at(3)[0] = 1
    used._sum[:] = 7.0
    fresh = MomentVector(3)
    want = [(p, q) for p in range(4) for q in range(4 - p)]
    assert list(monomials(3)) == want
    assert [(p, q) for p, q, _ in fresh.to_dict()["entries"]] == want
    assert all(v == 0.0 for _, _, v in fresh.to_dict()["entries"])
    with pytest.raises(DegreeMismatch):
        fresh.entry(3, 1)


def test_extend_matches_pointwise_accumulate():
    rng = np.random.default_rng(3)
    xs = rng.normal(size=200)
    ys = rng.normal(size=200)
    bulk = MomentVector(4).extend(xs, ys)
    slow = MomentVector(4)
    for x, y in zip(xs, ys):
        slow.accumulate(x, y)
    for k in monomials(4):
        a, b = bulk.entry(*k), slow.entry(*k)
        assert abs(a - b) <= 1e-12 * max(1.0, abs(a))


def test_exact_mode_is_order_independent():
    pts = [(0.5, -0.25), (1.75, 3.0), (-2.125, 0.0625)]
    a = MomentVector(4, exact=True)
    b = MomentVector(4, exact=True)
    for x, y in pts:
        a.accumulate(x, y)
    for x, y in reversed(pts):
        b.accumulate(x, y)
    assert all(a.entry(*k) == b.entry(*k) for k in monomials(4))
    assert isinstance(a.entry(4, 0), Fraction)


# -- z view -----------------------------------------------------------------

def test_z_view_single_point_frozen_values():
    (z1, z2, z3, z4, z5, z6, z7, z8, z9), n = (
        MomentVector(4).accumulate(1.0, 0.0).circle_z_view()
    )
    assert (z1, z2, z3, z4, z5, z6, z7, z8, z9) == (1, -4, 0, 4, 0, 0, 2, -4, 0)
    assert n == 1


def test_z1_is_sum_of_squared_radii():
    mv = MomentVector(4).accumulate(1.0, 0.0).accumulate(0.0, 2.0)
    (z1, *_), _ = mv.circle_z_view()
    assert z1 == 17.0


def test_z_view_all_zero_dataset():
    mv = MomentVector(4)
    for _ in range(7):
        mv.accumulate(0.0, 0.0)
    zs, n = mv.circle_z_view()
    assert all(z == 0.0 for z in zs)
    assert n == 7


def test_z_view_requires_degree_four():
    with pytest.raises(DegreeMismatch):
        MomentVector(3).circle_z_view()


def test_z_view_derivation_against_symbolic_expansion():
    """Re-derive all nine z formulas by expanding (s - 2ax - 2by + c)^2."""
    sympy = pytest.importorskip("sympy")
    x, y, a, b, c = sympy.symbols("x y a b c")
    s = x ** 2 + y ** 2
    bracket = sympy.expand((s - 2 * a * x - 2 * b * y + c) ** 2)
    poly = sympy.Poly(bracket, a, b, c)
    # data-side factor attached to each (a,b,c) monomial of the expansion
    want = {
        (1, 0, 0): -4 * x * s,          # z2
        (0, 1, 0): -4 * y * s,          # z3
        (2, 0, 0): 4 * x ** 2,          # z4
        (0, 2, 0): 4 * y ** 2,          # z5
        (1, 1, 0): 8 * x * y,           # z6
        (0, 0, 1): 2 * s,               # z7
        (1, 0, 1): -4 * x,              # z8
        (0, 1, 1): -4 * y,              # z9
        (0, 0, 0): s ** 2,              # z1
        (0, 0, 2): sympy.Integer(1),    # n
    }
    for mono, expr in want.items():
        assert sympy.expand(poly.coeff_monomial(
            a ** mono[0] * b ** mono[1] * c ** mono[2]) - expr) == 0


def test_z_view_assembles_direct_objective():
    rng = np.random.default_rng(9)
    pts = rng.normal(scale=2.0, size=(60, 2))
    mv = MomentVector(4).extend(pts[:, 0], pts[:, 1])
    (z1, z2, z3, z4, z5, z6, z7, z8, z9), n = mv.circle_z_view()
    for a, b, R in [(0.5, -1.0, 2.0), (0.0, 0.0, 1.0), (3.0, 2.0, 0.7)]:
        c = a * a + b * b - R * R
        via_z = (z1 + a * z2 + b * z3 + a * a * z4 + b * b * z5 + a * b * z6
                 + c * z7 + a * c * z8 + b * c * z9 + c * c * n)
        direct = sum(((x - a) ** 2 + (y - b) ** 2 - R * R) ** 2 for x, y in pts)
        assert via_z == pytest.approx(direct, rel=1e-9)


# -- centering --------------------------------------------------------------

def test_offset_shifts_the_accumulated_coordinates():
    pts = [(3.0, 5.0), (4.0, 5.5), (2.5, 4.0)]
    centered = MomentVector(4, offset=(3.0, 5.0))
    plain = MomentVector(4)
    for x, y in pts:
        centered.accumulate(x, y)
        plain.accumulate(x - 3.0, y - 5.0)
    for k in monomials(4):
        assert centered.entry(*k) == pytest.approx(plain.entry(*k), abs=1e-12)


def test_centroid_reports_raw_mean():
    mv = MomentVector(2, offset=(10.0, -10.0))
    mv.accumulate(1.0, 2.0).accumulate(3.0, 6.0)
    assert mv.centroid() == pytest.approx((2.0, 4.0))


def test_centering_improves_fourth_moment_conditioning():
    # far-from-origin cloud: centered z1 is ~1e10 times smaller
    rng = np.random.default_rng(11)
    xs = 1e4 + rng.normal(size=300)
    ys = -2e4 + rng.normal(size=300)
    raw = MomentVector(4).extend(xs, ys)
    ctr = MomentVector(4, offset=(float(xs.mean()), float(ys.mean()))).extend(xs, ys)
    (z1_raw, *_), _ = raw.circle_z_view()
    (z1_ctr, *_), _ = ctr.circle_z_view()
    assert z1_ctr < 1e-9 * z1_raw


def _exact_central(xs, ys):
    X = [Fraction(v) for v in xs]
    Y = [Fraction(v) for v in ys]
    mx, my = sum(X) / len(X), sum(Y) / len(Y)
    U = [x - mx for x in X]
    V = [y - my for y in Y]
    Z = [u * u + v * v for u, v in zip(U, V)]
    n = len(X)
    return [float(sum(a * b for a, b in zip(A, B)) / n)
            for A, B in ((U, U), (V, V), (U, V), (U, Z), (V, Z), (Z, Z))]


@pytest.mark.parametrize("dist", [0.0, 30.0, 3e3])
def test_central_circle_view_is_within_its_rounding(dist):
    # a 1.5 rad arc of radius 2 at dist (in each coordinate) from the
    # offset (0, 0): the binomial shift to the centroid loses digits with
    # the distance, and each central moment stays within its bound
    rng = np.random.default_rng(4)
    t = 1.5 * rng.random(200)
    xs = dist + 2.0 * np.cos(t) + rng.normal(scale=0.01, size=200)
    ys = -dist + 2.0 * np.sin(t) + rng.normal(scale=0.01, size=200)
    view = MomentVector(4).extend(xs, ys).central_circle_view()
    assert view.n == 200
    assert view.centroid == pytest.approx((xs.mean(), ys.mean()), rel=1e-12)
    for got, want, err in zip(view.central, _exact_central(xs, ys),
                              view.rounding):
        assert abs(got - want) <= err + 4.0 * np.finfo(float).eps * abs(want)


def test_central_circle_view_of_a_centred_accumulator():
    # about the centroid the shift adds nothing: the rounding bounds fall
    # below the moments' last digits and z equals the centred z-view
    rng = np.random.default_rng(6)
    xs = 40.0 + rng.normal(size=300)
    ys = -25.0 + rng.normal(size=300)
    mv = MomentVector(4, offset=(float(xs.mean()), float(ys.mean())))
    view = mv.extend(xs, ys).central_circle_view()
    for m, err in zip(view.central, view.rounding):
        assert m + err == m
    z, n = mv.circle_z_view()
    assert n == view.n
    scale = max(abs(v) for v in z)
    for got, want in zip(view.z(), z):
        assert got == pytest.approx(want, abs=1e-12 * scale)


def test_central_circle_view_requires_degree_four_and_data():
    with pytest.raises(DegreeMismatch):
        MomentVector(3).accumulate(1.0, 0.0).central_circle_view()
    with pytest.raises(ValueError):
        MomentVector(4).central_circle_view()


# -- contraction ------------------------------------------------------------

def test_contract_evaluates_polynomial_sums():
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(40, 2))
    mv = MomentVector(3).extend(pts[:, 0], pts[:, 1])
    P = BivariatePoly({(2, 1): 1.5, (1, 0): -2.0, (0, 0): 0.25}, exact=False)
    direct = sum(P.eval(x, y) for x, y in pts)
    assert mv.contract(P) == pytest.approx(direct, rel=1e-12)


def test_contract_degree_guard():
    mv = MomentVector(2).accumulate(1.0, 1.0)
    with pytest.raises(DegreeMismatch):
        mv.contract(BivariatePoly({(3, 0): 1.0}, exact=False))


# -- serialization ----------------------------------------------------------

def test_roundtrip_float(tmp_path):
    rng = np.random.default_rng(21)
    mv = MomentVector(4, offset=(0.5, -0.5)).extend(
        rng.normal(size=50), rng.normal(size=50))
    path = tmp_path / "mv.json"
    mv.dump(path)
    back = MomentVector.load(path)
    assert back.n == mv.n
    assert back.offset == mv.offset
    for k in monomials(4):
        assert back.entry(*k) == pytest.approx(mv.entry(*k), rel=1e-15)


def test_roundtrip_exact(tmp_path):
    mv = MomentVector(2, exact=True).accumulate(0.5, -0.25).accumulate(1.0, 3.0)
    path = tmp_path / "mv.json"
    mv.dump(path)
    back = MomentVector.load(path)
    assert back.exact
    assert back.entry(2, 0) == Fraction(5, 4)
    assert back.entry(0, 2) == Fraction(145, 16)


def test_dict_entries_are_lexicographic():
    d = MomentVector(3).accumulate(1.0, 2.0).to_dict()
    keys = [(p, q) for p, q, _ in d["entries"]]
    assert keys == sorted(keys)
    assert d["format"] == "moment-vector/1"


def _blob_without(key=None, extra=None, exact=False):
    mv = MomentVector(4, exact=exact).extend([1.0, 2.0, 0.5], [0.0, 1.5, -1.0])
    blob = mv.to_dict()
    blob["entries"] = [e for e in blob["entries"] if tuple(e[:2]) != key]
    if extra is not None:
        blob["entries"].append(extra)
    return blob


@pytest.mark.parametrize("blob, named", [
    (_blob_without(key=(1, 2)), "(1, 2)"),
    (_blob_without(extra=[2, 2, 7.0]), "(2, 2)"),
    (_blob_without(extra=[3, 2, 1.0]), "(3, 2)"),
    (_blob_without(key=(1, 2), extra=[1, 2, math.inf]), "(1, 2)"),
    (_blob_without(key=(0, 3), extra=[0, 3, math.nan]), "(0, 3)"),
    (_blob_without(extra=[math.inf, 0, 0.0]), "(inf, 0)"),
    (_blob_without(key=(1, 2), extra=[1.5, 2, 7.0]), "(1.5, 2)"),
    (_blob_without(key=(1, 2), extra=[True, 2, 7.0]), "(True, 2)"),
    (_blob_without(key=(1, 2), extra=[1, 2, "7"]), "(1, 2)"),
    (_blob_without(key=(1, 2), extra=[1, 2, True]), "(1, 2)"),
    (_blob_without(key=(1, 2), extra=[1, 2, 10 ** 400]), "(1, 2)"),
    (_blob_without(key=(1, 2), extra=[1, 2, "1/0"], exact=True), "(1, 2)"),
    (_blob_without(key=(1, 2), extra=[1, 2, "1.5/2"], exact=True), "(1, 2)"),
], ids=["missing", "duplicate", "above-degree", "infinite", "nan",
        "infinite-exponent", "fractional-exponent", "boolean-exponent",
        "string-value", "boolean-value", "huge-integer-value",
        "zero-denominator", "fractional-numerator"])
def test_from_dict_requires_every_moment_once(blob, named):
    with pytest.raises(ValueError, match=re.escape(named)):
        MomentVector.from_dict(blob)


@pytest.mark.parametrize("field, value", [
    ("n", math.inf), ("n", 2.5), ("n", -5), ("n", True),
    ("max_total_degree", math.inf), ("max_total_degree", 4.7),
    ("exact", "no"), ("exact", 1),
    ("offset", [True, 0]), ("offset", ["1", 0]), ("offset", [0.0, math.inf]),
    ("offset", [0.0]),
])
def test_from_dict_requires_typed_header_fields(field, value):
    blob = MomentVector(4, exact=True).extend([1.0, 2.0, 0.5],
                                              [0.0, 1.5, -1.0]).to_dict()
    blob[field] = value
    with pytest.raises(ValueError, match=field):
        MomentVector.from_dict(blob)
