"""Moment accumulation: single-pass sums, merging, the central circle view,
serialization."""

import copy
import math
import pickle
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradfit import moments
from gradfit.errors import DegreeMismatch, InvalidSpec, NonFiniteInput
from gradfit.fitters import _fa_val_grad_hess
from gradfit.moments import (_CHUNK, _GATHER_MAX, MomentVector,
                             _add_compensated, _layout)
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
    out = mv.merge(MomentVector(3))
    for k in monomials(3):
        assert out.entry(*k) == pytest.approx(mv.entry(*k), rel=1e-15, abs=1e-15)
    assert out.n == mv.n


def test_merge_of_single_points_equals_two_point_accumulator():
    a = MomentVector(4).accumulate(0.3, -1.2)
    b = MomentVector(4).accumulate(2.5, 0.7)
    both = MomentVector(4).accumulate(0.3, -1.2).accumulate(2.5, 0.7)
    m = a.merge(b)
    for k in monomials(4):
        assert m.entry(*k) == pytest.approx(both.entry(*k), rel=1e-14, abs=1e-14)
    assert m.n == 2


def test_merge_degree_mismatch():
    with pytest.raises(DegreeMismatch):
        MomentVector(2).merge(MomentVector(3))


def test_merge_offset_mismatch():
    with pytest.raises(ValueError):
        MomentVector(2, offset=(1.0, 0.0)).merge(MomentVector(2))


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
    ab, ba = a.merge(b), b.merge(a)
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


def _per_key_reference(xs, ys, D, offset, chunk, start=None):
    """Sums and compensations as extend computed them before the power
    block: one np.sum per key and chunk of ``chunk`` points, each chunk
    added with compensation, from zero or from the sums ``start``"""
    keys = [(p, q) for p in range(D + 1) for q in range(D + 1 - p)]
    s = np.zeros(len(keys)) if start is None else np.array(start, dtype=float)
    c = np.zeros(len(keys))
    for lo in range(0, xs.size, chunk):
        u = xs[lo:lo + chunk] - offset[0]
        v = ys[lo:lo + chunk] - offset[1]
        up = [np.ones_like(u)]
        vq = [np.ones_like(v)]
        for _ in range(D):
            up.append(up[-1] * u)
            vq.append(vq[-1] * v)
        s, c = _add_compensated(s, c, np.array([np.sum(up[p] * vq[q])
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
# the chunk length where the products change form, and of 384, where they
# changed form before; at every degree up to 7
# (at D = 0 the power block is the row of ones alone); through each entry
# point, accumulate being a chunk of one point
_KERNEL_CASES = (
    [pytest.param("extend", 4, n, id=str(n))
     for n in [1, 50, 500, 4096, 4097, 65536, 65537, 200000]]
    + [pytest.param(entry, D, n, id=f"{entry}-D{D}-{n}")
       for D in range(8)
       for entry, sizes in [
           ("extend", [1, 384, 385, _GATHER_MAX, _GATHER_MAX + 1,
                       _CHUNK + 1]),
           ("from_points", [1, 384, 385, _GATHER_MAX, _GATHER_MAX + 1,
                            _CHUNK + 1]),
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


# the first chunk into an empty accumulator is copied, later ones are added
# with compensation: two batches of m points against the reference's chunks
# of m, through each way of starting
@pytest.mark.parametrize("first", ["from_points", "extend"])
@pytest.mark.parametrize("m", [50, _GATHER_MAX + 1])
def test_second_batch_is_compensated_like_the_reference(first, m):
    rng = np.random.default_rng(m)
    xs = rng.normal(30.0, 2.0, 2 * m)
    ys = rng.normal(-10.0, 0.5, 2 * m)
    offset = (29.5, -10.25)
    mv = _absorbed(first, 4, offset, xs[:m], ys[:m]).extend(xs[m:], ys[m:])
    s, c = _per_key_reference(xs, ys, 4, offset, m)
    assert mv.n == 2 * m
    assert c.any()  # the reference compensates the second batch
    assert mv._sum.tobytes() == s.tobytes()
    assert mv._comp.tobytes() == c.tobytes()


def test_points_into_loaded_sums_are_compensated():
    # a record of zero points may still hold sums: they are not copied over
    rng = np.random.default_rng(12)
    loaded = rng.normal(0.0, 1e3, 15)
    blob = MomentVector(4).to_dict()
    blob["entries"] = [[p, q, float(v)]
                       for (p, q, _), v in zip(blob["entries"], loaded)]
    mv = MomentVector.from_dict(blob)
    assert mv.n == 0
    xs, ys = rng.normal(size=(2, 275))
    mv.extend(xs, ys)
    s, c = _per_key_reference(xs, ys, 4, (0.0, 0.0), _CHUNK, start=loaded)
    assert c.any()
    assert mv._sum.tobytes() == s.tobytes()
    assert mv._comp.tobytes() == c.tobytes()


def test_first_chunk_is_copied_without_compensated_addition(monkeypatch):
    calls = []

    def counting(s, c, vals):
        calls.append(len(vals))
        return _add_compensated(s, c, vals)

    monkeypatch.setattr(moments, "_add_compensated", counting)
    rng = np.random.default_rng(275)
    pts = rng.normal(size=(275, 2))
    mv = MomentVector.from_points(pts, 4, offset=(0.1, -0.2))
    assert calls == []
    mv.extend(pts[:, 1], pts[:, 0])
    assert calls == [15]


@pytest.mark.parametrize("clone", [
    copy.deepcopy, lambda mv: pickle.loads(pickle.dumps(mv))])
@pytest.mark.parametrize("exact", [False, True])
def test_accumulators_copy_and_pickle(clone, exact):
    # as a worker's accumulator is sent back to be merged
    mv = MomentVector(3, offset=(0.5, -1.0), exact=exact)
    mv.extend([1.0, 2.0, 0.25], [3.0, -1.0, 0.5])
    twin = clone(mv)
    assert twin.to_dict() == mv.to_dict()
    assert twin._keys is monomials(3) and twin._index is monomial_index(3)
    assert twin.merge(mv).to_dict() == mv.merge(mv).to_dict()


@pytest.mark.parametrize("clone", [
    copy.deepcopy, lambda mv: pickle.loads(pickle.dumps(mv))])
def test_copied_empty_accumulator_absorbs_like_a_fresh_one(clone):
    # a copy of an empty accumulator has sums and compensations of its own
    rng = np.random.default_rng(4)
    xs, ys = rng.normal(5.0, 1.0, size=(2, 275))
    fresh = MomentVector(4, offset=(4.5, 0.0)).extend(xs, ys)
    copied = clone(MomentVector(4, offset=(4.5, 0.0))).extend(xs, ys)
    assert copied._sum is not copied._comp
    assert copied._sum.tobytes() == fresh._sum.tobytes()
    assert copied._comp.tobytes() == fresh._comp.tobytes()
    assert copied.to_dict() == fresh.to_dict()


def test_overflowing_powers_are_non_finite_input():
    # finite points whose fourth powers overflow; numpy warns, then the
    # accumulator refuses them and keeps what it held
    pts = [(1e100, 0.0), (2e100, 1.0), (0.0, 3e100), (5e99, 5e99)]
    with pytest.warns(RuntimeWarning, match="overflow"):
        with pytest.raises(NonFiniteInput, match="overflow"):
            MomentVector.from_points(pts, 4)
    mv = MomentVector(4).extend([1.0, 2.0], [0.5, -1.0])
    before = mv.to_dict()
    xs = np.concatenate([np.ones(_CHUNK), [1e100]])
    with pytest.warns(RuntimeWarning, match="overflow"):
        with pytest.raises(NonFiniteInput, match="overflow"):
            mv.extend(xs, np.zeros(_CHUNK + 1))
    assert mv.to_dict() == before


def test_overflowing_compensated_sum_is_non_finite_input():
    # each point's sums are finite, Σx^4 of two is not: the compensated
    # addition refuses it and the accumulator keeps what it held
    mv = MomentVector(4).extend([1.1e77], [0.0])
    before = mv.to_dict()
    with pytest.warns(RuntimeWarning, match="overflow"):
        with pytest.raises(NonFiniteInput, match="overflow"):
            mv.extend([1.1e77], [0.0])
    assert mv.to_dict() == before


def test_overflowing_merge_is_non_finite_input():
    mv = MomentVector(4).extend([1.1e77], [0.0])
    before = mv.to_dict()
    with pytest.warns(RuntimeWarning, match="overflow"):
        with pytest.raises(NonFiniteInput, match="overflow"):
            mv.merge(mv)
    assert mv.to_dict() == before


def test_central_view_overflow_is_non_finite_input():
    # every sum about the origin is finite, but the bound on the shift's
    # rounding, (sigma + rho)^4, is not
    r = 0.95e77
    mv = MomentVector.from_points([(r, 0.0), (-r, 0.0), (0.0, r)], 4)
    assert all(math.isfinite(v) for _, _, v in mv.to_dict()["entries"])
    with pytest.raises(NonFiniteInput, match="overflow"):
        mv.central_circle_view()


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
    for shared in (_layout(3).p, _layout(3).q):
        with pytest.raises(ValueError):
            shared[0] = 1
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


# -- the circle objective's moments ----------------------------------------

def test_z_view_derivation_against_symbolic_expansion():
    """Re-derive the coefficients of the reduced circle objective (the e*
    of ``fitters._fa_val_grad_hess``) by expanding (s - 2ax - 2by + c)^2."""
    sympy = pytest.importorskip("sympy")
    x, y, a, b, c = sympy.symbols("x y a b c")
    s = x ** 2 + y ** 2
    bracket = sympy.expand((s - 2 * a * x - 2 * b * y + c) ** 2)
    poly = sympy.Poly(bracket, a, b, c)
    # data-side factor attached to each (a,b,c) monomial of the expansion;
    # summed over data centred at their centroid, the last two vanish
    want = {
        (1, 0, 0): -4 * x * s,          # ea = -4 n Mxz
        (0, 1, 0): -4 * y * s,          # eb = -4 n Myz
        (2, 0, 0): 4 * x ** 2,          # eaa = 4 n Mxx
        (0, 2, 0): 4 * y ** 2,          # ebb = 4 n Myy
        (1, 1, 0): 8 * x * y,           # eab = 8 n Mxy
        (0, 0, 1): 2 * s,               # ec = 2 n (Mxx + Myy)
        (0, 0, 0): s ** 2,              # e0 = n Mzz
        (0, 0, 2): sympy.Integer(1),    # n
        (1, 0, 1): -4 * x,              # 0
        (0, 1, 1): -4 * y,              # 0
    }
    for mono, expr in want.items():
        assert sympy.expand(poly.coeff_monomial(
            a ** mono[0] * b ** mono[1] * c ** mono[2]) - expr) == 0


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
    mv = MomentVector(4, offset=(10.0, -10.0))
    mv.accumulate(1.0, 2.0).accumulate(3.0, 6.0)
    assert mv.central_circle_view().centroid == pytest.approx((2.0, 4.0))


def test_centering_improves_fourth_moment_conditioning():
    # far-from-origin cloud: the centered sum of (x^2 + y^2)^2 is ~1e10
    # times smaller
    rng = np.random.default_rng(11)
    xs = 1e4 + rng.normal(size=300)
    ys = -2e4 + rng.normal(size=300)
    raw = MomentVector(4).extend(xs, ys)
    ctr = MomentVector(4, offset=(float(xs.mean()), float(ys.mean()))).extend(xs, ys)
    sum_raw, sum_ctr = (mv.entry(4, 0) + 2 * mv.entry(2, 2) + mv.entry(0, 4)
                        for mv in (raw, ctr))
    assert sum_ctr < 1e-9 * sum_raw


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
    # below the moments' last digits, and the moments equal exact ones
    rng = np.random.default_rng(6)
    xs = 40.0 + rng.normal(size=300)
    ys = -25.0 + rng.normal(size=300)
    mv = MomentVector(4, offset=(float(xs.mean()), float(ys.mean())))
    view = mv.extend(xs, ys).central_circle_view()
    for m, err in zip(view.central, view.rounding):
        assert m + err == m
    want = _exact_central(xs, ys)
    scale = max(abs(v) for v in want)
    for got, exact in zip(view.central, want):
        assert got == pytest.approx(exact, abs=1e-12 * scale)


@pytest.mark.parametrize("dist", [0.0, 30.0, 3e3])
def test_objective_of_central_view_equals_direct_sum(dist):
    # the reduced circle objective from the view of an accumulator at
    # offset (0, 0) equals sum P^2 / R^2 over the points, up to what the
    # view's rounding bounds allow: E is linear in the six central moments
    rng = np.random.default_rng(9)
    pts = np.array([dist, -dist]) + rng.normal(scale=2.0, size=(60, 2))
    view = MomentVector(4).extend(pts[:, 0], pts[:, 1]).central_circle_view()
    cx, cy = view.centroid
    for a, b, R in [(0.5, -1.0, 2.0), (0.0, 0.0, 1.0), (3.0, 2.0, 0.7)]:
        a, b = a + dist, b - dist
        u, v = a - cx, b - cy
        c = u * u + v * v - R * R
        # |dE/dM| for M = (Mxx, Myy, Mxy, Mxz, Myz, Mzz), per point
        weight = (abs(4 * u * u + 2 * c), abs(4 * v * v + 2 * c),
                  abs(8 * u * v), abs(4 * u), abs(4 * v), 1.0)
        bound = view.n * sum(w * err for w, err in zip(weight, view.rounding))
        F, _, _ = _fa_val_grad_hess(view, u, v, R)
        direct = sum(((Fraction(x) - Fraction(a)) ** 2
                      + (Fraction(y) - Fraction(b)) ** 2 - Fraction(R) ** 2)
                     ** 2 for x, y in pts) / Fraction(R) ** 2
        assert abs(F - float(direct)) <= (
            bound / (R * R) + 1e-13 * float(direct))


def test_central_circle_view_requires_degree_four_and_data():
    with pytest.raises(DegreeMismatch):
        MomentVector(3).accumulate(1.0, 0.0).central_circle_view()
    with pytest.raises(ValueError):
        MomentVector(4).central_circle_view()


# -- contraction ------------------------------------------------------------

def test_contract_evaluates_polynomial_sums(contract):
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(40, 2))
    mv = MomentVector(3).extend(pts[:, 0], pts[:, 1])
    P = BivariatePoly({(2, 1): 1.5, (1, 0): -2.0, (0, 0): 0.25})
    direct = sum(P.eval(x, y) for x, y in pts)
    assert contract(mv, P) == pytest.approx(direct, rel=1e-12)


def test_contract_degree_guard(contract):
    mv = MomentVector(2).accumulate(1.0, 1.0)
    with pytest.raises(DegreeMismatch):
        contract(mv, BivariatePoly({(3, 0): 1.0}))


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
