"""Synthetic generation determinism, noise statistics, text ingestion."""

import dataclasses
import math
import os
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from gradfit import datagen
from gradfit.datagen import (SyntheticSpec, _parse_lines, generate, ingest,
                             write_points)
from gradfit.errors import InvalidSpec, NonFiniteValue, ParseError
from gradfit.families import FAMILIES, get_family


CIRCLE = {"a": 0.5, "b": -1.0, "R": 2.0}


def test_zero_noise_points_lie_on_curve_every_family():
    thetas = {
        "circle": CIRCLE,
        "ellipse": {"a": 1.0, "b": 2.0, "c": -1.0},
        "hyperbola": {"a": 1.0, "b": -1.5, "c": -0.7},
        "parabola": {"c": 1.3},
        "line": {"u": 0.6, "v": 0.8, "w": -0.4},
    }
    for name, theta in thetas.items():
        spec = SyntheticSpec(name, theta, n=40, sigma=0.0, seed=7)
        pts = generate(spec)
        P = get_family(name).poly(theta)
        worst = max(abs(P(x, y)) for x, y in pts)
        assert worst < 1e-12, name


def test_fixed_seed_is_bit_reproducible():
    spec = SyntheticSpec("circle", CIRCLE, n=100, sigma=0.05, seed=123)
    a = generate(spec)
    b = generate(spec)
    assert np.array_equal(a, b)


# the per-point reference: the families' parametrizations with libm's
# functions, one point at a time
_POINT = {
    "circle": lambda th, t: (th["a"] + th["R"] * math.cos(t),
                             th["b"] + th["R"] * math.sin(t)),
    "ellipse": lambda th, t: (math.sqrt(-th["c"] / th["a"]) * math.cos(t),
                              math.sqrt(-th["c"] / th["b"]) * math.sin(t)),
    "hyperbola": lambda th, t: (math.sqrt(-th["c"] / th["a"]) * math.cosh(t),
                                math.sqrt(th["c"] / th["b"]) * math.sinh(t)),
    "parabola": lambda th, t: (t, th["c"] * t * t),
    "line": lambda th, t: (
        -th["w"] * th["u"] / (th["u"] ** 2 + th["v"] ** 2) - th["v"] * t,
        -th["w"] * th["v"] / (th["u"] ** 2 + th["v"] ** 2) + th["u"] * t),
}


@pytest.mark.parametrize("name", sorted(_POINT))
def test_generate_matches_per_point_reference(name):
    fam = get_family(name)
    theta = fam.sample_theta(np.random.default_rng(11))
    spec = SyntheticSpec(name, theta, n=20000, sigma=0.0, seed=5)
    rng = np.random.default_rng(5)
    lo, hi = spec.t_range()
    ref = np.array([_POINT[name](theta, float(t))
                    for t in rng.uniform(lo, hi, spec.n)])
    got = generate(spec)
    # numpy's sinh is within 0.77 ulp of the true value on (-1, 1) and
    # libm's within 1.7 (against 120-bit mpmath), so they differ by 2
    ulps = 2 if name == "hyperbola" else 1
    np.testing.assert_array_max_ulp(got, ref, maxulp=ulps)
    # the noise is the same draw after the parameters
    noisy = generate(dataclasses.replace(spec, sigma=0.1))
    np.testing.assert_allclose(noisy - got,
                               rng.normal(0.0, 0.1, ref.shape), atol=1e-15)


def test_different_seeds_differ():
    a = generate(SyntheticSpec("circle", CIRCLE, n=50, sigma=0.05, seed=1))
    b = generate(SyntheticSpec("circle", CIRCLE, n=50, sigma=0.05, seed=2))
    assert not np.array_equal(a, b)


def test_radial_residual_std_matches_sigma():
    sigma = 0.05
    spec = SyntheticSpec("circle", CIRCLE, n=10_000, sigma=sigma, seed=99)
    pts = generate(spec)
    r = np.hypot(pts[:, 0] - CIRCLE["a"], pts[:, 1] - CIRCLE["b"])
    sd = float(np.std(r - CIRCLE["R"]))
    assert 0.9 * sigma <= sd <= 1.1 * sigma


def test_arc_restriction():
    spec = SyntheticSpec("circle", {"a": 0.0, "b": 0.0, "R": 1.0}, n=200,
                         sigma=0.0, arc=(0.0, math.pi / 2), seed=11)
    pts = generate(spec)
    assert np.all(pts[:, 0] >= -1e-12)
    assert np.all(pts[:, 1] >= -1e-12)


@pytest.mark.parametrize("kwargs", [
    dict(family="circle", theta=CIRCLE, n=0),
    dict(family="circle", theta=CIRCLE, n=10, sigma=-0.1),
    dict(family="circle", theta=CIRCLE, n=10, sigma=math.nan),
    dict(family="nonagon", theta={}, n=10),
    dict(family="circle", theta={"a": 0, "b": 0, "R": -1.0}, n=10),
    dict(family="circle", theta={"a": 0, "b": 0}, n=10),
    dict(family="circle", theta=CIRCLE, n=10, arc=(1.0, 0.0)),
    dict(family="circle", theta=CIRCLE, n=10, arc=(0.0, math.inf)),
    dict(family="circle", theta={**CIRCLE, "Rr": 5.0}, n=10),
])
def test_invalid_specs_rejected(kwargs):
    with pytest.raises(InvalidSpec):
        SyntheticSpec(**kwargs)


@pytest.mark.parametrize("sigma", [0.0, 0.5])
def test_points_beyond_the_float_range_are_invalid_spec(sigma):
    # cosh(t) overflows a double from t = 710 on; no numpy warning escapes
    spec = SyntheticSpec("hyperbola", {"a": 1.0, "b": -1.0, "c": -1.0}, n=3,
                         sigma=sigma, arc=(0.0, 800.0), seed=1)
    with pytest.raises(InvalidSpec, match="hyperbola point 1 is beyond"):
        generate(spec)


def test_every_registered_family_generates():
    rng = np.random.default_rng(0)
    for name, fam in FAMILIES.items():
        theta = fam.sample_theta(rng)
        pts = generate(SyntheticSpec(name, theta, n=5, sigma=0.01, seed=3))
        assert pts.shape == (5, 2)
        assert np.all(np.isfinite(pts))


# -- ingestion ---------------------------------------------------------------


def assert_same_array(got, want):
    """Same shape, float64 and the same bits (so 0.0 and -0.0 differ)."""
    assert isinstance(got, np.ndarray) and got.dtype == np.float64
    assert got.shape == want.shape
    assert got.tobytes() == np.asarray(want, dtype=np.float64).tobytes()


def test_ingest_basic(tmp_path):
    f = tmp_path / "pts.csv"
    f.write_text("1,0\n0,1\n")
    assert_same_array(ingest(f), np.array([[1.0, 0.0], [0.0, 1.0]]))


def test_ingest_skips_comments_and_blanks(tmp_path):
    f = tmp_path / "pts.csv"
    f.write_text("#hdr\n\n1, 2 # trailing note\n  # another\n-3.5,4e-1\n")
    assert_same_array(ingest(f), np.array([[1.0, 2.0], [-3.5, 0.4]]))


def test_ingest_parse_error_reports_line(tmp_path):
    f = tmp_path / "bad.csv"
    f.write_text("1,abc\n")
    with pytest.raises(ParseError, match="line 1"):
        ingest(f)


def test_ingest_wrong_arity(tmp_path):
    f = tmp_path / "bad.csv"
    f.write_text("1,2\n3\n")
    with pytest.raises(ParseError, match="line 2"):
        ingest(f)
    f.write_text("1,2,3\n")
    with pytest.raises(ParseError, match="line 1"):
        ingest(f)


def test_ingest_rejects_non_finite(tmp_path):
    f = tmp_path / "bad.csv"
    f.write_text("0,0\nnan,1\n")
    with pytest.raises(NonFiniteValue, match="line 2"):
        ingest(f)
    f.write_text("inf,0\n")
    with pytest.raises(NonFiniteValue):
        ingest(f)


def test_ingest_empty_file(tmp_path):
    f = tmp_path / "empty.csv"
    f.write_text("# only a comment\n")
    assert_same_array(ingest(f), np.empty((0, 2)))


# -- ingest against the line parser --------------------------------------------

_PADS = ["", " ", "\t", "  ", "\xa0"]
_EOLS = st.sampled_from([b"\n", b"\r\n"])
_DIGIT_ZEROS = [0x0660, 0xFF10]  # Arabic-Indic and full-width digits


@st.composite
def number_texts(draw, exotic):
    """A field ``float`` reads: a repr float, or (exotic) an integer
    written with an underscore or in non-ASCII digits."""
    kind = draw(st.sampled_from(["repr", "underscore", "unicode"]
                                if exotic else ["repr"]))
    if kind == "repr":
        return repr(draw(st.floats(allow_nan=False, allow_infinity=False)))
    digits = str(draw(st.integers(10, 10**9)))
    if kind == "underscore":
        cut = draw(st.integers(1, len(digits) - 1))
        return digits[:cut] + "_" + digits[cut:]
    zero = draw(st.sampled_from(_DIGIT_ZEROS))
    return "".join(chr(zero + int(d)) for d in digits)


@st.composite
def point_files(draw, exotic=True):
    """(lines, expected points): data lines with padding and trailing
    comments, mixed with comment and blank (exotic: whitespace-only) lines."""
    lines, expected = [], []
    kinds = ["data", "data", "comment", "blank"] + (["space"] if exotic else [])
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=12)):
        pad = draw(st.sampled_from(_PADS))
        if kind == "data":
            x, y = draw(number_texts(exotic)), draw(number_texts(exotic))
            note = draw(st.sampled_from(["", "# note", " #1,2,3"]))
            lines.append(f"{pad}{x}{pad},{pad}{y}{pad}{note}")
            expected.append((float(x), float(y)))
        elif kind == "comment":
            lines.append(("  " if exotic else "") + "# header, a=1")
        elif kind == "blank":
            lines.append("")
        else:
            lines.append(pad or " \t")
    return [ln.encode("utf-8") for ln in lines], expected


def _write(path, lines, eol, final_eol):
    path.write_bytes(eol.join(lines) + (eol if final_eol and lines else b""))


def parse_slowly(path):
    """The line parser alone over the whole file."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        return _parse_lines(fh, path)


# chunks of one line, of a few lines, and the default (the whole file here)
_CHUNKS = st.sampled_from([1, 40, datagen._CHUNK_CHARS])


_file_settings = settings(max_examples=150, deadline=None,
                          suppress_health_check=[HealthCheck.function_scoped_fixture])


@_file_settings
@given(point_files(), _EOLS, st.booleans(), _CHUNKS)
def test_ingest_agrees_with_line_parser(tmp_path, file, eol, final_eol, chunk):
    lines, expected = file
    f = tmp_path / "pts.csv"
    _write(f, lines, eol, final_eol)
    want = np.array(expected, dtype=float).reshape(-1, 2)
    assert_same_array(parse_slowly(f), want)
    with mock.patch.object(datagen, "_CHUNK_CHARS", chunk):
        assert_same_array(ingest(f), want)


@_file_settings
@given(point_files(exotic=False), _EOLS)
def test_ingest_fast_path_takes_plain_files(tmp_path, file, eol):
    lines, expected = file
    assume(expected)  # an empty file is a refusal by design
    f = tmp_path / "pts.csv"
    _write(f, lines, eol, True)
    with mock.patch.object(datagen, "_parse_lines",
                           side_effect=AssertionError("fell back")):
        got = ingest(f)
    assert_same_array(got, np.array(expected, dtype=float))


_BAD_LINES = [
    (b"1,2,3", ParseError),
    (b"7", ParseError),
    (b"1,", ParseError),
    (b"nan,1", NonFiniteValue),
    (b"1, -inf", NonFiniteValue),
    (b"1e400,0", NonFiniteValue),
    (b"\xff\xfe,3", ParseError),
    (b"0,0 # caf\xe9", ParseError),
]


@_file_settings
@given(point_files(), st.sampled_from(_BAD_LINES), _EOLS, _CHUNKS, st.data())
def test_ingest_malformed_matches_line_parser(tmp_path, file, bad, eol, chunk,
                                             data):
    lines, _ = file
    text, cls = bad
    at = data.draw(st.integers(0, len(lines)))
    f = tmp_path / "bad.csv"
    _write(f, lines[:at] + [text] + lines[at:], eol, True)
    with pytest.raises(cls, match=f": line {at + 1}: ") as slow:
        parse_slowly(f)
    with pytest.raises(cls) as fast, \
            mock.patch.object(datagen, "_CHUNK_CHARS", chunk):
        ingest(f)
    assert str(fast.value) == str(slow.value)


@_file_settings
@given(st.lists(st.sampled_from([b"", b"# c", b"3", b"-1.5e3", b" 2 # x"]),
                min_size=1, max_size=8))
def test_ingest_single_column_is_parse_error(tmp_path, lines):
    lines = [b"# one value per line"] + lines + [b"4.25"]
    first = next(i for i, ln in enumerate(lines, start=1)
                 if ln.split(b"#")[0].strip())
    f = tmp_path / "col.csv"
    _write(f, lines, b"\n", True)
    with pytest.raises(ParseError, match=f": line {first}: expected 'x,y'"):
        ingest(f)


def test_ingest_reparses_only_the_refused_chunk(tmp_path):
    lines = [f"{i},{-i}" for i in range(1000)]
    lines[500] = "   "  # float-parser blank, numpy refuses it
    f = tmp_path / "pts.csv"
    f.write_text("\n".join(lines) + "\n")
    slow = mock.Mock(wraps=_parse_lines)
    with mock.patch.object(datagen, "_CHUNK_CHARS", 200), \
            mock.patch.object(datagen, "_parse_lines", slow):
        got = ingest(f)
    want = [(i, -i) for i in range(1000) if i != 500]
    assert_same_array(got, np.array(want, dtype=float))
    (chunk, _, done), _ = slow.call_args
    assert slow.call_count == 1 and len(chunk) < 50
    assert chunk[500 - done] == "   \n"


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_ingest_reads_a_pipe_once(tmp_path):
    """Points from a pipe (as in ``gradfit fit <(zcat pts.csv.gz)``) all
    arrive, also past a chunk numpy refuses."""
    want = np.arange(1000.0).reshape(-1, 2) / 7
    text = "".join(f"{x!r},{y!r}\n" for x, y in want.tolist())
    text = "# header\n" + text.replace("\n", "\n \n  # x\n", 1)
    r, w = os.pipe()
    try:
        with os.fdopen(w, "w", encoding="utf-8") as fh:
            fh.write(text)  # about 20 kB, within a pipe's buffer
        with mock.patch.object(datagen, "_CHUNK_CHARS", 4096):
            got = ingest(f"/dev/fd/{r}")
    finally:
        os.close(r)
    assert_same_array(got, want)


def test_ingest_leaves_warnings_alone(tmp_path):
    """A chunk without data warns nothing, and ingest never swaps the
    process-wide warning filters, which other threads share."""
    f = tmp_path / "pts.csv"
    f.write_text("# only comments\n" * 100 + "1,2\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with mock.patch.object(datagen, "_CHUNK_CHARS", 64), \
                mock.patch.object(warnings, "catch_warnings",
                                  side_effect=AssertionError("swapped")):
            got = ingest(f)
    assert_same_array(got, np.array([[1.0, 2.0]]))


def test_write_read_roundtrip_is_exact(tmp_path):
    pts = generate(SyntheticSpec("circle", CIRCLE, n=25, sigma=0.03, seed=5))
    f = tmp_path / "out.csv"
    write_points(f, pts, header="family: circle\nseed: 5")
    back = np.array(ingest(f))
    assert np.array_equal(back, pts)
