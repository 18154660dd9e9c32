import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gradfit import analyzer, cli, errors
from gradfit.cli import EXIT_NOT_CONVERGED, exit_code_for, main
from gradfit.datagen import ingest
from gradfit.moments import MomentVector
from gradfit.errors import (CenterHitsDataPoint, DegenerateData,
                            DegenerateInput, DegreeMismatch, GradfitError,
                            GradientVanishesAtSample, ImaginaryRadius,
                            InvalidRadius, InvalidSpec, NoCircle,
                            NonFiniteInput, NonFiniteValue, NumericalFailure,
                            ParseError)


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def strip_seconds(obj):
    if isinstance(obj, dict):
        return {k: strip_seconds(v) for k, v in obj.items()
                if "seconds" not in k}
    if isinstance(obj, list):
        return [strip_seconds(v) for v in obj]
    return obj


@pytest.fixture()
def circle_csv(tmp_path, capsys):
    path = tmp_path / "circle.csv"
    rc, _, _ = run(capsys, "generate", "--family", "circle",
                   "--params", "a=0.3", "b=-0.2", "R=1.0",
                   "--n", "40", "--sigma", "0.01", "--seed", "11",
                   "--output", str(path))
    assert rc == 0
    return str(path)


# -- fit --------------------------------------------------------------------


def test_fit_reduced_exact_on_noiseless_data(tmp_path, capsys):
    path = tmp_path / "clean.csv"
    run(capsys, "generate", "--params", "a=0.5", "b=-1.25", "R=2.0",
        "--n", "60", "--seed", "4", "--output", str(path))
    rc, out, _ = run(capsys, "fit", str(path), "--algo", "reduced", "--json")
    assert rc == 0
    blob = json.loads(out)
    assert blob["converged"] is True
    assert abs(blob["params"]["a"] - 0.5) < 1e-9
    assert abs(blob["params"]["b"] + 1.25) < 1e-9
    assert abs(blob["params"]["R"] - 2.0) < 1e-9
    assert blob["data_passes"] == 1


@pytest.mark.parametrize("algo", ["reduced", "geometric", "reweight"])
def test_fit_all_algorithms_exit_zero(circle_csv, capsys, algo):
    rc, out, _ = run(capsys, "fit", circle_csv, "--algo", algo)
    assert rc == 0
    assert "converged: yes" in out


def test_fit_reduced_and_geometric_agree_at_small_noise(circle_csv, capsys):
    _, red, _ = run(capsys, "fit", circle_csv, "--algo", "reduced", "--json")
    _, geo, _ = run(capsys, "fit", circle_csv, "--algo", "geometric", "--json")
    a = json.loads(red)["params"]
    b = json.loads(geo)["params"]
    sigma = 0.01
    for k in ("a", "b", "R"):
        assert abs(a[k] - b[k]) <= 10.0 * sigma ** 2


def test_fit_json_reproducible_apart_from_timings(circle_csv, capsys):
    _, one, _ = run(capsys, "fit", circle_csv, "--algo", "reduced", "--json")
    _, two, _ = run(capsys, "fit", circle_csv, "--algo", "reduced", "--json")
    assert strip_seconds(json.loads(one)) == strip_seconds(json.loads(two))


def test_fit_offline_from_saved_moments(circle_csv, tmp_path, capsys):
    mfile = tmp_path / "m.json"
    rc, direct, _ = run(capsys, "fit", circle_csv, "--algo", "reduced",
                        "--save-moments", str(mfile), "--json")
    assert rc == 0 and mfile.exists()
    rc, offline, _ = run(capsys, "fit", "--moments", str(mfile),
                         "--algo", "reduced", "--json")
    assert rc == 0
    assert (strip_seconds(json.loads(direct))
            == strip_seconds(json.loads(offline)))


def test_fit_not_converged_exit_code(circle_csv, capsys):
    rc, out, _ = run(capsys, "fit", circle_csv, "--algo", "reweight",
                     "--max-iterations", "1")
    assert rc == EXIT_NOT_CONVERGED
    assert "converged: no" in out


def test_fit_parse_error_exit_and_line_number(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("1,0\n1,abc\n")
    rc, _, err = run(capsys, "fit", str(bad))
    assert rc == 3
    assert "line 2" in err


def test_fit_nonfinite_exit(tmp_path, capsys):
    bad = tmp_path / "nf.csv"
    bad.write_text("1,0\n0,1\nnan,2\n")
    rc, _, err = run(capsys, "fit", str(bad))
    assert rc == 4
    assert "line 3" in err


def test_fit_overflowing_points_exit(tmp_path, capsys):
    # finite coordinates whose fourth powers overflow the moment sums
    huge = tmp_path / "huge.csv"
    huge.write_text("1e100,0\n2e100,1\n0,3e100\n5e99,5e99\n")
    rc, out, err = run(capsys, "fit", str(huge), "--json")
    assert rc == 4
    assert out == "" and err.startswith("error:") and "overflow" in err
    assert "Traceback" not in err and "Warning" not in err


def test_fit_overflowing_moment_file_exit(tmp_path, capsys):
    # finite sums about the origin whose shift to the centroid overflows
    r = 0.95e77
    mfile = tmp_path / "m.json"
    MomentVector.from_points([(r, 0.0), (-r, 0.0), (0.0, r)], 4).dump(mfile)
    rc, out, err = run(capsys, "fit", "--moments", str(mfile))
    assert rc == 4
    assert out == "" and err.startswith("error:") and "overflow" in err


def test_fit_non_utf8_is_parse_error(tmp_path, capsys):
    bad = tmp_path / "latin1.csv"
    bad.write_bytes(b"1,2\n\xff\xfe,3\n")
    rc, _, err = run(capsys, "fit", str(bad))
    assert rc == 3
    assert "line 2" in err


@pytest.mark.parametrize("flag", [(), ("--moments",)],
                         ids=["points", "moments"])
@pytest.mark.parametrize("target", ["missing", "directory"])
def test_fit_unreadable_input_is_invalid_spec(tmp_path, capsys, flag, target):
    path = tmp_path / target
    if target == "directory":
        path.mkdir()
    rc, out, err = run(capsys, "fit", *flag, str(path))
    assert rc == 5
    assert err.startswith("error: cannot read") and str(path) in err
    assert out == ""


def test_fit_unwritable_moment_file_is_invalid_spec(circle_csv, tmp_path,
                                                   capsys):
    target = tmp_path / "no-such-dir" / "m.json"
    rc, out, err = run(capsys, "fit", circle_csv, "--save-moments",
                       str(target))
    assert rc == 5
    assert err.startswith("error: cannot write") and str(target) in err
    assert out == ""


@pytest.mark.parametrize("text", [
    "not json\n",
    '{"format": "moment-vector/1", "max_total_degree": 4, "n": 3, '
    '"exact": false, "entries": []}\n',
    '{"format": "moment-vector/0", "max_total_degree": 4, "n": 3, '
    '"offset": [0, 0], "exact": false, "entries": []}\n',
    "[1, 2]\n",
    "[" * 100_000 + "\n",
], ids=["not-json", "no-offset", "wrong-format", "not-a-record",
        "deeply-nested"])
def test_fit_malformed_moment_file_is_parse_error(tmp_path, capsys, text):
    mfile = tmp_path / "m.json"
    mfile.write_text(text)
    rc, out, err = run(capsys, "fit", "--moments", str(mfile))
    assert rc == 3
    assert err.startswith("error:") and "not a moment file" in err
    assert out == ""


@pytest.mark.parametrize("exact, entries", [
    (False, []), (False, [[1, 2, 0.0], [1, 2, 0.0]]),
    (False, [[1, 2, 0.0], [5, 0, 0.0]]), (False, [[1, 2, float("inf")]]),
    (False, [[1, 2, float("nan")]]),
    (False, [[1, 2, 0.0], [float("inf"), 0, 0.0]]),
    (False, [[1.5, 2, 0.0]]), (False, [[True, 2, 0.0]]),
    (False, [[1, 2, "7"]]), (False, [[1, 2, True]]), (True, [[1, 2, "1/0"]]),
], ids=["missing", "duplicate", "above-degree", "infinite", "nan",
        "infinite-exponent", "fractional-exponent", "boolean-exponent",
        "string-value", "boolean-value", "zero-denominator"])
def test_fit_moment_file_with_bad_entries_is_parse_error(circle_csv, tmp_path,
                                                         capsys, exact,
                                                         entries):
    # the entries replace the file's moment (1, 2); Infinity and NaN are
    # written as such, and json reads them back
    mfile = tmp_path / "m.json"
    rc, _, _ = run(capsys, "fit", circle_csv, "--save-moments", str(mfile))
    assert rc == 0
    blob = json.loads(mfile.read_text())
    if exact:  # the same points, summed in Fractions
        pts = ingest(circle_csv)
        blob = MomentVector(4, exact=True).extend(pts[:, 0],
                                                  pts[:, 1]).to_dict()
    blob["entries"] = [e for e in blob["entries"] if e[:2] != [1, 2]] + entries
    mfile.write_text(json.dumps(blob))
    rc, out, err = run(capsys, "fit", "--moments", str(mfile))
    assert rc == 3
    assert err.startswith("error:") and "not a moment file" in err
    assert out == ""


@pytest.mark.parametrize("field, value", [
    ("n", float("inf")), ("max_total_degree", 4.7), ("exact", "no"),
    ("offset", [True, 0]),
])
def test_fit_moment_file_with_bad_header_is_parse_error(tmp_path, capsys,
                                                        field, value):
    t = np.linspace(0.0, 6.0, 40)
    blob = MomentVector(4, exact=True).extend(
        0.3 + np.cos(t), -0.2 + np.sin(t)).to_dict()
    blob[field] = value  # infinity is written as Infinity, which json reads
    mfile = tmp_path / "m.json"
    mfile.write_text(json.dumps(blob))
    rc, out, err = run(capsys, "fit", "--moments", str(mfile))
    assert rc == 3
    assert err.startswith("error:") and field in err
    assert out == ""


@pytest.mark.parametrize("algo", ["reduced", "geometric", "reweight"])
def test_fit_empty_input_exit(tmp_path, capsys, algo):
    empty = tmp_path / "empty.csv"
    empty.write_text("# header only\n\n")
    rc, _, err = run(capsys, "fit", str(empty), "--algo", algo)
    assert rc == 6
    assert "got 0" in err


def test_fit_collinear_exit(tmp_path, capsys):
    bad = tmp_path / "line.csv"
    bad.write_text("0,0\n1,1\n2,2\n3,3\n")
    rc, _, _ = run(capsys, "fit", str(bad), "--algo", "reduced")
    assert rc == 6


@pytest.mark.parametrize("algo", ["reduced"])
@pytest.mark.parametrize("dist", [1e4, 1e6])
def test_fit_moments_about_a_far_origin_exit(tmp_path, capsys, algo, dist):
    # a 1.5 rad arc of radius 2 accumulated about (0, 0): the shift to its
    # centroid leaves no digits of the fourth moments
    rng = np.random.default_rng(0)
    t = 0.3 + 1.5 * rng.random(300)
    pts = np.column_stack([dist + 2.0 * np.cos(t), -dist + 2.0 * np.sin(t)])
    pts += rng.normal(scale=0.01, size=pts.shape)
    mfile = tmp_path / "m.json"
    MomentVector.from_points(pts, 4).dump(mfile)
    rc, out, err = run(capsys, "fit", "--moments", str(mfile), "--algo", algo)
    assert rc == 6
    assert err.startswith("error:") and out == ""


def test_fit_bad_family_is_usage_error(circle_csv, capsys):
    rc, _, _ = run(capsys, "fit", circle_csv, "--family", "banana")
    assert rc == 2


@pytest.mark.parametrize("argv", [
    ("fit",),
    ("fit", "--moments", "m.json", "--algo", "geometric"),
])
def test_fit_invalid_flag_combinations(capsys, argv):
    rc, _, err = run(capsys, *argv)
    assert rc == 5
    assert err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ("fit", "{csv}", "--family", "circle"),
    ("analyze", "1 x^2 + 1 y^2 - 1", "--float"),
    ("fit", "{csv}", "--algo", "generic"),
    ("analyze", "1 x^2 + 1 y^2 - 1", "--max-degree", "3"),
])
def test_removed_options_are_usage_errors(circle_csv, capsys, argv):
    rc, out, _ = run(capsys, *(a.format(csv=circle_csv) for a in argv))
    assert rc == 2
    assert out == ""


def test_fit_nan_tolerances_exit(circle_csv, capsys):
    rc, out, err = run(capsys, "fit", circle_csv, "--gradient-tol", "nan",
                       "--step-tol", "nan")
    assert rc == 5
    assert out == "" and err.startswith("error:")


def test_fit_both_input_kinds_rejected(circle_csv, tmp_path, capsys):
    mfile = tmp_path / "m.json"
    run(capsys, "fit", circle_csv, "--save-moments", str(mfile))
    rc, _, _ = run(capsys, "fit", circle_csv, "--moments", str(mfile))
    assert rc == 5


# -- analyze ----------------------------------------------------------------


def test_analyze_circle_family_admissible(capsys):
    rc, out, _ = run(capsys, "analyze", "--family", "circle",
                     "--samples", "3", "--seed", "5")
    assert rc == 0
    assert "verdict: admissible" in out
    assert "consistent: yes" in out


def test_analyze_ellipse_family_not_admissible(capsys):
    rc, out, _ = run(capsys, "analyze", "--family", "ellipse",
                     "--samples", "3", "--seed", "5")
    assert rc == 0
    assert "verdict: not_admissible" in out


def test_analyze_poly_known_complex_witness(capsys):
    rc, out, _ = run(capsys, "analyze", "1 y - 1 x^2", "--json")
    assert rc == 0
    blob = json.loads(out)
    assert blob["admissible"] is False
    x, y = blob["witness"]["x"], blob["witness"]["y"]
    assert abs(complex(*x) - 0.5j) < 1e-8
    assert abs(complex(*y) - (-0.25)) < 1e-8


def test_analyze_circle_poly_certificate_values(capsys):
    rc, out, _ = run(capsys, "analyze", "1 x^2 + 1 y^2 - 2.25", "--json")
    assert rc == 0
    blob = json.loads(out)
    assert blob["admissible"] is True
    assert blob["certificate"]["W"] == "1/9"
    assert blob["certificate"]["U"] == "-4/9"
    assert blob["certificate"]["identity_residual"] == 0.0


def test_analyze_inadmissible_without_witness(capsys, monkeypatch):
    # the flat parabola y = c x^2 shares (+-i/(2c), -1/(4c)) with its
    # squared gradient; the basis gives that witness
    text, c = "1 y - 0.000002 x^2", 0.000002
    rc, out, _ = run(capsys, "analyze", text, "--json")
    blob = json.loads(out)
    assert rc == 0 and blob["admissible"] is False
    assert blob["certificate"] is None
    (xr, xi), (yr, yi) = blob["witness"]["x"], blob["witness"]["y"]
    assert abs(xr) + abs(abs(xi) - 0.5 / c) <= 1e-8 * 0.5 / c
    assert abs(yr + 0.25 / c) + abs(yi) <= 1e-8 * 0.25 / c
    # NumericalFailure means the basis of <P, Q> is not {1}: not
    # admissible, with no witness
    def fail(P, Q):
        raise NumericalFailure("no witness")

    monkeypatch.setattr(analyzer, "find_common_zero", fail)
    rc, out, _ = run(capsys, "analyze", text, "--json")
    blob = json.loads(out)
    assert rc == 0 and blob["admissible"] is False
    assert blob["witness"] is None and blob["certificate"] is None
    rc, out, _ = run(capsys, "analyze", text)
    assert rc == 0 and out == "NOT ADMISSIBLE\n"


def test_analyze_poly_text_certificate(capsys):
    rc, out, _ = run(capsys, "analyze", "1 x^2 + 1 y^2 - 1")
    assert rc == 0
    lines = out.splitlines()
    assert lines[:4] == ["ADMISSIBLE", "certificate degree: 0", "U = -1",
                         "W = 1/4"]
    assert re.fullmatch(r"identity residual: \S+", lines[4])
    assert len(lines) == 5


def test_analyze_poly_text_witness(capsys):
    rc, out, _ = run(capsys, "analyze", "1 x^2 + 2 y^2 - 1")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "NOT ADMISSIBLE"
    assert re.fullmatch(r"witness: x = \S+, y = \S+", lines[1])
    assert re.fullmatch(r"residuals: P \S+, Q \S+", lines[2])
    assert len(lines) == 3


def test_analyze_non_finite_coefficient_exit(capsys):
    rc, out, err = run(capsys, "analyze", "1e999 x^2 + 1 y^2 - 1")
    assert rc == 4
    assert out == ""
    assert err.startswith("error:") and "1e999 x^2" in err


def test_analyze_requires_exactly_one_target(capsys):
    rc, _, _ = run(capsys, "analyze")
    assert rc == 5
    rc, _, _ = run(capsys, "analyze", "1 x", "--family", "circle")
    assert rc == 5


@pytest.mark.parametrize("samples", ["0", "-2"])
def test_analyze_rejects_fewer_than_one_sample(capsys, samples):
    rc, out, err = run(capsys, "analyze", "--family", "circle",
                       "--samples", samples)
    assert rc == 5
    assert out == ""
    assert err.startswith("error:")


def test_analyze_json_reproducible(capsys):
    argv = ("analyze", "--family", "parabola", "--samples", "2",
            "--seed", "9", "--json")
    _, one, _ = run(capsys, *argv)
    _, two, _ = run(capsys, *argv)
    assert one == two


# -- generate ---------------------------------------------------------------


def test_generate_deterministic_given_seed(capsys):
    argv = ("generate", "--params", "a=0", "b=0", "R=1", "--n", "20",
            "--sigma", "0.05", "--seed", "42")
    _, one, _ = run(capsys, *argv)
    _, two, _ = run(capsys, *argv)
    assert one == two


def test_generate_json_points_lie_on_curve(capsys):
    rc, out, _ = run(capsys, "generate", "--family", "ellipse",
                     "--params", "a=2", "b=1", "c=-1", "--n", "25",
                     "--seed", "1", "--json")
    assert rc == 0
    blob = json.loads(out)
    for x, y in blob["points"]:
        assert abs(2 * x * x + y * y - 1) < 1e-12


def test_generate_random_params_reproducible(capsys):
    argv = ("generate", "--family", "hyperbola", "--random-params",
            "--n", "10", "--seed", "7")
    _, one, _ = run(capsys, *argv)
    _, two, _ = run(capsys, *argv)
    assert one == two
    assert "family=hyperbola" in one


@pytest.mark.parametrize("argv", [
    ("generate", "--params", "a=0", "b=0"),            # incomplete theta
    ("generate", "--params", "a=zz", "b=0", "R=1"),    # bad number
    ("generate",),                                     # no parameters at all
    ("generate", "--params", "a=0", "b=0", "R=1", "--random-params"),
    ("generate", "--params", "a=0", "b=0", "R=-1"),    # invalid radius
    ("generate", "--params", "a=0", "b=0", "R=1", "Rr=5", "--json"),  # unknown
])
def test_generate_invalid_requests(capsys, argv):
    rc, _, _ = run(capsys, *argv)
    assert rc == 5


def test_generate_unwritable_output_is_invalid_spec(tmp_path, capsys):
    target = tmp_path / "no-such-dir" / "x.csv"
    rc, out, err = run(capsys, "generate", "--params", "a=0", "b=0", "R=1",
                       "--output", str(target))
    assert rc == 5
    assert err.startswith("error: cannot write") and str(target) in err
    assert out == ""


# -- bench ------------------------------------------------------------------


def test_bench_json_shape_and_exit(capsys):
    rc, out, _ = run(capsys, "bench", "--n", "20", "50", "--reps", "5",
                     "--seed", "3", "--json")
    assert rc == 0
    blob = json.loads(out)
    assert len(blob["rows"]) == 6
    cells = {(r["algorithm"], r["n"]) for r in blob["rows"]}
    assert cells == {("reduced", 20), ("reduced", 50),
                     ("generic", 20), ("generic", 50),
                     ("reweight", 20), ("reweight", 50)}


def test_bench_text_table(capsys):
    rc, out, _ = run(capsys, "bench", "--n", "20", "50", "--reps", "5",
                     "--seed", "3")
    assert rc == 0
    head, rule, *rows = out.splitlines()
    assert head.split() == ["algorithm", "n", "accum[s]", "per-iter[s]",
                            "iters", "total[s]", "objective"]
    assert set(rule) == {"-"}
    cells = {(r.split()[0], int(r.split()[1])) for r in rows}
    assert len(rows) == 6 and cells == {
        (algo, n) for algo in ("reduced", "generic", "reweight")
        for n in (20, 50)}


def test_bench_rejects_tiny_n(capsys):
    rc, _, _ = run(capsys, "bench", "--n", "5", "--reps", "5")
    assert rc == 5


# -- exit-code table --------------------------------------------------------


@pytest.mark.parametrize("exc,code", [
    (ParseError("x"), 3),
    (NonFiniteValue("x"), 4),
    (NonFiniteInput("x"), 4),
    (InvalidSpec("x"), 5),
    (NoCircle("x"), 6),
    (DegenerateData("x"), 6),
    (GradientVanishesAtSample("x"), 8),
    (NumericalFailure("x"), 9),
    (InvalidRadius("x"), 5),  # in this slot, the other cases keep their ids
    (ImaginaryRadius("x"), 11),
    (DegreeMismatch("x"), 12),
    (CenterHitsDataPoint("x"), 13),
    (DegenerateInput("x"), 14),
    # a subclass finds its base's code; in this slot, the others keep ids
    (type("ConstantCurve", (DegenerateInput,), {})("x"), 14),
    (GradfitError("x"), 1),
])
def test_exit_code_table(exc, code):
    assert exit_code_for(exc) == code


def test_docstring_exit_code_table_matches_mapping():
    # rows of the module docstring's table, continuation lines joined
    table = cli.__doc__.split("====  ")[2].splitlines()[1:]
    rows: dict = {}
    code = None
    for line in table:
        head = re.match(r"(\d+)\s", line)
        code = int(head.group(1)) if head else code
        rows[code] = rows.get(code, "") + " " + line
    names = {n for n, c in vars(errors).items()
             if isinstance(c, type) and issubclass(c, errors.GradfitError)}
    for code, text in rows.items():
        named = set(re.findall(r"\w+", text)) & names
        assert named == {cls.__name__ for cls, c in cli._EXIT_CODES.items()
                         if c == code}, code
    assert set(cli._EXIT_CODES.values()) <= set(rows)


def test_exit_code_unknown_subclass_falls_back_to_base():
    class Oddity(GradfitError):
        pass

    assert exit_code_for(Oddity("x")) == 1
    assert exit_code_for(ValueError("x")) == 1


def test_no_subcommand_is_usage_error(capsys):
    rc, _, _ = run(capsys, )
    assert rc == 2


def test_help_exits_zero(capsys):
    rc, out, _ = run(capsys, "--help")
    assert rc == 0
    assert "fit" in out and "analyze" in out


# -- the installed entry point ---------------------------------------------


def run_module(*argv, stdout=subprocess.PIPE):
    """``python -m gradfit ARGV`` with this checkout's package first on the
    path, and GRADFIT_SEED set to a value the CLI must not read."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, GRADFIT_SEED="abc", PYTHONPATH=path)
    return subprocess.run([sys.executable, "-m", "gradfit", *argv], env=env,
                          stdout=stdout, stderr=subprocess.PIPE, text=True,
                          timeout=120)


def test_module_geometric_overflow_exits_without_warnings(tmp_path):
    # the geometric fit accumulates its own start's moments: numpy's
    # overflow warnings must not reach stderr before the typed error
    huge = tmp_path / "huge.csv"
    huge.write_text("1e100,0\n2e100,1\n0,3e100\n5e99,5e99\n")
    proc = run_module("fit", "--algo", "geometric", str(huge))
    assert proc.returncode == 4
    assert proc.stdout == "" and proc.stderr.startswith("error:")
    assert "overflow" in proc.stderr and "RuntimeWarning" not in proc.stderr


@pytest.mark.parametrize("command", [(), ("fit",), ("analyze",),
                                     ("generate",), ("bench",)],
                         ids=["gradfit", "fit", "analyze", "generate", "bench"])
def test_module_help_exits_zero(command):
    proc = run_module(*command, "--help")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: gradfit") and proc.stderr == ""


@pytest.mark.parametrize("argv", [
    ("generate", "--params", "a=0", "b=0", "R=1", "--n", "200000"),
    ("analyze", "--family", "ellipse", "--samples", "1", "--json"),
], ids=["generate", "analyze"])
def test_closed_reader_ends_without_a_traceback(argv):
    # the pipe's read end is closed before the program writes anything, as
    # when `| head` has already exited
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = run_module(*argv, stdout=write_end)
    finally:
        os.close(write_end)
    assert proc.returncode == cli.EXIT_BROKEN_PIPE
    assert proc.stderr == ""
