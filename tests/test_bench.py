import math

import pytest

from gradfit.bench import BenchReport, BenchRow, run_bench
from gradfit.errors import InvalidSpec


@pytest.fixture(scope="module")
def report():
    return run_bench([20, 60], repetitions=5, seed=7, sigma=0.01)


def test_rows_cover_every_cell(report):
    cells = {(r.algorithm, r.n) for r in report.rows}
    assert cells == {("reduced", 20), ("reduced", 60),
                     ("generic", 20), ("generic", 60),
                     ("reweight", 20), ("reweight", 60)}
    assert len(report.rows) == 6


def test_row_fields_sane(report):
    for r in report.rows:
        assert r.accumulation_seconds >= 0.0
        assert r.total_seconds > 0.0
        assert r.iterations >= 1
        assert math.isfinite(r.objective)
        assert r.per_iteration_seconds > 0.0


def test_reduced_did_real_iterations(report):
    # the deliberately offset start keeps the timed loop non-trivial
    assert report.row("reduced", 60).iterations >= 2


def test_row_lookup_and_missing_cell(report):
    assert report.row("reduced", 20).n == 20
    with pytest.raises(KeyError):
        report.row("reduced", 999)


def test_deterministic_apart_from_timings(report):
    again = run_bench([20, 60], repetitions=5, seed=7, sigma=0.01)
    for a, b in zip(report.rows, again.rows):
        assert a.algorithm == b.algorithm
        assert a.n == b.n
        assert a.iterations == b.iterations
        assert a.objective == b.objective


def test_table_lists_algorithms_and_sizes(report):
    text = report.table()
    assert "reduced" in text and "reweight" in text
    assert "per-iter[s]" in text
    assert "60" in text


def test_to_dict_roundtrips_rows(report):
    blob = report.to_dict()
    assert blob["repetitions"] == 5
    assert blob["seed"] == 7
    assert len(blob["rows"]) == 6
    assert set(blob["rows"][0]) == {
        "algorithm", "n", "accumulation_seconds", "per_iteration_seconds",
        "iterations", "total_seconds", "objective"}


@pytest.mark.parametrize("kwargs", [
    {"ns": []},
    {"ns": [5, 100]},
    {"ns": [100], "repetitions": 4},
    {"ns": [100], "repetitions": 0},
])
def test_invalid_requests_rejected(kwargs):
    with pytest.raises(InvalidSpec):
        run_bench(**kwargs)


def test_row_to_dict_is_json_plain():
    row = BenchRow("reduced", 10, 1e-5, 1e-6, 3, 2e-5, 0.5)
    blob = row.to_dict()
    assert all(isinstance(v, (str, int, float)) for v in blob.values())


def test_report_is_frozen(report):
    with pytest.raises(AttributeError):
        report.seed = 1
