"""Smoke runs of the study scripts under scripts/ with tiny arguments, and
a check that the benchmark's tracer still finds what it wraps."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def load(name, directory=SCRIPTS):
    spec = importlib.util.spec_from_file_location(name,
                                                  directory / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, argv, expected", [
    ("monte_carlo_accuracy", ["--trials", "3"], "rmse(R) geo"),
    ("conic_case_studies", ["--samples", "1"], "== parabola: not reducible =="),
    ("verdict_sweep", ["--draws", "10"], "total: 0 wrong, 0 inconclusive"),
], ids=[  # fixed, so a case keeps its id when another is added or removed
    "monte_carlo_accuracy-argv1-rmse(R) geo",
    "conic_case_studies-argv2-== parabola: not reducible ==",
    "verdict_sweep-argv3-total: 0 wrong, 0 inconclusive",
])
def test_script_runs(capsys, name, argv, expected):
    assert load(name).main(argv) == 0
    assert expected in capsys.readouterr().out


def test_case_studies_report_a_verdict_without_witness(capsys, monkeypatch):
    # with the numerical search blind, the ideal test alone decides
    import gradfit.analyzer
    monkeypatch.setattr(gradfit.analyzer, "find_common_zero",
                        lambda P, Q: None)
    assert load("conic_case_studies").main(["--samples", "1"]) == 0
    out = capsys.readouterr().out
    assert out.count("admissible=False  decided by the ideal test") == 3


def test_verdict_sweep_fails_on_a_verdict_without_witness(capsys,
                                                          monkeypatch):
    import gradfit.analyzer
    from gradfit.errors import NumericalFailure

    real = gradfit.analyzer.find_common_zero

    def fail(P, Q):  # as the search does: only where a common zero exists
        if real(P, Q) is not None:
            raise NumericalFailure("no witness")

    monkeypatch.setattr(gradfit.analyzer, "find_common_zero", fail)
    assert load("verdict_sweep").main(["--draws", "1"]) == 1
    assert "0 wrong, 0 inconclusive, 3 without witness" in \
        capsys.readouterr().out


def test_traced_functions_exist_where_the_tracer_looks():
    # perfbench/spans.py wraps these by (owner, attribute); a rename must
    # fail here, not first in a traced benchmark run
    spans = load("spans", ROOT / "perfbench")
    for owner, attr, name, _ in spans._targets():
        assert attr in vars(owner), f"{name}: {owner.__name__}.{attr}"
