"""Smoke runs of the study scripts under scripts/ with tiny arguments."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, argv, expected", [
    ("complexity_benchmark", ["--n", "100", "200"],
     "reduced per-iteration cost grew"),
    ("monte_carlo_accuracy", ["--trials", "3"], "rmse(R) geo"),
    ("conic_case_studies", ["--samples", "1"], "== parabola: not reducible =="),
])
def test_script_runs(capsys, name, argv, expected):
    assert load(name).main(argv) == 0
    assert expected in capsys.readouterr().out
