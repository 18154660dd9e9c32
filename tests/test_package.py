"""The package's public surface: what ``gradfit.__all__`` promises exists,
the README's examples, which use it, the values it returns, which copy and
pickle, and no package code that only tests reach."""

import ast
import copy
import dataclasses
import pickle
import re
import shlex
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import gradfit
from gradfit.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
# the code that ships and runs: the package, its scripts and its benchmark
SHIPPED = ("src/gradfit", "scripts", "perfbench")


def test_every_public_name_resolves():
    missing = [name for name in gradfit.__all__ if not hasattr(gradfit, name)]
    assert not missing


def test_star_import():
    namespace = {}
    exec("from gradfit import *", namespace)
    assert set(gradfit.__all__) <= set(namespace)


def test_readme_python_examples_run():
    # every python block of the README, in order, in one namespace, so a
    # removed or renamed public name fails here and not in a reader's hands
    blocks = re.findall(r"^```python\n(.*?)^```$",
                        README.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)


def test_readme_shell_quick_start_runs(tmp_path, monkeypatch, capsys):
    # every gradfit command of the README's sh blocks, in order, in one
    # directory, through the CLI's entry point; bench is left out, as
    # acceptance criterion 5 times the same fits
    blocks = re.findall(r"^```sh\n(.*?)^```$",
                        README.read_text(encoding="utf-8"), re.M | re.S)
    commands = [shlex.split(line, comments=True) for block in blocks
                for line in block.replace("\\\n", " ").splitlines()]
    commands = [argv[1:] for argv in commands
                if argv[:1] == ["gradfit"] and argv[1] != "bench"]
    assert any("--moments" in argv for argv in commands)
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv) == 0, (argv, capsys.readouterr().err)


def test_no_package_code_only_tests_reach():
    # each module-level function or class outside ``__all__``, and each
    # method of such a class, must be named in shipped code beyond its own
    # def or class line: code that only tests call is deleted, not kept
    sources = {path: path.read_text(encoding="utf-8")
               for d in SHIPPED for path in sorted((ROOT / d).rglob("*.py"))}
    words = Counter(w for src in sources.values()
                    for w in re.findall(r"\w+", src))
    unreached = []
    for path in sorted((ROOT / "src/gradfit").glob("*.py")):
        lines = sources[path].splitlines()
        for node in ast.parse(sources[path]).body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name in gradfit.__all__):
                continue
            defs = [node]
            if isinstance(node, ast.ClassDef):
                defs += [m for m in node.body
                         if isinstance(m, ast.FunctionDef)
                         and not re.fullmatch(r"__\w+__", m.name)]
            for d in defs:
                own = re.findall(r"\w+", lines[d.lineno - 1]).count(d.name)
                if words[d.name] <= own:
                    unreached.append(f"{path.name}:{d.lineno} {d.name}")
    assert not unreached


@pytest.mark.parametrize("clone", [
    copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))],
    ids=["copy", "deepcopy", "pickle"])
def test_returned_values_copy_and_pickle(clone, tmp_path):
    # as a verdict or a fit is sent back from a worker process: the copy
    # equals the original
    circle = gradfit.parse_poly("x^2 + y^2 - 1")
    admissible = gradfit.decide_reduction(circle)
    inadmissible = gradfit.decide_reduction(
        gradfit.parse_poly("2 x^2 + y^2 - 1"))
    assert admissible.admissible and not inadmissible.admissible
    line_cert = gradfit.decide_reduction(
        gradfit.parse_poly("x + y - 1")).certificate
    t = np.arange(12.0)
    pts = np.column_stack([np.cos(t), np.sin(t)])
    line = np.column_stack([t, 0.5 * t - 1.0 + 0.01 * np.sin(3.0 * t)])
    values = [
        circle, admissible, inadmissible,
        gradfit.analyze_family("circle", 2),
        gradfit.analyze_family("ellipse", 2),
        gradfit.fit_circle_reduced(gradfit.MomentVector.from_points(pts, 4)),
        gradfit.fit_reduced_generic(
            "line", line_cert, gradfit.MomentVector.from_points(line, 2)),
    ]
    for value in values:
        assert clone(value) == value, value
    # a MomentVector has no ==; its record stands for it
    saved = tmp_path / "m.json"
    gradfit.MomentVector.from_points(pts, 4, offset=(1.0, -2.0)).dump(saved)
    for mv in (gradfit.MomentVector(4), gradfit.MomentVector.load(saved),
               gradfit.MomentVector.from_points(pts, 4)):
        assert clone(mv).to_dict() == mv.to_dict()
    blob = dataclasses.asdict(admissible)
    assert blob["certificate"]["U"] == admissible.certificate.U
