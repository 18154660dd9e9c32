"""The package's public surface: what ``gradfit.__all__`` promises exists,
the README's examples, which use it, and no package code that only tests
reach."""

import ast
import re
import shlex
from collections import Counter
from pathlib import Path

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
