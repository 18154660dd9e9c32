"""The package's public surface: what ``gradfit.__all__`` promises exists,
the README's examples, which use it, and no package code that only tests
reach."""

import ast
import re
from collections import Counter
from pathlib import Path

import gradfit

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
