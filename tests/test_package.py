"""The package's public surface: what ``gradfit.__all__`` promises exists,
and the README's examples, which use it."""

import re
from pathlib import Path

import gradfit

README = Path(__file__).resolve().parent.parent / "README.md"


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
