"""The package's public surface: what ``gradfit.__all__`` promises exists."""

import gradfit


def test_every_public_name_resolves():
    missing = [name for name in gradfit.__all__ if not hasattr(gradfit, name)]
    assert not missing


def test_star_import():
    namespace = {}
    exec("from gradfit import *", namespace)
    assert set(gradfit.__all__) <= set(namespace)
