"""Names resolve: the package's ``__all__``, the functions the traced
benchmark wraps, and the layering of ``core`` below every other module."""

from __future__ import annotations

import ast
import importlib
import importlib.util
from pathlib import Path

import twistpoly
from twistpoly import core

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_traced_layers_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module, function in spans.LAYERS:
        assert callable(getattr(importlib.import_module(module), function))


def test_public_names_resolve_once():
    assert len(set(twistpoly.__all__)) == len(twistpoly.__all__)
    for name in twistpoly.__all__:
        assert hasattr(twistpoly, name), name


def test_core_imports_nothing_from_the_package():
    tree = ast.parse(Path(core.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0 and not (node.module or "").startswith("twistpoly")
        elif isinstance(node, ast.Import):
            assert not any(alias.name.startswith("twistpoly") for alias in node.names)
