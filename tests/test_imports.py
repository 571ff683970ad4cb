"""What ``import scenefix`` loads, the names it resolves on first use, and
that every module reads each name it imports."""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import scenefix

SRC = str(Path(scenefix.__file__).resolve().parent.parent)
HEAVY = ("numpy", "concurrent.futures", "urllib.request")
LAZY = (
    "Addition", "AttributeModify", "DepthModify", "Deletion", "EditAction", "FacingModify",
    "Reposition", "SymbolicScene", "apply_actions", "apply_depth_formula", "diff_layouts",
    "scene_from_layout", "RunConfig", "RunReport", "run_batch", "run_round", "run_sample",
)


def _loaded_after(statement: str) -> list[str]:
    """The HEAVY modules a fresh interpreter holds after running ``statement``."""
    code = f"import json, sys\n{statement}\nprint(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": SRC}, check=True,
    )
    return json.loads(proc.stdout)


@pytest.mark.parametrize(
    "statement",
    [
        "import scenefix",
        # the names an external interpreter child needs to solve a request
        "from scenefix import convert_expression, parse_expression, parse_wire_layout, "
        "serialize_wire_layout, suggest_layout",
    ],
)
def test_import_leaves_numpy_pool_and_urllib_unloaded(statement):
    assert _loaded_after(statement) == []


def test_a_lazy_name_loads_its_module():
    assert "numpy" in _loaded_after("from scenefix import diff_layouts")


def test_every_exported_name_resolves():
    for name in scenefix.__all__:
        assert getattr(scenefix, name) is not None, name


def test_lazy_names_are_the_edit_and_pipeline_objects():
    import scenefix.edits as edits
    import scenefix.pipeline as pipeline

    for name in LAZY:
        assert getattr(scenefix, name) is getattr(edits, name, getattr(pipeline, name, None)), name


def test_evaluate_is_the_function():
    import scenefix.pipeline  # noqa: F401  (importing the submodules must not rebind it)

    assert callable(scenefix.evaluate)
    assert scenefix.evaluate.__module__ == "scenefix.evaluate"


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        scenefix.no_such_name  # noqa: B018
    assert not hasattr(scenefix, "no_such_name")


def test_dir_lists_the_lazy_names():
    listing = dir(scenefix)
    assert set(LAZY) <= set(listing)
    assert set(scenefix.__all__) <= set(listing)


def _unread_imports(source: str) -> list[str]:
    """The names a module imports and never reads, except on ``# noqa: F401`` lines."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if "# noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in read)


def test_unread_imports_are_found():
    source = "from os import path, sep\nimport json.decoder\nfrom re import sub  # noqa: F401\n"
    assert _unread_imports(source + "print(sep)\n") == ["json (line 2)", "path (line 1)"]


PACKAGE = Path(scenefix.__file__).parent


# ``__init__`` imports names to export them
@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py"))
def test_every_imported_name_is_read(module):
    source = (PACKAGE / module).read_text(encoding="utf-8")
    assert _unread_imports(source) == []
