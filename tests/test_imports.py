"""What ``import scenefix`` loads, and the names it resolves on first use."""

from __future__ import annotations

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
