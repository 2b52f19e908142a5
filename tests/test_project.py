"""Tests of the project metadata in pyproject.toml."""

import importlib
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_every_console_script_resolves():
    with open(PYPROJECT, "rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        assert attr, f"script {name} names no attribute: {target}"
        assert callable(getattr(importlib.import_module(module), attr)), name
