"""Certificate re-checks must still run under python -O, so the modules
listed here use checks.require and no assert statement.  A module joins the
list once its asserts are moved onto require."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "jkvkit"


@pytest.mark.parametrize("module", ["gln.py", "cli.py", "polys.py", "torus.py"])
def test_module_has_no_assert_statement(module):
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"), filename=module)
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{module} asserts on lines {lines}; use checks.require"
