"""Certificate re-checks must still run under python -O, so every module in
src/jkvkit uses checks.require and no assert statement.  oracles.py holds
the test-side references and is the one exception."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "jkvkit"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "oracles.py")


@pytest.mark.parametrize("module", MODULES)
def test_module_has_no_assert_statement(module):
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"), filename=module)
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{module} asserts on lines {lines}; use checks.require"
