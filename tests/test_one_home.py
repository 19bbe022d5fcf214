"""Each integer-form decision has one home in src/jkvkit, checked on the
syntax tree: only ratlinalg clears rationals to integers (imports lcm),
only serialize reads comma-separated integer vectors (calls .split(",")),
only intlinalg inverts a matrix (reduces an identity-augmented matrix
with fraction_free_rref), and only the memoized coefficient path of
polytope solves the max-min barycentric LP."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "jkvkit"
TREES = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}


def _modules_where(pred):
    return sorted(name for name, tree in TREES.items() if any(pred(node) for node in ast.walk(tree)))


def _imports_lcm(node):
    if isinstance(node, ast.ImportFrom):
        return any(alias.name == "lcm" for alias in node.names)
    return isinstance(node, ast.Attribute) and node.attr == "lcm"


def _splits_on_commas(node):
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "split"
        and len(node.args) == 1
        and isinstance(node.args[0], ast.Constant)
        and node.args[0].value == ","
    )


def _inverts_by_augmenting(node):
    """A function that calls fraction_free_rref and builds identity entries,
    an ``i == j`` test of two names (``int(i == j)``, ``... if i == j else``)."""
    if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return False
    subs = list(ast.walk(node))
    reduces = any(
        isinstance(sub, ast.Call) and getattr(sub.func, "id", None) == "fraction_free_rref"
        for sub in subs
    )
    return reduces and any(
        isinstance(sub, ast.Compare)
        and isinstance(sub.left, ast.Name)
        and isinstance(sub.ops[0], ast.Eq)
        and isinstance(sub.comparators[0], ast.Name)
        for sub in subs
    )


def test_only_ratlinalg_imports_lcm():
    assert _modules_where(_imports_lcm) == ["ratlinalg.py"]


def test_only_serialize_splits_on_commas():
    assert _modules_where(_splits_on_commas) == ["serialize.py"]


def test_only_intlinalg_inverts_through_an_identity_augmented_reduction():
    assert _modules_where(_inverts_by_augmenting) == ["intlinalg.py"]


def test_only_the_memoized_coefficient_path_solves_the_barycentric_lp():
    callers = sorted(
        (name, func.name)
        for name, tree in TREES.items()
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for sub in ast.walk(func)
        if isinstance(sub, ast.Call) and getattr(sub.func, "id", None) == "_barycentric_lp"
    )
    assert callers == [("polytope.py", "_barycentric_cached")]
