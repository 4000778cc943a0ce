"""The conditional-variance clamp has one owner: ``sizebias.stein_bound`` is
the only function of the package that calls ``warnings.warn``, so no other
estimate clamps or warns on its own."""
import ast
from pathlib import Path

import permlab


def _warns(node: ast.AST) -> bool:
    if isinstance(node, ast.Attribute):
        return node.attr == "warn" and isinstance(node.value, ast.Name) and node.value.id == "warnings"
    if isinstance(node, ast.Name):
        return node.id == "warn"
    return isinstance(node, ast.alias) and node.name == "warn"


def _callers(node: ast.AST, owner: str = "<module>") -> set:
    """Names of the innermost functions (``<module>`` outside any) that read
    ``warnings.warn`` or a bare ``warn``."""
    found = {owner} if _warns(node) else set()
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        owner = node.name
    for child in ast.iter_child_nodes(node):
        found |= _callers(child, owner)
    return found


def test_only_stein_bound_warns():
    found = set()
    for path in Path(permlab.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found |= {(path.stem, owner) for owner in _callers(tree)}
    assert found == {("sizebias", "stein_bound")}
