"""The batch statistics' input rule lives in ``stats._rows``: no other
function of ``stats`` reads ``isnan`` or ``dtype.kind``, so what a kernel
accepts is decided in one place."""
import ast
from pathlib import Path

from permlab import stats


def _reads_the_rule(node: ast.AST) -> bool:
    if isinstance(node, ast.Attribute):
        return node.attr == "isnan" or (node.attr == "kind"
                                        and isinstance(node.value, ast.Attribute)
                                        and node.value.attr == "dtype")
    if isinstance(node, ast.Name):
        return node.id == "isnan"
    return isinstance(node, ast.alias) and node.name == "isnan"


def _readers(node: ast.AST, owner: str = "<module>") -> set:
    """Names of the innermost functions (``<module>`` outside any) that read
    ``isnan`` or ``.dtype.kind``."""
    found = {owner} if _reads_the_rule(node) else set()
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        owner = node.name
    for child in ast.iter_child_nodes(node):
        found |= _readers(child, owner)
    return found


def test_only_rows_reads_isnan_and_dtype_kind():
    tree = ast.parse(Path(stats.__file__).read_text(encoding="utf-8"))
    assert _readers(tree) == {"_rows"}
