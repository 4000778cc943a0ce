"""The run clock lives in ``cli``: no other permlab module imports ``time``,
so a run's timing is measured in one place."""
import ast
from pathlib import Path

import permlab


def _imports_time(tree: ast.Module) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "time" for a in node.names):
            return True
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "time":
            return True
    return False


def test_only_cli_imports_time():
    found = {path.stem for path in Path(permlab.__file__).parent.glob("*.py")
             if _imports_time(ast.parse(path.read_text(encoding="utf-8")))}
    assert found == {"cli"}
