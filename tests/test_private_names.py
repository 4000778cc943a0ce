"""Every private name one permlab module takes from a sibling, listed: a new
reach into another module's internals fails here until it is added below."""
import ast
from pathlib import Path

import permlab

# (module, sibling, name)
ALLOWED = {
    ("cli", "exact", "_law_table"),
    ("cli", "models", "_block_rows"),
    ("cli", "montecarlo", "_check_budget"),
    ("exact", "models", "_fixed_counts"),
    ("models", "stats", "_inverse_rows"),
    ("montecarlo", "models", "_block_rows"),
    ("montecarlo", "models", "_fixed_counts"),
    ("sizebias", "exact", "_pair_sums"),
    ("sizebias", "models", "_block_rows"),
    ("sizebias", "models", "_log_scores"),
    ("sizebias", "models", "_stream_blocks"),
}


def _private_uses(module: str, tree: ast.Module) -> set:
    """Private names taken by ``from .m import _x`` or read as ``m._x`` off a
    sibling module bound by ``from . import m [as alias]``."""
    siblings, uses = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    siblings[alias.asname or alias.name] = alias.name
                elif alias.name.startswith("_"):
                    uses.add((module, node.module, alias.name))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in siblings and node.attr.startswith("_")
                and not node.attr.startswith("__")):
            uses.add((module, siblings[node.value.id], node.attr))
    return uses


def test_cross_module_private_names_are_the_allowed_ones():
    found = set()
    for path in Path(permlab.__file__).parent.glob("*.py"):
        found |= _private_uses(path.stem, ast.parse(path.read_text(encoding="utf-8")))
    assert found == ALLOWED
