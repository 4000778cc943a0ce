"""The package surface: ``permlab.__all__`` is its modules' ``__all__``s,
and every name in it has a user outside the tests."""
import ast
import re
from pathlib import Path

import permlab
from permlab import exact, models, montecarlo, perm, rng, sizebias, stats

MODULES = (exact, models, montecarlo, perm, rng, sizebias, stats)


def test_package_all_is_the_union_of_module_alls():
    names = permlab.__all__
    assert len(names) == len(set(names))
    assert set(names) == {name for module in MODULES for name in module.__all__}


def test_every_name_resolves_to_the_object_its_module_defines():
    # a module lists only what it defines, so no name has two declarations
    for module in MODULES:
        for name in module.__all__:
            obj = getattr(module, name)
            assert obj.__module__ == module.__name__, (module.__name__, name)
            assert getattr(permlab, name) is obj, (module.__name__, name)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from permlab import *", namespace)
    assert namespace["verify_size_bias_identity"] is sizebias.verify_size_bias_identity
    assert namespace["ExactDistribution"] is exact.ExactDistribution
    assert set(namespace) - {"__builtins__"} == set(permlab.__all__)


ROOT = Path(__file__).resolve().parent.parent


def _code_names() -> set[str]:
    """Every ``Name`` and ``Attribute`` the package, demos and benchmark read,
    each ``Attribute`` also as ``owner.attr`` (``pl.ModelSpec.unfair`` gives
    ``ModelSpec.unfair``), and every function the benchmark traces by its path
    in ``SPANS``."""
    seen = set()
    for folder in ("src/permlab", "demos", "bench"):
        for path in (ROOT / folder).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    seen.add(node.id)
                elif isinstance(node, ast.Attribute):
                    owner = getattr(node.value, "attr", getattr(node.value, "id", ""))
                    seen.update((node.attr, f"{owner}.{node.attr}"))
                elif isinstance(node, ast.AnnAssign) and getattr(node.target, "id", "") == "SPANS":
                    for _, paths in ast.literal_eval(node.value).values():
                        seen.update(p.split(".")[-1] for p in paths)
    return seen


def _readme_names() -> set[str]:
    """``pl.<name>`` calls, every dotted ``owner.attr`` pair and the
    identifiers of backticked spans in README."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    seen = set(re.findall(r"\bpl\.(\w+)", text))
    seen.update(map(".".join, re.findall(r"(?=\b([A-Za-z_]\w*)\.([A-Za-z_]\w*))", text)))
    prose = re.sub(r"```.*?```", "", text, flags=re.S)
    for span in re.findall(r"`([^`\n]+)`", prose):
        seen.update(re.findall(r"[A-Za-z_]\w*", span))
    return seen


def test_every_public_name_has_a_user_outside_tests():
    # a name only tests call restates another or serves nothing
    unused = set(permlab.__all__) - _code_names() - _readme_names()
    assert sorted(unused) == []


def test_every_public_constructor_has_a_user_outside_tests():
    # an alternative constructor only tests call restates the class's own
    used = _code_names() | _readme_names()
    constructors = {f"{name}.{attr}" for module in MODULES for name in module.__all__
                    if isinstance(getattr(module, name), type)
                    for attr, value in vars(getattr(module, name)).items()
                    if isinstance(value, classmethod) and not attr.startswith("_")}
    assert sorted(constructors - used) == []
