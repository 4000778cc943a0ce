"""The package surface: ``permlab.__all__`` is its modules' ``__all__``s."""
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
    assert namespace["InversionConstants"] is exact.InversionConstants
    assert set(namespace) - {"__builtins__"} == set(permlab.__all__)
