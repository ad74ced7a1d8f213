"""The top-level namespace is exactly the union of the modules' public names."""

import delaygrowth
from delaygrowth import analysis, coefficients, errors, functionals, logdomain, simulator


def test_top_level_all_is_the_union_of_the_module_lists():
    modules = (analysis, coefficients, errors, functionals, logdomain, simulator)
    union = [name for module in modules for name in module.__all__]
    assert len(set(union)) == len(union)
    assert sorted(delaygrowth.__all__) == sorted(union)
    for module in modules:
        for name in module.__all__:
            assert getattr(delaygrowth, name) is getattr(module, name)
