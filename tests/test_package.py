import sys

import qunravel
from qunravel import commonbasis, dynamics, ensembles, entropy, errors, ldp, matcore, states

MODULES = (matcore, states, ensembles, commonbasis, entropy, dynamics, ldp)


def test_package_all_is_the_union_of_the_module_lists():
    expected = list(dict.fromkeys(name for m in MODULES for name in m.__all__)) + ["errors"]
    assert qunravel.__all__ == expected
    assert qunravel.errors is errors


def test_each_public_name_is_its_defining_modules_object():
    for module in MODULES:
        for name in module.__all__:
            obj = getattr(qunravel, name)
            assert obj is getattr(module, name)
            home = getattr(obj, "__module__", module.__name__)
            if callable(obj) and home.startswith("qunravel."):
                assert getattr(sys.modules[home], name) is obj
    assert qunravel.hermiticity_defect is matcore.hermiticity_defect
    assert qunravel.TOL_MATCH is ensembles.TOL_MATCH


def test_star_import_brings_exactly_the_package_list():
    namespace = {}
    exec("from qunravel import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(qunravel.__all__)
