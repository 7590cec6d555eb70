import sys

import numpy as np
import pytest

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


def fresh_basis():
    """A fresh common basis of one fixed pair, from fresh state objects."""
    rho = np.array([[0.7, 0.1j], [-0.1j, 0.3]])
    return commonbasis.common_basis(
        states.validate_density(rho), states.validate_density(np.eye(2) / 2)
    )


LDP_PAIR = (states.validate_density(np.diag([0.75, 0.25])), states.validate_density(np.eye(2) / 2))


@pytest.mark.parametrize(
    "build",
    [
        lambda: states.PureState(np.array([0.6, 0.8])),
        fresh_basis,
        lambda: ensembles.DiscreteEnsemble(np.eye(2), np.array([0.5, 0.5])),
        lambda: ensembles.CoarseKernel(np.eye(2), (0, 1), 0.1),
        lambda: dynamics.LindbladModel(np.diag([1.0, -1.0])),
        lambda: dynamics.Trajectory(np.zeros(2), np.eye(2), np.zeros(2), 0, 0),
        lambda: entropy.KrausMap((np.eye(2),)),
        lambda: ldp.make_experiment(*LDP_PAIR, 0.1, (10,)),  # the same states and basis
    ],
    ids=["PureState", "CommonBasis", "DiscreteEnsemble", "CoarseKernel", "LindbladModel",
         "Trajectory", "KrausMap", "LdpExperiment"],
)
def test_array_holding_dataclasses_compare_and_hash_by_identity(build):
    # a generated __eq__ would compare ndarray fields, and so raise
    a, b = build(), build()
    assert a == a and a != b and not a == b
    assert len({a, b, a}) == 2
