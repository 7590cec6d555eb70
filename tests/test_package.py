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


def _held_pure_state():
    a = np.array([0.6, 0.8j])
    psi = states.PureState(a)

    def spoil():
        a[0] = 3.0

    def certified():
        states.check_unit_rows(psi.amplitudes[None])

    return {"amplitudes": psi.amplitudes}, [a], spoil, certified


def _held_ensemble():
    a = np.array([[1.0, 0.0], [0.6, 0.8]], dtype=complex)
    w = np.array([0.25, 0.75])
    ens = ensembles.DiscreteEnsemble(a, w)

    def spoil():
        a[0] = [3.0, 0.0]
        w[0] = 5.0

    def certified():
        states.check_unit_rows(ens.amps)
        assert ens.weights.tolist() == [0.25, 0.75]
        assert ensembles.realize(ens).dim == 2

    return {"amps": ens.amps, "weights": ens.weights}, [a, w], spoil, certified


def _held_merged_ensemble():
    rows = np.array([[1.0, 0.0], [0.6, 0.8], [1j, 0.0]])  # rows 0 and 2 are one ray
    w = np.array([0.25, 0.5, 0.25])
    ens = ensembles._merged_ensemble(rows, w)

    def spoil():
        rows[:] = 3.0
        w[:] = -1.0

    def certified():
        states.check_unit_rows(ens.amps)
        assert ens.weights.tolist() == [0.5, 0.5]
        assert ensembles.realize(ens).dim == 2

    return {"amps": ens.amps, "weights": ens.weights}, [rows, w], spoil, certified


def _held_atoms():
    a = np.array([[1.0, 0.0], [0.6, 0.8]], dtype=complex)
    ens = ensembles.DiscreteEnsemble(a, np.array([0.25, 0.75]))
    atoms = ens.atoms

    def spoil():
        a[0] = [3.0, 0.0]

    def certified():
        states.check_unit_rows(np.stack([psi.amplitudes for psi in atoms]))

    held = {f"atoms[{i}]": psi.amplitudes for i, psi in enumerate(atoms)}
    return held, [a, ens.amps], spoil, certified


def _held_model_and_states():
    h = np.diag([1.0, -1.0]).astype(complex)
    s = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    model = dynamics.LindbladModel(h, (s,), (0.5,))
    traj = dynamics.sse_trajectory(
        model, states.PureState(np.array([0.6, 0.8])), 0.05, 0.01, states.RngStream(3)
    )
    path = traj.states

    def spoil():
        h[0, 0] = 7.0
        s[0, 1] = 9.0
        traj.amps[0] = [3.0, 0.0]  # a Trajectory is an unchecked container

    def certified():
        drift = -1j * model.hamiltonian
        drift -= 0.5 * (0.5 * 0.5) * (model.jumps[0].conj().T @ model.jumps[0])
        assert np.array_equal(model.drift, drift)
        assert model.rates == (0.5,)  # a non-array field is left as given
        states.check_unit_rows(np.stack([psi.amplitudes for psi in path]))

    held = {"hamiltonian": model.hamiltonian, "jumps[0]": model.jumps[0], "drift": model.drift}
    held.update({f"states[{i}]": psi.amplitudes for i, psi in enumerate(path)})
    return held, [h, s, traj.amps], spoil, certified


BASIS_FIELDS = ("psis", "dual", "rho_coeffs", "sigma_coeffs", "eigenvalues")


def _held_basis_and_measures():
    made = fresh_basis()
    inputs = {name: np.array(getattr(made, name)) for name in BASIS_FIELDS}
    cb = commonbasis.CommonBasis(**inputs)
    mu, nu = commonbasis.cb_measures(cb)
    basis = cb.basis

    def spoil():
        inputs["psis"][:, 0] = [3.0, 0.0]
        inputs["rho_coeffs"][:] = -1.0

    def certified():
        for ens in (mu, nu):
            states.check_unit_rows(ens.amps)
            assert ensembles.realize(ens).dim == 2  # a trace of 1
        states.check_unit_rows(np.stack([psi.amplitudes for psi in basis]))
        assert cb.rho_coeffs.min() >= 0.0

    held = {name: getattr(cb, name) for name in BASIS_FIELDS}
    for name in ("rho_weights", "sigma_weights", "gram", "gram_eigenvalues"):
        held[name] = getattr(cb, name)
    held.update({"mu.amps": mu.amps, "mu.weights": mu.weights, "nu.amps": nu.amps})
    held.update({"nu.weights": nu.weights})
    held.update({f"basis[{i}]": psi.amplitudes for i, psi in enumerate(basis)})
    return held, list(inputs.values()), spoil, certified


def _held_channel_and_state():
    m = np.array([[0.7, 0.1j], [-0.1j, 0.3]])
    rho = states.validate_density(m)
    ops = [np.sqrt(0.5) * np.eye(2, dtype=complex), np.sqrt(0.5) * np.diag([1.0, -1.0]) + 0j]
    phi = entropy.KrausMap(tuple(ops))

    def spoil():
        m[0, 0] = 5.0
        ops[0][:] = 0.0

    def certified():
        total = sum(k.conj().T @ k for k in phi.operators)
        assert np.abs(total - np.eye(2)).max() <= 1e-10
        assert abs(np.trace(rho.matrix) - 1.0) <= 1e-10
        assert entropy.apply_cptp(phi, rho).dim == 2  # a trace of 1

    held = {"matrix": rho.matrix, "eigenvalues": rho.eig[0], "eigenvectors": rho.eig[1]}
    held.update({f"operators[{i}]": k for i, k in enumerate(phi.operators)})
    return held, [m, *ops], spoil, certified


def _held_experiment():
    w = np.array([0.4, 0.6])
    rho, sigma = LDP_PAIR
    exp = ldp.LdpExperiment(rho, sigma, commonbasis.common_basis(rho, sigma), 0.1, (10,), w)

    def spoil():
        w[:] = [2.0, -1.0]

    def certified():
        assert exp.reference_weights.tolist() == [0.4, 0.6]
        assert np.array_equal(exp.log_weights, np.log(exp.reference_weights))

    names = ("reference_weights", "log_weights", "proj", "gram")
    held = {name: getattr(exp, name) for name in names}
    return held, [w, exp.cb.psis, exp.cb.gram, exp.rho.matrix], spoil, certified


@pytest.mark.parametrize(
    "build",
    [
        _held_pure_state,
        _held_ensemble,
        _held_merged_ensemble,
        _held_atoms,
        _held_model_and_states,
        _held_basis_and_measures,
        _held_channel_and_state,
        _held_experiment,
    ],
    ids=["PureState", "DiscreteEnsemble", "merged-DiscreteEnsemble", "atoms",
         "LindbladModel-states", "cb_measures-basis", "KrausMap-DensityMatrix", "LdpExperiment"],
)
def test_checked_records_hold_read_only_arrays_of_their_own(build):
    # every array a checked record certified is read-only and shares no memory
    # with what it was built from, so no later write can break what was checked
    held, inputs, spoil, certified = build()
    for name, arr in held.items():
        assert not arr.flags.writeable, name
        for source in inputs:
            assert not np.shares_memory(arr, source), name
    spoil()
    certified()
