"""The real Hermitian frame that Lindblad flows are propagated in."""
import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

import qunravel.dynamics as dynamics
from qunravel import (
    LindbladModel,
    RngStream,
    contraction_scan,
    lindblad_evolve,
    lindblad_superop,
    sample_faithful,
)
from qunravel.errors import ValidationFailure

GRIDS = {
    "uniform": np.linspace(0.0, 2.0, 21),
    "uneven": np.array([0.0, 0.03, 0.3, 0.31, 1.2, 1.9, 2.0]),
    "late-start": np.array([0.7, 0.75, 1.1, 2.5]),
}
# 2001 points whose gaps all differ, so every point builds its own propagator
GEOMSPACE = np.concatenate([[0.0], np.geomspace(1e-3, 2.0, 2000)])


def random_model(dim, rng, n_jumps=2, anti_hermitian=0.0):
    h = rng.complex_normal((dim, dim))
    h = 0.5 * (h + h.conj().T)
    a = rng.complex_normal((dim, dim))
    a = 0.5 * (a - a.conj().T)
    h = h + anti_hermitian * a / np.abs(a).max()
    jumps = tuple(rng.complex_normal((dim, dim)) / math.sqrt(dim) for _ in range(n_jumps))
    rates = tuple(float(g) for g in rng.gen.uniform(0.2, 1.0, n_jumps))
    return LindbladModel(h, jumps, rates)


def frame_units(n):
    """The n^2 frame units as a ``(n^2, n, n)`` stack, unit k first."""
    return dynamics._frame_vecs(np.eye(n * n), n)


def frame_matrix(n):
    """The dense frame matrix T, column k the column-stacked unit k."""
    return matrix_columns(frame_units(n))


def matrix_columns(mats):
    return np.stack([m.flatten(order="F") for m in mats], axis=1)


def columns(*states):
    return matrix_columns([s.matrix for s in states])


def close(got, ref, rel=1e-12):
    return bool((np.abs(got - ref) <= rel * np.maximum(1.0, np.abs(ref))).all())


def evolve_matches(model, rho, t, ref):
    """``lindblad_evolve`` against the complex column ``ref``, renormalized to
    trace 1 as the evolved state is."""
    dim = model.dim
    got = lindblad_evolve(model, rho, t).matrix.flatten(order="F")
    return close(got, ref / ref[:: dim + 1].real.sum())


@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_the_frame_is_orthonormal_and_hermitian(n):
    units = frame_units(n)
    assert units.shape == (n * n, n, n)
    t = frame_matrix(n)
    assert np.abs(t.conj().T @ t - np.eye(n * n)).max() <= 4e-16
    for u in units:
        assert np.array_equal(u, u.conj().T)
    # every row and every column has at most two nonzeros
    assert (np.count_nonzero(t, axis=0) <= 2).all()
    assert (np.count_nonzero(t, axis=1) <= 2).all()


@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_coordinates_are_the_real_part_of_t_dagger_vec(n):
    rng = RngStream(200 + n)
    x = rng.complex_normal((3, n, n))
    got = dynamics._frame_coords(x, n)
    assert got.dtype == float
    assert got.shape == (n * n, 3)
    ref = (frame_matrix(n).conj().T @ matrix_columns(x)).real
    assert np.abs(got - ref).max() <= 4 * np.finfo(float).eps * np.abs(x).max()


@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_vec_to_coordinates_to_vec_is_exact_to_roundoff(n):
    rng = RngStream(210 + n)
    m = rng.complex_normal((2, 3, n, n))
    herm = 0.5 * (m + m.conj().swapaxes(-1, -2))
    coords = dynamics._frame_coords(herm, n)
    assert coords.shape == (n * n, 3, 2)
    back = dynamics._frame_vecs(coords, n)
    assert back.shape == herm.shape and back.flags.c_contiguous
    assert np.abs(back - herm).max() <= 4 * np.finfo(float).eps * np.abs(herm).max()
    assert np.array_equal(back, back.conj().swapaxes(-1, -2))  # Hermitian bit for bit


@pytest.mark.parametrize("grid", GRIDS.values(), ids=GRIDS.keys())
@pytest.mark.parametrize("dim", [2, 3, 4, 8])
def test_propagation_matches_the_complex_exponential(dim, grid):
    rng = RngStream(220 + dim)
    model = random_model(dim, rng)
    rho, sigma = sample_faithful(dim, rng), sample_faithful(dim, rng)
    l = lindblad_superop(model)
    mats = dynamics._propagate(model, (rho, sigma), grid)
    assert mats.shape == (2, grid.size, dim, dim)
    assert mats.flags.c_contiguous
    for t, pair in zip(grid.tolist(), mats.swapaxes(0, 1)):
        ref = expm(t * l) @ columns(rho, sigma)
        assert close(matrix_columns(pair), ref)
        assert evolve_matches(model, rho, t, ref[:, 0])
        for m in pair:
            assert np.array_equal(m, m.conj().T)


@pytest.mark.parametrize("dim", [2, 3, 4, 8])
def test_the_admitted_anti_hermitian_part_of_h_meets_the_same_bound(dim):
    rng = RngStream(230 + dim)
    model = random_model(dim, rng, anti_hermitian=1e-11)
    assert 0 < np.abs(model.hamiltonian - model.hamiltonian.conj().T).max() <= 1e-10
    rho, sigma = sample_faithful(dim, rng), sample_faithful(dim, rng)
    l = lindblad_superop(model)
    grid = GRIDS["uneven"]
    mats = dynamics._propagate(model, (rho, sigma), grid)
    for t, pair in zip(grid.tolist(), mats.swapaxes(0, 1)):
        ref = expm(t * l) @ columns(rho, sigma)
        assert close(matrix_columns(pair), ref)
        assert evolve_matches(model, rho, t, ref[:, 0])


def test_a_generator_that_breaks_hermiticity_is_a_validation_failure(monkeypatch):
    leaky = lambda model: lindblad_superop(model) + 1e-3j * np.eye(model.dim**2)
    monkeypatch.setattr(dynamics, "lindblad_superop", leaky)
    rng = RngStream(240)
    model = random_model(3, rng)
    rho, sigma = sample_faithful(3, rng), sample_faithful(3, rng)
    with pytest.raises(ValidationFailure, match="does not preserve Hermiticity"):
        contraction_scan(model, rho, sigma, GRIDS["uniform"])
    with pytest.raises(ValidationFailure, match="does not preserve Hermiticity"):
        lindblad_evolve(model, rho, 0.5)


def reference_propagate(model, states, times):
    """The propagator as it was written before it filled one coordinate array:
    column-stacked inputs, a list of per-point blocks stacked at the end,
    matrices concatenated in column-stacked order, then transposed and copied."""
    ts = np.asarray(times, dtype=float)
    n = model.dim
    pos = dynamics._frame(n)
    g = dynamics._real_generator(lindblad_superop(model), n)
    v = np.stack([s.matrix.flatten(order="F") for s in states], axis=1)
    block = dynamics._frame_rows(v[pos], n, 1j).real
    rounding = float(4 * np.spacing(ts.max()))
    held_gap, held = math.inf, None
    blocks = []
    for gap in np.diff(ts, prepend=0.0).tolist():
        if gap > 0:
            if not abs(gap - held_gap) <= rounding:
                held_gap, held = gap, expm(gap * g)
            block = held @ block
        blocks.append(block)
    c = np.stack(blocks, axis=1)
    m = n * (n - 1) // 2
    d, s, a = c[:n], dynamics._R * c[n : n + m], dynamics._R * c[n + m :]
    vecs = np.empty(c.shape, dtype=complex)
    vecs[pos] = np.concatenate([d, s - 1j * a, s + 1j * a])
    return np.ascontiguousarray(vecs.reshape(n, n, *vecs.shape[1:]).transpose(3, 2, 1, 0))


@pytest.mark.parametrize(
    "grid", [*GRIDS.values(), GEOMSPACE], ids=[*GRIDS.keys(), "geomspace"]
)
@pytest.mark.parametrize("dim", [1, 2, 3, 4, 8])
def test_propagation_is_byte_identical_to_the_stacked_reference(dim, grid):
    rng = RngStream(250 + dim)
    model = random_model(dim, rng)
    rho, sigma = sample_faithful(dim, rng), sample_faithful(dim, rng)
    for states in ((rho, sigma), (rho,)):
        got = dynamics._propagate(model, states, grid)
        ref = reference_propagate(model, states, grid)
        assert got.shape == ref.shape and got.flags.c_contiguous
        assert got.tobytes() == ref.tobytes()


def test_propagation_peaks_at_under_three_times_its_result():
    rng = RngStream(260)
    model = random_model(8, rng)
    states = (sample_faithful(8, rng), sample_faithful(8, rng))
    dynamics._propagate(model, states, GEOMSPACE[:3])  # warm the frame cache
    tracemalloc.start()
    try:
        mats = dynamics._propagate(model, states, GEOMSPACE)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.0 * mats.nbytes, f"peak {peak} B for a {mats.nbytes} B result"
