import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import zenodrive.coherent
import zenodrive.geometry
import zenodrive.protocol
from zenodrive.coherent import integrate_schrodinger
from zenodrive.geometry import (
    EIGH_BLOCK,
    metric_many,
    metric_with_gradient_many,
    step_lengths_along,
)
from zenodrive.models import HamiltonianFamily, LipkinModel
from zenodrive.protocol import run_stroboscopic
from zenodrive.spectral import branching_along, eigh_many


def random_hermitian(rng, dim, complex_entries=True):
    m = rng.normal(size=(dim, dim))
    if complex_entries:
        m = m + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (m + m.conj().T)


def pair_branching(origin, target):
    """Branching matrix of one quench between two (n, n) eigenbases."""
    return branching_along(np.stack([origin, target]))[0]


def test_identity_eigenvalues():
    energies, _ = eigh_many(np.eye(3))
    assert np.allclose(energies, [1.0, 1.0, 1.0])


def test_diagonal_matrix_sorted_and_swapped_basis():
    energies, states = eigh_many(np.diag([2.0, -1.0]))
    assert np.allclose(energies, [-1.0, 2.0])
    assert np.allclose(np.abs(states), [[0.0, 1.0], [1.0, 0.0]])


def test_pauli_x():
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    energies, states = eigh_many(sx)
    assert np.allclose(energies, [-1.0, 1.0])
    v = 1 / np.sqrt(2)
    assert np.allclose(np.abs(states[:, 0]), [v, v])
    assert np.allclose(np.abs(states[:, 1]), [v, v])
    assert states[:, 0] @ states[:, 1] == pytest.approx(0.0, abs=1e-14)


def test_rejects_non_square():
    with pytest.raises(ValueError):
        eigh_many(np.zeros((2, 3)))


@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
def test_rejects_non_finite(entry):
    # NaN failed inside LAPACK ("Eigenvalues did not converge"), and +inf
    # returned NaN energies with identity eigenvectors
    matrices = np.stack([np.eye(3), np.eye(3)])
    matrices[1, 2, 2] = entry
    with pytest.raises(ValueError, match="finite"):
        eigh_many(matrices)


@pytest.mark.parametrize("dim", [2, 5, 16, 64])
@pytest.mark.parametrize("complex_entries", [False, True])
def test_orthonormality_and_reconstruction(dim, complex_entries):
    rng = np.random.default_rng(dim)
    h = random_hermitian(rng, dim, complex_entries)
    energies, states = eigh_many(h)
    gram = states.conj().T @ states
    assert np.abs(gram - np.eye(dim)).max() <= 1e-10
    rebuilt = (states * energies) @ states.conj().T
    scale = np.abs(h).max()
    assert np.abs(rebuilt - h).max() <= 1e-10 * scale
    assert np.all(np.diff(energies) >= 0)


def test_phase_fixing_deterministic():
    # eigh_many fixes no phase convention; repeated calls still agree bit for
    # bit, and real input keeps real eigenvectors
    rng = np.random.default_rng(7)
    h = random_hermitian(rng, 6)
    _, a = eigh_many(h)
    _, b = eigh_many(h.copy())
    assert np.array_equal(a, b)
    real = random_hermitian(rng, 4, complex_entries=False)
    assert eigh_many(real)[1].dtype == np.float64


def test_outputs_ignore_eigenvector_signs(monkeypatch):
    """Flipping the sign of eigenvector columns at random changes no output bit.

    Both models are real symmetric, so ``eigh`` fixes each eigenvector up to
    a sign only; every consumer must read each column's sign an even number
    of times.
    """
    model = LipkinModel(6)
    start, end = np.array([0.0, 0.0]), np.array([2.0, 0.5])
    chord = start + np.linspace(0.0, 1.0, 2 * EIGH_BLOCK + 101)[:, None] * (end - start)
    path = chord[::50]

    def ramp(fractions):
        return start + np.asarray(fractions)[..., None] * (end - start)

    def outputs():
        g, dg = metric_with_gradient_many(model, path)
        coherent = integrate_schrodinger(model, ramp, 5.0, trace_times=[1.0, 2.5, 4.0])
        return {
            "step_lengths_along": step_lengths_along(model, chord),
            "probabilities": run_stroboscopic(model, path).probabilities,
            "g": g,
            "dg": dg,
            "fidelity": coherent.fidelity,
            "trace_fidelity": coherent.trace_fidelity,
        }

    plain = outputs()
    rng = np.random.default_rng(11)
    flips = []

    def flipped_eigh_many(matrices):
        energies, states = eigh_many(matrices)
        signs = rng.choice([-1.0, 1.0], size=states.shape[:-2] + states.shape[-1:])
        flips.append(np.any(signs < 0))
        return energies, states * signs[..., None, :]

    for module in (zenodrive.geometry, zenodrive.protocol, zenodrive.coherent):
        monkeypatch.setattr(module, "eigh_many", flipped_eigh_many)
    flipped = outputs()
    assert len(flips) >= 6 and all(flips)
    for name, value in plain.items():
        assert np.array_equal(flipped[name], value), name


def test_branching_same_basis_is_identity():
    rng = np.random.default_rng(0)
    _, states = eigh_many(random_hermitian(rng, 4))
    assert np.abs(pair_branching(states, states) - np.eye(4)).max() <= 1e-12


def test_branching_two_level_bloch_angles():
    # independent construction of the two-level eigenvectors at Bloch angle theta
    def basis(theta):
        ground = np.array([np.sin(theta / 2), np.cos(theta / 2)])
        excited = np.array([np.cos(theta / 2), -np.sin(theta / 2)])
        return np.column_stack([ground, excited])

    for dtheta in (np.pi / 6, np.pi / 2):
        b = pair_branching(basis(0.3), basis(0.3 + dtheta))
        c, s = np.cos(dtheta / 2) ** 2, np.sin(dtheta / 2) ** 2
        assert np.abs(b - np.array([[c, s], [s, c]])).max() <= 1e-12


def test_branching_doubly_stochastic_random_pair():
    rng = np.random.default_rng(11)
    _, a = eigh_many(random_hermitian(rng, 5))
    _, b = eigh_many(random_hermitian(rng, 5))
    mat = pair_branching(a, b)
    assert np.abs(mat.sum(axis=0) - 1).max() <= 1e-10
    assert np.abs(mat.sum(axis=1) - 1).max() <= 1e-10
    assert mat.min() >= 0 and mat.max() <= 1 + 1e-12


def test_branching_transpose_symmetry():
    rng = np.random.default_rng(2)
    _, a = eigh_many(random_hermitian(rng, 6))
    _, b = eigh_many(random_hermitian(rng, 6))
    assert np.abs(pair_branching(a, b) - pair_branching(b, a).T).max() <= 1e-14


def test_branching_gauge_invariance():
    rng = np.random.default_rng(5)
    _, a = eigh_many(random_hermitian(rng, 5))
    _, b = eigh_many(random_hermitian(rng, 5))
    reference = pair_branching(a, b)
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=5))
    assert np.abs(pair_branching(a * phases, b) - reference).max() <= 1e-14


def test_branching_along_consecutive():
    rng = np.random.default_rng(12)
    mats = np.stack([random_hermitian(rng, 4) for _ in range(3)])
    _, states = eigh_many(mats)
    chain = branching_along(states)
    for k in range(2):
        # entry [i, i'] = |<E_i(k+1)|E_i'(k)>|^2
        expected = np.abs(states[k + 1].conj().T @ states[k]) ** 2
        assert np.abs(chain[k] - expected).max() <= 1e-14


@st.composite
def hermitian_stacks(draw, count=None):
    """Stacks of random complex Hermitian matrices, shape (count, n, n)."""
    dim = draw(st.integers(2, 6))
    count = count or draw(st.integers(2, 6))
    parts = draw(arrays(np.float64, (2, count, dim, dim), elements=st.floats(-1.0, 1.0)))
    m = parts[0] + 1j * parts[1]
    return 0.5 * (m + np.conj(np.swapaxes(m, -1, -2)))


class AffineFamily(HamiltonianFamily):
    """H(x, y) = A0 + x A1 + y A2 for Hermitian A0, A1, A2."""

    nparams = 2

    def __init__(self, terms):
        self.terms = terms
        self.dim = terms.shape[-1]

    def hamiltonian_many(self, points):
        points = self.check_points(points)
        x, y = points[..., 0, None, None], points[..., 1, None, None]
        return self.terms[0] + x * self.terms[1] + y * self.terms[2]

    def derivative_many(self, points, axis):
        points = self.check_points(points, axis)
        return np.broadcast_to(self.terms[1 + axis], points.shape[:-1] + (self.dim,) * 2).copy()

    def second_derivative_many(self, points, axis1, axis2):
        points = self.check_points(points, axis1, axis2)
        return np.zeros(points.shape[:-1] + (self.dim,) * 2, dtype=complex)


def parameter_points(count):
    return arrays(np.float64, (count, 2), elements=st.floats(-2.0, 2.0))


class TestBatchedProperties:
    @settings(max_examples=200, deadline=None)
    @given(hermitian_stacks())
    def test_branching_doubly_stochastic(self, mats):
        ratios = branching_along(eigh_many(mats)[1])
        assert ratios.min() >= 0
        assert np.abs(ratios.sum(axis=-1) - 1).max() <= 1e-12
        assert np.abs(ratios.sum(axis=-2) - 1).max() <= 1e-12

    @settings(max_examples=200, deadline=None)
    @given(hermitian_stacks(), st.data())
    def test_branching_invariant_under_column_phases(self, mats, data):
        states = eigh_many(mats)[1]
        shape = states.shape[:-2] + states.shape[-1:]
        angles = data.draw(arrays(np.float64, shape, elements=st.floats(0.0, 2 * np.pi)))
        rephased = states * np.exp(1j * angles)[..., None, :]
        assert np.abs(branching_along(rephased) - branching_along(states)).max() <= 1e-12

    @pytest.mark.filterwarnings("ignore::zenodrive.spectral.DegeneracyWarning")
    @settings(max_examples=100, deadline=None)
    @given(hermitian_stacks(count=3), st.integers(2, 40).flatmap(parameter_points))
    def test_chain_conserves_probability(self, terms, path):
        probs = run_stroboscopic(AffineFamily(terms), path).probabilities
        assert np.abs(probs.sum(axis=-1) - 1).max() <= 1e-12

    @settings(max_examples=100, deadline=None)
    @given(hermitian_stacks(count=3), parameter_points(4))
    def test_metric_is_positive_semidefinite(self, terms, points):
        family = AffineFamily(terms)
        energies = eigh_many(family.hamiltonian_many(points))[0]
        assume((energies[:, 1] - energies[:, 0]).min() > 1e-2)
        g = metric_many(family, points)
        lowest = np.linalg.eigvalsh(g).min(axis=-1)
        scale = np.abs(g).max(axis=(-2, -1))
        assert np.all(lowest >= -1e-10 * np.maximum(scale, 1.0))
