import numpy as np
import pytest

from zenodrive.models import LipkinModel, brute_force_lipkin
from zenodrive.protocol import run_stroboscopic
from zenodrive.spectator import (
    evolve_gadget,
    gadget_unitary,
    interaction_hamiltonian,
    reduced_density,
)
from zenodrive.trajectories import build_trajectory

A_EQUAL = 1.0 / np.sqrt(2.0)


class TestInteractionHamiltonian:
    def test_entries_at_unit_tau(self):
        h = interaction_hamiltonian(1.0)
        w = np.pi / 4
        expected = np.array(
            [
                [0, w, 0, 0],
                [w, 0, 0, 0],
                [0, 0, 0, -w],
                [0, 0, -w, 0],
            ]
        )
        assert np.abs(h - expected).max() <= 1e-15

    def test_inverse_tau_scaling(self):
        assert np.abs(interaction_hamiltonian(2.0) - 0.5 * interaction_hamiltonian(1.0)).max() <= 1e-15

    def test_doubly_degenerate_spectrum(self):
        for tau in (0.5, 1.0, 3.0):
            evals = np.sort(np.linalg.eigvalsh(interaction_hamiltonian(tau)))
            w = np.pi / (4 * tau)
            assert np.allclose(evals, [-w, -w, w, w], atol=1e-14)

    def test_rejects_nonpositive_tau(self):
        with pytest.raises(ValueError):
            interaction_hamiltonian(0.0)
        with pytest.raises(ValueError):
            interaction_hamiltonian(-1.0)


class TestGadgetEvolution:
    def test_unitarity_over_two_periods(self):
        for t in np.linspace(0.0, 4.0, 17):
            u = gadget_unitary(1.0, t)
            assert np.abs(u.conj().T @ u - np.eye(4)).max() <= 1e-12

    def test_generated_by_interaction_hamiltonian(self):
        from scipy.linalg import expm

        tau, t = 0.7, 0.53
        direct = expm(-1j * interaction_hamiltonian(tau) * t)
        assert np.abs(gadget_unitary(tau, t) - direct).max() <= 1e-12

    def test_zero_time_identity(self):
        state = evolve_gadget(0.6, 0.8, 1.0, 0.0)
        assert np.abs(state - np.array([0.6, 0, 0.8, 0])).max() <= 1e-14

    def test_product_state_branch_stays_product(self):
        # a1 = 0: system factor never entangles; populations p0 = 1 throughout
        for t in (0.3, 1.0, 2.7):
            state = evolve_gadget(1.0, 0.0, 1.0, t)
            rho = reduced_density(state)
            p0, p1 = rho.populations
            assert p0 == pytest.approx(1.0, abs=1e-14)
            assert p1 == pytest.approx(0.0, abs=1e-14)

    def test_orthogonal_branches_at_tau(self):
        tau = 1.3
        state = evolve_gadget(A_EQUAL, A_EQUAL, tau, tau)
        rho = reduced_density(state)
        assert np.abs(rho.matrix - np.diag([0.5, 0.5])).max() <= 1e-12

    def test_branch_states_are_quarter_rotations(self):
        tau = 1.0
        state = evolve_gadget(A_EQUAL, A_EQUAL, tau, tau)
        left = np.array([1.0, -1j]) / np.sqrt(2)   # |0> branch spectator
        right = np.array([1.0, +1j]) / np.sqrt(2)  # |1> branch spectator
        assert np.abs(state[:2] - A_EQUAL * left).max() <= 1e-12
        assert np.abs(state[2:] - A_EQUAL * right).max() <= 1e-12
        assert abs(np.vdot(left, right)) <= 1e-15

    def test_rejects_unnormalized_amplitudes(self):
        with pytest.raises(ValueError, match="normalized"):
            evolve_gadget(1.0, 0.5, 1.0, 0.1)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            evolve_gadget(1.0, 0.0, 1.0, -0.1)


class TestReducedDensity:
    def test_cosine_coherence_law(self):
        a0 = 0.6
        a1 = 0.8
        tau = 0.9
        for t in np.linspace(0.0, 4 * tau, 33):
            rho = reduced_density(evolve_gadget(a0, a1, tau, t))
            expected = abs(a0 * a1) * abs(np.cos(np.pi * t / (2 * tau)))
            assert rho.coherence == pytest.approx(expected, abs=1e-12)

    def test_exact_zeros_and_revival(self):
        a0, a1, tau = A_EQUAL, A_EQUAL, 1.1
        for t in (tau, 3 * tau, 5 * tau):
            rho = reduced_density(evolve_gadget(a0, a1, tau, t))
            assert rho.coherence <= 1e-12
        revival = reduced_density(evolve_gadget(a0, a1, tau, 2 * tau))
        assert revival.coherence == pytest.approx(abs(a0 * a1), abs=1e-12)

    def test_populations_constant(self):
        a0, a1, tau = 0.28, np.sqrt(1 - 0.28**2), 0.75
        for t in np.linspace(0, 3 * tau, 16):
            rho = reduced_density(evolve_gadget(a0, a1, tau, t))
            p0, p1 = rho.populations
            assert p0 == pytest.approx(a0**2, abs=1e-13)
            assert p1 == pytest.approx(a1**2, abs=1e-13)

    def test_measurement_equivalence_at_tau(self):
        # the entangling route reproduces the projective-measurement mixture
        a0, a1, tau = 0.6, 0.8, 1.0
        rho = reduced_density(evolve_gadget(a0, a1, tau, tau))
        target = np.diag([a0**2, a1**2])
        assert np.abs(rho.matrix - target).max() <= 1e-12

    def test_coherence_magnitude_periodicity(self):
        a0, a1, tau = 0.5, np.sqrt(0.75), 0.6
        for t in np.linspace(0, 2 * tau, 9):
            c1 = reduced_density(evolve_gadget(a0, a1, tau, t)).coherence
            c2 = reduced_density(evolve_gadget(a0, a1, tau, t + 2 * tau)).coherence
            assert abs(c1 - c2) <= 1e-12

    def test_hermitian_unit_trace(self):
        rho = reduced_density(evolve_gadget(0.6, 0.8, 1.0, 0.37)).matrix
        assert np.abs(rho - rho.conj().T).max() <= 1e-14
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
        evals = np.linalg.eigvalsh(rho)
        assert evals.min() >= -1e-14 and evals.max() <= 1 + 1e-14

    def test_rejects_bad_state(self):
        with pytest.raises(ValueError):
            reduced_density(np.array([1.0, 0.0, 0.0]))
        with pytest.raises(ValueError, match="normalized"):
            reduced_density(np.array([1.0, 1.0, 0.0, 0.0]))


class TestInteractionAction:
    """The interaction-energy expectation <Psi(t)|H_int|Psi(t)> along the gadget."""

    def test_product_branch_matches_analytic_expectation(self):
        # a1 = 0: the exact expectation is -(pi/4 tau) <0|sz|0> <chi(t)|sx|chi(t)>;
        # an x-rotated |up> spin keeps a vanishing sigma_x component, so it is 0
        from zenodrive.spectator import interaction_hamiltonian as h_int

        tau = 1.0
        h = h_int(tau)
        for t in np.linspace(0, 2 * tau, 9):
            psi = evolve_gadget(1.0, 0.0, tau, t)
            value = float(np.vdot(psi, h @ psi).real)
            assert abs(value - 0.0) <= 1e-10

    def test_conserved_along_any_branch_mix(self):
        # H_int commutes with its own evolution: the expectation equals its
        # initial value, which vanishes for an |up>-prepared spectator
        tau = 0.8
        h = interaction_hamiltonian(tau)
        for t in np.linspace(0, 4 * tau, 11):
            psi = evolve_gadget(0.6, 0.8, tau, t)
            assert abs(float(np.vdot(psi, h @ psi).real)) <= 1e-12


def eigenspaces(n_qubits, point):
    """Projectors onto the eigenspaces of the 2^N Hamiltonian at ``point``, lowest energy first.

    Levels within 1e-9 form one eigenspace: the J-multiplets of the full
    space are degenerate, so single eigenvectors are not enough.
    """
    energies, vectors = np.linalg.eigh(brute_force_lipkin(n_qubits, point))
    starts = np.flatnonzero(np.diff(energies, prepend=-np.inf) > 1e-9)
    return [
        vectors[:, lo:hi] @ vectors[:, lo:hi].T
        for lo, hi in zip(starts, np.append(starts[1:], energies.size))
    ]


def spectator_chain_infidelity(n_qubits, path, elapsed):
    """Final excited weight of the quench protocol with microscopic spectators.

    After each quench, ceil(log2 G) fresh spectator qubits, each in |up>,
    couple to the G eigenspaces of the new Hamiltonian for ``elapsed`` (in
    units of the decoherence time): qubit b through the gadget of
    ``gadget_unitary``, with the system's sigma_z replaced by
    Z_b = sum_g (-1)^bit_b(g) P_g, and is then traced out.  Free evolution
    commutes with every P_g, so it changes no eigenspace weight and is left
    out.  At ``elapsed`` = 1 every pair of eigenspaces differs in some bit
    and the channel is full dephasing; at 0 nothing happens.
    """
    ground = eigenspaces(n_qubits, path[0])[0]
    assert np.trace(ground) == pytest.approx(1.0)
    rho = ground.astype(complex)
    gadget = gadget_unitary(1.0, elapsed)
    # the gadget's sigma_z = +1 block (|1>) and -1 block (|0>)
    branches = (gadget[2:, 2:], gadget[:2, :2])
    up = np.array([[1.0, 0.0], [0.0, 0.0]])
    dim = rho.shape[0]
    for point in path[1:]:
        projectors = eigenspaces(n_qubits, point)
        for bit in range(int(np.ceil(np.log2(len(projectors))))):
            coupling = sum(
                np.kron(projector, branches[(g >> bit) & 1])
                for g, projector in enumerate(projectors)
            )
            joint = coupling @ np.kron(rho, up) @ coupling.conj().T
            rho = np.einsum("isjs->ij", joint.reshape(dim, 2, dim, 2))
    assert abs(np.trace(rho) - 1.0) <= 1e-13
    return sum(np.trace(projector @ rho).real for projector in projectors[1:])


class TestSpectatorChain:
    """The chain against the paper's spectator mechanism in the 2^N tensor-product space."""

    @pytest.fixture(scope="class", params=[3, 4])
    def chord(self, request):
        n_qubits = request.param
        model = LipkinModel(n_qubits)
        trajectory = build_trajectory(
            model, "linear-v", np.array([0.0, 0.0]), np.array([2.0, 0.5]), dense_steps=800
        )
        return n_qubits, model, trajectory

    @pytest.mark.parametrize("steps", [5, 20, 80])
    def test_full_decoherence_is_the_chain(self, chord, steps):
        # measured within 1.1e-13 (relative); read as 1 - p_0 on both sides,
        # N=3 at K = 80 is 1.7e-12 off
        n_qubits, model, trajectory = chord
        path = trajectory.discretize(steps)
        reference = spectator_chain_infidelity(n_qubits, path, 1.0)
        chain = run_stroboscopic(model, path).final_infidelity
        assert abs(chain - reference) <= 1e-12 * reference

    def test_no_decoherence_is_the_sudden_quench(self, chord):
        n_qubits, model, trajectory = chord
        sudden = run_stroboscopic(model, trajectory.discretize(1)).final_infidelity
        frozen = [
            spectator_chain_infidelity(n_qubits, trajectory.discretize(steps), 0.0)
            for steps in (5, 20, 80)
        ]
        assert np.ptp(frozen) <= 1e-12
        assert abs(frozen[0] - sudden) <= 1e-12
        if n_qubits == 4:
            assert frozen[0] == pytest.approx(0.624, abs=1e-3)


NAN = float("nan")


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: interaction_hamiltonian(NAN), id="hamiltonian-nan-tau"),
        pytest.param(lambda: interaction_hamiltonian(np.inf), id="hamiltonian-inf-tau"),
        pytest.param(lambda: evolve_gadget(A_EQUAL, A_EQUAL, NAN, 0.5), id="evolve-nan-tau"),
        pytest.param(lambda: evolve_gadget(A_EQUAL, A_EQUAL, np.inf, 0.5), id="evolve-inf-tau"),
        pytest.param(lambda: evolve_gadget(A_EQUAL, A_EQUAL, 1.0, NAN), id="evolve-nan-elapsed"),
        pytest.param(lambda: evolve_gadget(NAN, A_EQUAL, 1.0, 0.5), id="evolve-nan-amplitude"),
        pytest.param(lambda: gadget_unitary(1.0, np.inf), id="unitary-inf-elapsed"),
        pytest.param(lambda: reduced_density(np.array([NAN, 0, 0, 0])), id="reduced-nan-state"),
    ],
)
def test_rejects_nonfinite_input(call):
    with pytest.raises(ValueError, match="finite|normalized"):
        call()
