import numpy as np
import pytest

from zenodrive.spectator import (
    evolve_gadget,
    gadget_unitary,
    interaction_hamiltonian,
    reduced_density,
)

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
