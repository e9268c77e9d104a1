"""Single-qubit decoherence gadget: system qubit coupled to a spectator spin.

The driven qubit (energy eigenstates |0>, |1>) couples to a spectator spin-1/2
prepared in |up>.  The interaction rotates the spectator around its x axis in
opposite senses for the two system states; after the decoherence time tau the
two spectator branches are orthogonal and the reduced system state is fully
dephased in the energy basis, exactly reproducing an ideal projective
measurement.  Full decoherence is transient: it recurs at tau, 3 tau, 5 tau...

Basis order of the 4-dimensional product space: |0 up>, |0 down>, |1 up>,
|1 down>.  Pauli matrices follow the same convention as in ``models``:
sigma_z |1> = +|1>, sigma_z |0> = -|0> for the system qubit, and the spectator
(|up>, |down>) block uses the ordinary sigma_x.  hbar = 1.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import simpson

_SX = np.array([[0.0, 1.0], [1.0, 0.0]])
NORM_ATOL = 1e-12


@dataclass(frozen=True)
class ReducedDensityMatrix:
    """System-qubit density matrix after tracing out the spectator."""

    matrix: np.ndarray

    @property
    def populations(self) -> tuple[float, float]:
        return float(self.matrix[0, 0].real), float(self.matrix[1, 1].real)

    @property
    def coherence(self) -> float:
        """Magnitude of the off-diagonal element in the energy basis."""
        return float(np.abs(self.matrix[0, 1]))


def interaction_hamiltonian(tau: float) -> np.ndarray:
    """Coupling Hamiltonian -(pi/4 tau) sigma_z x sigma_x on the product space.

    The prefactor scales inversely with the decoherence time: faster
    decoherence costs proportionally stronger coupling.
    """
    _check_tau(tau)
    sz_qubit = np.diag([-1.0, 1.0])          # (|0>, |1>) ordering
    return -(np.pi / (4.0 * tau)) * np.kron(sz_qubit, _SX)


def _check_tau(tau: float) -> None:
    if not 0 < tau < np.inf:
        raise ValueError(f"tau must be positive and finite, got {tau!r}")


def _check_amplitudes(a0: complex, a1: complex) -> tuple[complex, complex]:
    norm = abs(a0) ** 2 + abs(a1) ** 2
    if not abs(norm - 1.0) <= NORM_ATOL:
        raise ValueError(f"amplitudes not normalized: |a0|^2 + |a1|^2 = {norm:.15f}")
    return complex(a0), complex(a1)


def gadget_unitary(tau: float, elapsed: float) -> np.ndarray:
    """Evolution operator of the gadget after an interaction time ``elapsed``.

    Block form: |0><0| x exp(-i (pi/4 tau) sigma_x t') + |1><1| x exp(+i ...).
    At t' = tau the spectator branches are (|up> -+ i |down>)/sqrt(2), i.e. the
    spin rotated around x by -+ pi/2, and they are mutually orthogonal.
    ``elapsed`` must be finite and non-negative.
    """
    _check_tau(tau)
    if not 0 <= elapsed < np.inf:
        raise ValueError(f"elapsed time must be finite and >= 0, got {elapsed!r}")
    angle = np.pi * elapsed / (4.0 * tau)
    rot_minus = np.cos(angle) * np.eye(2) - 1j * np.sin(angle) * _SX
    rot_plus = np.cos(angle) * np.eye(2) + 1j * np.sin(angle) * _SX
    out = np.zeros((4, 4), dtype=complex)
    out[:2, :2] = rot_minus
    out[2:, 2:] = rot_plus
    return out


def evolve_gadget(a0: complex, a1: complex, tau: float, elapsed: float) -> np.ndarray:
    """State of the coupled system starting from (a0|0> + a1|1>) x |up>.

    Returns the 4-component amplitude vector in the basis order of the module
    docstring.  ``elapsed`` must be finite and non-negative.
    """
    a0, a1 = _check_amplitudes(a0, a1)
    initial = np.array([a0, 0.0, a1, 0.0], dtype=complex)
    return gadget_unitary(tau, elapsed) @ initial


def reduced_density(state: np.ndarray) -> ReducedDensityMatrix:
    """Partial trace over the spectator spin.

    For the gadget evolution the coherence obeys
    |rho_01(t')| = |a0 a1| |cos(pi t' / 2 tau)| while the populations stay
    constant, since the evolution is block diagonal in the system basis.
    """
    state = np.asarray(state, dtype=complex)
    if state.shape != (4,):
        raise ValueError("expected a 4-component product-space state")
    norm = float(np.vdot(state, state).real)
    if not abs(norm - 1.0) <= NORM_ATOL:
        raise ValueError(f"state not normalized: |psi|^2 = {norm:.15f}")
    branches = state.reshape(2, 2)           # [system, spectator]
    rho = branches @ branches.conj().T
    return ReducedDensityMatrix(matrix=rho)


def interaction_action(
    a0: complex,
    a1: complex,
    tau: float,
    total_time: float,
    cycles: int,
    *,
    samples_per_cycle: int = 129,
) -> float:
    """Time integral of the interaction-energy expectation over all gadget cycles.

    Each of the ``cycles`` windows of duration ``total_time / cycles`` starts
    from a freshly prepared spectator in |up> with the given system amplitudes,
    and the expectation <Psi(t)|H_int|Psi(t)> is accumulated by Simpson
    quadrature.  The gadget conserves its own coupling energy within a cycle,
    and an |up>-polarized spectator carries no sigma_x component, so for this
    realization the integrand -- and hence the returned action -- vanishes
    identically up to quadrature noise; the function computes the quadrature
    rather than hard-coding that null so that the cancellation itself is
    exercised.
    """
    a0, a1 = _check_amplitudes(a0, a1)
    if not 0 <= total_time < np.inf:
        raise ValueError(f"total time must be finite and >= 0, got {total_time!r}")
    if not cycles >= 1:
        raise ValueError("need at least one cycle")
    if samples_per_cycle < 3:
        raise ValueError("need at least 3 quadrature samples per cycle")
    window = total_time / cycles
    times = np.linspace(0.0, window, samples_per_cycle)
    h_int = interaction_hamiltonian(tau)
    expectations = np.empty(samples_per_cycle)
    for idx, t in enumerate(times):
        psi = evolve_gadget(a0, a1, tau, t)
        expectations[idx] = float(np.vdot(psi, h_int @ psi).real)
    per_cycle = simpson(expectations, x=times) if window > 0 else 0.0
    return float(cycles * per_cycle)
