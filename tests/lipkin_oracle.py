"""Tensor-product oracle for the collective reduction of the multiqubit model.

``brute_force_lipkin`` builds the full 2^N Hamiltonian term by term from
single-site operators, and ``dicke_states`` embeds the symmetric subspace
that ``zenodrive.models.LipkinModel`` works in.  Only the tests use them, as
the independent reference for the reduced (N+1)-dimensional model.

Conventions are those of ``zenodrive.models``: single-qubit basis order
(|0>, |1>) with sigma_z |1> = +|1>, and kappa = (sigma_z + 1)/2 projects onto
|1>.
"""
import numpy as np

from zenodrive.models import SIGMA_X, SIGMA_Z, LipkinModel, check_count

KAPPA = 0.5 * (SIGMA_Z + np.eye(2))

BRUTE_FORCE_MAX_QUBITS = 8


def site_operator(op: np.ndarray, site: int, n_qubits: int) -> np.ndarray:
    out = np.array([[1.0]])
    for k in range(n_qubits):
        out = np.kron(out, op if k == site else np.eye(2))
    return out


def brute_force_lipkin(n_qubits: int, point: np.ndarray) -> np.ndarray:
    """Full 2^N tensor-product multiqubit Hamiltonian, term by term.

    Test oracle for the collective reduction; limited to N <= 8 so the dense
    matrix stays at most 256 x 256.
    """
    if n_qubits > BRUTE_FORCE_MAX_QUBITS:
        raise ValueError(f"brute-force oracle limited to N <= {BRUTE_FORCE_MAX_QUBITS}")
    lam, chi = LipkinModel(n_qubits).check_points(point)
    n = n_qubits
    dim = 2**n
    sx = [site_operator(SIGMA_X, i, n) for i in range(n)]
    sz = [site_operator(SIGMA_Z, i, n) for i in range(n)]
    kp = [site_operator(KAPPA, i, n) for i in range(n)]
    ham = -(lam + 2 * chi**2) / 4.0 * np.eye(dim)
    for i in range(n):
        ham += (0.5 - chi**2 / (2 * n)) * sz[i] - (chi / (2 * n)) * sx[i]
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            ham -= (1.0 / (4 * n)) * (
                lam * sx[i] @ sx[j]
                + chi * (sx[i] @ kp[j] + kp[i] @ sx[j])
                + chi**2 * kp[i] @ kp[j]
            )
    return ham


def dicke_states(n_qubits: int) -> np.ndarray:
    """Isometry from the symmetric subspace into the full 2^N space.

    Column m (ordered m = -j .. +j) is the normalized equal-weight superposition
    of all product states with m + N/2 qubits in |1>; bit i of the row index
    gives the state of qubit i (1 meaning |1>).  ``n_qubits`` must be an
    integer >= 1 (``ValueError`` otherwise).
    """
    n = check_count("n_qubits", n_qubits, 1)
    basis = np.zeros((2**n, n + 1))
    ones = np.array([bin(s).count("1") for s in range(2**n)])
    for k in range(n + 1):
        mask = ones == k
        basis[mask, k] = 1.0 / np.sqrt(mask.sum())
    return basis
