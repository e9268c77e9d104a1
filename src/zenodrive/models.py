"""Parameter-dependent Hamiltonian families.

Two concrete families are provided: the fully connected multiqubit (Lipkin-type)
model reduced to its symmetric collective-spin subspace, and a single-qubit
rotation model that serves as an analytic oracle in tests.  The independent
correctness oracle for the collective reduction, a tensor-product
construction of the full 2^N multiqubit Hamiltonian, lives with the tests
that use it, in ``tests/lipkin_oracle.py``.

Conventions: hbar = 1, energies and times dimensionless.  Single-qubit basis
order is (|0>, |1>) with sigma_z |1> = +|1>, sigma_z |0> = -|0>, so the matrix
of sigma_z in this ordering is diag(-1, +1); kappa = (sigma_z + 1)/2 projects
onto |1>.
"""
from __future__ import annotations

import numpy as np

# Pauli matrices in the (|0>, |1>) ordering described in the module docstring.
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])
SIGMA_Z = np.array([[-1.0, 0.0], [0.0, 1.0]])


def check_count(name: str, value, least: int) -> int:
    """``value`` as an int, after checking it is an integer (not a bool) >= ``least``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{name} must be >= {least} and an integer, got {value!r}")
    return int(value)


class HamiltonianFamily:
    """A smooth map from D-dimensional parameter points to Hermitian matrices.

    Subclasses set ``dim`` and ``nparams`` and implement the batched trio
    ``hamiltonian_many``, ``derivative_many`` and ``second_derivative_many``.
    Each takes points of shape (..., D) and returns matrices of shape
    (..., dim, dim), so a single (D,) point gives one (dim, dim) matrix; each
    passes its input through ``check_points`` first.

    ``lower_bounds`` (length D, ``-inf`` where unconstrained) declares the
    admissible parameter domain: ``check_points`` rejects points below it with
    ``domain_error``, and path solvers project onto it.
    """

    dim: int
    nparams: int
    lower_bounds: np.ndarray | None = None
    domain_error = "parameter point below the lower bounds of the model"

    def check_points(self, points: np.ndarray, *axes: int) -> np.ndarray:
        """Points as a float array, after checking them and the parameter ``axes``.

        Raises ``ValueError`` for a wrong last-axis width, NaN or infinity, a
        point below ``lower_bounds`` or an axis outside [0, D).
        """
        points = np.asarray(points, dtype=float)
        if points.ndim == 0 or points.shape[-1] != self.nparams:
            raise ValueError(f"expected points of width {self.nparams}, got shape {points.shape}")
        if not np.all(np.isfinite(points)):
            raise ValueError("parameter point must be finite (got NaN or infinity)")
        if self.lower_bounds is not None and np.any(points < self.lower_bounds):
            raise ValueError(self.domain_error)
        for axis in axes:
            if axis not in range(self.nparams):
                raise ValueError(f"invalid parameter axis {axis}")
        return points

    def hamiltonian_many(self, points: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def derivative_many(self, points: np.ndarray, axis: int) -> np.ndarray:
        raise NotImplementedError

    def second_derivative_many(self, points: np.ndarray, axis1: int, axis2: int) -> np.ndarray:
        raise NotImplementedError

    def project_point(self, point: np.ndarray) -> np.ndarray:
        """Clip a parameter point onto the admissible domain."""
        point = np.asarray(point, dtype=float)
        if self.lower_bounds is None:
            return point
        return np.maximum(point, self.lower_bounds)


def collective_spin_ops(n_qubits: int) -> tuple[np.ndarray, np.ndarray]:
    """Collective J_x and J_z in the symmetric |j, m> basis, j = N/2.

    Basis states are ordered by m = -j .. +j, so J_z = diag(m).  J_x follows
    from the standard ladder formula J+- |j,m> = sqrt(j(j+1) - m(m+-1)) |j,m+-1>.
    ``n_qubits`` must be an integer >= 1 (``ValueError`` otherwise).
    """
    n_qubits = check_count("n_qubits", n_qubits, 1)
    j = n_qubits / 2.0
    m = np.arange(-j, j + 1)
    jz = np.diag(m)
    jplus = np.zeros((n_qubits + 1, n_qubits + 1))
    for k in range(n_qubits):
        jplus[k + 1, k] = np.sqrt(j * (j + 1) - m[k] * (m[k] + 1))
    jx = 0.5 * (jplus + jplus.T)
    return jx, jz


def _lipkin_monomials(n_qubits: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Matrices (A_const, A_lam, A_chi, A_chi2) with H = A_const + lam*A_lam + chi*A_chi + chi^2*A_chi2.

    Assembled from the collective-operator identities for sums over qubit pairs:

        sum_{i != j} sx_i sx_j              = 4 Jx^2 - N
        sum_i kappa_i                       = Jz + N/2              (=: Q)
        sum_{i != j} kappa_i kappa_j        = Q^2 - Q
        sum_{i != j} (sx_i kappa_j + h.c.)  = 2 {Jx, Q} - 2 Jx

    which follow from kappa^2 = kappa, sx^2 = 1 and {sx, sz} = 0 on a site.
    Each identity is checked against the tensor-product construction in the
    test suite before the reduced form is trusted.
    """
    n = n_qubits
    jx, jz = collective_spin_ops(n)
    eye = np.eye(n + 1)
    q = jz + (n / 2.0) * eye

    a_const = jz.copy()                      # one-body (1/2) sum sz = Jz
    a_lam = -0.25 * eye - (1.0 / (4 * n)) * (4 * jx @ jx - n * eye)
    a_chi = (
        -(1.0 / n) * jx                       # one-body -(chi/2N) sum sx
        - (1.0 / (4 * n)) * (2 * (jx @ q + q @ jx) - 2 * jx)
    )
    a_chi2 = (
        -0.5 * eye                            # from -(lam + 2 chi^2)/4
        - (1.0 / n) * jz                      # from (1/2 - chi^2/2N) sum sz
        - (1.0 / (4 * n)) * (q @ q - q)
    )
    return a_const, a_lam, a_chi, a_chi2


class LipkinModel(HamiltonianFamily):
    """Fully connected N-qubit model in the (N+1)-dimensional symmetric subspace.

    Control parameters are (lam, chi) with lam unrestricted and chi >= 0; the
    two form a halfplane.  The matrix is real symmetric.  At (0, 0) it reduces
    to J_z with unit level spacing and ground state |j, -j> (all qubits in |0>).
    """

    nparams = 2
    lower_bounds = np.array([-np.inf, 0.0])
    domain_error = "chi must be >= 0 (model is defined on the halfplane)"

    def __init__(self, n_qubits: int):
        n_qubits = check_count("n_qubits", n_qubits, 1)
        self.n_qubits = n_qubits
        self.dim = n_qubits + 1
        monomials = _lipkin_monomials(n_qubits)
        self._a0, self._alam, self._achi, self._achi2 = monomials
        # flat indices of the band where any monomial is nonzero (five diagonals),
        # and each monomial's entries there
        self._band = np.flatnonzero(np.any(np.array(monomials) != 0, axis=0))
        self._band_a0, self._band_alam, self._band_achi, self._band_achi2 = (
            monomial.ravel()[self._band] for monomial in monomials
        )

    def hamiltonian_many(self, points: np.ndarray) -> np.ndarray:
        points = self.check_points(points)
        lam = points[..., 0, None]
        chi = points[..., 1, None]
        # ((lam A_lam + a0) + chi A_chi) + chi^2 A_chi2, summed in place in that
        # order on the band only: the bits of the plain four-term sum, whose
        # entries off the band are +0.0 as here
        band = lam * self._band_alam
        band += self._band_a0
        term = chi * self._band_achi
        band += term
        band += np.multiply(chi**2, self._band_achi2, out=term)
        out = np.zeros(points.shape[:-1] + (self.dim * self.dim,))
        out[..., self._band] = band
        return out.reshape(points.shape[:-1] + (self.dim, self.dim))

    def derivative_many(self, points: np.ndarray, axis: int) -> np.ndarray:
        points = self.check_points(points, axis)
        if axis == 0:
            return np.broadcast_to(self._alam, points.shape[:-1] + (self.dim, self.dim)).copy()
        chi = points[..., 1, None, None]
        out = 2 * chi * self._achi2
        out += self._achi   # in place: the bits of A_chi + 2 chi A_chi2, one array fewer
        return out

    def second_derivative_many(self, points: np.ndarray, axis1: int, axis2: int) -> np.ndarray:
        shape = self.check_points(points, axis1, axis2).shape[:-1] + (self.dim, self.dim)
        if axis1 == axis2 == 1:
            return np.broadcast_to(2 * self._achi2, shape).copy()
        return np.zeros(shape)


class TwoLevelModel(HamiltonianFamily):
    """Single-qubit rotation family H(theta) = -1/2 (cos(theta) sz + sin(theta) sx).

    One-dimensional parameter space.  The ground state is the Bloch vector at
    polar angle theta, the spectrum is always {-1/2, +1/2}, ground-state
    overlaps obey |<E0(b)|E0(a)>|^2 = cos^2((b - a)/2), and the induced metric
    is the constant g = 1/4.  At theta = 0 the ground state is (0, 1)^T with
    energy -1/2.
    """

    dim = 2
    nparams = 1

    def hamiltonian_many(self, points: np.ndarray) -> np.ndarray:
        theta = self.check_points(points)[..., 0, None, None]
        return -0.5 * (np.cos(theta) * SIGMA_Z + np.sin(theta) * SIGMA_X)

    def derivative_many(self, points: np.ndarray, axis: int) -> np.ndarray:
        theta = self.check_points(points, axis)[..., 0, None, None]
        return -0.5 * (-np.sin(theta) * SIGMA_Z + np.cos(theta) * SIGMA_X)

    def second_derivative_many(self, points: np.ndarray, axis1: int, axis2: int) -> np.ndarray:
        return -self.hamiltonian_many(self.check_points(points, axis1, axis2))
