"""Dense Hermitian eigendecomposition and basis-overlap kernels.

Everything downstream (metric tensors, branching ratios, step lengths) consumes
the primitives defined here: a phase-fixed eigendecomposition, and the squared
overlaps and ground-state step lengths between consecutive eigenbases.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

HERMITICITY_ATOL = 1e-12
DEGENERACY_GAP = 1e-12


class NonHermitianError(ValueError):
    """Input matrix violates Hermitian symmetry beyond tolerance."""


class DegeneracyWarning(UserWarning):
    """Adjacent eigenvalues closer than ``DEGENERACY_GAP`` along a driving path."""


@dataclass(frozen=True)
class SpectralDecomposition:
    """Ascending eigenvalues and orthonormal eigenvectors of a Hermitian matrix.

    ``states[:, i]`` is the eigenvector of ``energies[i]``.  Each eigenvector is
    phase-fixed so that its largest-magnitude component is real and positive,
    which makes outputs deterministic; all derived physics is phase invariant.
    """

    energies: np.ndarray
    states: np.ndarray

    @property
    def dim(self) -> int:
        return self.energies.shape[0]

    def ground_state(self) -> np.ndarray:
        return self.states[:, 0]

    def gap(self) -> float:
        """Energy gap between ground and first excited level."""
        return float(self.energies[1] - self.energies[0])


def _validate_hermitian(matrix: np.ndarray, atol: float) -> np.ndarray:
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1] or matrix.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
    asym = np.abs(matrix - matrix.conj().T).max()
    if asym > atol:
        raise NonHermitianError(
            f"matrix is not Hermitian: max |H - H^dagger| = {asym:.3e} exceeds {atol:.1e}"
        )
    return matrix


def fix_phases(states: np.ndarray) -> np.ndarray:
    """Rotate each eigenvector column so its largest component is real positive.

    Works on a single (n, n) matrix or a stacked (..., n, n) batch.  Real input
    stays real (the rotation reduces to a sign flip).
    """
    idx = np.argmax(np.abs(states), axis=-2)
    lead = np.take_along_axis(states, idx[..., None, :], axis=-2)[..., 0, :]
    scale = np.abs(lead)
    scale = np.where(scale == 0, 1.0, scale)
    if np.iscomplexobj(states):
        return states * (np.conj(lead) / scale)[..., None, :]
    return states * np.sign(np.where(lead == 0, 1.0, lead))[..., None, :]


def eigh(matrix: np.ndarray, *, atol: float = HERMITICITY_ATOL) -> SpectralDecomposition:
    """Eigendecomposition of a Hermitian matrix with deterministic phases.

    Raises
    ------
    NonHermitianError
        If the symmetry violation exceeds ``atol`` (absolute, entrywise).
    """
    return SpectralDecomposition(*eigh_many(_validate_hermitian(matrix, atol)))


def eigh_many(matrices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched ``eigh`` over a stacked (..., n, n) array of Hermitian matrices.

    Returns ``(energies, states)`` with shapes (..., n) and (..., n, n).
    Symmetry is enforced by averaging rather than re-validated per matrix;
    use :func:`eigh` when rejection of bad input matters.
    """
    matrices = np.asarray(matrices)
    sym = 0.5 * (matrices + np.conj(np.swapaxes(matrices, -1, -2)))
    energies, states = np.linalg.eigh(sym)
    return energies, fix_phases(states)


def warn_if_degenerate(energies: np.ndarray, *, gap: float = DEGENERACY_GAP) -> None:
    """Emit a warning when adjacent levels come closer than ``gap``.

    Intended for eigenvalue sequences collected along a driving path; branching
    ratios stay well defined there, the perturbative metric does not.
    """
    spacings = np.diff(energies, axis=-1)
    if spacings.size and spacings.min() < gap:
        warnings.warn(
            f"near-degenerate adjacent levels: min spacing {spacings.min():.3e} < {gap:.1e}",
            DegeneracyWarning,
            stacklevel=2,
        )


def branching(origin: SpectralDecomposition, target: SpectralDecomposition) -> np.ndarray:
    """Branching-ratio matrix of a sudden quench between two eigenbases.

    Entry ``[i, i']`` is the squared overlap between eigenvector ``i`` of the
    post-quench basis (``target``) and eigenvector ``i'`` of the pre-quench
    basis (``origin``); each row and each column sums to one.  Invariant under
    any per-column phase change of either basis.
    """
    if origin.dim != target.dim:
        raise ValueError(f"dimension mismatch: {origin.dim} != {target.dim}")
    overlaps = target.states.conj().T @ origin.states
    return np.abs(overlaps) ** 2


def branching_along(states: np.ndarray) -> np.ndarray:
    """Branching matrices for consecutive quenches along a path.

    ``states`` has shape (M, n, n); the result has shape (M-1, n, n) with
    entry ``[k, i, i']`` the ratio for the quench from point k to point k+1.
    """
    overlaps = np.einsum("kji,kjl->kil", np.conj(states[1:]), states[:-1])
    return np.abs(overlaps) ** 2


def ground_step_lengths(states: np.ndarray) -> np.ndarray:
    """Ground-state step lengths sqrt(1 - |<E0(k+1)|E0(k)>|^2) along a path.

    ``states`` is an (M, n, n) stack from :func:`eigh_many`; returns M-1 lengths.
    """
    v0 = states[..., :, 0]
    overlap = np.abs(np.sum(np.conj(v0[:-1]) * v0[1:], axis=-1))
    return np.sqrt(np.maximum(0.0, 1.0 - overlap**2))
