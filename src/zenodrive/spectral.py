"""Dense Hermitian eigendecomposition and basis-overlap kernels.

Everything downstream (metric tensors, branching ratios, step lengths) consumes
the primitives defined here: a phase-fixed eigendecomposition, and the squared
overlaps and ground-state step lengths between consecutive eigenbases.
"""
from __future__ import annotations

import warnings

import numpy as np

DEGENERACY_GAP = 1e-12


class DegeneracyWarning(UserWarning):
    """Adjacent eigenvalues closer than ``DEGENERACY_GAP`` along a driving path."""


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


def eigh_many(matrices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched ``eigh`` over a stacked (..., n, n) array of Hermitian matrices.

    Returns ``(energies, states)`` with shapes (..., n) and (..., n, n).
    Symmetry is enforced by averaging rather than validated.  Inputs come from
    the ``HamiltonianFamily`` maps, whose ``check_points`` rejects bad
    parameter points before any matrix is built.
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
