"""Dense Hermitian eigendecomposition and basis-overlap kernels.

Everything downstream (metric tensors, branching ratios, step lengths) consumes
the primitives defined here: a batched eigendecomposition, and the squared
overlaps and ground-state step lengths between consecutive eigenbases.  No
consumer reads the phase of an eigenvector, so none is fixed.
"""
from __future__ import annotations

import warnings

import numpy as np

DEGENERACY_GAP = 1e-12


class DegeneracyWarning(UserWarning):
    """Adjacent eigenvalues closer than ``DEGENERACY_GAP`` along a driving path."""


def eigh_many(matrices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched ``eigh`` over a stacked (..., n, n) array of Hermitian matrices.

    Returns ``(energies, states)`` with shapes (..., n) and (..., n, n).
    Only the lower triangle is read, as by ``np.linalg.eigh``; symmetry is
    neither enforced nor validated.  Inputs come from the ``HamiltonianFamily``
    maps, which build exactly Hermitian matrices and whose ``check_points``
    rejects bad parameter points before any matrix is built.

    Raises
    ------
    ValueError
        If an entry is NaN or infinite (LAPACK would fail to converge on NaN
        and return NaN energies for infinity).
    """
    if not np.isfinite(matrices).all():
        raise ValueError("eigh_many needs finite matrices (got NaN or infinity)")
    return np.linalg.eigh(matrices)


def warn_if_degenerate(energies: np.ndarray) -> None:
    """Emit a warning when adjacent levels come closer than ``DEGENERACY_GAP``.

    Intended for eigenvalue sequences collected along a driving path; branching
    ratios stay well defined there, the perturbative metric does not.
    """
    spacings = np.diff(energies, axis=-1)
    if spacings.size and spacings.min() < DEGENERACY_GAP:
        warnings.warn(
            f"near-degenerate adjacent levels: min spacing {spacings.min():.3e} "
            f"< {DEGENERACY_GAP:.1e}",
            DegeneracyWarning,
            stacklevel=2,
        )


def branching_along(states: np.ndarray) -> np.ndarray:
    """Branching matrices for consecutive quenches along a path.

    ``states`` has shape (M, n, n); the result has shape (M-1, n, n) with
    entry ``[k, i, i']`` the ratio for the quench from point k to point k+1.
    """
    overlaps = np.conj(np.swapaxes(states[1:], -1, -2)) @ states[:-1]
    return np.abs(overlaps) ** 2


def ground_step_lengths(states: np.ndarray) -> np.ndarray:
    """Ground-state step lengths sqrt(1 - |<E0(k+1)|E0(k)>|^2) along a path.

    ``states`` is an (M, n, n) stack from :func:`eigh_many`; returns M-1 lengths.
    Two identical ground states are exactly 0 apart, not at the rounding
    floor of 1 - |o|^2 (about 1.5e-8 when |o|^2 rounds one ulp below 1).
    """
    v0 = states[..., :, 0]
    overlap = np.abs(np.sum(np.conj(v0[:-1]) * v0[1:], axis=-1))
    lengths = np.sqrt(np.maximum(0.0, 1.0 - overlap**2))
    lengths[np.all(v0[:-1] == v0[1:], axis=-1)] = 0.0
    return lengths


def _sorted_distinct(values):
    """``np.unique`` of 1-D integers or finite floats, bit for bit, by sort and neighbour mask.

    ``np.unique`` (and so ``np.union1d``) imports ``numpy.ma`` on its first
    call: about 1.2 MB of resident memory and 10 ms per process with numpy 2.4
    on a 2-vCPU x86 host.  The integrator's knots and trace times, the union
    of ``zeno_sweep``'s step grids and the CLI's ``log:`` and ``lin:``
    integer lists go through this instead.
    """
    values = np.sort(values)
    keep = np.empty(values.size, dtype=bool)
    keep[:1] = True
    keep[1:] = values[1:] != values[:-1]
    return values[keep]
