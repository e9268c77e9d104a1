"""Decoherence-assisted stroboscopic driving protocol.

Between consecutive parameter quenches the driven system fully decoheres in
the running Hamiltonian eigenbasis, so the state is described by occupation
probabilities alone and each quench acts as a doubly stochastic transition
matrix of squared eigenvector overlaps.  The resulting chain is iterated here,
together with the ground-state product approximation of the final fidelity,
the small-step infidelity expansion, and a least-squares estimate of the
excited-return coefficient.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import _eigenbases_along, step_lengths_along
from .models import HamiltonianFamily
from .spectral import branching_along, eigh_many, ground_step_lengths
from .trajectories import Trajectory


@dataclass
class ProtocolResult:
    """Full probability trace of one stroboscopic run.

    ``probabilities[k, i]`` is the occupation of level i after k quenches
    (row 0 is the initial condition, all weight in the ground state).
    """

    probabilities: np.ndarray
    step_lengths: np.ndarray

    @property
    def final_fidelity(self) -> float:
        return float(self.probabilities[-1, 0])

    @property
    def final_infidelity(self) -> float:
        return 1.0 - self.final_fidelity


def run_stroboscopic(model: HamiltonianFamily, path) -> ProtocolResult:
    """Iterate the quench chain p(k+1) = B(k) p(k) from p_i(0) = delta_i0.

    ``B(k)`` is the full branching matrix between the eigenbases at points k
    and k+1; every probability row is conserved to numerical precision.  The
    eigenbases stream in blocks of ``EIGH_BLOCK`` points, so working memory
    beyond the returned trace is one block of (dim, dim) matrices.  Emits at
    most one ``DegeneracyWarning``, naming the smallest level spacing on the
    path.  Raises ``ValueError`` for a path without points.
    """
    points = np.atleast_2d(np.asarray(path, dtype=float))
    if len(points) == 0:
        raise ValueError("path needs at least one point")
    probs = np.zeros((len(points), model.dim))
    probs[0, 0] = 1.0
    lengths, k = [], 0
    for states in _eigenbases_along(model, points, eigh_many):
        lengths.append(ground_step_lengths(states))
        for ratio in branching_along(states):
            probs[k + 1] = ratio @ probs[k]
            k += 1
    return ProtocolResult(probabilities=probs, step_lengths=np.concatenate(lengths))


def fidelity_product(model: HamiltonianFamily, path) -> float:
    """Ground-state-only product approximation of the final fidelity.

    The product of the exact ground-to-ground branching ratios (1 - dl_k^2)
    along the path; it omits every excursion through excited states, all of
    which return non-negative probability, so it never exceeds the exact
    final fidelity.
    """
    dl = step_lengths_along(model, np.atleast_2d(np.asarray(path, dtype=float)))
    return float(np.prod(1.0 - dl**2))


def infidelity_terms(length: float, steps: int) -> tuple[float, float]:
    """Leading terms of the final infidelity for an equidistant discretization.

    Returns ``(l^2/K, l^2/K - l^4/2K^2)``.  The additional excited-return
    contribution of order 1/K^2 is not predicted here; see ``fit_excited_return``.
    """
    if not 0 <= length < np.inf:
        raise ValueError(f"length must be finite and >= 0, got {length!r}")
    if not steps >= 1:
        raise ValueError(f"steps must be >= 1, got {steps!r}")
    one = length**2 / steps
    two = one - length**4 / (2 * steps**2)
    return one, two


def fit_excited_return(data, length: float) -> float:
    """Least-squares estimate of the excited-return coefficient R.

    Fits the residual I_exact - (l^2/K - l^4/2K^2) ~ -R/K^2 over measured
    points ``data = [(K, I_exact), ...]``.  Needs at least three points with
    K >= 50 so neglected higher orders stay small; ``length`` and the
    infidelities must be finite.  The paper-level expectation R > 0 is
    asserted: excursions through excited states always reduce the infidelity
    predicted by the two-term expansion.
    """
    if not 0 <= length < np.inf:
        raise ValueError(f"length must be finite and >= 0, got {length!r}")
    rows = [(int(k), float(infid)) for k, infid in data]
    rows = [r for r in rows if r[0] >= 50]
    if len(rows) < 3:
        raise ValueError("need at least 3 data points with K >= 50")
    ks = np.array([r[0] for r in rows], dtype=float)
    infids = np.array([r[1] for r in rows])
    if not np.all(np.isfinite(infids)):
        raise ValueError("infidelities must be finite (got NaN or infinity)")
    residual = infids - (length**2 / ks - length**4 / (2 * ks**2))
    x = 1.0 / ks**2
    r_hat = -float(np.dot(x, residual) / np.dot(x, x))
    if not r_hat > 0:
        raise ValueError(f"fitted excited-return coefficient is not positive: {r_hat:.3e}")
    return r_hat


def zeno_sweep(model: HamiltonianFamily, trajectory: Trajectory, step_counts) -> list[dict]:
    """Exact and approximate infidelity versus step count on one trajectory.

    One stroboscopic run per K, each on a fresh discretization of the same
    underlying trajectory (family speed law).  Rows are independent; the
    infidelity-expansion columns use the trajectory's total metric length.
    """
    step_counts = [int(k) for k in step_counts]
    if step_counts != sorted(step_counts):
        raise ValueError("step counts must be ascending")
    length = trajectory.length
    rows = []
    for steps in step_counts:
        path = trajectory.discretize(steps)
        result = run_stroboscopic(model, path)
        one, two = infidelity_terms(length, steps)
        rows.append(
            {
                "path_family": trajectory.family,
                "K": steps,
                "I_exact": result.final_infidelity,
                "I_one_term": one,
                "I_two_term": two,
                "ell": length,
            }
        )
    return rows
