"""Decoherence-assisted stroboscopic driving protocol.

Between consecutive parameter quenches the driven system fully decoheres in
the running Hamiltonian eigenbasis, so the state is described by occupation
probabilities alone and each quench acts as a doubly stochastic transition
matrix of squared eigenvector overlaps.  The resulting chain is iterated here,
together with the ground-state product approximation of the final fidelity,
the small-step infidelity expansion, and the closed-form excited-return
coefficient of its next order.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import _eigenbases_along, step_lengths_along
from .models import HamiltonianFamily, check_count
from .spectral import branching_along, eigh_many
from .trajectories import Trajectory


@dataclass
class ProtocolResult:
    """Full probability trace of one stroboscopic run.

    ``probabilities[k, i]`` is the occupation of level i after k quenches
    (row 0 is the initial condition, all weight in the ground state).
    """

    probabilities: np.ndarray

    @property
    def final_fidelity(self) -> float:
        return float(self.probabilities[-1, 0])

    @property
    def final_infidelity(self) -> float:
        """Final excited weight, the sum of the excited occupations.

        Not 1 - ``final_fidelity``: each quench rounds the ground-to-ground
        ratio 1 - dl^2 at eps, so that difference errs by about K eps, while
        the excited sum adds non-negative terms and never cancels.
        """
        return float(self.probabilities[-1, 1:].sum())


def run_stroboscopic(model: HamiltonianFamily, path) -> ProtocolResult:
    """Iterate the quench chain p(k+1) = B(k) p(k) from p_i(0) = delta_i0.

    ``B(k)`` is the full branching matrix between the eigenbases at points k
    and k+1; every probability row is conserved to numerical precision.  The
    eigenbases stream in blocks of ``EIGH_BLOCK`` points, so working memory
    beyond the returned trace is one block of (dim, dim) matrices.  Step
    lengths along the same path come from ``step_lengths_along``.  Emits at
    most one ``DegeneracyWarning``, naming the smallest level spacing on the
    path.  Raises ``ValueError`` for a path without points.
    """
    points = np.atleast_2d(np.asarray(path, dtype=float))
    if len(points) == 0:
        raise ValueError("path needs at least one point")
    probs = np.zeros((len(points), model.dim))
    probs[0, 0] = 1.0
    k = 0
    for states in _eigenbases_along(model, points, eigh_many):
        for ratio in branching_along(states):
            probs[k + 1] = ratio @ probs[k]
            k += 1
    return ProtocolResult(probabilities=probs)


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
    contribution of order 1/K^2 is not predicted here; see ``excited_return``.
    """
    if not 0 <= length < np.inf:
        raise ValueError(f"length must be finite and >= 0, got {length!r}")
    steps = check_count("steps", steps, 1)
    one = length**2 / steps
    two = one - length**4 / (2 * steps**2)
    return one, two


def excited_return(model: HamiltonianFamily, path) -> float:
    """Excited-return coefficient R of a constant-speed path of K quenches.

    At constant metric speed the chain's infidelity is
    l^2/K - l^4/2K^2 - R/K^2 + O(K^-3), with R = 1/2 sum_{n>0} G_n^2 and
    G_n = int_0^1 |<n|d_s 0>|^2 ds the per-level split of l^2.  Each G_n is
    K times the sum over the quenches of the mean of B[n, 0] and B[0, n]:
    the mean makes R invariant under path reversal and its error O(1/K^2).
    One walk over the path, the one ``run_stroboscopic`` makes.
    """
    points = np.atleast_2d(model.check_points(path))
    split = np.zeros(model.dim)
    for states in _eigenbases_along(model, points, eigh_many):
        ratios = branching_along(states)
        split += ratios[:, :, 0].sum(axis=0) + ratios[:, 0, :].sum(axis=0)
    levels = 0.5 * (len(points) - 1) * split[1:]
    return float(0.5 * np.sum(levels**2))


def zeno_sweep(model: HamiltonianFamily, trajectory: Trajectory, step_counts) -> list[dict]:
    """Exact and approximate infidelity versus step count on one trajectory.

    One stroboscopic run per K, each on a fresh discretization of the same
    underlying trajectory (family speed law).  Rows are independent; the
    infidelity-expansion columns use the trajectory's total metric length.
    """
    step_counts = [check_count("step count", k, 1) for k in step_counts]
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
