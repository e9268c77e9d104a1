"""Decoherence-assisted stroboscopic driving protocol.

Between consecutive parameter quenches the driven system fully decoheres in
the running Hamiltonian eigenbasis, so the state is described by occupation
probabilities alone and each quench acts as a doubly stochastic transition
matrix of squared eigenvector overlaps.  The resulting chain is iterated here,
on one path or, for a sweep over step counts whose grids share points, on all
of their paths in one walk over the union of their points, together with the
ground-state product approximation of the final fidelity, the small-step
infidelity expansion, and the closed-form excited-return coefficient of its
next order.
"""
from __future__ import annotations

import math
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
    probs = np.zeros((len(points), model.dim))
    probs[:1, 0] = 1.0   # no row on a path without points, which the walk rejects
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
    dl = step_lengths_along(model, path)
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
    split, steps = np.zeros(model.dim), 0
    for states in _eigenbases_along(model, path, eigh_many):
        ratios = branching_along(states)
        split += ratios[:, :, 0].sum(axis=0) + ratios[:, 0, :].sum(axis=0)
        steps += len(ratios)
    levels = 0.5 * steps * split[1:]
    return float(0.5 * np.sum(levels**2))


def _walk_groups(step_counts) -> list[list[int]]:
    """Positions in the ascending ``step_counts``, grouped into the counts that walk together.

    In exact arithmetic the grid of K steps holds gcd(K, K') + 1 points of the
    grid of K'.  From the largest count down, each K joins the first group whose
    largest count shares at least half of its points, else it leads its own;
    each group lists its counts largest first.  The default 1-2-5 ladder makes
    one walk.  Counts that share few points (most ``lin:`` and ``log:`` lists)
    walk alone, as ``run_stroboscopic`` would walk them.  In one joint walk
    every streamed block would visit each of their chains for a handful of
    points; on the ``lin:1000:10000:50`` list at N=2 that took 1.7 times the
    CPU time of one walk per K (2-vCPU x86 host).
    """
    groups = []
    for i in reversed(range(len(step_counts))):
        k = step_counts[i]
        for group in groups:
            if 2 * math.gcd(k, step_counts[group[0]]) >= k:
                group.append(i)
                break
        else:
            groups.append([i])
    return groups


def _final_probabilities(
    model: HamiltonianFamily, trajectory: Trajectory, step_counts
) -> np.ndarray:
    """Final probability rows of the chains of ``step_counts``, all in one eigen-walk.

    The points ``trajectory.discretize_many`` forms are diagonalized once each,
    streamed in blocks; each K's chain advances on its own walk over them and
    keeps only its probability row and last eigenbasis, with which its stack in
    the next block starts.
    """
    points, walks = trajectory.discretize_many(step_counts)
    probs = np.zeros((len(walks), model.dim))
    probs[:, 0] = 1.0
    last = [None] * len(walks)   # each chain's last eigenbasis, a copy
    reached = [0] * len(walks)   # position in each walk of that eigenbasis
    first = 0   # index in ``points`` of the first eigenbasis of each streamed stack
    for states in _eigenbases_along(model, points, eigh_many):
        # largest K first: each smaller chain's block temporaries then fit in the
        # memory the larger one freed (in ascending order they raised the peak
        # resident set of the default sweep by 0.4 MB)
        for c, walk in enumerate(walks):
            upto = int(np.searchsorted(walk, first + len(states)))
            at = walk[reached[c] : upto] - first   # its last point, then its new ones
            # its last eigenbasis, then its new points (the first stack holds its start)
            stack = states[at] if first == 0 else np.concatenate([last[c], states[at[1:]]])
            for ratio in branching_along(stack):
                probs[c] = ratio @ probs[c]
            last[c], reached[c] = stack[-1:].copy(), upto - 1
        first += len(states) - 1   # consecutive stacks overlap in one eigenbasis
    return probs


def zeno_sweep(model: HamiltonianFamily, trajectory: Trajectory, step_counts) -> list[dict]:
    """Exact and approximate infidelity versus step count on one trajectory.

    Each K's row is that of ``run_stroboscopic(model, trajectory.discretize(K))``
    bit for bit, but counts whose time-law grids share points (see
    ``_walk_groups``) share one walk over the points ``trajectory.discretize_many``
    forms, which diagonalizes each distinct point of their grids once.  On the
    default 1-2-5 ladder, whose grids nest, that is one walk.  The
    infidelity-expansion columns use the trajectory's total metric length.
    Emits at most one ``DegeneracyWarning`` per walk.  Raises ``ValueError``
    for a step count that is not an integer >= 1, a descending list, or a
    table too coarse for the largest K (in the first group), before any work.
    """
    step_counts = [check_count("step count", k, 1) for k in step_counts]
    if step_counts != sorted(step_counts):
        raise ValueError("step counts must be ascending")
    probs = np.zeros((len(step_counts), model.dim))
    for group in _walk_groups(step_counts):
        probs[group] = _final_probabilities(model, trajectory, [step_counts[i] for i in group])
    length = trajectory.length
    rows = []
    for steps, row in zip(step_counts, probs):
        one, two = infidelity_terms(length, steps)
        rows.append(
            {
                "path_family": trajectory.family,
                "K": steps,
                "I_exact": ProtocolResult(row[None]).final_infidelity,
                "I_one_term": one,
                "I_two_term": two,
                "ell": length,
            }
        )
    return rows
