"""Driving-path families with dense length tables.

A Trajectory bundles a densely sampled curve between the driving endpoints with
its cumulative metric length table and the length table of its time law, so
that stroboscopic discretizations for many step counts, and time laws for
coherent driving, can all be read off the same tables.

Three families are supported: the geodesic at constant manifold speed, the
straight line at constant manifold speed, and the straight line at constant
plane speed.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import (
    cumulative_euclidean,
    cumulative_lengths,
    geodesic,
    interpolate_at,
    refine,
    resample,
)
from .models import HamiltonianFamily, check_count

FAMILIES = ("geodesic", "linear-v", "linear-u")
# dense segments a table needs per output step before it resolves a resampling
SEGMENTS_PER_STEP = 10
# segments per block of the path-energy sum: on a 100k-segment table its
# whole-table temporaries raised the peak resident set of `compare` by 1 MB
ENERGY_BLOCK = 4096


@dataclass(frozen=True)
class Trajectory:
    """Densely sampled driving trajectory with precomputed length tables.

    ``metric_cumlen`` is the cumulative ground-state (metric) length at each
    point, (M+1,), and gives ``length``.  ``law_cumlen`` is the cumulative
    length the family's time law advances at constant rate: plane
    (Euclidean) length for linear-u, and the ``metric_cumlen`` array itself
    for the constant-manifold-speed families.
    """

    family: str
    points: np.ndarray
    metric_cumlen: np.ndarray
    law_cumlen: np.ndarray

    @property
    def length(self) -> float:
        """Total metric length of the trajectory."""
        return float(self.metric_cumlen[-1])

    @property
    def energy(self) -> float:
        """Path energy E = W sum_j dl_j^2 / dw_j of the time law, W = law length.

        dl and dw are the metric and law increments of the table's segments;
        segments with dw = 0 are skipped, so E = 0 when W = 0.  By
        Cauchy-Schwarz E >= ``length``^2, with equality at constant metric
        speed: E is the l^2 of the Zeno law I ~ E/K of a chain driven on
        this time law.
        """
        total = 0.0
        for lo in range(0, len(self.law_cumlen) - 1, ENERGY_BLOCK):
            dw = np.diff(self.law_cumlen[lo : lo + ENERGY_BLOCK + 1])
            moving = dw > 0
            dl = np.diff(self.metric_cumlen[lo : lo + ENERGY_BLOCK + 1])[moving]
            total += np.sum(dl**2 / dw[moving])
        return float(self.law_cumlen[-1] * total)

    @property
    def max_steps(self) -> int:
        """Largest step count the table resolves, ``SEGMENTS_PER_STEP`` segments per step."""
        return (self.points.shape[0] - 1) // SEGMENTS_PER_STEP

    def discretize(self, steps: int) -> np.ndarray:
        """Stroboscopic path, (steps+1, D) points, at the family's speed law."""
        if check_count("steps", steps, 1) > self.max_steps:
            raise ValueError(
                f"trajectory table too coarse: {self.points.shape[0] - 1} segments cannot "
                f"resolve {steps} steps (need >= {SEGMENTS_PER_STEP * steps})"
            )
        return resample(self.points, self.law_cumlen, steps)

    def position_at(self, fractions: np.ndarray) -> np.ndarray:
        """Points at given fractions of elapsed driving time.

        The time law is the family's constant-speed rule: equal fractions of
        metric length per unit time for constant-manifold-speed families, equal
        plane distance for constant-plane-speed ones.  Fractions outside
        [0, 1] are clipped to it; a NaN or infinite one raises ``ValueError``.
        """
        fractions = np.asarray(fractions, dtype=float)
        if not np.all(np.isfinite(fractions)):
            raise ValueError("time fractions must be finite (got NaN or infinity)")
        targets = np.clip(fractions, 0.0, 1.0) * self.law_cumlen[-1]
        return interpolate_at(self.points, self.law_cumlen, targets)


def build_trajectory(
    model: HamiltonianFamily,
    family: str,
    start: np.ndarray,
    end: np.ndarray,
    *,
    dense_steps: int = 40000,
    geodesic_steps: int = 256,
) -> Trajectory:
    """Construct a dense Trajectory of the requested family between two endpoints.

    The geodesic family first relaxes a ``geodesic_steps``-segment path and then
    subdivides each of its segments ceil(``dense_steps`` / ``geodesic_steps``)
    times, so its table has that multiple of ``geodesic_steps`` segments (at
    least ``dense_steps``); linear families subdivide the straight chord into
    ``dense_steps`` segments, with both end points exact.  Raises
    ``ValueError`` for an unknown family, or a ``dense_steps`` that is not an
    integer or is below 1.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown path family {family!r}; expected one of {FAMILIES}")
    dense_steps = check_count("dense_steps", dense_steps, 1)
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    if family == "geodesic":
        base = geodesic(model, start, end, geodesic_steps)
        dense = refine(base, max(1, int(np.ceil(dense_steps / geodesic_steps))))
    else:
        dense = refine(np.array([start, end]), dense_steps)
    metric = cumulative_lengths(model, dense)
    law = cumulative_euclidean(dense) if family == "linear-u" else metric
    return Trajectory(family=family, points=dense, metric_cumlen=metric, law_cumlen=law)
