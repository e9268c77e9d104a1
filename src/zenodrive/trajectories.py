"""Driving-path families with dense length tables.

A Trajectory bundles a densely sampled curve between the driving endpoints with
cumulative metric and Euclidean length tables, so that stroboscopic
discretizations for many step counts, and time laws for coherent driving, can
all be read off the same tables.

Three families are supported: the geodesic at constant manifold speed, the
straight line at constant manifold speed, and the straight line at constant
plane speed.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import (
    check_resolution,
    cumulative_euclidean,
    cumulative_lengths,
    geodesic,
    interpolate_at,
    refine,
    resample,
)
from .models import HamiltonianFamily

FAMILIES = ("geodesic", "linear-v", "linear-u")


@dataclass(frozen=True)
class Trajectory:
    """Densely sampled driving trajectory with precomputed length tables."""

    family: str
    points: np.ndarray
    metric_cumlen: np.ndarray
    euclid_cumlen: np.ndarray

    @property
    def length(self) -> float:
        """Total metric length of the trajectory."""
        return float(self.metric_cumlen[-1])

    @property
    def dense_steps(self) -> int:
        return self.points.shape[0] - 1

    def _table(self) -> np.ndarray:
        """Length table of the family's speed law: plane length for linear-u, metric otherwise."""
        return self.euclid_cumlen if self.family == "linear-u" else self.metric_cumlen

    def discretize(self, steps: int) -> np.ndarray:
        """Stroboscopic path, (steps+1, D) points, at the family's speed law."""
        check_resolution(self.dense_steps, steps, "trajectory table")
        return resample(self.points, self._table(), steps)

    def position_at(self, fractions: np.ndarray) -> np.ndarray:
        """Points at given fractions of elapsed driving time.

        The time law is the family's constant-speed rule: equal fractions of
        metric length per unit time for constant-manifold-speed families, equal
        plane distance for constant-plane-speed ones.
        """
        table = self._table()
        targets = np.clip(np.asarray(fractions, dtype=float), 0.0, 1.0) * table[-1]
        return interpolate_at(self.points, table, targets)


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
    least ``dense_steps``); linear families sample the straight chord directly
    at ``dense_steps`` segments.  Raises ``ValueError`` for an unknown family
    or ``dense_steps`` below 1.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown path family {family!r}; expected one of {FAMILIES}")
    if not dense_steps >= 1:
        raise ValueError(f"dense_steps must be >= 1, got {dense_steps!r}")
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    if family == "geodesic":
        base = geodesic(model, start, end, geodesic_steps)
        dense = refine(base, max(1, int(np.ceil(dense_steps / geodesic_steps))))
    else:
        frac = np.linspace(0.0, 1.0, dense_steps + 1)[:, None]
        dense = start + frac * (end - start)
    return Trajectory(
        family=family,
        points=dense,
        metric_cumlen=cumulative_lengths(model, dense),
        euclid_cumlen=cumulative_euclidean(dense),
    )
