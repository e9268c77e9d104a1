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
    DiscretizedPath,
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

# speed law implied by each family tag
_FAMILY_MODE = {
    "geodesic": "constant-manifold-speed",
    "linear-v": "constant-manifold-speed",
    "linear-u": "constant-euclidean-speed",
}


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
    def euclidean_length(self) -> float:
        return float(self.euclid_cumlen[-1])

    @property
    def mode(self) -> str:
        return _FAMILY_MODE[self.family]

    @property
    def dense_steps(self) -> int:
        return self.points.shape[0] - 1

    def _table(self) -> np.ndarray:
        return self.metric_cumlen if self.mode == "constant-manifold-speed" else self.euclid_cumlen

    def discretize(self, steps: int) -> DiscretizedPath:
        """Stroboscopic path with ``steps`` quenches at the family's speed law."""
        check_resolution(self.dense_steps, steps, "trajectory table")
        out = resample(self.points, self._table(), steps)
        family = "geodesic" if self.family == "geodesic" else "linear"
        return DiscretizedPath(points=out, family=family, parameterization=self.mode)

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
    gtol: float = 1e-9,
    max_iterations: int = 200,
) -> Trajectory:
    """Construct a dense Trajectory of the requested family between two endpoints.

    The geodesic family first relaxes a ``geodesic_steps``-segment path and then
    subdivides its polyline to ``dense_steps`` segments; linear families sample
    the straight chord directly.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown path family {family!r}; expected one of {FAMILIES}")
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    if family == "geodesic":
        base = geodesic(
            model, start, end, geodesic_steps, gtol=gtol, max_iterations=max_iterations
        )
        factor = max(1, int(np.ceil(dense_steps / base.steps)))
        dense = refine(base, factor).points
    else:
        frac = np.linspace(0.0, 1.0, dense_steps + 1)[:, None]
        dense = start + frac * (end - start)
    return Trajectory(
        family=family,
        points=dense,
        metric_cumlen=cumulative_lengths(model, dense),
        euclid_cumlen=cumulative_euclidean(dense),
    )
