"""Decoherence-assisted quantum driving: stroboscopic quench protocols with
full inter-step decoherence, driving-path optimization on the ground-state
manifold, and coherent Schrodinger baselines."""

__version__ = "0.1.0"

from .coherent import (
    CoherentResult,
    IntegratorConvergenceError,
    coherent_sweep,
    integrate_schrodinger,
    minimal_steps,
)
from .geometry import (
    DegenerateGroundStateError,
    GeodesicConvergenceError,
    geodesic,
    metric_many,
    path_length,
    refine,
)
from .models import (
    HamiltonianFamily,
    LipkinModel,
    TwoLevelModel,
    brute_force_lipkin,
    collective_spin_ops,
    dicke_states,
)
from .protocol import (
    ProtocolResult,
    excited_return,
    fidelity_product,
    infidelity_terms,
    run_stroboscopic,
    zeno_sweep,
)
from .spectator import (
    ReducedDensityMatrix,
    evolve_gadget,
    gadget_unitary,
    interaction_hamiltonian,
    reduced_density,
)
from .spectral import eigh_many
from .trajectories import FAMILIES, Trajectory, build_trajectory

__all__ = [
    "CoherentResult",
    "DegenerateGroundStateError",
    "FAMILIES",
    "GeodesicConvergenceError",
    "HamiltonianFamily",
    "IntegratorConvergenceError",
    "LipkinModel",
    "ProtocolResult",
    "ReducedDensityMatrix",
    "TwoLevelModel",
    "Trajectory",
    "brute_force_lipkin",
    "build_trajectory",
    "coherent_sweep",
    "collective_spin_ops",
    "dicke_states",
    "eigh_many",
    "evolve_gadget",
    "excited_return",
    "fidelity_product",
    "gadget_unitary",
    "geodesic",
    "infidelity_terms",
    "integrate_schrodinger",
    "interaction_hamiltonian",
    "metric_many",
    "minimal_steps",
    "path_length",
    "reduced_density",
    "refine",
    "run_stroboscopic",
    "zeno_sweep",
]
