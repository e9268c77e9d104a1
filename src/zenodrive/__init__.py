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
    metric,
    metric_many,
    path_length,
    reparameterize,
    refine,
    step_length,
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
    fidelity_product,
    fit_excited_return,
    infidelity_terms,
    run_stroboscopic,
    zeno_sweep,
)
from .spectator import (
    ReducedDensityMatrix,
    evolve_gadget,
    gadget_unitary,
    interaction_action,
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
    "fidelity_product",
    "fit_excited_return",
    "gadget_unitary",
    "geodesic",
    "infidelity_terms",
    "integrate_schrodinger",
    "interaction_action",
    "interaction_hamiltonian",
    "metric",
    "metric_many",
    "minimal_steps",
    "path_length",
    "reduced_density",
    "refine",
    "reparameterize",
    "run_stroboscopic",
    "step_length",
    "zeno_sweep",
]
