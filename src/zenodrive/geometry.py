"""Ground-state manifold geometry.

The metric tensor measures the distinguishability of neighboring ground states:
its quadratic form reproduces, to leading order in the parameter displacement,
one minus the squared ground-state overlap.  On top of it sit exact step
lengths, discretized path lengths, a geodesic solver based on relaxation of the
discrete path energy, and the polyline resampler behind constant-speed paths.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .models import HamiltonianFamily
from .spectral import eigh_many, ground_step_lengths, warn_if_degenerate

GAP_FLOOR = 1e-12
METRIC_CAP = 1e12
# dense segments a table needs per output step before it resolves a resampling
SEGMENTS_PER_STEP = 10
# matrices per eigendecomposition batch in every batched kernel: the length
# table, the quench chain, the metric and the CF4 step unitaries; a power of
# two, which keeps the streamed CF4 product bit-identical to one pairwise
# product over a whole chunk
EIGH_BLOCK = 256
# the geodesic relaxation stops once every interior gradient component is below this
GEODESIC_GTOL = 1e-9
# Newton iterations before the geodesic relaxation gives up
GEODESIC_MAX_ITERATIONS = 200
# central-difference step for the second metric derivative in the geodesic Hessian
GEODESIC_FD_STEP = 1e-4


class DegenerateGroundStateError(RuntimeError):
    """Ground state too close to the first excited level for perturbation theory."""

    def __init__(self, gap: float):
        super().__init__(f"degenerate ground state: gap E1 - E0 = {gap:.3e}")
        self.gap = gap


class GeodesicConvergenceError(RuntimeError):
    """Relaxation failed to reach the gradient tolerance within the iteration budget."""

    def __init__(self, residual: float, iterations: int):
        super().__init__(
            f"geodesic relaxation stalled at max gradient {residual:.3e} "
            f"after {iterations} iterations"
        )
        self.residual = residual
        self.iterations = iterations


@dataclass
class GeodesicDiagnostics:
    """Per-iteration record of the geodesic relaxation."""

    iterations: int = 0
    residual: float = np.inf
    energy_trace: list = field(default_factory=list)
    length_trace: list = field(default_factory=list)


def metric_many(model: HamiltonianFamily, points: np.ndarray, *, with_gap: bool = False):
    """Metric tensors at points of shape (..., D), shape (..., D, D).

    g_mn = Re sum_{i>0} <E0|dH_m|Ei><Ei|dH_n|E0> / (Ei - E0)^2, from the
    perturbative sum over states.  Symmetric and positive semidefinite;
    independent of eigenvector phase conventions and of global energy shifts
    of the Hamiltonian.  With ``with_gap`` returns ``(g, gap)``, where ``gap``
    (shape (...,)) is E1 - E0 from the same eigendecomposition.

    The points are diagonalized ``EIGH_BLOCK`` at a time, so working memory
    is one block of (dim, dim) matrices whatever the batch; zero points give
    empty arrays.  At most one cap warning is emitted per call.

    Raises
    ------
    DegenerateGroundStateError
        If the gap to the first excited level is at or below ``GAP_FLOOR``.
        Its ``gap`` is the smallest gap within the first block of
        ``EIGH_BLOCK`` flattened points that holds such a point; later
        blocks are not diagonalized.
    """
    g, _, gap = _metric_impl(model, points, with_gradient=False)
    return (g, gap) if with_gap else g


def metric_with_gradient_many(
    model: HamiltonianFamily, points: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Metric tensors and their parameter gradients, both in closed form.

    Returns ``(g, dg)`` with shapes (..., D, D) and (..., D, D, D) where
    ``dg[..., c, m, n]`` is the derivative of ``g[..., m, n]`` along axis c.
    The gradient follows from differentiating the perturbative sum, using the
    standard first-order expressions for eigenvector and eigenvalue derivatives.
    Blocks, empty input and errors are as in ``metric_many``.
    """
    return _metric_impl(model, points, with_gradient=True)[:2]


def _metric_impl(model, points, *, with_gradient):
    """Metric, gradient (or None) and gap, ``EIGH_BLOCK`` flattened points at a time."""
    points = model.check_points(points)
    batch_shape, nparams = points.shape[:-1], model.nparams
    flat = points.reshape(-1, nparams)
    g = np.empty((len(flat), nparams, nparams))
    dg = np.empty((len(flat),) + (nparams,) * 3) if with_gradient else None
    gap = np.empty(len(flat))
    clipped = False
    for lo in range(0, len(flat), EIGH_BLOCK):
        rows = slice(lo, lo + EIGH_BLOCK)
        block_g, block_dg, gap[rows] = _metric_block(model, flat[rows], with_gradient)
        if np.abs(block_g).max() > METRIC_CAP:
            clipped = True
            block_g = np.clip(block_g, -METRIC_CAP, METRIC_CAP)
        g[rows] = block_g
        if with_gradient:
            dg[rows] = block_dg
    if clipped:
        warnings.warn(
            f"metric component exceeds cap {METRIC_CAP:.0e}; clipping (near-degenerate gap)",
            stacklevel=3,
        )
    g = g.reshape(batch_shape + (nparams, nparams))
    if with_gradient:
        dg = dg.reshape(batch_shape + (nparams,) * 3)
    return g, dg, gap.reshape(batch_shape)


def _metric_block(model, points, with_gradient):
    """Unclipped metric, gradient (or None) and gap of one (B, D) block of points."""
    nparams = model.nparams
    ham = model.hamiltonian_many(points)
    energies, states = eigh_many(ham)
    gap = energies[..., 1] - energies[..., 0]
    min_gap = float(gap.min())
    if min_gap <= GAP_FLOOR:
        raise DegenerateGroundStateError(min_gap)

    # Every contraction is a batched matmul in the eigenbasis.  The metric
    # needs only amps[..., i, c] = <E_i|dH_c|E_0> = (V^dagger dH_c v_0)_i, a
    # matrix-vector product, formed the same way with or without the
    # gradient so both routes return the same g.  The gradient also needs
    # the full B^c = V^dagger dH_c V for the eigenvector derivatives, and only
    # column 0 of V^dagger d2H V, once per unordered axis pair.
    vh = np.conj(np.swapaxes(states, -1, -2))
    ground = states[..., :, :1]
    dhams = [model.derivative_many(points, c) for c in range(nparams)]
    amps = np.concatenate([vh @ (dham @ ground) for dham in dhams], axis=-1)
    delta = energies - energies[..., 0:1]
    weight = np.zeros_like(delta)
    weight[..., 1:] = 1.0 / delta[..., 1:] ** 2

    amps_h = np.conj(np.swapaxes(amps, -1, -2))
    g = np.real(amps_h @ (weight[..., None] * amps))
    g = 0.5 * (g + np.swapaxes(g, -1, -2))
    if not with_gradient:
        return g, None, gap

    dim = ham.shape[-1]
    eye = np.eye(dim, dtype=bool)
    # denom[j, i] = E_i - E_j, guarded on the diagonal and at accidental
    # excited-level crossings (those pair contributions are dropped)
    denom = energies[..., None, :] - energies[..., :, None]
    tiny = np.abs(denom) < 1e2 * GAP_FLOOR
    denom_safe = np.where(tiny | eye, 1.0, denom)
    bmats = [vh @ dham @ states for dham in dhams]
    second = {
        (lo, hi): (vh @ (model.second_derivative_many(points, lo, hi) @ ground))[..., 0]
        for lo in range(nparams)
        for hi in range(lo, nparams)
    }
    # damp[..., c, i, m] = d_c <E_i|dH_m|E_0>, with the eigenvector derivatives
    # of first-order perturbation theory
    damp = np.empty((len(points), nparams, dim, nparams), dtype=states.dtype)
    for c in range(nparams):
        tmat = np.where(tiny | eye, 0.0, bmats[c] / denom_safe)   # T[j,i] = B[j,i]/(E_i-E_j)
        tmat_h = np.conj(np.swapaxes(tmat, -1, -2))
        tcol = tmat[..., :, :1]
        for m in range(nparams):
            term1 = tmat_h @ amps[..., :, m : m + 1]
            term2 = bmats[m] @ tcol
            damp[..., c, :, m] = (term1 + term2)[..., 0] + second[min(c, m), max(c, m)]

    weight3 = np.zeros_like(delta)
    weight3[..., 1:] = 1.0 / delta[..., 1:] ** 3
    # dgap[..., c, i] = d_c (E_i - E_0)
    dgap = np.stack(
        [np.real(np.diagonal(b, axis1=-2, axis2=-1) - b[..., :1, 0]) for b in bmats], axis=-2
    )
    # dg[c, m, n] = Re sum_i (conj(damp_cm) amp_n + conj(amp_m) damp_cn) w_i
    #               - 2 Re sum_i conj(amp_m) amp_n dgap_c w3_i
    cross = np.real(
        np.conj(np.swapaxes(damp, -1, -2)) @ (weight[..., None, :, None] * amps[..., None, :, :])
    )
    shift = np.real(
        amps_h[..., None, :, :]
        @ ((dgap * weight3[..., None, :])[..., :, :, None] * amps[..., None, :, :])
    )
    dg = cross + np.swapaxes(cross, -1, -2) - 2 * shift
    return g, dg, gap


def _eigenbases_along(model: HamiltonianFamily, points: np.ndarray, eigh):
    """Eigenbases along a path, ``EIGH_BLOCK`` points at a time.

    Every point is checked before any is diagonalized.  Each yielded
    (B, dim, dim) stack starts with the last eigenbasis of the previous
    block, so consecutive stacks overlap in one point, each point is
    diagonalized once, and the transitions within the stacks are those of
    the whole path.  After the last block emits at most one
    ``DegeneracyWarning``, naming the smallest level spacing on the path.
    ``eigh`` is the caller's own ``eigh_many`` binding, so the per-module
    trace in ``benchmarks/layers.py`` still tells the chain from the table.
    """
    points = model.check_points(points)
    closest = []
    previous = np.zeros((0, model.dim, model.dim))   # no eigenbasis before the first block
    for lo in range(0, len(points), EIGH_BLOCK):
        energies, states = eigh(model.hamiltonian_many(points[lo : lo + EIGH_BLOCK]))
        # the block's most nearly degenerate spectrum stands in for it in the warning
        spacings = np.diff(energies, axis=-1)
        closest.append(energies[np.unravel_index(spacings.argmin(), spacings.shape)[0]])
        yield np.concatenate([previous, states])
        previous = states[-1:]
    warn_if_degenerate(np.array(closest))


def step_lengths_along(model: HamiltonianFamily, points: np.ndarray) -> np.ndarray:
    """Exact quench lengths sqrt(1 - |<E0(k+1)|E0(k)>|^2) between consecutive points.

    The points stream through ``_eigenbases_along``, so every matrix goes
    through ``eigh_many`` once and working memory is bounded by one block of
    (dim, dim) matrices (about 0.25 MB per temporary at dim 11), not the
    whole table.  Emits at most one ``DegeneracyWarning``, naming the
    smallest level spacing on the path.
    """
    lengths = [
        ground_step_lengths(states) for states in _eigenbases_along(model, points, eigh_many)
    ]
    return np.concatenate(lengths) if lengths else np.zeros(0)


def path_length(model: HamiltonianFamily, path) -> float:
    """Sum of exact step lengths over consecutive path points; for two points, their
    ground-state distance from the full overlap, valid at any separation."""
    points = np.atleast_2d(model.check_points(path))
    if points.shape[0] < 2:
        return 0.0
    return float(step_lengths_along(model, points).sum())


def cumulative_lengths(model: HamiltonianFamily, points: np.ndarray) -> np.ndarray:
    """Cumulative metric length table along a polyline, shape (M+1,)."""
    dl = step_lengths_along(model, points)
    return np.concatenate([[0.0], np.cumsum(dl)])


def cumulative_euclidean(points: np.ndarray) -> np.ndarray:
    seg = np.linalg.norm(np.diff(points, axis=0), axis=1)
    return np.concatenate([[0.0], np.cumsum(seg)])


def resample(points: np.ndarray, table: np.ndarray, count: int) -> np.ndarray:
    """Resample a polyline at ``count + 1`` equal quantiles of a cumulative table.

    The end points are copied rather than interpolated, so they stay exact.
    """
    out = interpolate_at(points, table, np.linspace(0.0, table[-1], count + 1))
    out[0] = points[0]
    out[-1] = points[-1]
    return out


def check_resolution(segments: int, steps: int, table: str) -> None:
    """Reject resampling a ``segments``-segment table into ``steps`` steps it cannot resolve."""
    if steps < 1:
        raise ValueError("need at least one step")
    if segments < SEGMENTS_PER_STEP * steps:
        raise ValueError(
            f"{table} too coarse: {segments} segments cannot resolve {steps} steps "
            f"(need >= {SEGMENTS_PER_STEP * steps})"
        )


def interpolate_at(points: np.ndarray, cumlen: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Positions on a polyline at given cumulative-length values."""
    idx = np.clip(np.searchsorted(cumlen, targets, side="right") - 1, 0, len(cumlen) - 2)
    seg = cumlen[idx + 1] - cumlen[idx]   # only the segments the targets fall in
    frac = (targets - cumlen[idx]) / np.where(seg > 0, seg, 1.0)
    out = points[idx] + frac[..., None] * (points[idx + 1] - points[idx])
    return out


def refine(path, factor: int) -> np.ndarray:
    """Subdivide every segment of a path ``factor`` times (the curve is unchanged)."""
    points = np.atleast_2d(np.asarray(path, dtype=float))
    if factor < 1:
        raise ValueError("factor must be >= 1")
    bad = np.flatnonzero(~np.all(np.isfinite(points), axis=-1))
    if bad.size:
        raise ValueError(f"path points must be finite (got NaN or infinity at rows {bad.tolist()})")
    frac = np.linspace(0.0, 1.0, factor + 1)[:-1, None]
    pieces = points[:-1, None] + frac * (points[1:] - points[:-1])[:, None]
    return np.concatenate([pieces.reshape(-1, points.shape[1]), points[-1:]], axis=0)


# ---------------------------------------------------------------------------
# geodesic relaxation
# ---------------------------------------------------------------------------

def _discrete_energy(model, points):
    mids = 0.5 * (points[:-1] + points[1:])
    delta = points[1:] - points[:-1]
    g = metric_many(model, mids)
    return float(np.einsum("kab,ka,kb->", g, delta, delta))


def _energy_grad_hess(model, points):
    """Energy, gradient, and block-tridiagonal Hessian data of the path energy.

    The energy is sum_k g(mid_k)[delta_k, delta_k].  Metric values and first
    derivatives are analytic; the second metric derivative entering the Hessian
    is a central difference of the analytic gradient (its accuracy only affects
    the convergence rate, not the converged point).  Midpoint probes are
    projected onto the model domain.
    """
    segs = points.shape[0] - 1
    nparams = model.nparams
    mids = 0.5 * (points[:-1] + points[1:])
    delta = points[1:] - points[:-1]
    probes = [mids]
    for c in range(nparams):
        shift = np.zeros(nparams)
        shift[c] = GEODESIC_FD_STEP
        probes.extend([model.project_point(mids + shift), model.project_point(mids - shift)])
    g_all, dg_all = metric_with_gradient_many(model, np.concatenate(probes, axis=0))
    g_all = g_all.reshape(2 * nparams + 1, segs, nparams, nparams)
    dg_all = dg_all.reshape(2 * nparams + 1, segs, nparams, nparams, nparams)
    g, dg = g_all[0], dg_all[0]
    d2g = np.empty((segs, nparams, nparams, nparams, nparams))
    for c in range(nparams):
        d2g[:, c] = (dg_all[1 + 2 * c] - dg_all[2 + 2 * c]) / (2 * GEODESIC_FD_STEP)

    energy = float(np.einsum("kab,ka,kb->", g, delta, delta))
    gdelta = np.einsum("kab,kb->ka", g, delta)
    quad = np.einsum("kxab,ka,kb->kx", dg, delta, delta)
    grad = np.zeros_like(points)
    grad[1:] += 0.5 * quad + 2 * gdelta
    grad[:-1] += 0.5 * quad - 2 * gdelta

    w = np.einsum("kbac,kc->kab", dg, delta)      # w[a,b] = (d_b g . delta)_a
    sym = w + w.transpose(0, 2, 1)
    qq = 0.25 * np.einsum("kxyab,ka,kb->kxy", d2g, delta, delta)
    qq = 0.5 * (qq + qq.transpose(0, 2, 1))
    h_low = qq - sym + 2 * g          # d2e_k / dP_k dP_k
    h_high = qq + sym + 2 * g         # d2e_k / dP_{k+1} dP_{k+1}
    h_cross = qq + w.transpose(0, 2, 1) - w - 2 * g   # d2e_k / dP_k dP_{k+1}
    return energy, grad, (h_low, h_high, h_cross)


def _assemble_hessian(blocks, segs, nparams, damping):
    h_low, h_high, h_cross = blocks
    n = (segs - 1) * nparams
    diag_blocks = h_high[:-1] + h_low[1:]
    cross_blocks = h_cross[1:-1]
    rows, cols, vals = [], [], []
    base = np.arange(segs - 1) * nparams
    for a in range(nparams):
        for b in range(nparams):
            rows.append(base + a)
            cols.append(base + b)
            vals.append(diag_blocks[:, a, b])
    base = np.arange(segs - 2) * nparams
    for a in range(nparams):
        for b in range(nparams):
            rows.append(base + a)
            cols.append(base + nparams + b)
            vals.append(cross_blocks[:, a, b])
            rows.append(base + nparams + b)
            cols.append(base + a)
            vals.append(cross_blocks[:, a, b])
    mat = sp.csc_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
    )
    if damping > 0:
        mat = mat + damping * sp.identity(n, format="csc")
    return mat


def geodesic(
    model: HamiltonianFamily,
    start: np.ndarray,
    end: np.ndarray,
    steps: int,
    *,
    return_diagnostics: bool = False,
):
    """Minimal-length driving path between two parameter points.

    Relaxes the discrete path energy sum_k g(mid_k)[delta_k, delta_k] over the
    interior points, starting from the constant-speed straight chord, with
    damped Newton steps and a step-halving line search on the energy.  The
    energy minimizer is automatically a constant-speed discretization.
    Interior points are projected onto the model domain (e.g. chi >= 0) after
    every trial step.  Returns the (steps+1, D) points, or ``(points, diag)``
    with ``return_diagnostics``.

    Raises
    ------
    ValueError
        If ``start`` or ``end`` fails ``model.check_points``.
    GeodesicConvergenceError
        If the maximum gradient component does not drop below ``GEODESIC_GTOL``
        within ``GEODESIC_MAX_ITERATIONS``; the error carries the residual.
    """
    if steps < 2:
        raise ValueError("need at least 2 steps")
    start = model.project_point(model.check_points(start))
    end = model.project_point(model.check_points(end))
    frac = np.linspace(0.0, 1.0, steps + 1)[:, None]
    points = start + frac * (end - start)
    points = resample(points, cumulative_lengths(model, points), steps)
    points[:, :] = model.project_point(points)

    diag = GeodesicDiagnostics()
    energy, grad, blocks = _energy_grad_hess(model, points)
    diag.energy_trace.append(energy)
    if return_diagnostics:
        diag.length_trace.append(path_length(model, points))
    damping = 0.0
    # While the curve is still reshaping globally, every accepted step is
    # followed by a constant-speed resampling of the same polyline.  This keeps
    # the iterate free of parameterization slack, which is what makes the metric
    # length decrease together with the energy; once steps shrink below a small
    # fraction of a segment the resampling is switched off so its interpolation
    # error cannot limit the Newton endgame.
    resample_active = True
    segment_scale = max(float(np.linalg.norm(end - start)) / steps, 1e-300)
    for iteration in range(GEODESIC_MAX_ITERATIONS):
        interior_grad = grad[1:-1].copy()
        if model.lower_bounds is not None:
            # projected gradient: ignore components pushing against an active bound
            at_bound = points[1:-1] <= model.lower_bounds + 1e-15
            interior_grad[at_bound & (interior_grad > 0)] = 0.0
        residual = float(np.abs(interior_grad).max())
        diag.iterations = iteration
        diag.residual = residual
        if residual < GEODESIC_GTOL:
            return (points, diag) if return_diagnostics else points

        accepted = False
        trial = None
        while True:
            damping_try = damping
            for _ in range(40):
                hess = _assemble_hessian(blocks, steps, model.nparams, damping_try)
                try:
                    step = spla.spsolve(hess, -interior_grad.ravel()).reshape(steps - 1, -1)
                except Exception:
                    damping_try = max(damping_try * 10, 1e-8)
                    continue
                if np.all(np.isfinite(step)) and np.dot(step.ravel(), interior_grad.ravel()) < 0:
                    scale = 1.0
                    for _ in range(30):
                        trial = points.copy()
                        trial[1:-1] = points[1:-1] + scale * step
                        trial[:, :] = model.project_point(trial)
                        if resample_active:
                            trial = resample(trial, cumulative_lengths(model, trial), steps)
                            trial[:, :] = model.project_point(trial)
                        trial_energy = _discrete_energy(model, trial)
                        if trial_energy < energy:
                            accepted = True
                            break
                        scale *= 0.5
                if accepted:
                    break
                damping_try = max(damping_try * 10, 1e-8)
            if accepted or not resample_active:
                break
            # the resampling's interpolation error now exceeds the attainable
            # energy decrease; drop it and polish with plain Newton steps
            resample_active = False
        if not accepted:
            raise GeodesicConvergenceError(residual, iteration)
        if resample_active and float(np.abs(scale * step).max()) < 0.05 * segment_scale:
            resample_active = False
        points = trial
        energy, grad, blocks = _energy_grad_hess(model, points)
        damping = damping_try / 10 if damping_try > 1e-11 else 0.0
        diag.energy_trace.append(energy)
        if return_diagnostics:
            diag.length_trace.append(path_length(model, points))
    raise GeodesicConvergenceError(float(np.abs(grad[1:-1]).max()), GEODESIC_MAX_ITERATIONS)
