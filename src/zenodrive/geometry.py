"""Ground-state manifold geometry.

The metric tensor measures the distinguishability of neighboring ground states:
its quadratic form reproduces, to leading order in the parameter displacement,
one minus the squared ground-state overlap.  On top of it sit exact step
lengths, discretized path lengths, a geodesic solver, and the polyline
resampler behind constant-speed paths.  The solver relaxes the discrete path
energy with modified Newton steps, damped until the block-tridiagonal Hessian
is positive definite (its cyclic-reduction solve tells), and certifies the
relaxed polyline against its exact length.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .models import HamiltonianFamily
from .spectral import eigh_many, ground_step_lengths, warn_if_degenerate

GAP_FLOOR = 1e-12
METRIC_CAP = 1e12
# matrices per batch in every batched kernel: the eigendecompositions of the
# length table, the quench chain and the metric, and the CF4 step unitaries
# (Taylor exponentials, which need no eigendecomposition)
EIGH_BLOCK = 256
# the geodesic relaxation stops once every interior gradient component is below this
GEODESIC_GTOL = 1e-9
# Newton iterations before the geodesic relaxation gives up
GEODESIC_MAX_ITERATIONS = 200
# forward-difference step for the second metric derivative in the geodesic Hessian;
# its error moves the relaxed points within the GEODESIC_GTOL basin (about 2e-10
# at N=10, 256 segments), not only the convergence rate
GEODESIC_FD_STEP = 1e-7
# largest relative excess of a relaxed geodesic's vertex-chord length over the
# mid-point quadrature length it minimized; at the default end points clean
# paths read at most 5.3e-3, those hopping over the small-gap region 0.44 to 1
GEODESIC_ALIAS_GAP = 0.05


class DegenerateGroundStateError(RuntimeError):
    """Ground state too close to the first excited level for perturbation theory."""

    def __init__(self, gap: float):
        super().__init__(f"degenerate ground state: gap E1 - E0 = {gap:.3e}")
        self.gap = gap


class GeodesicConvergenceError(RuntimeError):
    """Relaxation stalled above the gradient tolerance, or its converged path is aliased."""

    def __init__(self, residual: float, iterations: int, message: str = ""):
        super().__init__(message or f"geodesic relaxation stalled at max gradient "
                         f"{residual:.3e} after {iterations} iterations")
        self.residual = residual
        self.iterations = iterations


@dataclass
class GeodesicDiagnostics:
    """Per-iteration record of the geodesic relaxation."""

    iterations: int = 0
    residual: float = np.inf
    energy_trace: list = field(default_factory=list)
    length_trace: list = field(default_factory=list)
    trials: int = 0   # line-search energy evaluations
    solves: int = 0   # Hessian solves, those finding H + damping I indefinite included


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


def _metric_impl(model, points, *, with_gradient, eigensystem=None):
    """Metric, gradient (or None) and gap, ``EIGH_BLOCK`` flattened points at a time.

    ``eigensystem``, if given, is ``(energies, states)`` of the flattened
    points' Hamiltonians, shapes (P, dim) and (P, dim, dim), and replaces their
    diagonalization; the results are those of diagonalizing here.
    """
    points = model.check_points(points)
    batch_shape, nparams = points.shape[:-1], model.nparams
    flat = points.reshape(-1, nparams)
    g = np.empty((len(flat), nparams, nparams))
    dg = np.empty((len(flat),) + (nparams,) * 3) if with_gradient else None
    gap = np.empty(len(flat))
    clipped = False
    for lo in range(0, len(flat), EIGH_BLOCK):
        rows = slice(lo, lo + EIGH_BLOCK)
        block_eig = None if eigensystem is None else (eigensystem[0][rows], eigensystem[1][rows])
        block_g, block_dg, gap[rows] = _metric_block(model, flat[rows], with_gradient, block_eig)
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


def _metric_block(model, points, with_gradient, eigensystem=None):
    """Unclipped metric, gradient (or None) and gap of one (B, D) block of points,
    diagonalized here unless their ``eigensystem`` is given."""
    nparams = model.nparams
    if eigensystem is None:
        eigensystem = eigh_many(model.hamiltonian_many(points))
    energies, states = eigensystem
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

    dim = states.shape[-1]
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
    Beyond the block in hand it keeps two small copies, never views that would
    pin a whole block: the previous block's last eigenbasis, and the one
    spectrum with the smallest level spacing so far, which stands in for the
    path in the warning.
    """
    points = model.check_points(points)
    closest, closest_spacing = np.zeros((0, model.dim)), np.inf
    previous = np.zeros((0, model.dim, model.dim))   # no eigenbasis before the first block
    for lo in range(0, len(points), EIGH_BLOCK):
        energies, states = eigh(model.hamiltonian_many(points[lo : lo + EIGH_BLOCK]))
        spacings = np.diff(energies, axis=-1)
        row, col = np.unravel_index(spacings.argmin(), spacings.shape)
        if spacings[row, col] < closest_spacing:
            closest, closest_spacing = energies[row : row + 1].copy(), spacings[row, col]
        yield np.concatenate([previous, states])
        previous = states[-1:].copy()
    warn_if_degenerate(closest)


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
    """Cumulative metric length table along a polyline, shape (M+1,).

    Each block's step lengths, as ``step_lengths_along`` gives them, are
    written into the one returned array, which then holds their running sum.
    """
    table = np.zeros(max(len(points), 1))
    done = 1
    for states in _eigenbases_along(model, points, eigh_many):
        lengths = ground_step_lengths(states)
        table[done : done + len(lengths)] = lengths
        done += len(lengths)
    return np.cumsum(table, out=table)


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
    """Path energy sum_k g(mid_k)[delta_k, delta_k] and the mid-points' eigensystems.

    The eigensystems let ``_energy_grad_hess`` at the same points skip
    diagonalizing the mid-points again.
    """
    mids = 0.5 * (points[:-1] + points[1:])
    delta = points[1:] - points[:-1]
    eigensystem = eigh_many(model.hamiltonian_many(mids))
    g = _metric_impl(model, mids, with_gradient=False, eigensystem=eigensystem)[0]
    return float(np.einsum("kab,ka,kb->", g, delta, delta)), eigensystem


def _energy_grad_hess(model, points, eigensystem=None):
    """Energy, gradient, and the block-tridiagonal Hessian blocks ``_solve_hessian`` takes.

    The energy is sum_k g(mid_k)[delta_k, delta_k].  Metric values and first
    derivatives are analytic, at the mids from their ``eigensystem`` as
    ``_discrete_energy`` returns it (diagonalized here if not given); the
    second metric derivative entering the Hessian is a forward difference of
    the analytic gradient, one probe mid_k + h e_c per axis, so D points per
    segment go to ``metric_with_gradient_many``.  The probes lie above the
    mids and so inside the model domain.  The difference error does not only
    slow the convergence: it moves the relaxed points within the
    ``GEODESIC_GTOL`` basin.
    """
    nparams = model.nparams
    mids = 0.5 * (points[:-1] + points[1:])
    delta = points[1:] - points[:-1]
    if eigensystem is None:
        eigensystem = eigh_many(model.hamiltonian_many(mids))
    g, dg, _ = _metric_impl(model, mids, with_gradient=True, eigensystem=eigensystem)
    probes = mids + GEODESIC_FD_STEP * np.eye(nparams)[:, None]   # probes[c] = mids + h e_c
    d2g = np.swapaxes(metric_with_gradient_many(model, probes)[1] - dg, 0, 1) / GEODESIC_FD_STEP

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


def _solve_hessian(blocks, damping, rhs):
    """Solve (H + damping I) x = rhs for the block-tridiagonal interior Hessian H,
    or ``None`` unless H + damping I is positive definite.

    H has diagonal blocks h_high[k] + h_low[k+1], h_cross[k+1] right of them
    and its transpose below; ``rhs`` and x have shape (segs - 1, D).
    """
    h_low, h_high, h_cross = blocks
    diagonal = h_high[:-1] + h_low[1:] + damping * np.eye(rhs.shape[1])
    return _cyclic_reduction(diagonal, h_cross[1:-1], rhs)


def _cyclic_reduction(diagonal, upper, rhs):
    """x with A x = rhs, A symmetric block-tridiagonal: (n, D, D) ``diagonal``
    blocks, (n - 1, D, D) ``upper`` blocks right of them, ``rhs`` (n, D); or
    ``None`` unless A is positive definite.

    Block cyclic reduction: one batched ``np.linalg.solve`` eliminates the
    even-numbered unknowns, which leaves a block-tridiagonal system in the odd
    ones, half the size; recursing solves n unknowns in log2(n) + 1 levels.
    This is a block LDL^T of the odd-even permuted A, pivoting on the even
    diagonal blocks of every level, so (Sylvester's law of inertia) A is
    positive definite exactly when each level's batched ``eigvalsh`` is > 0.
    """
    size, nparams = rhs.shape
    if size == 0:
        return rhs
    if size % 2 == 0:   # pad to an odd size with a decoupled identity block, x = 0 there
        diagonal = np.concatenate([diagonal, np.eye(nparams)[None]])
        upper = np.concatenate([upper, np.zeros((1, nparams, nparams))])
        rhs = np.concatenate([rhs, np.zeros((1, nparams))])
    if not np.all(np.linalg.eigvalsh(diagonal[::2]) > 0):
        return None
    zero = np.zeros((1, nparams, nparams))
    left = np.concatenate([zero, np.swapaxes(upper, 1, 2)])   # left[i] = A[i, i-1]
    right = np.concatenate([upper, zero])                     # right[i] = A[i, i+1]
    # D_i^-1 [A[i, i-1] | A[i, i+1] | b_i] at every even i = 2k
    solved = np.linalg.solve(
        diagonal[::2], np.concatenate([left[::2], right[::2], rhs[::2, :, None]], axis=2)
    )
    s_left, s_right, s_rhs = solved[..., :nparams], solved[..., nparams:-1], solved[..., -1:]
    # odd i = 2k + 1 sits between the even 2k and 2k + 2
    left_odd, right_odd = left[1::2], right[1::2]
    odd = _cyclic_reduction(
        diagonal[1::2] - (left_odd @ s_right[:-1] + right_odd @ s_left[1:]),
        -right_odd[:-1] @ s_right[1:-1],
        rhs[1::2] - (left_odd @ s_rhs[:-1] + right_odd @ s_rhs[1:])[..., 0],
    )
    if odd is None:
        return None
    padded = np.concatenate([np.zeros((1, nparams)), odd, np.zeros((1, nparams))])[..., None]
    x = np.empty_like(rhs)
    x[::2] = (s_rhs - (s_left @ padded[:-1] + s_right @ padded[1:]))[..., 0]
    x[1::2] = odd
    return x[:size]


def _interior_gradient(model, points, grad):
    """The gradient at the interior points, without components pushing against an active bound."""
    interior_grad = grad[1:-1].copy()
    if model.lower_bounds is not None:
        at_bound = points[1:-1] <= model.lower_bounds + 1e-15
        interior_grad[at_bound & (interior_grad > 0)] = 0.0
    return interior_grad


def _alias_gap(model, points, eigensystem):
    """Relative excess of a path's vertex-chord length over its mid-point quadrature
    length (0 if both are 0), from the mid-points' ``eigensystem`` if given."""
    delta = points[1:] - points[:-1]
    g = _metric_impl(model, 0.5 * (points[:-1] + points[1:]), with_gradient=False,
                     eigensystem=eigensystem)[0]
    quad = float(np.sqrt(np.einsum("kab,ka,kb->k", g, delta, delta)).sum())
    chords = float(step_lengths_along(model, points).sum())
    return (chords - quad) / chords if chords > 0 else 0.0


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
    interior points from the constant-speed straight chord (its minimizer is a
    constant-speed discretization) by modified Newton steps: the damping rises
    in 10x rungs from 1e-8 until ``_solve_hessian`` finds H + damping I
    positive definite, so the step descends, and the step is halved until the
    energy falls.  Trials are projected onto the model domain (e.g. chi >= 0);
    one with a mid-point on a level crossing has infinite energy.  As the
    energy can be flat to rounding near the minimum, a full undamped step
    without resampling is also kept if it lowers the gradient residual.
    Returns the (steps+1, D) points, or ``(points, diag)`` with
    ``return_diagnostics``.

    Raises
    ------
    ValueError
        If ``steps`` is not an integer >= 2, or ``start`` or ``end`` fails
        ``model.check_points``.
    GeodesicConvergenceError
        If the maximum gradient component stays above ``GEODESIC_GTOL`` for
        ``GEODESIC_MAX_ITERATIONS``, or 30 halvings without resampling find no
        lower energy (it carries the residual); or if the converged path is
        aliased, its vertex chords longer than its mid-point quadrature by more
        than ``GEODESIC_ALIAS_GAP`` (the message names the segments and gap).
    """
    if isinstance(steps, bool) or not isinstance(steps, (int, np.integer)) or steps < 2:
        raise ValueError(f"steps must be an integer >= 2, got {steps!r}")
    start = model.project_point(model.check_points(start))
    end = model.project_point(model.check_points(end))
    points = start + np.linspace(0.0, 1.0, steps + 1)[:, None] * (end - start)
    points = resample(points, cumulative_lengths(model, points), steps)
    points[:, :] = model.project_point(points)

    diag = GeodesicDiagnostics()
    eigensystem = None   # of the current mid-points, once a trial has computed it
    energy, grad, blocks = _energy_grad_hess(model, points)
    damping = 0.0
    # Trials are resampled at constant speed while the curve reshapes globally,
    # which keeps out parameterization slack, so the metric length falls with
    # the energy; once a step is below 5 % of a segment, or a resampled line
    # search fails, the resampling stops so its error cannot limit the endgame.
    resample_active = True
    segment_scale = max(float(np.linalg.norm(end - start)) / steps, 1e-300)
    for iteration in range(GEODESIC_MAX_ITERATIONS):
        diag.energy_trace.append(energy)
        if return_diagnostics:
            diag.length_trace.append(path_length(model, points))
        interior_grad = _interior_gradient(model, points, grad)
        residual = float(np.abs(interior_grad).max())
        diag.iterations, diag.residual = iteration, residual
        if residual < GEODESIC_GTOL:
            if (gap := _alias_gap(model, points, eigensystem)) > GEODESIC_ALIAS_GAP:
                raise GeodesicConvergenceError(residual, iteration, (
                    f"geodesic of {steps} segments is aliased: its vertex chords are {gap:.1%} "
                    f"longer than its mid-point quadrature (limit {GEODESIC_ALIAS_GAP:.0%})"))
            return (points, diag) if return_diagnostics else points

        diag.solves += 1
        while (step := _solve_hessian(blocks, damping, -interior_grad)) is None:
            if not np.isfinite(damping):   # only a non-finite Hessian gets here
                raise GeodesicConvergenceError(residual, iteration)
            diag.solves += 1
            damping = max(damping * 10, 1e-8)
        scale = 1.0
        while True:
            trial = points.copy()
            trial[1:-1] = points[1:-1] + scale * step
            trial[:, :] = model.project_point(trial)
            if resample_active:
                trial = resample(trial, cumulative_lengths(model, trial), steps)
                trial[:, :] = model.project_point(trial)
            diag.trials += 1
            try:
                trial_energy, trial_eigensystem = _discrete_energy(model, trial)
            except DegenerateGroundStateError:
                trial_energy = np.inf   # a mid-point on a level crossing
            if trial_energy < energy:
                trial_state = _energy_grad_hess(model, trial, trial_eigensystem)
                break
            if not resample_active and scale == 1.0 and damping == 0.0 and trial_energy < np.inf:
                # near the minimum the energy can be flat to rounding
                trial_state = _energy_grad_hess(model, trial, trial_eigensystem)
                if float(np.abs(_interior_gradient(model, trial, trial_state[1])).max()) < residual:
                    break
            scale *= 0.5
            if scale < 2.0**-29:   # 30 trials found no lower energy
                if not resample_active:
                    raise GeodesicConvergenceError(residual, iteration)
                resample_active, scale = False, 1.0
        resample_active &= float(np.abs(scale * step).max()) >= 0.05 * segment_scale
        points, eigensystem = trial, trial_eigensystem
        energy, grad, blocks = trial_state
        damping = damping / 10 if damping > 1e-11 else 0.0
    raise GeodesicConvergenceError(float(np.abs(grad[1:-1]).max()), GEODESIC_MAX_ITERATIONS)
