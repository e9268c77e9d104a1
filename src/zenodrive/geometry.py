"""Ground-state manifold geometry.

The metric tensor measures the distinguishability of neighboring ground states:
its quadratic form reproduces, to leading order in the parameter displacement,
one minus the squared ground-state overlap.  On top of it sit exact step
lengths, discretized path lengths, a geodesic solver, and the polyline
resampler behind constant-speed paths, whose targets ``Trajectory.discretize_many``
forms.  The solver relaxes the discrete path energy with modified Newton
steps, damped until the block-tridiagonal Hessian is positive definite,
coarse to fine where that pays (see ``geodesic``), and certifies each relaxed
polyline against its exact length.  Its only diagonalizations are those of
the trial mid-points: the Hessian's forward-difference probes take their
eigensystems from the mids' by first-order perturbation theory, from the
same B^c = V^dagger dH_c V and mixing matrices that the mids' metric
gradient contracts, each formed once per Newton iterate.  Every metric
kernel of one solve works in one reused ``_Workspace``, the named-buffer
type the CF4 propagator shares: at N=10 and 256 points per block, seven
stacks of (dim, dim) matrices and a mask, 1.8 MB.  With it the default
solve's traced peak is 3.3 MB, against 3.8 MB when every kernel allocated
its own temporaries, and its minor page faults 1.2k, against 29.3k.
"""
from __future__ import annotations

import contextlib
import warnings
from dataclasses import dataclass, field

import numpy as np

from .models import HamiltonianFamily, check_count
from .spectral import eigh_many, ground_step_lengths, warn_if_degenerate

GAP_FLOOR = 1e-12
METRIC_CAP = 1e12
# the geodesic relaxation stops once every interior gradient component is below this
GEODESIC_GTOL = 1e-9
# Newton iterations before the geodesic relaxation gives up
GEODESIC_MAX_ITERATIONS = 64
# a geodesic of 4x this many segments or more is relaxed first at a quarter of them
GEODESIC_COARSE_SEGMENTS = 64   # (from 32, which alias, N=10 and 12 at 128 got slower)
# Newton steps of that level; the N = 4..16 sweep took least time at 16 (of 8 to 26)
GEODESIC_COARSE_ITERATIONS = 16
# forward-difference step for the second metric derivative in the geodesic Hessian;
# the probes' eigensystems are first order in it, off by O(h^2), so the difference
# error is still O(h); it moves the relaxed points within the GEODESIC_GTOL basin
# (about 2e-10 at N=10, 256 segments), not only the convergence rate
GEODESIC_FD_STEP = 1e-7
# largest relative excess of a relaxed geodesic's vertex-chord length over the
# mid-point quadrature length it minimized; at the default end points clean
# paths read at most 5.3e-3, those hopping over the small-gap region 0.44 to 1
GEODESIC_ALIAS_GAP = 0.05
# matrices per batch in every batched kernel: the eigendecompositions of the
# length table, the quench chain and the metric, and the CF4 step unitaries
# (Taylor exponentials, which need no eigendecomposition)
EIGH_BLOCK = 256


class _Workspace:
    """Named buffers of the batched kernels, allocated once and reused block to block.

    ``take`` hands out the first ``count`` matrices of a stack of (dim, dim)
    matrices (of each of its stacks), so a short block reads no stale
    entries; a buffer is allocated at its first ``take`` and again only when
    a take needs more matrices, another stack shape or another dtype.  Every
    private kernel takes one from its caller; only the entry points make
    one: ``integrate_schrodinger`` for the CF4 exponentials of all its
    blocks and doubling passes, ``geodesic`` for the metric kernels of all
    its Newton steps and line searches, and ``metric_many`` and
    ``metric_with_gradient_many`` for their blocks.  Allocated per use
    instead, block-sized temporaries were freed and their pages handed back
    to the system, to be faulted in again by the next block: with glibc's
    allocator, a ``coherent_sweep`` over the six benchmark times on the
    20k-segment N=10 table took 22.7k minor page faults, and 0.9k with one
    workspace per call; the default N=10, 256-segment geodesic in a fresh
    interpreter took 29.3k, and 1.2k.
    """

    def __init__(self):
        self.buffers = {}

    def take(self, name, shape, dtype=float):
        """Buffer ``name`` as a view of ``shape``, ([stacks,] count, dim, dim)."""
        buffer = self.buffers.get(name)
        if (buffer is None or buffer.dtype != dtype or buffer.shape[-3] < shape[-3]
                or buffer.shape[:-3] + buffer.shape[-2:] != shape[:-3] + shape[-2:]):
            buffer = self.buffers[name] = np.empty(shape, dtype)
        return buffer[..., : shape[-3], :, :]


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
    """Work of a geodesic solve, summed over its levels."""

    iterations: int = 0
    residual: float = np.inf   # of the last level
    trials: int = 0   # line-search energy evaluations
    solves: int = 0   # Hessian solves, those finding H + damping I indefinite included
    levels: list = field(default_factory=list)   # segment counts relaxed, coarse first


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
    g, _, gap = _metric_impl(model, points, _Workspace(), with_gradient=False)
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
    return _metric_impl(model, points, _Workspace(), with_gradient=True)[:2]


def _metric_impl(model, points, workspace, *, with_gradient, eigensystem=None):
    """Metric, gradient (or None) and gap, ``EIGH_BLOCK`` flattened points at a time.

    ``eigensystem``, if given, is ``(energies, states)`` of the flattened
    points' Hamiltonians, shapes (P, dim) and (P, dim, dim), and replaces their
    diagonalization; the results are those of diagonalizing here.  Every
    block is computed in the one ``workspace``.  The metric is clipped to
    +-``METRIC_CAP``, with one warning, at the caller's caller, if any
    component exceeded it.
    """
    points = model.check_points(points)
    batch_shape, nparams = points.shape[:-1], model.nparams
    flat = points.reshape(-1, nparams)
    g = np.empty((len(flat), nparams, nparams))
    dg = np.empty((len(flat),) + (nparams,) * 3) if with_gradient else None
    gap = np.empty(len(flat))
    for lo in range(0, len(flat), EIGH_BLOCK):
        rows = slice(lo, lo + EIGH_BLOCK)
        block = flat[rows]
        block_eig = (eigh_many(model.hamiltonian_many(block)) if eigensystem is None
                     else (eigensystem[0][rows], eigensystem[1][rows]))
        products = _eigenproducts(model, block, block_eig, with_gradient, workspace)
        g[rows], block_dg, gap[rows] = _metric_block(block_eig, products, workspace)
        if with_gradient:
            dg[rows] = block_dg
    if g.size and np.abs(g).max() > METRIC_CAP:
        np.clip(g, -METRIC_CAP, METRIC_CAP, out=g)
        warnings.warn(
            f"metric component exceeds cap {METRIC_CAP:.0e}; clipping (near-degenerate gap)",
            stacklevel=3,
        )
    g = g.reshape(batch_shape + (nparams, nparams))
    if with_gradient:
        dg = dg.reshape(batch_shape + (nparams,) * 3)
    return g, dg, gap.reshape(batch_shape)


def _adjoint(matrices, workspace):
    """``np.conj(np.swapaxes(matrices, -1, -2))`` for a stack of row-major matrices,
    in that expression's memory layout (each the transpose of a row-major
    matrix), so that products with it take the same BLAS route: a view of
    real ``matrices``, of their conjugates in ``workspace`` for complex ones."""
    if np.iscomplexobj(matrices):
        conjugates = workspace.take("adjoint", matrices.shape, matrices.dtype)
        matrices = np.conjugate(matrices, out=conjugates)
    return np.swapaxes(matrices, -1, -2)


def _eigenproducts(model, points, eigensystem, with_gradient, workspace):
    """The eigenbasis products the metric kernels contract at (B, D) ``points``
    with ``eigensystem`` (energies, states): ``(amps, second, bmats, tmats)``.

    amps[..., i, c] = <E_i|dH_c|E_0> = (V^dagger dH_c v_0)_i, a
    matrix-vector product.  With ``with_gradient`` also ``second``, column 0
    of V^dagger d2H V once per unordered axis pair, the (D, B, dim, dim)
    stack ``bmats`` of B^c = V^dagger dH_c V and their ``_mixing`` matrices
    ``tmats``; else these three are None.  ``derivative_many`` is called once
    per axis.  ``bmats`` and ``tmats`` are views of ``workspace``, valid
    until its next use.
    """
    energies, states = eigensystem
    nparams = model.nparams
    vh = _adjoint(states, workspace)
    ground = states[..., :, :1]
    if with_gradient:
        shape = (nparams,) + states.shape
        bmats = workspace.take("bmats", shape, states.dtype)
        # V^dagger dH_c passes through the not yet written mixing matrices
        partial = workspace.take("tmats", shape, states.dtype)
    columns = []
    for c in range(nparams):
        dham = model.derivative_many(points, c)
        columns.append(vh @ (dham @ ground))
        if with_gradient:
            np.matmul(np.matmul(vh, dham, out=partial[c]), states, out=bmats[c])
        del dham   # freed before the next axis's is made
    amps = np.concatenate(columns, axis=-1)
    if not with_gradient:
        return amps, None, None, None
    second = {
        (lo, hi): (vh @ (model.second_derivative_many(points, lo, hi) @ ground))[..., 0]
        for lo in range(nparams)
        for hi in range(lo, nparams)
    }
    return amps, second, bmats, _mixing(energies, bmats, workspace)


def _metric_block(eigensystem, products, workspace):
    """Unclipped metric, gradient (None unless ``products`` carry it) and gap of
    one block of points, from their ``eigensystem`` and their ``products``
    (``_eigenproducts``), in ``workspace``."""
    energies, states = eigensystem
    gap = energies[..., 1] - energies[..., 0]
    min_gap = float(gap.min())
    if min_gap <= GAP_FLOOR:
        raise DegenerateGroundStateError(min_gap)
    amps, second, bmats, tmats = products
    nparams = amps.shape[-1]

    # Every contraction is a batched matmul in the eigenbasis.  The metric
    # needs only amps, formed the same way with or without the gradient so
    # both routes return the same g.  The gradient also needs the full B^c
    # for the eigenvector derivatives, and only column 0 of V^dagger d2H V.
    delta = energies - energies[..., 0:1]
    weight = np.zeros_like(delta)
    weight[..., 1:] = 1.0 / delta[..., 1:] ** 2

    amps_h = np.conj(np.swapaxes(amps, -1, -2))
    g = np.real(amps_h @ (weight[..., None] * amps))
    g = 0.5 * (g + np.swapaxes(g, -1, -2))
    if bmats is None:
        return g, None, gap

    dim = states.shape[-1]
    # damp[..., c, i, m] = d_c <E_i|dH_m|E_0>, with the eigenvector derivatives
    # of first-order perturbation theory
    damp = np.empty((len(states), nparams, dim, nparams), dtype=states.dtype)
    for c in range(nparams):
        tmat_h = _adjoint(tmats[c], workspace)
        tcol = tmats[c][..., :, :1]
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


def _mixing(energies, bmats, workspace):
    """T^c[j, i] = B^c[j, i] / (E_i - E_j) for a (D, P, dim, dim) stack of
    B^c = V^dagger dH_c V: the first-order eigenvector mixing d_c v_i =
    sum_j v_j T^c[j, i].

    The diagonal and accidental excited-level crossings (|E_i - E_j| below
    1e2 ``GAP_FLOOR``) are guarded: those pair contributions are dropped.
    The level differences and their mask are built once for all axes.  The
    result is a view of ``workspace``, valid until its next use.
    """
    denom = workspace.take("denom", bmats.shape[1:])
    np.subtract(energies[..., None, :], energies[..., :, None], out=denom)
    tmats = workspace.take("tmats", bmats.shape, np.result_type(bmats, float))
    # |E_i - E_j| in the not yet written first mixing matrix
    keep = np.greater_equal(np.abs(denom, out=tmats[0].real), 1e2 * GAP_FLOOR,
                            out=workspace.take("keep", denom.shape, bool))
    tmats.fill(0.0)
    return np.divide(bmats, denom, out=tmats, where=keep)


def _eigenbases_along(model: HamiltonianFamily, points: np.ndarray, eigh):
    """Eigenbases along a path, ``EIGH_BLOCK`` points at a time.

    This is the one check of a path: every point and the path's shape are checked
    before any is diagonalized, a single (D,) point is a one-point path, and a
    path without points raises ``ValueError``.  Each yielded
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
    points = np.atleast_2d(model.check_points(points))
    if points.ndim > 2:
        raise ValueError(f"expected a path of shape (M, {model.nparams}), got shape {points.shape}")
    if len(points) == 0:
        raise ValueError("path needs at least one point")
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
    smallest level spacing on the path.  A single (D,) point has no steps.
    """
    return np.concatenate(
        [ground_step_lengths(states) for states in _eigenbases_along(model, points, eigh_many)]
    )


def path_length(model: HamiltonianFamily, path) -> float:
    """Sum of ``step_lengths_along`` the path (0 for a one-point path); for two
    points, their ground-state distance from the full overlap, valid at any separation."""
    return float(step_lengths_along(model, path).sum())


def cumulative_lengths(model: HamiltonianFamily, points: np.ndarray) -> np.ndarray:
    """Cumulative metric length table along a polyline, shape (M+1,).

    Each block's step lengths, as ``step_lengths_along`` gives them, are
    written into the one returned array, which then holds their running sum.
    A single (D,) point gives ``[0.0]``.
    """
    table = np.zeros(len(np.atleast_2d(points)))
    done = 1
    for states in _eigenbases_along(model, points, eigh_many):
        lengths = ground_step_lengths(states)
        table[done : done + len(lengths)] = lengths
        done += len(lengths)
    return np.cumsum(table, out=table)


def cumulative_euclidean(points: np.ndarray) -> np.ndarray:
    seg = np.linalg.norm(np.diff(points, axis=0), axis=1)
    return np.concatenate([[0.0], np.cumsum(seg)])


def resample(points: np.ndarray, table: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Resample a polyline at ``targets``, ascending table values from 0 to ``table[-1]``.

    The first and last output points are the polyline's end points, copied
    rather than interpolated, so they stay exact.  ``Trajectory.discretize_many``
    forms the targets of every stroboscopic path.
    """
    out = interpolate_at(points, table, targets)
    out[0] = points[0]
    out[-1] = points[-1]
    return out


def _fraction_grid(total, count):
    """total i / count, i = 0 .. count, as p (total / q) with p / q = i / count in lowest terms:
    equal fractions of any counts have equal bits (``linspace``'s where gcd(i, count) is 2^k).
    Called by ``Trajectory.discretize_many`` for every stroboscopic path, and by ``geodesic``."""
    common = np.gcd(np.arange(count + 1), count)
    return np.arange(count + 1) // common * (total / (count // common))


def interpolate_at(points: np.ndarray, cumlen: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Positions on a polyline at given cumulative-length values, shape targets.shape + (D,).

    Each position is p_i + frac * (p_i+1 - p_i) on the segment i the target
    falls in, with frac = (target - cumlen[i]) / (cumlen[i+1] - cumlen[i])
    (divided by 1 instead on a segment of zero length).  It is interpolated
    in place into the output, one coordinate at a time, so the scratch is
    three numbers per target.
    """
    flat = np.asarray(targets, dtype=float).reshape(-1)
    idx = np.searchsorted(cumlen, flat, side="right")
    idx -= 1
    np.clip(idx, 0, len(cumlen) - 2, out=idx)
    frac = cumlen[idx]
    idx += 1
    seg = cumlen[idx]   # only the segments the targets fall in
    seg -= frac
    seg[~(seg > 0)] = 1.0
    np.subtract(flat, frac, out=frac)
    frac /= seg
    # each segment's upper end, allocated after all the scratch: gathering
    # the lower ends into fresh arrays after it raised the peak RSS of a
    # coherent sweep on the N=10 table by about 0.2 MB
    out = points[idx]
    # flat index of each lower end's coordinate, gathered into ``seg``
    idx -= 1
    idx *= points.shape[1]
    coordinates = points.reshape(-1)
    for moved in out.T:
        lower = np.take(coordinates, idx, out=seg, mode="clip")   # idx is in range
        moved -= lower
        moved *= frac
        moved += lower
        idx += 1
    return out.reshape(np.shape(targets) + points.shape[1:])


def refine(path, factor: int) -> np.ndarray:
    """Subdivide every segment of a path ``factor`` times (the curve is unchanged)."""
    points = np.atleast_2d(np.asarray(path, dtype=float))
    factor = check_count("factor", factor, 1)
    bad = np.flatnonzero(~np.all(np.isfinite(points), axis=-1))
    if bad.size:
        raise ValueError(f"path points must be finite (got NaN or infinity at rows {bad.tolist()})")
    frac = np.linspace(0.0, 1.0, factor + 1)[:-1, None]
    pieces = points[:-1, None] + frac * (points[1:] - points[:-1])[:, None]
    return np.concatenate([pieces.reshape(-1, points.shape[1]), points[-1:]], axis=0)


# ---------------------------------------------------------------------------
# geodesic relaxation
# ---------------------------------------------------------------------------

def _discrete_energy(model, points, workspace):
    """Path energy sum_k g(mid_k)[delta_k, delta_k], the mid-points' eigensystems
    and their clipped metric g, computed in ``workspace``: the one evaluation of an
    iterate, whose eigensystems and metric ``_energy_grad_hess`` and ``_alias_gap`` read."""
    mids = 0.5 * (points[:-1] + points[1:])
    delta = points[1:] - points[:-1]
    eigensystem = eigh_many(model.hamiltonian_many(mids))
    g = _metric_impl(model, mids, workspace, with_gradient=False,
                     eigensystem=eigensystem)[0]
    return float(np.einsum("kab,ka,kb->", g, delta, delta)), eigensystem, g


def _energy_grad_hess(model, points, eigensystem, g, workspace):
    """Gradient and the block-tridiagonal Hessian blocks ``_solve_hessian`` takes.

    The energy is sum_k g(mid_k)[delta_k, delta_k].  The mids' metric ``g``
    and ``eigensystem`` are those ``_discrete_energy`` returns, so the metric
    is neither formed nor clipped here.  Its first derivatives are analytic,
    at the mids from that eigensystem; the second metric derivative entering
    the Hessian is a forward difference of the analytic gradient, one probe
    mid_k + h e_c per axis, whose eigensystem ``_shifted_eigensystem`` takes
    from the mid's to first order in h, so no probe is diagonalized.  The
    probes lie above the mids and so inside the model domain.  The
    difference error does not only slow the convergence: it moves the
    relaxed points within the ``GEODESIC_GTOL`` basin.

    The mids go ``EIGH_BLOCK`` at a time through one ``workspace``.  A
    block's products (``_eigenproducts``: its B^c and mixing matrices T^c,
    each formed once) serve both its metric gradient and all its probes'
    eigensystems; then each probe's own products take their place.  The
    probes' metric is not used.
    """
    nparams = model.nparams
    mids = 0.5 * (points[:-1] + points[1:])
    delta = points[1:] - points[:-1]
    dg = np.empty((len(mids),) + (nparams,) * 3)
    d2g = np.empty((len(mids),) + (nparams,) * 4)   # d2g[k, c] = d_c dg[k]
    for lo in range(0, len(mids), EIGH_BLOCK):
        rows = slice(lo, lo + EIGH_BLOCK)
        block, block_eig = mids[rows], (eigensystem[0][rows], eigensystem[1][rows])
        products = _eigenproducts(model, block, block_eig, True, workspace)
        dg[rows] = _metric_block(block_eig, products, workspace)[1]
        probes = [_shifted_eigensystem(model, block_eig, c, GEODESIC_FD_STEP, products, workspace)
                  for c in range(nparams)]
        for c, probe in enumerate(probes):
            probe_points = block + GEODESIC_FD_STEP * np.eye(nparams)[c]
            probe_products = _eigenproducts(model, probe_points, probe, True, workspace)
            probe_dg = _metric_block(probe, probe_products, workspace)[1]
            d2g[rows, c] = (probe_dg - dg[rows]) / GEODESIC_FD_STEP

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
    return grad, (h_low, h_high, h_cross)


def _shifted_eigensystem(model, eigensystem, axis, step, products, workspace):
    """Eigensystem at points + step e_axis to first order in ``step``, from the
    points' own ``eigensystem`` (energies, states) of shapes (P, dim), (P, dim, dim)
    and their ``products`` (``_eigenproducts`` with the gradient).

    With B = V^dagger dH_axis V and its mixing matrix T: E_i + step B_ii and
    v_i + step sum_{j != i} v_j T_ji, both off by O(step^2).  The shifted
    states are the ``axis``-th (P, dim, dim) stack of one buffer of
    ``workspace``, valid until the next call for the same axis; beside them
    it holds only (P, dim) energies.
    """
    energies, states = eigensystem
    bmat, tmat = products[2][axis], products[3][axis]
    shifted_energies = energies + step * np.real(np.diagonal(bmat, axis1=-2, axis2=-1))
    shifted = workspace.take("shifted", (model.nparams,) + states.shape,
                             np.result_type(states, tmat))[axis]
    shifted_states = np.matmul(states, tmat, out=shifted)
    shifted_states *= step
    shifted_states += states
    return shifted_energies, shifted_states


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


def _alias_gap(model, points, g):
    """Relative excess of a path's vertex-chord length over its mid-point quadrature
    length with the mid-points' metric ``g`` (0 if both are 0)."""
    delta = points[1:] - points[:-1]
    quad = float(np.sqrt(np.einsum("kab,ka,kb->k", g, delta, delta)).sum())
    chords = path_length(model, points)
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
    interior points (its minimizer is a constant-speed discretization) by
    modified Newton steps: the damping rises in 10x rungs from 1e-8 until
    ``_solve_hessian`` finds H + damping I positive definite, so the step
    descends, and the step is halved until the energy falls, from twice the
    last accepted fraction of a step (at most the full step).  Trials are
    projected onto the model domain (e.g. chi >= 0), not resampled; one with
    a mid-point on a level crossing has infinite energy.  As the energy can be
    flat to rounding near the minimum, a full undamped step is also kept if it
    lowers the gradient residual.  Only the trials' mid-points are
    diagonalized: ``_energy_grad_hess`` reuses the accepted trial's
    eigensystems and metric, and builds its Hessian probes' from them.  The start is the
    straight chord, resampled once at constant speed; where ``steps // 4`` is a
    whole number >= ``GEODESIC_COARSE_SEGMENTS``, its every fourth point is
    relaxed first, until converged or ``GEODESIC_COARSE_ITERATIONS`` steps, and
    ``refine``d by 4 starts the ``steps`` level instead, unless it raised.
    Each level has the ``GEODESIC_GTOL`` stop and the aliasing certificate.
    Equal (projected) end points give the constant path at once, with no
    level.  Returns the (steps+1, D) points, or ``(points, diag)`` with ``return_diagnostics``.

    Raises
    ------
    ValueError
        If ``steps`` is not an integer >= 2, or ``start`` or ``end`` fails
        ``model.check_points``.
    GeodesicConvergenceError
        If at ``steps`` segments the largest gradient component stays above
        ``GEODESIC_GTOL`` for ``GEODESIC_MAX_ITERATIONS``, or halving a step down
        to 2^-29 of it finds no lower energy (it carries the residual); or if the
        converged path is aliased, its vertex chords longer than its mid-point
        quadrature by more than ``GEODESIC_ALIAS_GAP`` (the message names both).
    """
    steps = check_count("steps", steps, 2)
    start = model.project_point(model.check_points(start))
    end = model.project_point(model.check_points(end))
    diag = GeodesicDiagnostics()
    if np.array_equal(start, end):
        # the constant path: no relaxation, whose chords would sit at the
        # sqrt(1 - |o|^2) rounding floor against a quadrature of exactly 0
        diag.residual = 0.0
        points = np.repeat(start[None], steps + 1, axis=0)
        return (points, diag) if return_diagnostics else points
    points = start + np.linspace(0.0, 1.0, steps + 1)[:, None] * (end - start)
    table = cumulative_lengths(model, points)
    points = resample(points, table, _fraction_grid(table[-1], steps))
    points[:, :] = model.project_point(points)

    workspace = _Workspace()   # for every metric kernel of this solve
    if steps % 4 == 0 and steps // 4 >= GEODESIC_COARSE_SEGMENTS:
        with contextlib.suppress(GeodesicConvergenceError):   # else the chord starts
            points = refine(_relax(model, points[::4], diag, workspace, coarse=True), 4)
    points = _relax(model, points, diag, workspace)
    return (points, diag) if return_diagnostics else points


def _relax(model, points, diag, workspace, coarse=False):
    """One certified level of ``geodesic``; a ``coarse`` one returns when its steps run out.
    Each iterate, the start and every trial, is evaluated once, by ``_discrete_energy``,
    whose eigensystems and clipped metric ``_energy_grad_hess`` reuses for the accepted one."""
    diag.levels.append(steps := len(points) - 1)
    most = GEODESIC_COARSE_ITERATIONS if coarse else GEODESIC_MAX_ITERATIONS
    energy, eigensystem, g = _discrete_energy(model, points, workspace)
    grad, blocks = _energy_grad_hess(model, points, eigensystem, g, workspace)
    damping = 0.0
    scale = 1.0   # last accepted step fraction; the next line search starts at twice it
    for iteration in range(most + 1):
        interior_grad = _interior_gradient(model, points, grad)
        residual = diag.residual = float(np.abs(interior_grad).max())
        if residual < GEODESIC_GTOL or coarse and iteration == most:
            if (gap := _alias_gap(model, points, g)) > GEODESIC_ALIAS_GAP:
                raise GeodesicConvergenceError(residual, iteration, (
                    f"geodesic of {steps} segments is aliased: its vertex chords are {gap:.1%} "
                    f"longer than its mid-point quadrature (limit {GEODESIC_ALIAS_GAP:.0%})"))
            return points
        if iteration == most:
            raise GeodesicConvergenceError(residual, most)

        diag.solves += 1
        while (step := _solve_hessian(blocks, damping, -interior_grad)) is None:
            if not np.isfinite(damping):   # only a non-finite Hessian gets here
                raise GeodesicConvergenceError(residual, iteration, (
                    f"geodesic Hessian is not finite at iteration {iteration}: no damping "
                    f"made H + damping I positive definite"))
            diag.solves += 1
            damping = max(damping * 10, 1e-8)
        scale = min(1.0, 2.0 * scale)
        while True:
            trial = points.copy()
            trial[1:-1] = points[1:-1] + scale * step
            trial[:, :] = model.project_point(trial)
            diag.trials += 1
            try:
                evaluated = _discrete_energy(model, trial, workspace)
            except DegenerateGroundStateError:
                evaluated = (np.inf,)   # a mid-point on a level crossing
            if evaluated[0] < energy:
                trial_state = _energy_grad_hess(model, trial, *evaluated[1:], workspace)
                break
            if scale == 1.0 and damping == 0.0 and evaluated[0] < np.inf:
                # near the minimum the energy can be flat to rounding
                trial_state = _energy_grad_hess(model, trial, *evaluated[1:], workspace)
                if float(np.abs(_interior_gradient(model, trial, trial_state[0])).max()) < residual:
                    break
            scale *= 0.5
            if scale < 2.0**-29:
                raise GeodesicConvergenceError(residual, iteration, (
                    f"geodesic line search found no lower energy at iteration {iteration}: "
                    f"halving the step down to 2^-29 of it failed at max gradient {residual:.3e}"))
        diag.iterations += 1
        points, (energy, _, g) = trial, evaluated
        grad, blocks = trial_state
        damping = damping / 10 if damping > 1e-11 else 0.0
