"""Coherent-driving baseline: Schrodinger evolution along a parameter ramp.

The propagator is the fourth-order commutator-free Magnus scheme (CF4) of
Blanes & Moan, Appl. Numer. Math. 56, 1519 (2006) and Alvermann & Fehske,
J. Comput. Phys. 230, 5930 (2011): each step samples the Hamiltonian at its
two Gauss nodes and applies two exponentials to the state in time order,
so the evolution is fourth order in the step.  The exponentials are not
diagonalized: a truncated Taylor series of cos and sin with scaling and
double-angle steps (``_expm_minus_i``) builds them from matrix products, so
they are unitary to rounding, not by construction.  On N=10 linear-v at
T = 1 ... 600, max|U^dagger U - I| per exponential is 3.3e-16 - 1.1e-15
(6.0e-15 - 7.6e-15 through ``np.linalg.eigh``), and I_coh is within
1.5e-17 ... 1.9e-14 of a long-double run on the same steps (eigh:
1.6e-16 ... 3.0e-13).  The step count
doubles adaptively until the final ground-state fidelity is converged; trace
times are exact step boundaries.  Once the changes shrink at CF4's fourth
order, on a time law that resolves the grid, the last doubling is saved: the
run stops on the Richardson-corrected fidelity F_2n + (F_2n - F_n)/15, whose
error estimate is |F_2n - F_n|/15.  On top of the integrator sit the
infidelity-versus-time sweep and the search for the smallest stroboscopic
step count that beats coherent driving on the same trajectory.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import EIGH_BLOCK
from .models import HamiltonianFamily, check_count
from .protocol import excited_return, run_stroboscopic
from .spectral import eigh_many
from .trajectories import Trajectory

DEFAULT_TOLERANCE = 1e-8
DEFAULT_STEP_CAP = 10**6
SUBSTEP_CAP = 2**23
# Rounding floor: CF4 shrinks the fidelity change ~16x per step doubling.  A
# change below FLOOR_ULPS * steps * eps (rounding over n applied step
# unitaries grows about like n * eps) that shrank less than FLOOR_SHRINK x, two
# doublings in a row, is rounding rather than step error.  The size gate keeps
# the rule off the erratic early doublings of a time law with kinks.
FLOOR_SHRINK = 4.0
FLOOR_ULPS = 64
# Order-aware stop: a change that shrank at least ORDER_SHRINK x since the last
# doubling (CF4 predicts 16x, measured 12.6 - 34.6x above 3e-10 on N=10
# linear-v) is taken to be at fourth order, so F_2n - F_n is 15/16 of F_n's
# error and 15 x F_2n's: F_2n + (F_2n - F_n) / RICHARDSON is the better value.
ORDER_SHRINK = 8.0
RICHARDSON = 15.0

# CF4 Gauss nodes and weights: a step [t_a, t_b] samples H_1, H_2 at
# t_a + (t_b - t_a) * GAUSS_NODES and applies exp(-i dt (ALPHA H_1 + BETA H_2))
# first, then exp(-i dt (BETA H_1 + ALPHA H_2)).
GAUSS_NODES = np.array([0.5 - np.sqrt(3.0) / 6.0, 0.5 + np.sqrt(3.0) / 6.0])
ALPHA = (3.0 + 2.0 * np.sqrt(3.0)) / 12.0
BETA = (3.0 - 2.0 * np.sqrt(3.0)) / 12.0
# Taylor coefficients of cos y (column 0) and sin y / y (column 1) in powers
# of y^2, constant term first, through y^18 and y^19
TAYLOR = np.array(
    [[(-1) ** k / math.factorial(2 * k + odd) for odd in (0, 1)] for k in range(10)]
)


class IntegratorConvergenceError(RuntimeError):
    """Step doubling stopped, at the step cap or the rounding floor, before the fidelity settled."""

    def __init__(self, last: float, previous: float, substeps: int, *, floor: bool = False):
        reason = "; the changes stopped shrinking at the rounding floor" if floor else ""
        super().__init__(
            f"fidelity not converged at {substeps} steps: "
            f"last two values {previous:.12f}, {last:.12f}{reason}"
        )
        self.last_values = (previous, last)
        self.substeps = substeps


@dataclass
class CoherentResult:
    """Final state and ground-state fidelity of one coherent drive.

    ``substeps`` is the number of CF4 steps on the finest uniform grid run;
    trace times that fall inside a step split it in two.  ``state`` and
    ``trace_fidelity`` belong to that grid.  ``fidelity`` is that grid's
    fidelity, or its Richardson-corrected value when the order-aware stop
    ended the run (see ``integrate_schrodinger``).  ``passes`` counts the CF4
    runs (0 at T = 0) and ``error_estimate`` is the stop's estimate of the
    fidelity error: |F_2n - F_n| for the plain stop, |F_2n - F_n|/15 for the
    order-aware one, 0 at T = 0.
    """

    state: np.ndarray
    fidelity: float
    substeps: int
    passes: int
    error_estimate: float
    trace_times: np.ndarray | None = None
    trace_fidelity: np.ndarray | None = None

    @property
    def infidelity(self) -> float:
        return 1.0 - self.fidelity


def _sorted_distinct(values):
    """``np.unique`` of 1-D integers or finite floats, bit for bit, by sort and neighbour mask.

    ``np.unique`` (and so ``np.union1d``) imports ``numpy.ma`` on its first
    call: about 1.2 MB of resident memory and 10 ms per process with numpy 2.4
    on a 2-vCPU x86 host.  The integrator's knots and trace times and the
    CLI's ``log:`` and ``lin:`` integer lists go through this instead.
    """
    values = np.sort(values)
    keep = np.empty(values.size, dtype=bool)
    keep[:1] = True
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


def _resolved_steps(position_fn):
    """Step count up to which the time law of ``position_fn`` is smooth enough for Richardson.

    A bound ``Trajectory.position_at`` interpolates a polyline table whose
    kinks stop the step error from shrinking at CF4's order on finer grids:
    it resolves ``max_steps`` (``SEGMENTS_PER_STEP`` segments per step, the
    chain's own rule).  Any other callable is taken as analytic, without
    limit.
    """
    owner = getattr(position_fn, "__self__", None)
    return owner.max_steps if isinstance(owner, Trajectory) else math.inf


def _ground_states(model, position_fn, fractions):
    """Ground states at the given time fractions, shape (len(fractions), dim)."""
    points = position_fn(np.asarray(fractions, dtype=float))
    return eigh_many(model.hamiltonian_many(points))[1][..., :, 0]


class _BlockWorkspace:
    """Buffers for the CF4 exponentials of one block, allocated once and reused block to block.

    ``buffers`` stacks five (size, dim, dim) arrays of the Hamiltonians'
    dtype: the step exponents, scaled in place to y, then y^2 and three
    buffers for the Horner ping-pong and the double-angle steps.
    ``unitaries`` holds the complex results; until they are written its
    memory also holds |x|, whose row sums give the norms.  A block of
    ``count`` <= ``size`` exponentials uses the first ``count`` matrices of
    each, so a short last block reads no stale entries.  Allocated per
    block instead, about 25 such arrays were freed and their pages handed
    back to the system after every block, to be faulted in again by the
    next: with glibc's allocator, a ``coherent_sweep`` over the six benchmark
    times on the 20k-segment N=10 table took 22.7k minor page faults, and
    1.0k with one workspace per call.
    """

    def __init__(self, size, dim, dtype=float):
        self.buffers = np.empty((5, size, dim, dim), dtype=dtype)
        self.unitaries = np.empty((size, dim, dim), dtype=complex)


def _expm_minus_i(x, workspace=None):
    """exp(-ix) = cos x - i sin x for a stack ``x`` of Hermitian matrices, shape (B, n, n).

    Truncated Taylor series with scaling and double-angle steps (Higham,
    SIAM J. Matrix Anal. Appl. 26, 1179 (2005); for cos and sin together,
    Al-Mohy, Higham & Relton, SIAM J. Sci. Comput. 37, A456 (2015)).  Each
    matrix is scaled to y = x / 2**s with s = ceil(log2 ||x||_inf) (s = 0
    when ||x||_inf <= 1); cos y and sin y are summed by Horner in y^2
    through y^18 and y^19, whose first omitted terms are below 1e-17 for
    ||y|| <= 1; s double-angle steps cos 2y = (C - S)(C + S) and
    sin 2y = 2SC, with C = cos y and S = sin y, undo the scaling.  Each
    matrix takes its own s, so a result does not depend on the rest of the
    batch.  The result is unitary to rounding, not by construction: the
    defect max|U^dagger U - I| is a few eps and about doubles with each
    double-angle step.

    Every product and sum is written into ``workspace`` (a ``_BlockWorkspace``
    of at least B matrices of ``x``'s dtype, allocated here when omitted),
    and the result is a view of its ``unitaries``, valid until the workspace
    is used again.  ``x`` may be the workspace's first buffer, which is then
    scaled in place; an ``x`` outside the workspace is left as it is.
    """
    count, n = x.shape[0], x.shape[-1]
    if workspace is None:
        workspace = _BlockWorkspace(count, n, x.dtype)
    y, y2, a, b, c = workspace.buffers[:, :count]
    unitaries = workspace.unitaries[:count]
    # |x|, whose row sums give the norms, in the still unwritten memory of the result
    magnitudes = unitaries.view(float).reshape(2 * count, n, n)[:count]
    # norm = mantissa * 2**exponent with mantissa in [0.5, 1), so this is
    # ceil(log2 norm) exactly, also at powers of two
    norms = np.abs(x, out=magnitudes).sum(axis=-1).max(axis=-1, initial=0.0)
    mantissa, exponent = np.frexp(norms)
    squarings = np.maximum(exponent - (mantissa == 0.5), 0)
    np.multiply(x, (0.5**squarings)[:, None, None], out=y)
    np.matmul(y, y, out=y2)

    def horner(coefficients, poly, spare):
        """Horner in y^2 from the top coefficient down in two ping-pong buffers: (sum, free one)."""
        poly.fill(0.0)
        poly.reshape(-1, n * n)[:, :: n + 1] = coefficients[-1]
        for coefficient in coefficients[-2::-1]:
            poly, spare = np.matmul(poly, y2, out=spare), poly
            poly.reshape(-1, n * n)[:, :: n + 1] += coefficient
        return poly, spare

    # cos y, then sin y / y and sin y; the last free buffer takes the doubled cos
    cos, spare = horner(TAYLOR[:, 0], a, b)
    series, spare = horner(TAYLOR[:, 1], spare, c)
    sin = np.matmul(y, series, out=spare)
    for done in range(squarings.max(initial=0)):
        more = (squarings > done)[:, None, None]
        doubled_cos = np.matmul(
            np.subtract(cos, sin, out=y), np.add(cos, sin, out=y2), out=series
        )
        doubled_sin = np.matmul(np.multiply(2.0, sin, out=y), cos, out=y2)
        np.copyto(cos, doubled_cos, where=more)
        np.copyto(sin, doubled_sin, where=more)
    # cos - i sin, summed in place
    np.multiply(sin, -1j, out=unitaries)
    unitaries += cos
    return unitaries


def _step_unitaries(model, position_fn, total_time, knots, workspace=None):
    """CF4 exponentials of the steps between neighbouring ``knots``, two per step, in time order.

    Each is exp(-i tau (ALPHA H_1 + BETA H_2)) or its mirror, from
    ``_expm_minus_i``: matrix products only, no eigendecomposition, unitary
    to rounding.  The exponents are built in ``workspace`` (allocated here
    when omitted) and the result is a view of it, valid until its next use.
    """
    starts, widths = knots[:-1], np.diff(knots)
    nodes = starts[:, None] + widths[:, None] * GAUSS_NODES
    hams = model.hamiltonian_many(position_fn(nodes.ravel()))
    if workspace is None:
        workspace = _BlockWorkspace(len(hams), hams.shape[-1], hams.dtype)
    h1, h2 = hams[0::2], hams[1::2]
    exponents, h1_term, h2_term = workspace.buffers[:3, : len(hams)]
    h1_term, h2_term = h1_term[: len(h1)], h2_term[: len(h2)]
    # exponents in time order: the H_1-heavy one acts first in each step
    np.add(np.multiply(ALPHA, h1, out=h1_term), np.multiply(BETA, h2, out=h2_term),
           out=exponents[0::2])
    np.add(np.multiply(BETA, h1, out=h1_term), np.multiply(ALPHA, h2, out=h2_term),
           out=exponents[1::2])
    exponents *= np.repeat(widths * total_time, 2)[:, None, None]
    return _expm_minus_i(exponents, workspace)


def _propagate(model, position_fn, total_time, knots, marks, initial, workspace=None):
    """States of the CF4 chain over the step boundaries ``knots`` at the indices ``marks``.

    ``knots`` are increasing time fractions from 0 to 1; each interval
    between neighbours is one CF4 step.  The chain starts from ``initial``,
    the caller's ground state at fraction 0.  The step unitaries (Taylor
    exponentials, not eigendecompositions; see ``_step_unitaries``) are
    built ``EIGH_BLOCK`` at a time and applied to the state one by one in
    time order.  Every block is built in the same ``workspace``, a
    ``_BlockWorkspace`` of ``EIGH_BLOCK`` exponentials (allocated here when
    omitted; ``integrate_schrodinger`` passes one to all its runs), so the
    working set is one block, allocated once.  Returns the states at
    ``marks`` (indices into ``knots``), one row per entry, in the given order.
    """
    if workspace is None:
        # eigh returns the ground state in the Hamiltonians' dtype
        workspace = _BlockWorkspace(EIGH_BLOCK, initial.size, initial.dtype)
    marks = [int(mark) for mark in marks]
    wanted = set(marks)
    psi = initial.astype(complex)
    saved = {0: psi}
    block_steps = EIGH_BLOCK // 2   # two exponentials per step
    for lo in range(0, knots.size - 1, block_steps):
        block = _step_unitaries(
            model, position_fn, total_time, knots[lo : lo + block_steps + 1], workspace
        )
        for step, (first, second) in enumerate(zip(block[0::2], block[1::2]), lo + 1):
            psi = second @ (first @ psi)
            if step in wanted:
                saved[step] = psi
    return np.array([saved[mark] for mark in marks])


def integrate_schrodinger(
    model: HamiltonianFamily,
    position_fn,
    total_time: float,
    *,
    tolerance: float = DEFAULT_TOLERANCE,
    trace_times: np.ndarray | None = None,
) -> CoherentResult:
    """Evolve the instantaneous ground state along a ramp and score the target overlap.

    ``position_fn`` maps an array of time fractions in [0, 1] to parameter
    points.  The state starts in the ground state at fraction 0; the fidelity
    is the squared overlap with the ground state at fraction 1.  The
    propagator is CF4 (see the module docstring) on a uniform grid: the first
    run uses max(64, ceil(T)) steps, and the step count then doubles, never
    beyond ``SUBSTEP_CAP`` (2**23).  After each doubling from n to 2n steps,
    with c = |F_2n - F_n|:

    1. if c < ``tolerance``, the run stops with F_2n;
    2. otherwise, if the previous doubling's change was at least
       ``ORDER_SHRINK`` (8) times c, c/15 < ``tolerance`` and 2n is at most
       the step count the time law resolves, the run stops with the
       Richardson-corrected F_2n + (F_2n - F_n)/15.  The time law of a bound
       ``Trajectory.position_at`` resolves ``Trajectory.max_steps``; on a
       coarser grid the table's kinks make the shrink ratio a poor guide
       (see ``_resolved_steps``).  Any other ``position_fn`` has no limit;
    3. otherwise the run fails at the rounding floor: two doublings in a row
       whose change is below ``FLOOR_ULPS`` * steps * eps and shrank by less
       than ``FLOOR_SHRINK`` (4x, where CF4 predicts 16x).

    ``result.state``, ``substeps`` and ``trace_fidelity`` belong to the
    finest grid run; ``result.fidelity`` is the corrected value after exit 2,
    and ``result.passes`` and ``error_estimate`` say how the run stopped.
    ``trace_times`` adds the ground-state fidelity at those times, clipped to
    [0, T], sorted and deduplicated; they are exact step boundaries (the grid
    is refined with them), so ``result.trace_times`` holds the requested
    times themselves (at T = 0 every time clips to 0).

    Raises
    ------
    ValueError
        If ``total_time`` is negative, infinite or NaN, ``tolerance`` is
        negative or NaN, or ``trace_times`` holds NaN or infinity.
    IntegratorConvergenceError
        If the step cap or the rounding floor is reached first; carries the
        last two fidelities.
    """
    if not (total_time >= 0 and np.isfinite(total_time)):
        raise ValueError(f"total_time must be finite and >= 0, got {total_time!r}")
    if not tolerance >= 0:
        raise ValueError(f"tolerance must be >= 0 (inf allowed), got {tolerance!r}")
    trace = np.asarray([] if trace_times is None else trace_times, dtype=float)
    if not np.all(np.isfinite(trace)):
        raise ValueError("trace_times must be finite (got NaN or infinity)")
    trace = _sorted_distinct(np.clip(trace, 0.0, total_time))
    fractions = trace / total_time if total_time else trace
    initial, target = _ground_states(model, position_fn, [0.0, 1.0])

    def finish(substeps, states, fid, passes, estimate):
        """Result with the trace at ``fractions``; ``states`` has one row each, final last."""
        result = CoherentResult(
            state=states[-1], fidelity=fid, substeps=substeps,
            passes=passes, error_estimate=estimate,
        )
        if trace_times is not None:
            grounds = _ground_states(model, position_fn, fractions)
            result.trace_times = trace
            overlaps = np.sum(np.conj(grounds) * states[:-1], axis=-1)
            result.trace_fidelity = np.abs(overlaps) ** 2
        return result

    if total_time == 0:
        fid = float(np.abs(np.vdot(target, initial)) ** 2)
        states = np.repeat(initial[None].astype(complex), trace.size + 1, axis=0)
        return finish(0, states, fid, 0, 0.0)

    # one block workspace for every block of every run (see ``_propagate``)
    workspace = _BlockWorkspace(EIGH_BLOCK, initial.size, initial.dtype)

    def run(steps):
        """States at the trace fractions and at fraction 1 (last), and the fidelity."""
        knots = _sorted_distinct(np.concatenate([np.arange(steps + 1) / steps, fractions]))
        marks = np.append(np.searchsorted(knots, fractions), knots.size - 1)
        states = _propagate(model, position_fn, total_time, knots, marks, initial, workspace)
        return states, float(np.abs(np.vdot(target, states[-1])) ** 2)

    resolved = _resolved_steps(position_fn)
    steps = max(64, math.ceil(total_time))
    fid = previous = run(steps)[1]
    passes = 1
    last_change, stalls = math.inf, 0
    while 2 * steps <= SUBSTEP_CAP:
        steps *= 2
        states, new_fid = run(steps)
        passes += 1
        change = abs(new_fid - fid)
        if change < tolerance:
            return finish(steps, states, new_fid, passes, change)
        if (
            ORDER_SHRINK * change <= last_change < math.inf
            and change / RICHARDSON < tolerance
            and steps <= resolved
        ):
            corrected = new_fid + (new_fid - fid) / RICHARDSON
            return finish(steps, states, corrected, passes, change / RICHARDSON)
        at_floor = change < FLOOR_ULPS * steps * np.finfo(float).eps
        stalls = stalls + 1 if at_floor and FLOOR_SHRINK * change > last_change else 0
        previous, fid, last_change = fid, new_fid, change
        if stalls == 2:
            raise IntegratorConvergenceError(fid, previous, steps, floor=True)
    raise IntegratorConvergenceError(fid, previous, steps)


def coherent_sweep(model: HamiltonianFamily, trajectory: Trajectory, times) -> list[dict]:
    """Final coherent infidelity for each total driving time on one trajectory."""
    rows = []
    for total_time in times:
        result = integrate_schrodinger(model, trajectory.position_at, float(total_time))
        rows.append(
            {
                "path_family": trajectory.family,
                "T": float(total_time),
                "I_coherent": result.infidelity,
            }
        )
    return rows


def minimal_steps(
    model: HamiltonianFamily,
    trajectory: Trajectory,
    total_time: float,
    *,
    cap: int = DEFAULT_STEP_CAP,
    coherent_infidelity: float | None = None,
) -> tuple[int | None, float | None]:
    """Smallest stroboscopic step count that beats coherent driving at this time.

    A step count K wins when the exact chain infidelity I_exact(K) is below
    the coherent infidelity I_coh.  The search is seeded with the
    second-order Zeno law I_exact(K) ~ E/K - (E^2/2 + R)/K^2, where E is
    ``trajectory.energy`` (l^2 at constant metric speed) and R the
    ``excited_return`` coefficient on a ``min(32, step_cap)``-step
    discretization: it starts at the ceiling of the law's larger root K of
    E/K - (E^2/2 + R)/K^2 = I_coh, or of E / I_coh when the law has no real
    root (it never reaches I_coh, as at short times).  The seed is clamped
    to [1, step_cap] (the cap itself when I_coh <= 0), with step_cap the
    smaller of ``cap`` and the step count the trajectory table resolves.
    From the seed it grows a bracket in strides of 1, 2, 4, ... downward
    while the lower end wins, or upward while the upper end loses, and then
    bisects it.  The bisection ends on a losing K_min - 1 (or on K_min = 1),
    which certifies the answer; a seed at K_min costs two chain runs.

    Assumes I_exact(K) decreases in K near K_min; the tests check this on the
    ``compare`` golden and on criterion 7's times.  Returns ``(K_min, tau)``
    with tau = T / K_min, or ``(None, None)`` if ``step_cap`` loses.

    Raises
    ------
    ValueError
        If ``total_time`` is not positive and finite, ``cap`` is not an
        integer >= 1, ``coherent_infidelity`` is NaN, or the trajectory
        table is too coarse for a single step.
    """
    if not 0 < total_time < math.inf:
        raise ValueError(f"total time must be positive and finite, got {total_time!r}")
    cap = check_count("cap", cap, 1)
    if coherent_infidelity is None:
        coherent_infidelity = integrate_schrodinger(
            model, trajectory.position_at, total_time
        ).infidelity
    coherent_infidelity = float(coherent_infidelity)
    if math.isnan(coherent_infidelity):
        raise ValueError(f"coherent_infidelity must not be NaN, got {coherent_infidelity!r}")

    step_cap = min(cap, trajectory.max_steps)

    def beats(steps: int) -> bool:
        path = trajectory.discretize(steps)
        return run_stroboscopic(model, path).final_infidelity < coherent_infidelity

    zeno = math.inf
    if coherent_infidelity > 0 and step_cap >= 1:
        energy = trajectory.energy
        ret = excited_return(model, trajectory.discretize(min(32, step_cap)))
        zeno = energy / coherent_infidelity
        # the larger root of I K^2 - E K + (E^2/2 + R) = 0, in Python floats
        # (at I = inf and E = R = 0 the discriminant is NaN, without a warning)
        discriminant = energy**2 - 4.0 * coherent_infidelity * (energy**2 / 2.0 + ret)
        if discriminant >= 0:
            zeno = (energy + math.sqrt(discriminant)) / (2.0 * coherent_infidelity)
    seed = max(1, math.ceil(zeno) if zeno < step_cap else step_cap)
    # invariant once bracketed: hi wins, lo loses (lo = 0 stands for "no steps")
    stride = 1
    if beats(seed):
        hi = seed
        while hi - stride >= 1 and beats(hi - stride):
            hi -= stride
            stride *= 2
        lo = max(hi - stride, 0)
    else:
        lo = seed
        while True:
            if lo >= step_cap:
                return None, None
            hi = min(lo + stride, step_cap)
            if beats(hi):
                break
            lo = hi
            stride *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if beats(mid):
            hi = mid
        else:
            lo = mid
    return hi, total_time / hi
