
import math
import warnings

import numpy as np
import pytest
from conftest import poisoned_takes, traced_peak

from zenodrive import coherent
from zenodrive.coherent import (
    IntegratorConvergenceError,
    integrate_schrodinger,
    minimal_steps,
)
from zenodrive.geometry import _Workspace
from zenodrive.models import LipkinModel, TwoLevelModel
from zenodrive.protocol import run_stroboscopic
from zenodrive.spectral import eigh_many
from zenodrive.trajectories import Trajectory, build_trajectory


def ground_states(model, position_fn, fractions):
    """Ground states at the time fractions, one row each, where the integrator starts and scores."""
    points = position_fn(np.asarray(fractions, dtype=float))
    return eigh_many(model.hamiltonian_many(points))[1][..., 0]


def angle_ramp(total_angle):
    def position(fractions):
        return np.asarray(fractions, dtype=float)[..., None] * total_angle

    return position


@pytest.fixture(scope="module")
def two_level_trajectory(two_level):
    return build_trajectory(two_level, "linear-v", np.array([0.0]), np.array([np.pi]), dense_steps=20000)


class TestIntegrator:
    def test_static_ramp_keeps_fidelity(self, lipkin10):
        def static(fractions):
            return np.broadcast_to(
                np.array([1.0, 0.4]), np.shape(fractions) + (2,)
            ).copy()

        for total_time in (0.5, 5.0):
            result = integrate_schrodinger(lipkin10, static, total_time)
            assert result.fidelity == pytest.approx(1.0, abs=1e-10)

    def test_zero_time_is_sudden_quench(self, two_level, lipkin10, trajectories10):
        result = integrate_schrodinger(two_level, angle_ramp(np.pi / 2), 0.0)
        assert result.infidelity == pytest.approx(np.sin(np.pi / 4) ** 2, abs=1e-12)
        assert (result.substeps, result.passes, result.error_estimate) == (0, 0, 0.0)
        # identical to the single-quench stroboscopic result on the same path
        trajectory = trajectories10["linear-v"]
        sudden = integrate_schrodinger(lipkin10, trajectory.position_at, 0.0)
        one_step = run_stroboscopic(
            lipkin10, np.stack([trajectory.points[0], trajectory.points[-1]])
        )
        assert abs(sudden.infidelity - one_step.final_infidelity) <= 1e-10

    def test_unit_norm_preserved(self, two_level):
        result = integrate_schrodinger(two_level, angle_ramp(np.pi), 7.0)
        assert abs(np.vdot(result.state, result.state).real - 1.0) <= 1e-10

    def test_adiabatic_limit_two_level(self, two_level):
        infids = [
            integrate_schrodinger(two_level, angle_ramp(np.pi), t).infidelity
            for t in (2.5, 10.0, 40.0)
        ]
        assert infids[-1] < 1e-2
        assert infids[0] > infids[1] > infids[2]
        # algebraic decay: roughly quadratic gain for a 4x slower drive
        assert 4 <= infids[1] / infids[2] <= 64

    def test_fourth_order_step_convergence(self, two_level):
        # private route kept: a unit test of a kernel that stays
        # halving the CF4 step shrinks the fidelity error ~16x (measured 15.98,
        # 15.99, 15.99); the midpoint rule gives ~4x, and CF4 with its two
        # exponentials swapped is only second order
        from zenodrive.coherent import _propagate

        total_time = 6.0
        ramp = angle_ramp(np.pi)
        target = eigh_many(two_level.hamiltonian_many(np.array([np.pi])))[1][:, 0]
        exact = integrate_schrodinger(two_level, ramp, total_time, tolerance=1e-13).fidelity
        initial = ground_states(two_level, ramp, [0.0])[0]
        errs = []
        for n in (16, 32, 64, 128):
            knots = np.arange(n + 1) / n
            psi = _propagate(two_level, ramp, total_time, knots, [n], initial, _Workspace())[0]
            errs.append(abs(float(np.abs(np.vdot(target, psi)) ** 2) - exact))
        ratios = [errs[i] / errs[i + 1] for i in range(3)]
        for ratio in ratios:
            assert 13 <= ratio <= 19, ratios

    def test_gauge_invariant_fidelity(self, two_level):
        # fidelity uses |<target|psi>|^2, so any eigenvector phase convention gives the same
        a = integrate_schrodinger(two_level, angle_ramp(1.3), 4.0)
        b = integrate_schrodinger(two_level, angle_ramp(1.3), 4.0)
        assert a.fidelity == b.fidelity

    def test_convergence_error_carries_last_values(self, two_level, monkeypatch):
        # two doublings from the 64-substep start reach the cap
        monkeypatch.setattr(coherent, "SUBSTEP_CAP", 256)
        with pytest.raises(IntegratorConvergenceError) as err:
            integrate_schrodinger(two_level, angle_ramp(np.pi), 5.0, tolerance=0.0)
        assert len(err.value.last_values) == 2
        assert err.value.substeps == 256
        at_128 = integrate_schrodinger(two_level, angle_ramp(np.pi), 5.0, tolerance=np.inf)
        assert at_128.substeps == 128
        assert err.value.last_values[0] == at_128.fidelity
        assert err.value.last_values[0] != err.value.last_values[1]

    @pytest.mark.parametrize("cap, total_time, first", [(100, 5.0, 64), (256, 200.0, 200)])
    def test_first_grid_above_half_the_cap_is_not_doubled(self, two_level, monkeypatch, cap,
                                                          total_time, first):
        # private route kept: a count of work that no public output reports yet
        # no doubling fits under the cap: the one run raises with its own
        # fidelity as both last values, and no grid runs past the cap
        grids = []
        propagate = coherent._propagate

        def recording(model, position_fn, total_time, knots, *args):
            grids.append(len(knots) - 1)
            return propagate(model, position_fn, total_time, knots, *args)

        monkeypatch.setattr(coherent, "SUBSTEP_CAP", cap)
        monkeypatch.setattr(coherent, "_propagate", recording)
        with pytest.raises(IntegratorConvergenceError) as err:
            integrate_schrodinger(two_level, angle_ramp(np.pi), total_time, tolerance=0.0)
        assert grids == [first] and err.value.substeps == first
        assert err.value.last_values[0] == err.value.last_values[1]

    def test_stops_at_rounding_floor(self, golden_chord4, monkeypatch):
        # |dF| per doubling at T = 20 falls ~16x down to 4.9e-12 at 1 024
        # steps, then wanders at 1.4e-12 - 2.5e-12 up to 8 192 steps, so the
        # floor rule stops the run (at 4 096 steps) before a 1e-12 tolerance
        # is met; further doublings would read 3.8e-13 and 4.8e-14
        monkeypatch.setattr(coherent, "SUBSTEP_CAP", 2**16)
        with pytest.raises(IntegratorConvergenceError, match="rounding floor") as err:
            integrate_schrodinger(
                LipkinModel(4), golden_chord4.position_at, 20.0, tolerance=1e-12
            )
        assert err.value.substeps <= 2**13
        # runs that converge still converge: near the floor, the two-level
        # tolerance=1e-13 reference of test_fourth_order_step_convergence
        # (|dF| 4.5e-12, 3.1e-13, 2.8e-14 over 512 - 2 048 steps); with a
        # kinked time law, the 50-segment table of test_matches_dop853_reference
        # (|dF| 1.2e-7, 1.5e-7, 8.5e-8 over 128 - 512 steps, converged at 2 048)

    def test_stops_at_rounding_floor_on_the_analytic_chord(self, monkeypatch):
        # no table: |dF| per doubling at T = 20 falls ~16x from 2.1e-8 at 128
        # steps to 2.0e-15 at 8 192, then grows to 9.8e-15 and 2.5e-14, far
        # below 64 * steps * eps; so tolerance=0 stops at the floor at 32 768
        # steps, while 1e-15 is met by the Richardson estimate at 8 192
        monkeypatch.setattr(coherent, "SUBSTEP_CAP", 2**16)
        with pytest.raises(IntegratorConvergenceError, match="rounding floor") as err:
            integrate_schrodinger(LipkinModel(4), linear_chord, 20.0, tolerance=0.0)
        assert err.value.substeps == 2**15
        result = integrate_schrodinger(LipkinModel(4), linear_chord, 20.0, tolerance=1e-15)
        assert result.substeps == 2**13

    def test_rounding_error_against_long_double_fold(self, golden_chord4):
        # the compare-n4-linear-v golden's T = 20 row against the same CF4
        # chain on the same knots, with 30-term Taylor exponentials and the
        # fold in np.clongdouble; measured -1.6e-15 here, +2.5e-14 with the
        # exponentials built from np.linalg.eigh
        model, total_time = LipkinModel(4), 20.0
        result = integrate_schrodinger(model, golden_chord4.position_at, total_time)
        knots = np.arange(result.substeps + 1) / result.substeps
        nodes = knots[:-1, None] + np.diff(knots)[:, None] * coherent.GAUSS_NODES
        hams = model.hamiltonian_many(golden_chord4.position_at(nodes.ravel()))
        root3 = np.sqrt(np.longdouble(3))
        weight_1, weight_2 = (3 + 2 * root3) / 12, (3 - 2 * root3) / 12
        widths = np.diff(knots.astype(np.longdouble)) * np.longdouble(total_time)
        exponents = np.empty(hams.shape, dtype=np.longdouble)
        exponents[0::2] = weight_1 * hams[0::2] + weight_2 * hams[1::2]
        exponents[1::2] = weight_2 * hams[0::2] + weight_1 * hams[1::2]
        exponents *= np.repeat(widths, 2)[:, None, None]
        # 30 terms leave under 1e-30 for these infinity-norms
        assert np.abs(exponents).sum(axis=-1).max() <= 1.0
        generators = -1j * exponents.astype(np.clongdouble)
        eye = np.eye(hams.shape[-1], dtype=np.clongdouble)
        unitaries = eye
        for order in range(29, 0, -1):
            unitaries = eye + (generators / order) @ unitaries
        initial, target = ground_states(model, golden_chord4.position_at, [0.0, 1.0])
        psi = initial.astype(np.clongdouble)
        for unitary in unitaries:
            psi = unitary @ psi
        overlap = np.sum(target * psi)
        reference = 1 - (overlap.real**2 + overlap.imag**2)
        assert 2e-3 < reference < 3e-3
        assert abs(result.infidelity - reference) <= 5e-15

    def test_zero_time_trace_rounds_to_grid_point_zero(self, two_level):
        result = integrate_schrodinger(
            two_level, angle_ramp(np.pi / 2), 0.0, trace_times=[0.0, 0.5, 3.0]
        )
        assert np.array_equal(result.trace_times, [0.0])
        assert np.abs(result.trace_fidelity - 1.0).max() <= 1e-12
        assert result.trace_fidelity.shape == (1,)

    def test_trace_sampling(self, two_level):
        result = integrate_schrodinger(
            two_level, angle_ramp(np.pi), 5.0, trace_times=np.linspace(0, 5.0, 6)
        )
        assert result.trace_times is not None
        assert result.trace_fidelity.shape == result.trace_times.shape
        assert result.trace_fidelity[0] == pytest.approx(1.0, abs=1e-12)
        assert result.trace_fidelity[-1] == pytest.approx(result.fidelity, abs=1e-9)


    def test_trace_matches_sequential_product_at_interior_checkpoints(self, monkeypatch):
        from scipy.linalg import expm

        monkeypatch.setattr(coherent, "EIGH_BLOCK", 16)
        model = LipkinModel(4)
        trajectory = build_trajectory(
            model, "linear-v", np.array([0.0, 0.0]), np.array([2.0, 0.5]), dense_steps=400
        )
        total_time = 10.0
        samples = np.linspace(0.0, total_time, 13)
        result = integrate_schrodinger(
            model, trajectory.position_at, total_time, trace_times=samples
        )
        assert np.array_equal(result.trace_times, samples)
        # reference: the CF4 step unitaries, from expm, applied one step at a
        # time over the uniform grid refined by the trace fractions
        steps = result.substeps
        knots = np.union1d(np.arange(steps + 1) / steps, samples / total_time)
        marks = np.searchsorted(knots, samples / total_time)
        # the checkpoints straddle block boundaries (8 steps per block here)
        assert np.diff(marks).max() > coherent.EIGH_BLOCK // 2
        root3 = np.sqrt(3.0)
        weight_1, weight_2 = (3 + 2 * root3) / 12, (3 - 2 * root3) / 12
        psi = eigh_many(model.hamiltonian_many(trajectory.points[0]))[1][:, 0].astype(complex)
        expected = []
        for k in range(knots.size):
            if k in marks:
                point = trajectory.position_at(np.array(knots[k]))
                ground = eigh_many(model.hamiltonian_many(point))[1][:, 0]
                expected.append(abs(np.vdot(ground, psi)) ** 2)
            if k < knots.size - 1:
                width = knots[k + 1] - knots[k]
                h_1, h_2 = model.hamiltonian_many(
                    trajectory.position_at(knots[k] + width * np.array([0.5 - root3 / 6, 0.5 + root3 / 6]))
                )
                dt = width * total_time
                psi = expm(-1j * dt * (weight_1 * h_1 + weight_2 * h_2)) @ psi
                psi = expm(-1j * dt * (weight_2 * h_1 + weight_1 * h_2)) @ psi
        assert min(expected) < 0.95   # the state leaves the instantaneous ground state
        assert np.abs(result.trace_fidelity - expected).max() <= 1e-12
        assert result.trace_fidelity[-1] == pytest.approx(result.fidelity, abs=1e-12)

    def test_rejects_negative_time(self, two_level):
        with pytest.raises(ValueError, match="total_time"):
            integrate_schrodinger(two_level, angle_ramp(np.pi), -5.0)

    def test_rejects_nan_time(self, two_level):
        with pytest.raises(ValueError, match="total_time"):
            integrate_schrodinger(two_level, angle_ramp(np.pi), float("nan"))

    @pytest.mark.parametrize("tolerance", [np.nan, -1.0])
    def test_rejects_bad_tolerance_before_propagating(self, two_level, tolerance, monkeypatch):
        # with a NaN or negative tolerance no doubling test can pass; the cap
        # keeps a missing check from running to 2**23 steps
        monkeypatch.setattr(coherent, "SUBSTEP_CAP", 1024)
        propagated = counting_propagations(monkeypatch)
        with pytest.raises(ValueError, match="tolerance"):
            integrate_schrodinger(two_level, angle_ramp(np.pi), 5.0, tolerance=tolerance)
        assert not propagated

    def test_rejects_nonfinite_trace_times_before_propagating(self, two_level):
        requested = []

        def ramp(fractions):
            requested.append(fractions)
            return angle_ramp(np.pi)(fractions)

        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="trace_times"):
                integrate_schrodinger(two_level, ramp, 5.0, trace_times=[0.0, bad])
        assert not requested

    def test_scalar_trace_time_is_one_time(self, two_level):
        scalar = integrate_schrodinger(two_level, angle_ramp(np.pi), 5.0, trace_times=2.0)
        listed = integrate_schrodinger(two_level, angle_ramp(np.pi), 5.0, trace_times=[2.0])
        assert np.array_equal(scalar.trace_times, [2.0])
        assert np.array_equal(scalar.trace_fidelity, listed.trace_fidelity)
        assert scalar.fidelity == listed.fidelity
        quench = integrate_schrodinger(two_level, angle_ramp(np.pi), 0.0, trace_times=2.0)
        assert np.array_equal(quench.trace_times, [0.0]) and quench.trace_fidelity.shape == (1,)

    @pytest.mark.parametrize("shape", [(0, 2), (2, 1), (1, 1, 1)])
    def test_rejects_multidimensional_trace_times(self, two_level, shape, monkeypatch):
        propagated = counting_propagations(monkeypatch)
        with pytest.raises(ValueError, match="trace_times"):
            integrate_schrodinger(two_level, angle_ramp(np.pi), 5.0, trace_times=np.ones(shape))
        assert not propagated

    def test_matches_dop853_reference(self):
        # crossover regime: coherent infidelity ~2e-2
        reference, result = dop853_and_cf4(10.0)
        assert 1e-2 < reference < 5e-2
        # measured agreement 1.6e-9; bound at 3x the 1e-8 doubling-stop tolerance
        assert abs(result.infidelity - reference) <= 3e-8

    def test_matches_dop853_reference_in_adiabatic_regime(self):
        # coherent infidelity ~3e-4, where CF4 stops after few steps (512)
        reference, result = dop853_and_cf4(60.0)
        assert 1e-4 < reference < 1e-3
        assert result.substeps <= 1024
        # measured agreement 1.1e-9
        assert abs(result.infidelity - reference) <= 3e-8


class TestSortedDistinct:
    """``_sorted_distinct`` stands in for ``np.unique`` and ``np.union1d`` bit for bit."""

    @staticmethod
    def bits(values):
        return values.view(np.int64)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_numpy_set_routines(self, seed):
        # private route kept: a unit test of a kernel that stays
        rng = np.random.default_rng(seed)
        steps = int(rng.integers(1, 300))
        grid = np.arange(steps + 1) / steps
        # fractions with repeats, grid points and both end points among them
        fractions = rng.uniform(0.0, 1.0, size=int(rng.integers(1, 40)))
        fractions = np.concatenate([fractions, fractions[:3], grid[:: 1 + steps // 4], [0.0, 1.0]])
        rng.shuffle(fractions)
        unique = coherent._sorted_distinct(fractions)
        assert self.bits(unique).tolist() == self.bits(np.unique(fractions)).tolist()
        knots = coherent._sorted_distinct(np.concatenate([grid, fractions]))
        assert self.bits(knots).tolist() == self.bits(np.union1d(grid, fractions)).tolist()

    def test_empty_and_single(self):
        # private route kept: a unit test of a kernel that stays
        for values in (np.zeros(0), np.array([0.25])):
            got = coherent._sorted_distinct(values)
            assert got.dtype == float
            assert self.bits(got).tolist() == self.bits(np.unique(values)).tolist()

    def test_empty_trace_request(self, two_level):
        # no trace times at all, as in coherent_sweep, and an empty list
        plain = integrate_schrodinger(two_level, angle_ramp(np.pi), 3.0)
        traced = integrate_schrodinger(two_level, angle_ramp(np.pi), 3.0, trace_times=[])
        assert plain.trace_times is None
        assert traced.trace_times.shape == traced.trace_fidelity.shape == (0,)
        assert traced.fidelity == plain.fidelity


def infinity_norms(x):
    """Infinity-norms of a stack of matrices, computed as ``_expm_minus_i`` computes them."""
    return np.abs(x).sum(axis=-1).max(axis=-1)


def squarings(x):
    """The double-angle step counts s = ceil(log2 ||x||_inf) (0 up to norm 1) the kernel takes."""
    mantissa, exponent = np.frexp(infinity_norms(x))
    return np.maximum(exponent - (mantissa == 0.5), 0)


def random_hermitian(rng, batch, dim, norm, dtype=float):
    """``batch`` random Hermitian (dim, dim) matrices, each scaled to infinity-norm ``norm``.

    The computed norm is never above ``norm``: where the scaled matrix's
    rounds above it, its factor steps down one ulp at a time.
    """
    shape = (batch, dim, dim)
    x = rng.standard_normal(shape)
    if dtype is complex:
        x = x + 1j * rng.standard_normal(shape)
    x = x + np.conj(x).swapaxes(-1, -2)
    factors = norm / infinity_norms(x)
    while np.any(over := infinity_norms(x * factors[:, None, None]) > norm):
        factors[over] = np.nextafter(factors[over], 0.0)
    return x * factors[:, None, None]


def expm_minus_i(x):
    """``_expm_minus_i`` in a fresh workspace."""
    # private route kept: a unit test of a kernel that stays
    return coherent._expm_minus_i(x, _Workspace())


def unitarity_defect(unitaries):
    """max |U^dagger U - I| over a stack of matrices."""
    eye = np.eye(unitaries.shape[-1])
    return np.abs(np.conj(unitaries).swapaxes(-1, -2) @ unitaries - eye).max()


class TestExpmMinusI:
    """The Taylor kernel behind the CF4 step unitaries, against ``scipy.linalg.expm``."""

    # infinity-norms on both sides of the no-scaling bound 1, and one that
    # needs six double-angle steps
    @pytest.mark.parametrize("norm", [0.0, 0.5, 1.0, 1.0 + 1e-9, 40.0])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_matches_expm(self, norm, dtype):
        # private route kept: a unit test of a kernel that stays
        from scipy.linalg import expm

        x = random_hermitian(np.random.default_rng(7), 16, 11, norm, dtype)
        assert np.all(infinity_norms(x) <= norm)
        if norm <= 1.0:   # no matrix takes a double-angle step
            assert np.all(squarings(x) == 0)
        got = expm_minus_i(x)
        assert got.shape == x.shape and got.dtype == complex
        expected = np.array([expm(-1j * matrix) for matrix in x])
        assert np.abs(got - expected).max() <= 1e-13
        # the defect about doubles with each double-angle step: measured
        # 1.4e-14 and 1.5e-14 at norm 40 (six steps), at most 8.9e-16 at the
        # other norms (none or one step)
        assert unitarity_defect(got) <= (4e-14 if norm > 2 else 1e-14)
        # the result lives in the workspace, and x is left as it is
        kept = x.copy()
        workspace = _Workspace()
        reused = coherent._expm_minus_i(x, workspace)
        assert np.array_equal(reused, got)
        assert np.shares_memory(reused, workspace.buffers["unitaries"])
        assert np.array_equal(x, kept)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_reuse_after_a_full_block_reads_no_stale_entries(self, dtype):
        # private route kept: a unit test of a kernel that stays
        # a workspace filled by a full block of EIGH_BLOCK exponentials, then
        # poisoned, serves a short block (other norms, three of them on the
        # double-angle path) with the bits of a fresh workspace
        rng = np.random.default_rng(8)
        workspace = _Workspace()
        coherent._expm_minus_i(random_hermitian(rng, coherent.EIGH_BLOCK, 11, 40.0, dtype),
                               workspace)
        poisoned_takes(workspace)
        short = np.concatenate(
            [random_hermitian(rng, 1, 11, norm, dtype) for norm in (0.2, 3.0, 75.0, 1.7)]
        )
        assert np.array_equal(coherent._expm_minus_i(short, workspace), expm_minus_i(short))

    def test_empty_batch(self):
        for dtype in (float, complex):
            got = expm_minus_i(np.zeros((0, 5, 5), dtype=dtype))
            assert got.shape == (0, 5, 5) and got.dtype == complex

    def test_each_matrix_independent_of_its_batch(self):
        # every matrix takes its own scaling, so a mixed batch gives the same
        # bits as each matrix alone (the CF4 block size cannot change them)
        rng = np.random.default_rng(3)
        x = np.concatenate([random_hermitian(rng, 1, 11, norm) for norm in (0.3, 1.5, 9.0, 40.0)])
        alone = np.concatenate([expm_minus_i(matrix[None]) for matrix in x])
        assert np.array_equal(expm_minus_i(x), alone)

    def test_step_unitaries_call_no_eigh(self, monkeypatch):
        # private route kept: a unit test of a kernel that stays
        def eigh(*args, **kwargs):
            raise AssertionError("np.linalg.eigh called")

        monkeypatch.setattr(np.linalg, "eigh", eigh)
        knots = np.linspace(0.0, 1.0, 41)
        unitaries = coherent._step_unitaries(LipkinModel(10), linear_chord, 60.0, knots,
                                             _Workspace())
        assert unitaries.shape == (80, 11, 11)
        assert unitarity_defect(unitaries) <= 1e-14


def long_double_expm_minus_i(matrix):
    """exp(-i matrix) in long double, and the double-angle step count s it took.

    y = matrix / 2**s with s = max(0, ceil(log2 ||matrix||_inf)); the Taylor
    series of cos y and sin y / y in powers of y^2 are summed until a term
    falls below 1e-30, then s double-angle steps undo the scaling, all in
    np.longdouble (np.clongdouble for a complex matrix).
    """
    norm = np.abs(matrix).sum(axis=-1).max()
    s = max(0, math.ceil(math.log2(norm))) if norm > 0 else 0
    wide = np.clongdouble if np.iscomplexobj(matrix) else np.longdouble
    y = matrix.astype(wide) / np.longdouble(2) ** s
    y2 = y @ y
    cos, series = np.eye(len(matrix), dtype=wide), np.eye(len(matrix), dtype=wide)
    cos_term, series_term = cos.copy(), series.copy()
    k = 0
    while max(np.abs(cos_term).max(), np.abs(series_term).max()) >= 1e-30:
        k += 1
        cos_term = -(cos_term @ y2) / ((2 * k - 1) * (2 * k))
        series_term = -(series_term @ y2) / ((2 * k) * (2 * k + 1))
        cos, series = cos + cos_term, series + series_term
    sin = y @ series
    for _ in range(s):
        cos, sin = (cos - sin) @ (cos + sin), 2 * sin @ cos
    return cos - 1j * sin, s


class TestExpmMinusIReference:
    """The Taylor kernel against a long-double series summed to convergence."""

    # s = 0 (at norm 1 too: ``random_hermitian`` never rounds above it), 1, 2 - 3 and 6
    @pytest.mark.parametrize("norm", [0.0, 0.5, 1.0, 1.0 + 1e-9, 4.0, 40.0])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_matches_long_double_series(self, norm, dtype):
        eps = np.finfo(float).eps
        # with a diagonal matrix whose spectral radius is its infinity-norm,
        # the worst case for the truncated series
        x = np.concatenate([
            random_hermitian(np.random.default_rng(7), 8, 11, norm, dtype),
            np.diag(np.linspace(-norm, norm, 11)).astype(dtype)[None],
        ])
        got = expm_minus_i(x)
        for unitary, matrix in zip(got, x):
            reference, s = long_double_expm_minus_i(matrix)
            # the rounding grows with the double-angle steps: measured at most
            # 0.35 eps at s = 0, 1.5 at s = 1, 3.0 at s = 2 - 3 and 35 at s = 6
            error = np.abs(unitary.astype(np.clongdouble) - reference).max()
            assert error <= 8 * eps * (1 + s)


def linear_chord(fractions):
    """The default driving chord from (0, 0) to (2, 0.5) at uniform parameter speed."""
    return np.asarray(fractions, dtype=float)[..., None] * np.array([2.0, 0.5])


class TestStreamedProduct:
    def test_propagate_folds_one_step_at_a_time(self):
        # private route kept: a unit test of a kernel that stays
        model = LipkinModel(4)
        steps = 300   # three blocks of EIGH_BLOCK // 2 = 128 steps
        fractions = [0.10011, 0.37013, 0.5, 0.91234]
        knots = np.union1d(np.arange(steps + 1) / steps, fractions)
        marks = np.append(np.searchsorted(knots, fractions), knots.size - 1)
        assert np.all(marks % (coherent.EIGH_BLOCK // 2))   # off the block grid
        initial = ground_states(model, linear_chord, [0.0])[0]
        # reference: each step's two exponentials applied to the state in turn
        psi = initial.astype(complex)
        expected = {0: psi}
        for k in range(knots.size - 1):
            for unitary in coherent._step_unitaries(model, linear_chord, 30.0, knots[k : k + 2],
                                                    _Workspace()):
                psi = unitary @ psi
            expected[k + 1] = psi
        got = coherent._propagate(model, linear_chord, 30.0, knots, marks, initial, _Workspace())
        assert np.array_equal(got, [expected[mark] for mark in marks])

    @pytest.mark.parametrize("block", [2, 4, 6, 64, 256])
    def test_propagate_matches_one_block_per_chunk(self, block, monkeypatch):
        # private route kept: a unit test of a kernel that stays
        model = LipkinModel(4)
        trajectory = build_trajectory(
            model, "linear-v", np.array([0.0, 0.0]), np.array([2.0, 0.5]), dense_steps=400
        )
        steps = 4500
        fractions = [0.10011, 0.37013, 0.5, 0.91234]   # off the block grid
        knots = np.union1d(np.arange(steps + 1) / steps, fractions)
        marks = np.append(np.searchsorted(knots, fractions), knots.size - 1)
        initial = ground_states(model, trajectory.position_at, [0.0])[0]

        def states(size, workspace):
            monkeypatch.setattr(coherent, "EIGH_BLOCK", size)
            return coherent._propagate(
                model, trajectory.position_at, 30.0, knots, marks, initial, workspace
            )

        # one block holds every exponential of the run
        one_block = states(2 * knots.size, _Workspace())
        assert np.array_equal(states(block, _Workspace()), one_block)
        # one workspace serves every block of two runs in a row; the 4 503
        # steps end in a partial block at sizes 4, 64 and 256
        workspace = _Workspace()
        for _ in range(2):
            assert np.array_equal(states(block, workspace), one_block)

    def test_reuse_after_a_full_block_reads_no_stale_entries(self):
        # private route kept: a unit test of a kernel that stays
        # a workspace filled by a full block, then poisoned, serves a run of
        # one short block with the bits of a fresh workspace
        model = LipkinModel(10)
        knots = np.arange(21) / 20   # 40 exponentials
        initial = ground_states(model, linear_chord, [0.0])[0]
        workspace = _Workspace()
        coherent._propagate(model, linear_chord, 30.0, np.arange(201) / 200, [200], initial,
                            workspace)
        poisoned_takes(workspace)
        got = coherent._propagate(model, linear_chord, 30.0, knots, [10, 20], initial, workspace)
        fresh = coherent._propagate(model, linear_chord, 30.0, knots, [10, 20], initial,
                                    _Workspace())
        assert np.array_equal(got, fresh)

    def test_one_workspace_per_integrate_call(self, monkeypatch):
        # private route kept: a count of work that no public output reports yet
        # one workspace serves every block of every pass, and its two buffers
        # are allocated once each, for a whole block, though the first pass
        # (65 steps) takes only 130 exponentials
        made, allocated = [], []

        class Counted(_Workspace):
            def __init__(self):
                made.append(self)
                super().__init__()

            def take(self, name, shape, dtype=float):
                before = self.buffers.get(name)
                view = super().take(name, shape, dtype)
                buffer = self.buffers[name]
                if buffer is not before:
                    allocated.append((name, buffer.shape, buffer.dtype))
                return view

        monkeypatch.setattr(coherent, "_Workspace", Counted)
        result = integrate_schrodinger(LipkinModel(4), linear_chord, 30.0, trace_times=[3.0, 15.0])
        assert result.passes >= 3
        block = (coherent.EIGH_BLOCK, 5, 5)
        assert len(made) == 1
        assert allocated == [("stacks", (5,) + block, float), ("unitaries", block, complex)]

    def test_working_set_is_one_block(self):
        # private route kept: a unit test of a kernel that stays
        # N=10 over 4 096 steps: 81.6 MB traced when all 8 192 step unitaries
        # are built at once, 2.20 MB with one reused workspace of 256
        # exponentials (2.38 MB with fresh arrays for every block)
        model = LipkinModel(10)
        steps = 4096
        knots = np.arange(steps + 1) / steps
        initial = ground_states(model, linear_chord, [0.0])[0]
        peak = traced_peak(lambda: coherent._propagate(
            model, linear_chord, 40.0, knots, [steps], initial, _Workspace()))
        assert peak <= 16e6


def dop853_and_cf4(total_time):
    """Final infidelity of an N=4 linear-v drive under DOP853, and the CF4 result.

    The independent reference integrates the Schrodinger ODE under DOP853
    knot to knot of a 50-segment table, so the drive is smooth on each piece.
    """
    from scipy.integrate import solve_ivp

    model = LipkinModel(4)
    trajectory = build_trajectory(
        model, "linear-v", np.array([0.0, 0.0]), np.array([2.0, 0.5]), dense_steps=50
    )
    knots = total_time * trajectory.metric_cumlen / trajectory.length
    psi = eigh_many(model.hamiltonian_many(trajectory.points[0]))[1][:, 0].astype(complex)
    for k in range(len(trajectory.points) - 1):
        a, b = trajectory.points[k], trajectory.points[k + 1]
        t_a, t_b = knots[k], knots[k + 1]

        def rhs(t, y):
            return -1j * (model.hamiltonian_many(a + (t - t_a) / (t_b - t_a) * (b - a)) @ y)

        sol = solve_ivp(rhs, (t_a, t_b), psi, method="DOP853", rtol=1e-12, atol=1e-12)
        psi = sol.y[:, -1]
    target = eigh_many(model.hamiltonian_many(trajectory.points[-1]))[1][:, 0]
    reference = 1.0 - abs(np.vdot(target, psi)) ** 2
    return reference, integrate_schrodinger(model, trajectory.position_at, total_time)


def counting_propagations(monkeypatch):
    """Calls to ``coherent._propagate`` made from here on."""
    # private route kept: a count of work that no public output reports yet
    calls = []
    propagate = coherent._propagate

    def counting(*args):
        calls.append(args)
        return propagate(*args)

    monkeypatch.setattr(coherent, "_propagate", counting)
    return calls


class TestCoherentSweep:
    def test_rows_match_direct_integration(self, two_level, two_level_trajectory):
        from zenodrive.coherent import coherent_sweep

        rows = coherent_sweep(two_level, two_level_trajectory, [2.0, 8.0])
        assert [r["T"] for r in rows] == [2.0, 8.0]
        assert rows[0]["path_family"] == "linear-v"
        direct = integrate_schrodinger(two_level, two_level_trajectory.position_at, 8.0)
        assert rows[1]["I_coherent"] == pytest.approx(direct.infidelity, abs=1e-12)
        assert rows[0]["I_coherent"] > rows[1]["I_coherent"]


def plain_rule(monkeypatch, *args, **kwargs):
    """``integrate_schrodinger`` with the order-aware stop switched off."""
    with monkeypatch.context() as patch:
        patch.setattr(coherent, "ORDER_SHRINK", np.inf)
        return integrate_schrodinger(*args, **kwargs)


def cf4_steps(calls):
    """CF4 steps over all passes recorded by ``counting_propagations``."""
    return sum(args[3].size - 1 for args in calls)


@pytest.fixture(scope="module")
def sweep_chord10():
    """N=10 linear-v trajectory of the ``coherent-sweep`` benchmark.

    Its 20 000-segment table resolves 2 000 steps.
    """
    return build_trajectory(LipkinModel(10), "linear-v", *N4_ENDS, dense_steps=20000)


def dop853_two_level(total_time, total_angle):
    """Final infidelity of the two-level ramp ``angle_ramp(total_angle)`` under DOP853."""
    from scipy.integrate import solve_ivp

    model, ramp = TwoLevelModel(), angle_ramp(total_angle)
    initial, target = ground_states(model, ramp, [0.0, 1.0])

    def rhs(t, y):
        return -1j * (model.hamiltonian_many(ramp(t / total_time)) @ y)

    sol = solve_ivp(
        rhs, (0.0, total_time), initial.astype(complex), method="DOP853", rtol=1e-13, atol=1e-13
    )
    return 1.0 - abs(np.vdot(target, sol.y[:, -1])) ** 2


class TestOrderAwareStop:
    def test_saves_the_last_doubling_on_the_sweep_trajectory(self, sweep_chord10, monkeypatch):
        # |dF| 2.4e-7 -> 1.5e-8 over 256 -> 512 steps, 16.3x: 512 steps stop
        # on the corrected value instead of running 1 024
        model = LipkinModel(10)
        result = integrate_schrodinger(model, sweep_chord10.position_at, 60.0)
        assert (result.substeps, result.passes) == (512, 4)
        plain = plain_rule(monkeypatch, model, sweep_chord10.position_at, 60.0)
        assert (plain.substeps, plain.passes) == (1024, 5)
        assert result.error_estimate < coherent.DEFAULT_TOLERANCE <= 15 * result.error_estimate
        assert plain.error_estimate < coherent.DEFAULT_TOLERANCE
        # the state belongs to the 512-step grid; only the fidelity is corrected
        _, target = ground_states(model, sweep_chord10.position_at, [0.0, 1.0])
        fine = abs(np.vdot(target, result.state)) ** 2
        assert abs(result.fidelity - fine) == pytest.approx(result.error_estimate, rel=1e-6)
        # measured 3.2e-11 from the tolerance=1e-10 run (the uncorrected
        # 512-step value is 9.7e-10 off)
        tight = integrate_schrodinger(
            model, sweep_chord10.position_at, 60.0, tolerance=1e-10
        )
        assert abs(result.infidelity - tight.infidelity) <= 1e-9

    def test_fires_on_an_analytic_ramp(self, two_level, monkeypatch):
        # no table, no resolution limit: the pi ramp at T = 60 stops at 256
        # steps (plain rule: 512), measured 2.9e-11 from DOP853, where the
        # uncorrected 256-step value is 5.5e-9 off
        ramp = angle_ramp(np.pi)
        result = integrate_schrodinger(two_level, ramp, 60.0)
        plain = plain_rule(monkeypatch, two_level, ramp, 60.0)
        assert (result.substeps, plain.substeps) == (256, 512)
        reference = dop853_two_level(60.0, np.pi)
        assert abs(result.infidelity - reference) <= coherent.DEFAULT_TOLERANCE

    def test_coarse_table_keeps_the_plain_rule(self, monkeypatch):
        # a 200-segment table resolves 20 steps, below any CF4 grid: the
        # ratio test alone would stop at 256 steps with an error of 1.7e-8
        # (the plain rule: 2 048 steps, 7.8e-10)
        model = LipkinModel(4)
        trajectory = build_trajectory(model, "linear-v", *N4_ENDS, dense_steps=200)
        result = integrate_schrodinger(model, trajectory.position_at, 60.0)
        plain = plain_rule(monkeypatch, model, trajectory.position_at, 60.0)
        assert result.substeps == plain.substeps == 2048
        assert result.fidelity == plain.fidelity
        assert np.array_equal(result.state, plain.state)
        assert (result.passes, result.error_estimate) == (plain.passes, plain.error_estimate)
        # the same time law behind a plain callable, which has no resolution limit
        unguarded = integrate_schrodinger(model, lambda f: trajectory.position_at(f), 60.0)
        assert unguarded.substeps == 256

    def test_never_worse_than_tolerance_or_the_plain_rule(self, monkeypatch):
        # N=4 ladder; only the 20k table resolves a CF4 grid, where the stop
        # moves T = 60 and 100 one doubling earlier with 3.8x smaller errors
        model = LipkinModel(4)
        moved = 0
        for dense_steps in (200, 1000, 20000):
            trajectory = build_trajectory(model, "linear-v", *N4_ENDS, dense_steps=dense_steps)
            for total_time in (40.0, 60.0, 100.0, 200.0):
                result = integrate_schrodinger(model, trajectory.position_at, total_time)
                plain = plain_rule(monkeypatch, model, trajectory.position_at, total_time)
                if result.fidelity == plain.fidelity:
                    continue
                moved += 1
                assert dense_steps == 20000
                assert result.substeps == plain.substeps // 2
                reference = plain_rule(
                    monkeypatch, model, trajectory.position_at, total_time, tolerance=1e-11
                ).fidelity
                error, plain_error = (abs(r.fidelity - reference) for r in (result, plain))
                assert error <= max(coherent.DEFAULT_TOLERANCE, plain_error)
        assert moved == 2


class TestWorkBudget:
    """CF4 steps summed over all passes: a count that no host speed moves."""

    def test_sweep_trajectory_saves_the_1024_step_pass(self, sweep_chord10, monkeypatch):
        # 64 + 128 + 256 + 512; the plain rule adds the 1 024-step pass (1 984)
        calls = counting_propagations(monkeypatch)
        integrate_schrodinger(LipkinModel(10), sweep_chord10.position_at, 60.0)
        assert cf4_steps(calls) == 960

    def test_coarse_table_keeps_the_plain_count(self, monkeypatch):
        # 64 + 128 + ... + 2 048, as with the plain rule
        model = LipkinModel(4)
        trajectory = build_trajectory(model, "linear-v", *N4_ENDS, dense_steps=200)
        calls = counting_propagations(monkeypatch)
        integrate_schrodinger(model, trajectory.position_at, 60.0)
        assert cf4_steps(calls) == 4032


N4_ENDS = (np.array([0.0, 0.0]), np.array([2.0, 0.5]))


@pytest.fixture(scope="module")
def golden_chord4():
    """N=4 linear-v trajectory of the ``compare-n4-linear-v`` golden run (CLI defaults)."""
    return build_trajectory(LipkinModel(4), "linear-v", *N4_ENDS, dense_steps=100000)


def counting_probes(monkeypatch):
    """Step counts of the chain runs that ``minimal_steps`` makes from here on."""
    probes = []

    def counting(model, path):
        probes.append(len(path) - 1)
        return run_stroboscopic(model, path)

    monkeypatch.setattr(coherent, "run_stroboscopic", counting)
    return probes


class TestMinimalSteps:
    def test_two_level_consistent_with_closed_form(self, two_level, two_level_trajectory):
        total_time = 6.0
        coh = integrate_schrodinger(
            two_level, two_level_trajectory.position_at, total_time
        ).infidelity

        def chain_infidelity(steps):
            return 0.5 * (1 - np.cos(np.pi / steps) ** steps)

        expected = 1
        while chain_infidelity(expected) >= coh:
            expected += 1
        k_min, tau = minimal_steps(two_level, two_level_trajectory, total_time)
        assert k_min == expected
        assert tau == pytest.approx(total_time / expected)

    def test_short_path_single_quench(self, two_level):
        trajectory = build_trajectory(
            two_level, "linear-v", np.array([0.0]), np.array([1e-3]), dense_steps=200
        )
        # limiting case: as soon as the single-quench overlap loss undercuts the
        # coherent infidelity, one step suffices
        single = run_stroboscopic(two_level, trajectory.discretize(1)).final_infidelity
        k_min, tau = minimal_steps(
            two_level, trajectory, 0.05, coherent_infidelity=2 * single
        )
        assert k_min == 1
        assert tau == pytest.approx(0.05)
        # against the true coherent baseline the tie is only approached: the
        # short coherent drive edges out the sudden quench by O(T^2)
        k_min_real, _ = minimal_steps(two_level, trajectory, 0.05)
        assert k_min_real <= 2

    def test_not_found_under_cap(self, two_level, two_level_trajectory):
        # huge driving time: coherent driving is essentially perfect
        k_min, tau = minimal_steps(
            two_level, two_level_trajectory, 1.0, cap=4, coherent_infidelity=1e-12
        )
        assert k_min is None and tau is None

    # and no non-integer cap: 2.5 used to raise a TypeError, and True ran with a cap of 1
    @pytest.mark.parametrize("cap", [0, -5, 2.5, True])
    def test_rejects_cap_below_one(self, two_level, two_level_trajectory, cap):
        with pytest.raises(ValueError, match="cap must be >= 1 and an integer"):
            minimal_steps(
                two_level, two_level_trajectory, 50.0, cap=cap, coherent_infidelity=0.99
            )

    def test_rejects_nonpositive_time(self, two_level, two_level_trajectory):
        with pytest.raises(ValueError):
            minimal_steps(two_level, two_level_trajectory, 0.0)
        with pytest.raises(ValueError, match="total time"):
            minimal_steps(two_level, two_level_trajectory, float("nan"))
        # nor an infinite one: given the coherent infidelity, it returned (23, inf)
        with pytest.raises(ValueError, match="total time"):
            minimal_steps(two_level, two_level_trajectory, np.inf, coherent_infidelity=0.1)

    def test_coherent_infidelity_edge_values(self, two_level, two_level_trajectory, monkeypatch):
        with pytest.raises(ValueError, match="coherent_infidelity"):
            minimal_steps(two_level, two_level_trajectory, 5.0, coherent_infidelity=float("nan"))
        probes = counting_probes(monkeypatch)
        # nothing beats a non-positive infidelity, as the chain's excited sum is
        # never negative: no chain run at all (one at the cap before)
        for i_coh in (0.0, -1.0):
            probes.clear()
            assert minimal_steps(
                two_level, two_level_trajectory, 5.0, cap=64, coherent_infidelity=i_coh
            ) == (None, None)
            assert probes == []
        assert minimal_steps(
            two_level, two_level_trajectory, 5.0, coherent_infidelity=float("inf")
        ) == (1, 5.0)

    def test_fidelity_rounded_above_one_reads_zero_infidelity(self):
        # N = 4 on the constant path at (1, 0.5), T = 5: F = 1 + 2.4e-14
        model = LipkinModel(4)
        point = np.array([1.0, 0.5])
        trajectory = build_trajectory(model, "geodesic", point, point, dense_steps=1000)
        result = integrate_schrodinger(model, trajectory.position_at, 5.0)
        assert result.fidelity > 1.0
        assert result.infidelity == 0.0
        assert coherent.CoherentResult(None, 0.75, 64, 2, 0.0).infidelity == 0.25

    @pytest.mark.parametrize("total_time", [1.0, 5.0, 20.0])
    def test_matches_linear_scan_on_golden_trajectory(self, golden_chord4, total_time):
        model = LipkinModel(4)
        i_coh = integrate_schrodinger(model, golden_chord4.position_at, total_time).infidelity
        exact = [np.inf]  # exact[K] = I_exact(K); no steps never win
        while exact[-1] >= i_coh:
            path = golden_chord4.discretize(len(exact))
            exact.append(run_stroboscopic(model, path).final_infidelity)
        k_scan = len(exact) - 1
        k_min, tau = minimal_steps(model, golden_chord4, total_time, coherent_infidelity=i_coh)
        assert k_min == k_scan
        assert tau == total_time / k_scan
        # the search assumes I_exact(K) decreases near K_min
        tail = exact[max(1, int(0.9 * k_scan)) : k_scan + 1]
        assert np.all(np.diff(tail) < 0), tail

    @pytest.mark.parametrize(
        "family, total_time, probes_made",
        [
            ("linear-v", 20.0, [366, 365]),
            ("linear-v", 50.0, [1540, 1539]),
            ("geodesic", 20.0, [1005, 1004]),
            ("linear-u", 20.0, [100, 99]),
        ],
        ids=["linear-v-T20", "linear-v-T50", "geodesic-T20", "linear-u-T20"],
    )
    def test_second_order_seed_lands_on_k_min(
        self, golden_chord4, family, total_time, probes_made, monkeypatch
    ):
        # the seed is K_min itself: one winning run and the losing K_min - 1
        # that certifies it.  On linear-u, E = 1.19 l^2 and a seed from l^2 gave 85
        model = LipkinModel(4)
        trajectory = golden_chord4
        if family == "geodesic":
            trajectory = build_trajectory(model, "geodesic", *N4_ENDS, geodesic_steps=48)
        elif family == "linear-u":
            trajectory = build_trajectory(model, "linear-u", *N4_ENDS, dense_steps=20000)
        i_coh = integrate_schrodinger(model, trajectory.position_at, total_time).infidelity
        probes = counting_probes(monkeypatch)
        k_min, tau = minimal_steps(model, trajectory, total_time, coherent_infidelity=i_coh)
        assert probes == probes_made
        assert (k_min, tau) == (probes_made[0], total_time / probes_made[0])

    def test_zeno_seed_keeps_probes_few(self, golden_chord4, monkeypatch):
        probes = counting_probes(monkeypatch)
        k_min, _ = minimal_steps(LipkinModel(4), golden_chord4, 20.0)
        assert k_min == 366
        assert len(probes) == 2, probes

    @staticmethod
    def scanned_k_min(model, trajectory, i_coh):
        scan = 1
        while run_stroboscopic(model, trajectory.discretize(scan)).final_infidelity >= i_coh:
            scan += 1
        return scan

    def test_upward_bracket_when_seed_loses(self, lipkin10, trajectories10, monkeypatch):
        # found by a scan of I_coh on N=10 linear-u: near the top of the law
        # E/K - (E^2/2 + R)/K^2 its root 7 falls short of K_min = 9, so the
        # bracket grows upward in strides 1, 2 and then bisects down to 9
        trajectory = trajectories10["linear-u"]
        probes = counting_probes(monkeypatch)
        k_min, _ = minimal_steps(lipkin10, trajectory, 1.0, coherent_infidelity=0.31)
        assert probes == [7, 8, 10, 9]
        assert k_min == self.scanned_k_min(lipkin10, trajectory, 0.31) == 9

    def test_downward_stride_when_seed_overshoots(self, lipkin10, trajectories10, monkeypatch):
        # above the law's maximum it has no root and the seed is ceil(E / I_coh)
        # = 8: the bracket grows downward in strides 1, 2, 4 to a losing 1,
        # then bisects up to K_min = 5
        trajectory = trajectories10["linear-u"]
        probes = counting_probes(monkeypatch)
        k_min, _ = minimal_steps(lipkin10, trajectory, 1.0, coherent_infidelity=0.5)
        assert probes == [8, 7, 5, 1, 3, 4]
        assert k_min == self.scanned_k_min(lipkin10, trajectory, 0.5) == 5

    def test_too_coarse_table_raises(self):
        # a 5-segment table resolves no step, so the first probe is refused
        # before any excited-return walk
        model = LipkinModel(4)
        trajectory = build_trajectory(model, "linear-v", *N4_ENDS, dense_steps=5)
        with pytest.raises(ValueError, match="trajectory table too coarse"):
            minimal_steps(model, trajectory, 5.0, coherent_infidelity=0.1)

    @pytest.mark.parametrize("family", ["linear-v", "linear-u"])
    def test_zero_length_trajectory_takes_one_step(self, family):
        model = LipkinModel(4)
        point = np.array([1.0, 0.2])
        trajectory = build_trajectory(model, family, point, point, dense_steps=200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            energy = trajectory.energy
            assert minimal_steps(model, trajectory, 3.0, coherent_infidelity=1e-3) == (1, 3.0)
        # the law length is 0 on linear-u; linear-v's law is the metric table,
        # whose 200 rounding-level steps sum to about 1e-5, so E = W^2 ~ 1e-10
        assert energy == 0.0 or (family == "linear-v" and 0.0 < energy < 1e-9)
