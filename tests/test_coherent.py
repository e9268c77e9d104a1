import tracemalloc

import numpy as np
import pytest

from zenodrive import coherent
from zenodrive.coherent import (
    IntegratorConvergenceError,
    integrate_schrodinger,
    minimal_steps,
)
from zenodrive.models import LipkinModel, TwoLevelModel
from zenodrive.protocol import run_stroboscopic
from zenodrive.spectral import eigh_many
from zenodrive.trajectories import Trajectory, build_trajectory


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
        assert result.substeps == 0
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
        # halving the CF4 step shrinks the fidelity error ~16x (measured 15.98,
        # 15.99, 15.99); the midpoint rule gives ~4x, and CF4 with its two
        # exponentials swapped is only second order
        from zenodrive.coherent import _propagate

        total_time = 6.0
        ramp = angle_ramp(np.pi)
        target = eigh_many(two_level.hamiltonian_many(np.array([np.pi])))[1][:, 0]
        exact = integrate_schrodinger(two_level, ramp, total_time, tolerance=1e-13).fidelity
        initial = coherent._ground_states(two_level, ramp, [0.0])[0]
        errs = []
        for n in (16, 32, 64, 128):
            psi = _propagate(two_level, ramp, total_time, np.arange(n + 1) / n, [n], initial)[0]
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

    def test_stops_at_rounding_floor(self, golden_chord4, monkeypatch):
        # |dF| per doubling at T = 20 falls ~16x down to 5.0e-12 at 1 024
        # steps, then wanders at 1.4e-12 - 3.5e-12 up to 32 768 steps: a
        # 1e-12 tolerance is below the rounding floor
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

        monkeypatch.setattr(coherent, "SUBSTEP_CHUNK", 16)
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
        # the checkpoints straddle chunk boundaries (8 steps per chunk here)
        assert np.diff(marks).max() > coherent.SUBSTEP_CHUNK // 2
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


def levelwise_product(unitaries):
    """Product of a stack in time order, multiplied pairwise level by level in one batch."""
    while unitaries.shape[0] > 1:
        half = unitaries.shape[0] // 2
        prod = unitaries[1 : 2 * half : 2] @ unitaries[0 : 2 * half : 2]
        if unitaries.shape[0] % 2:
            prod = np.concatenate([prod, unitaries[-1:]], axis=0)
        unitaries = prod
    return unitaries[0]


def linear_chord(fractions):
    """The default driving chord from (0, 0) to (2, 0.5) at uniform parameter speed."""
    return np.asarray(fractions, dtype=float)[..., None] * np.array([2.0, 0.5])


class TestStreamedProduct:
    @pytest.mark.parametrize("block", [2, 8, 64])
    def test_matches_levelwise_product(self, block):
        rng = np.random.default_rng(block)
        gaussian = rng.normal(size=(2, 4792, 4, 4))
        unitaries = np.linalg.qr(gaussian[0] + 1j * gaussian[1])[0]
        for count in [*range(1, 201), 1023, 1024, 1025, 4792]:
            stack = unitaries[:count]
            blocks = (stack[lo : lo + block] for lo in range(0, count, block))
            streamed = coherent._ordered_product(blocks)
            assert np.array_equal(streamed, levelwise_product(stack)), count

    def test_block_is_a_power_of_two(self):
        # the streamed product is bit-identical only for aligned power-of-two blocks
        block = coherent.EIGH_BLOCK
        assert block >= 2 and block & (block - 1) == 0

    @pytest.mark.parametrize("block", [2, 4, 64])
    def test_propagate_matches_one_block_per_chunk(self, block, monkeypatch):
        model = LipkinModel(4)
        trajectory = build_trajectory(
            model, "linear-v", np.array([0.0, 0.0]), np.array([2.0, 0.5]), dense_steps=400
        )
        steps = 4500   # crosses the chunk end at step SUBSTEP_CHUNK // 2 = 4096
        fractions = [0.10011, 0.37013, 0.5, 0.91234]   # off the block grid
        knots = np.union1d(np.arange(steps + 1) / steps, fractions)
        marks = np.append(np.searchsorted(knots, fractions), knots.size - 1)
        initial = coherent._ground_states(model, trajectory.position_at, [0.0])[0]

        def states(size):
            monkeypatch.setattr(coherent, "EIGH_BLOCK", size)
            return coherent._propagate(model, trajectory.position_at, 30.0, knots, marks, initial)

        # a block of SUBSTEP_CHUNK exponentials holds every chunk whole
        whole_chunks = states(coherent.SUBSTEP_CHUNK)
        assert np.array_equal(states(block), whole_chunks)

    def test_working_set_is_one_block(self):
        # N=10 over 4 096 steps: 81.6 MB traced when every step unitary of a
        # chunk is held at once, 2.6 MB with one block of 256 exponentials
        model = LipkinModel(10)
        steps = 4096
        knots = np.arange(steps + 1) / steps
        initial = coherent._ground_states(model, linear_chord, [0.0])[0]
        tracemalloc.start()
        try:
            coherent._propagate(model, linear_chord, 40.0, knots, [steps], initial)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
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
    for k in range(trajectory.dense_steps):
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

    @pytest.mark.parametrize("tolerance", [np.nan, -1.0])
    def test_rejects_bad_tolerance_before_propagating(
        self, two_level, two_level_trajectory, tolerance, monkeypatch
    ):
        from zenodrive.coherent import coherent_sweep

        monkeypatch.setattr(coherent, "SUBSTEP_CAP", 1024)
        propagated = counting_propagations(monkeypatch)
        with pytest.raises(ValueError, match="tolerance"):
            coherent_sweep(two_level, two_level_trajectory, [2.0, 8.0], tolerance=tolerance)
        assert not propagated


@pytest.fixture(scope="module")
def golden_chord4():
    """N=4 linear-v trajectory of the ``compare-n4-linear-v`` golden run (CLI defaults)."""
    return build_trajectory(
        LipkinModel(4), "linear-v", np.array([0.0, 0.0]), np.array([2.0, 0.5]), dense_steps=100000
    )


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

    @pytest.mark.parametrize("cap", [0, -5])
    def test_rejects_cap_below_one(self, two_level, two_level_trajectory, cap):
        with pytest.raises(ValueError, match="cap"):
            minimal_steps(
                two_level, two_level_trajectory, 50.0, cap=cap, coherent_infidelity=0.99
            )

    def test_rejects_nonpositive_time(self, two_level, two_level_trajectory):
        with pytest.raises(ValueError):
            minimal_steps(two_level, two_level_trajectory, 0.0)
        with pytest.raises(ValueError, match="total time"):
            minimal_steps(two_level, two_level_trajectory, float("nan"))

    def test_coherent_infidelity_edge_values(self, two_level, two_level_trajectory, monkeypatch):
        with pytest.raises(ValueError, match="coherent_infidelity"):
            minimal_steps(two_level, two_level_trajectory, 5.0, coherent_infidelity=float("nan"))
        probes = counting_probes(monkeypatch)
        # nothing beats a non-positive infidelity: one probe, at the cap
        for i_coh in (0.0, -1.0):
            probes.clear()
            assert minimal_steps(
                two_level, two_level_trajectory, 5.0, cap=64, coherent_infidelity=i_coh
            ) == (None, None)
            assert probes == [64]
        assert minimal_steps(
            two_level, two_level_trajectory, 5.0, coherent_infidelity=float("inf")
        ) == (1, 5.0)

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

    def test_zeno_seed_keeps_probes_few(self, golden_chord4, monkeypatch):
        probes = counting_probes(monkeypatch)
        k_min, _ = minimal_steps(LipkinModel(4), golden_chord4, 20.0)
        assert k_min == 366
        assert len(probes) <= 8, probes

    def test_upward_bracket_when_seed_loses(self, monkeypatch):
        # on linear-u the Zeno seed ceil(l^2 / I_coh) = 85 undershoots: the
        # bracket grows upward in strides 1, 2, 4, 8, then bisects down to 99
        model = LipkinModel(4)
        trajectory = build_trajectory(
            model, "linear-u", np.array([0.0, 0.0]), np.array([2.0, 0.5]), dense_steps=20000
        )
        i_coh = integrate_schrodinger(model, trajectory.position_at, 20.0).infidelity
        probes = counting_probes(monkeypatch)
        k_min, tau = minimal_steps(model, trajectory, 20.0, coherent_infidelity=i_coh)
        assert probes == [85, 86, 88, 92, 100, 96, 98, 99]
        scan = 1
        while run_stroboscopic(model, trajectory.discretize(scan)).final_infidelity >= i_coh:
            scan += 1
        assert (k_min, tau) == (scan, 20.0 / scan) == (100, 0.2)
