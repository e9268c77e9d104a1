import numpy as np
import pytest

from zenodrive import coherent
from zenodrive.coherent import (
    SUBSTEP_CHUNK,
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

    def test_second_order_substep_convergence(self, two_level):
        # halving the substep shrinks the fidelity error ~4x (midpoint rule)
        from zenodrive.coherent import _propagate

        total_time = 6.0
        ramp = angle_ramp(np.pi)
        target = eigh_many(two_level.hamiltonian(np.array([np.pi])))[1][:, 0]
        exact = integrate_schrodinger(two_level, ramp, total_time, tolerance=1e-11).fidelity
        errs = []
        for n in (64, 128, 256):
            psi = _propagate(two_level, ramp, total_time, n, [n])[0]
            errs.append(abs(float(np.abs(np.vdot(target, psi)) ** 2) - exact))
        ratios = [errs[i] / errs[i + 1] for i in range(2)]
        for ratio in ratios:
            assert 2.5 <= ratio <= 6.5

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


    def test_trace_matches_sequential_product_at_interior_checkpoints(self):
        model = LipkinModel(4)
        trajectory = build_trajectory(
            model, "linear-v", np.array([0.0, 0.0]), np.array([2.0, 0.5]), dense_steps=400
        )
        total_time = 10.0
        samples = np.linspace(0.0, total_time, 13)
        result = integrate_schrodinger(
            model, trajectory.position_at, total_time, trace_times=samples
        )
        substeps = result.substeps
        assert substeps > SUBSTEP_CHUNK   # the checkpoints straddle a chunk boundary
        # reference: the same midpoint-frozen unitaries applied one substep at a time
        marks = np.round(samples / total_time * substeps).astype(int)
        hams = model.hamiltonian_many(trajectory.position_at((np.arange(substeps) + 0.5) / substeps))
        energies, vectors = np.linalg.eigh(hams)
        dt = total_time / substeps
        psi = eigh_many(model.hamiltonian(trajectory.points[0]))[1][:, 0].astype(complex)
        expected = []
        for k in range(substeps + 1):
            if k in marks:
                point = trajectory.position_at(np.array(k / substeps))
                ground = eigh_many(model.hamiltonian(point))[1][:, 0]
                expected.append(abs(np.vdot(ground, psi)) ** 2)
            if k < substeps:
                v = vectors[k]
                psi = v @ (np.exp(-1j * energies[k] * dt) * (v.conj().T @ psi))
        assert np.array_equal(result.trace_times, marks / substeps * total_time)
        assert min(expected) < 0.95   # the state leaves the instantaneous ground state
        assert np.abs(result.trace_fidelity - expected).max() <= 1e-12
        assert result.trace_fidelity[-1] == pytest.approx(result.fidelity, abs=1e-12)

    def test_rejects_negative_time(self, two_level):
        with pytest.raises(ValueError, match="total_time"):
            integrate_schrodinger(two_level, angle_ramp(np.pi), -5.0)

    def test_rejects_nan_time(self, two_level):
        with pytest.raises(ValueError, match="total_time"):
            integrate_schrodinger(two_level, angle_ramp(np.pi), float("nan"))

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
        # independent reference: the Schrodinger ODE under DOP853, integrated
        # knot to knot of the dense table so the drive is smooth on each piece
        from scipy.integrate import solve_ivp

        model = LipkinModel(4)
        trajectory = build_trajectory(
            model, "linear-v", np.array([0.0, 0.0]), np.array([2.0, 0.5]), dense_steps=50
        )
        total_time = 10.0  # crossover regime: coherent infidelity ~2e-2
        knots = total_time * trajectory.metric_cumlen / trajectory.length
        psi = eigh_many(model.hamiltonian(trajectory.points[0]))[1][:, 0].astype(complex)
        for k in range(trajectory.dense_steps):
            a, b = trajectory.points[k], trajectory.points[k + 1]
            t_a, t_b = knots[k], knots[k + 1]

            def rhs(t, y):
                return -1j * (model.hamiltonian(a + (t - t_a) / (t_b - t_a) * (b - a)) @ y)

            sol = solve_ivp(rhs, (t_a, t_b), psi, method="DOP853", rtol=1e-12, atol=1e-12)
            psi = sol.y[:, -1]
        target = eigh_many(model.hamiltonian(trajectory.points[-1]))[1][:, 0]
        reference = 1.0 - abs(np.vdot(target, psi)) ** 2
        result = integrate_schrodinger(model, trajectory.position_at, total_time)
        assert 1e-2 < reference < 5e-2
        # measured agreement ~2e-9; bound at 3x the 1e-8 doubling-stop tolerance
        assert abs(result.infidelity - reference) <= 3e-8


class TestCoherentSweep:
    def test_rows_match_direct_integration(self, two_level, two_level_trajectory):
        from zenodrive.coherent import coherent_sweep

        rows = coherent_sweep(two_level, two_level_trajectory, [2.0, 8.0])
        assert [r["T"] for r in rows] == [2.0, 8.0]
        assert rows[0]["path_family"] == "linear-v"
        direct = integrate_schrodinger(two_level, two_level_trajectory.position_at, 8.0)
        assert rows[1]["I_coherent"] == pytest.approx(direct.infidelity, abs=1e-12)
        assert rows[0]["I_coherent"] > rows[1]["I_coherent"]


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
