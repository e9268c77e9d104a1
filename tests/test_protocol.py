import numpy as np
import pytest

from zenodrive import geometry
from zenodrive.models import LipkinModel, TwoLevelModel
from zenodrive.protocol import (
    ProtocolResult,
    fidelity_product,
    fit_excited_return,
    infidelity_terms,
    run_stroboscopic,
    zeno_sweep,
)
from zenodrive.trajectories import build_trajectory


def two_level_path(total_angle, steps):
    return np.linspace(0.0, total_angle, steps + 1)[:, None]


def closed_form_fidelity(total_angle, steps):
    """Direct matrix powering of the 2-state chain with per-step overlap cos^2(T/2K)."""
    c = np.cos(total_angle / (2 * steps)) ** 2
    b = np.array([[c, 1 - c], [1 - c, c]])
    p = np.array([1.0, 0.0])
    for _ in range(steps):
        p = b @ p
    return p[0]


class TestRunStroboscopic:
    def test_static_path_keeps_fidelity(self, lipkin10):
        pts = np.tile(np.array([1.0, 0.4]), (11, 1))
        result = run_stroboscopic(lipkin10, pts)
        assert result.final_fidelity == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("total_angle", [np.pi / 2, np.pi])
    @pytest.mark.parametrize("steps", [1, 2, 10, 1000])
    def test_two_level_closed_form(self, two_level, total_angle, steps):
        result = run_stroboscopic(two_level, two_level_path(total_angle, steps))
        expected = 0.5 * (1 + np.cos(total_angle / steps) ** steps)
        assert result.final_fidelity == pytest.approx(expected, abs=1e-12)
        assert result.final_fidelity == pytest.approx(
            closed_form_fidelity(total_angle, steps), abs=1e-12
        )

    def test_two_level_pi_small_k_values(self, two_level):
        assert run_stroboscopic(two_level, two_level_path(np.pi, 1)).final_fidelity == pytest.approx(0.0, abs=1e-12)
        assert run_stroboscopic(two_level, two_level_path(np.pi, 2)).final_fidelity == pytest.approx(0.5, abs=1e-12)

    def test_zeno_limit_two_level(self, two_level):
        result = run_stroboscopic(two_level, two_level_path(np.pi, 1000))
        assert result.final_fidelity >= 0.9975

    def test_initial_condition_and_row_sums(self, lipkin10, trajectories10):
        path = trajectories10["geodesic"].discretize(100)
        result = run_stroboscopic(lipkin10, path)
        assert result.probabilities[0, 0] == 1.0
        assert np.abs(result.probabilities.sum(axis=1) - 1).max() <= 1e-10
        assert result.probabilities.min() >= 0
        assert result.probabilities.max() <= 1 + 1e-12

    def test_trace_shape_and_lengths(self, lipkin10, trajectories10):
        path = trajectories10["linear-v"].discretize(50)
        result = run_stroboscopic(lipkin10, path)
        assert result.probabilities.shape == (51, 11)
        assert result.step_lengths.shape == (50,)
        # a K=50 polygon undershoots the dense curve length at O(1/K^2)
        assert result.total_length == pytest.approx(
            trajectories10["linear-v"].length, rel=1e-3
        )


class TestFidelityProduct:
    def test_identity_path(self, lipkin10):
        pts = np.tile(np.array([0.5, 0.2]), (6, 1))
        assert fidelity_product(lipkin10, pts) == pytest.approx(1.0, abs=1e-14)

    def test_two_level_half_rotation_gap(self, two_level):
        # K=2: product (1 - dl^2)^2 = cos^4(pi/4) = 1/4 versus exact 1/2;
        # the difference is the excited-return contribution
        path = two_level_path(np.pi, 2)
        product = fidelity_product(two_level, path)
        exact = run_stroboscopic(two_level, path).final_fidelity
        assert product == pytest.approx(0.25, abs=1e-12)
        assert exact == pytest.approx(0.5, abs=1e-12)

    def test_lower_bound_on_exact_fidelity(self, lipkin10, trajectories10):
        for family in ("geodesic", "linear-v", "linear-u"):
            for steps in (20, 100):
                path = trajectories10[family].discretize(steps)
                product = fidelity_product(lipkin10, path)
                exact = run_stroboscopic(lipkin10, path).final_fidelity
                assert product <= exact + 1e-14

    def test_close_to_exact_at_large_steps(self, lipkin10, trajectories10):
        path = trajectories10["geodesic"].discretize(1000)
        product = fidelity_product(lipkin10, path)
        exact = run_stroboscopic(lipkin10, path).final_fidelity
        assert abs(product - exact) / exact <= 0.01


class TestInfidelityTerms:
    def test_zero_length(self):
        assert infidelity_terms(0.0, 10) == (0.0, 0.0)

    def test_stated_arithmetic(self):
        one, two = infidelity_terms(1.0, 100)
        assert one == pytest.approx(0.01)
        assert two == pytest.approx(0.00995)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            infidelity_terms(-1.0, 10)
        with pytest.raises(ValueError):
            infidelity_terms(1.0, 0)

    def test_rejects_nan_length(self):
        with pytest.raises(ValueError, match="length"):
            infidelity_terms(float("nan"), 10)


class TestFitExcitedReturn:
    def test_recovers_synthetic_coefficient(self):
        length = 1.3
        r_true = 0.7
        ks = [100, 200, 400, 800, 1600]
        data = [
            (k, length**2 / k - length**4 / (2 * k**2) - r_true / k**2) for k in ks
        ]
        assert fit_excited_return(data, length) == pytest.approx(r_true, abs=1e-6)

    def test_two_level_half_rotation_series(self, two_level):
        # exact chain: I(K) = (1 - cos^K(pi/K))/2 = (pi^2/4)/K - (pi^4/16)/K^2 + ...
        # so with l = pi/2 the residual coefficient is R = pi^4/16 - pi^4/32 = pi^4/32
        length = np.pi / 2
        ks = [1000, 2000, 4000, 8000, 16000]
        data = [
            (k, 0.5 * (1 - np.cos(np.pi / k) ** k)) for k in ks
        ]
        r_hat = fit_excited_return(data, length)
        assert r_hat == pytest.approx(np.pi**4 / 32, rel=1e-2)

    def test_lipkin_fit_positive_and_window_stable(self, lipkin10, trajectories10):
        trajectory = trajectories10["geodesic"]
        ks = sorted(set(np.geomspace(100, 2000, 10).astype(int)))
        rows = zeno_sweep(lipkin10, trajectory, ks)
        data = [(r["K"], r["I_exact"]) for r in rows]
        low = [d for d in data if 100 <= d[0] <= 1000]
        high = [d for d in data if 200 <= d[0] <= 2000]
        r_low = fit_excited_return(low, trajectory.length)
        r_high = fit_excited_return(high, trajectory.length)
        assert r_low > 0 and r_high > 0
        assert abs(r_high - r_low) / r_low <= 0.10

    def test_needs_enough_points(self):
        with pytest.raises(ValueError, match="at least 3"):
            fit_excited_return([(100, 1e-3), (200, 5e-4)], 1.0)

    @pytest.mark.parametrize("length, infid", [(np.nan, 5e-3), (np.inf, 5e-3), (1.0, np.nan)])
    def test_rejects_nonfinite_input(self, length, infid):
        data = [(100, 1e-2), (200, infid), (400, 2.5e-3)]
        with pytest.raises(ValueError, match="finite"):
            fit_excited_return(data, length)


class TestZenoSweep:
    def test_rows_and_monotone_decrease(self, lipkin10, trajectories10):
        trajectory = trajectories10["linear-v"]
        ks = [50, 100, 200, 400]
        rows = zeno_sweep(lipkin10, trajectory, ks)
        assert [r["K"] for r in rows] == ks
        infids = [r["I_exact"] for r in rows]
        assert all(a > b for a, b in zip(infids, infids[1:]))
        for r in rows:
            one, two = infidelity_terms(trajectory.length, r["K"])
            assert r["I_one_term"] == pytest.approx(one)
            assert r["I_two_term"] == pytest.approx(two)
            assert r["path_family"] == "linear-v"

    def test_rejects_descending(self, lipkin10, trajectories10):
        with pytest.raises(ValueError, match="ascending"):
            zeno_sweep(lipkin10, trajectories10["linear-v"], [100, 50])

    def test_rows_independent_of_order_of_computation(self, lipkin10, trajectories10):
        # each row only depends on its own K
        trajectory = trajectories10["linear-u"]
        full = zeno_sweep(lipkin10, trajectory, [50, 100])
        single = zeno_sweep(lipkin10, trajectory, [100])[0]
        assert full[1]["I_exact"] == single["I_exact"]


class TestEquidistantOptimality:
    def test_constant_speed_partition_minimizes_sum_of_squares(self, lipkin10, trajectories10):
        # among random perturbed partitions of the same trajectory, none has a
        # smaller sum of squared step lengths than the equidistant one
        from zenodrive.geometry import step_lengths_along, interpolate_at

        trajectory = trajectories10["geodesic"]
        steps = 100
        base = trajectory.discretize(steps)
        base_cost = float((step_lengths_along(lipkin10, base) ** 2).sum())
        rng = np.random.default_rng(2024)
        table = trajectory.metric_cumlen
        total = table[-1]
        uniform = np.linspace(0.0, total, steps + 1)
        spacing = total / steps
        for _ in range(100):
            jitter = rng.uniform(-0.45, 0.45, size=steps - 1) * spacing
            targets = uniform.copy()
            targets[1:-1] += jitter
            targets = np.sort(targets)
            pts = interpolate_at(trajectory.points, table, targets)
            pts[0] = trajectory.points[0]
            pts[-1] = trajectory.points[-1]
            cost = float((step_lengths_along(lipkin10, pts) ** 2).sum())
            assert base_cost < cost


LIPKIN4 = LipkinModel(4)
START, END = np.array([0.0, 0.0]), np.array([2.0, 0.5])
CHORD = START + np.linspace(0.0, 1.0, 201)[:, None] * (END - START)
PATH_PRODUCERS = {
    "geodesic": (lambda: geometry.geodesic(LIPKIN4, START, END, 12), 12),
    "refine": (lambda: geometry.refine(CHORD[::50], 5), 20),
    "reparameterize": (
        lambda: geometry.reparameterize(LIPKIN4, CHORD, 16, "constant-euclidean-speed"), 16
    ),
    "discretize": (
        lambda: build_trajectory(
            LIPKIN4, "linear-v", START, END, dense_steps=400
        ).discretize(30),
        30,
    ),
}


@pytest.mark.parametrize("producer", sorted(PATH_PRODUCERS))
def test_path_is_a_plain_point_array(producer):
    make, steps = PATH_PRODUCERS[producer]
    path = make()
    assert type(path) is np.ndarray
    assert path.dtype == np.float64
    assert path.shape == (steps + 1, 2)

    # any array-like of the same points gives bit-identical results
    as_lists = path.tolist()
    from_array, from_lists = run_stroboscopic(LIPKIN4, path), run_stroboscopic(LIPKIN4, as_lists)
    assert np.array_equal(from_array.probabilities, from_lists.probabilities)
    assert np.array_equal(from_array.step_lengths, from_lists.step_lengths)
    assert fidelity_product(LIPKIN4, path) == fidelity_product(LIPKIN4, as_lists)
    assert geometry.path_length(LIPKIN4, path) == geometry.path_length(LIPKIN4, as_lists)

    # a single (D,) point is a one-point path
    assert run_stroboscopic(LIPKIN4, path[0]).final_fidelity == 1.0
    assert geometry.path_length(LIPKIN4, path[0]) == 0.0
    for consumer in (run_stroboscopic, geometry.path_length):
        with pytest.raises(ValueError, match="width"):
            consumer(LIPKIN4, [1.0, 2.0, 3.0])

    wide = np.hstack([path, path[:, :1]])
    for consumer in (run_stroboscopic, fidelity_product, geometry.path_length):
        with pytest.raises(ValueError):
            consumer(LIPKIN4, wide)
