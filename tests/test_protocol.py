import tracemalloc
import warnings

import numpy as np
import pytest

from zenodrive import geometry, protocol
from zenodrive.models import HamiltonianFamily, LipkinModel, TwoLevelModel
from zenodrive.protocol import (
    ProtocolResult,
    fidelity_product,
    fit_excited_return,
    infidelity_terms,
    run_stroboscopic,
    zeno_sweep,
)
from zenodrive.spectral import (
    DEGENERACY_GAP,
    DegeneracyWarning,
    branching_along,
    eigh_many,
    ground_step_lengths,
    warn_if_degenerate,
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

    def test_rejects_path_without_points(self):
        with pytest.raises(ValueError, match="at least one point"):
            run_stroboscopic(LipkinModel(4), np.zeros((0, 2)))

    def test_trace_shape_and_lengths(self, lipkin10, trajectories10):
        path = trajectories10["linear-v"].discretize(50)
        result = run_stroboscopic(lipkin10, path)
        assert result.probabilities.shape == (51, 11)
        assert result.step_lengths.shape == (50,)
        # a K=50 polygon undershoots the dense curve length at O(1/K^2)
        assert result.step_lengths.sum() == pytest.approx(
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
        with pytest.raises(ValueError, match="length"):
            infidelity_terms(float("inf"), 10)
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


class CrossingModel(HamiltonianFamily):
    """Two levels x * diag(1, -1) that cross at x = 0."""

    dim = 2
    nparams = 1

    def hamiltonian_many(self, points):
        return self.check_points(points)[..., 0, None, None] * np.diag([1.0, -1.0])


def single_batch_chain(model, points):
    """Probability trace and step lengths from one eigendecomposition of the whole path."""
    states = eigh_many(model.hamiltonian_many(points))[1]
    probs = np.zeros((len(points), model.dim))
    probs[0, 0] = 1.0
    for k, ratio in enumerate(branching_along(states)):
        probs[k + 1] = ratio @ probs[k]
    return probs, ground_step_lengths(states)


class TestStreamedChain:
    BLOCK = 7

    @pytest.fixture
    def batch_sizes(self, monkeypatch):
        """Block size 7; records how many matrices each ``eigh_many`` call of the chain gets."""
        sizes = []

        def counting(matrices):
            sizes.append(len(matrices))
            return eigh_many(matrices)

        monkeypatch.setattr(geometry, "EIGH_BLOCK", self.BLOCK)
        monkeypatch.setattr(protocol, "eigh_many", counting)
        return sizes

    @pytest.mark.parametrize("count", [1, 2, 7, 8, 9, 15, 100])
    def test_matches_single_batch_across_block_boundaries(self, count, batch_sizes):
        points = START + np.linspace(0, 1, count)[:, None] * (END - START)
        result = run_stroboscopic(LIPKIN4, points)
        probs, lengths = single_batch_chain(LIPKIN4, points)
        assert np.array_equal(result.probabilities, probs)
        assert np.array_equal(result.step_lengths, lengths)
        # every point is diagonalized once, never more than a block at a time
        assert sum(batch_sizes) == count
        assert max(batch_sizes) <= self.BLOCK

    def test_one_warning_with_global_min_spacing(self, batch_sizes):
        model = CrossingModel()
        x = np.linspace(1.0, 2.0, 2 * self.BLOCK)
        # level spacing 2|x| below the gap in both blocks, smallest in the second
        x[3], x[self.BLOCK + 3] = 3e-13, 1e-13
        assert 2 * x[3] < DEGENERACY_GAP
        points = x[:, None]
        with warnings.catch_warnings(record=True) as expected:
            warnings.simplefilter("always")
            warn_if_degenerate(eigh_many(model.hamiltonian_many(points))[0])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = run_stroboscopic(model, points)
        assert len(batch_sizes) == 2
        assert [w.category for w in caught] == [DegeneracyWarning]
        assert str(caught[0].message) == str(expected[0].message)
        assert np.array_equal(result.probabilities, single_batch_chain(model, points)[0])

    def test_long_chain_memory_is_bounded(self):
        # 5 001 N=10 eigenbases: about 15 MB traced when the whole path is held at once
        model = LipkinModel(10)
        path = START + np.linspace(0, 1, 5001)[:, None] * (END - START)
        tracemalloc.start()
        try:
            run_stroboscopic(model, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8e6
