import warnings
from fractions import Fraction

import numpy as np
import pytest
from conftest import traced_peak

from zenodrive import geometry, protocol, trajectories
from zenodrive.cli import CONFIG_SPEC, load_config
from zenodrive.geometry import cumulative_lengths, path_length, step_lengths_along
from zenodrive.models import HamiltonianFamily, LipkinModel, TwoLevelModel
from zenodrive.protocol import (
    ProtocolResult,
    excited_return,
    fidelity_product,
    infidelity_terms,
    run_stroboscopic,
    zeno_sweep,
)
from zenodrive.spectral import (
    DEGENERACY_GAP,
    DegeneracyWarning,
    branching_along,
    eigh_many,
    warn_if_degenerate,
)
from zenodrive.trajectories import Trajectory, build_trajectory

LIPKIN4 = LipkinModel(4)
START, END = np.array([0.0, 0.0]), np.array([2.0, 0.5])


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

    def test_infidelity_against_long_double_chain(self):
        # the same chain folded in np.longdouble on the same float64
        # branching matrices; at N=4, K = 8 000 the excited sum is measured
        # -1.8e-14 off and 1 - p_0 2.6e-9 off (relative)
        steps = 8000
        path = START + np.linspace(0.0, 1.0, steps + 1)[:, None] * (END - START)
        result = run_stroboscopic(LIPKIN4, path)
        probs = np.zeros(LIPKIN4.dim, dtype=np.longdouble)
        probs[0] = 1
        for ratio in branching_along(eigh_many(LIPKIN4.hamiltonian_many(path))[1]):
            probs = ratio.astype(np.longdouble) @ probs
        reference = float(probs[1:].sum())
        assert 1e-4 < reference < 2e-4
        assert abs(result.final_infidelity - reference) <= 1e-12 * reference
        # rounding drift of the row sums, measured 3.4e-13
        drift = np.abs(result.probabilities.sum(axis=1) - 1).max()
        assert drift <= steps * 1e-15

    def test_trace_shape_and_lengths(self, lipkin10, trajectories10):
        path = trajectories10["linear-v"].discretize(50)
        result = run_stroboscopic(lipkin10, path)
        assert result.probabilities.shape == (51, 11)
        lengths = step_lengths_along(lipkin10, path)
        assert lengths.shape == (50,)
        # a K=50 polygon undershoots the dense curve length at O(1/K^2)
        assert lengths.sum() == pytest.approx(
            trajectories10["linear-v"].length, rel=1e-3
        )


@pytest.mark.parametrize("consumer", [run_stroboscopic, fidelity_product, excited_return,
                                      path_length])
def test_rejects_a_path_of_more_than_two_dimensions(consumer):
    # it failed in the degeneracy bookkeeping of the eigen-walk, with "too
    # many values to unpack (expected 2)"
    with pytest.raises(ValueError, match=r"path of shape \(M, 2\), got shape \(2, 2, 2\)"):
        consumer(LIPKIN4, np.zeros((2, 2, 2)))


@pytest.mark.parametrize("consumer", [cumulative_lengths, step_lengths_along, path_length,
                                      excited_return, fidelity_product])
def test_rejects_a_path_without_points(consumer):
    # the one path check rejects it, as ``run_stroboscopic`` did alone: the
    # others returned a table [0.], no steps, a length of 0, R = 0 and F = 1
    with pytest.raises(ValueError, match="path needs at least one point"):
        consumer(LIPKIN4, np.zeros((0, 2)))


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
        # 2.5 returned (0.4, 0.32), the terms of no step count
        for steps in (2.5, True):
            with pytest.raises(ValueError, match="steps must be >= 1 and an integer"):
                infidelity_terms(1.0, steps)

    def test_rejects_nan_length(self):
        with pytest.raises(ValueError, match="length"):
            infidelity_terms(float("nan"), 10)


@pytest.fixture(scope="module")
def lipkin4_chord():
    """N=4 ``linear-v`` trajectory from START to END, resolving K up to 4000."""
    return LIPKIN4, build_trajectory(LIPKIN4, "linear-v", START, END, dense_steps=40000)


def midpoint_excited_return(model, path):
    """R = 1/2 sum_n G_n^2 from the per-level metric split at the segment mid-points.

    G_n = K sum_k |<n|dH.delta_k|0>|^2 / (E_n - E_0)^2, an independent quadrature
    of int_0^1 |<n|d_s 0>|^2 ds that never forms a branching ratio.
    """
    steps = len(path) - 1
    mids, deltas = 0.5 * (path[1:] + path[:-1]), np.diff(path, axis=0)
    energies, states = np.linalg.eigh(model.hamiltonian_many(mids))
    dh = sum(
        model.derivative_many(mids, c) * deltas[:, c, None, None] for c in range(model.nparams)
    )
    amps = np.einsum("kin,kij,kj->kn", np.conj(states), dh, states[:, :, 0])
    spacings = energies[:, 1:] - energies[:, :1]
    split = steps * np.sum(np.abs(amps[:, 1:]) ** 2 / spacings**2, axis=0)
    return 0.5 * np.sum(split**2)


class TestExcitedReturn:
    @pytest.mark.parametrize("steps", [8, 64, 1000])
    def test_two_level_half_rotation(self, two_level, steps):
        # every quench moves sin^2(pi/2K) between the two levels, so G_1 = K^2 sin^2(pi/2K)
        # and R = K^4 sin^4(pi/2K)/2, which tends to pi^4/32
        expected = 0.5 * steps**4 * np.sin(np.pi / (2 * steps)) ** 4
        assert excited_return(two_level, two_level_path(np.pi, steps)) == pytest.approx(
            expected, rel=1e-12, abs=0
        )

    def test_reversal_invariant(self, lipkin4_chord):
        model, trajectory = lipkin4_chord
        path = trajectory.discretize(1000)
        forward = excited_return(model, path)
        assert excited_return(model, path[::-1]) == pytest.approx(forward, rel=1e-12, abs=0)

    def test_matches_midpoint_metric_split(self, lipkin4_chord):
        # both are second order in 1/K: the gap falls 16x (measured 2.7e-7 to
        # 1.7e-8) from K = 1000 to 4000; a one-sided column sum falls only 4x
        model, trajectory = lipkin4_chord
        gaps = []
        for steps in (1000, 4000):
            path = trajectory.discretize(steps)
            reference = midpoint_excited_return(model, path)
            gaps.append(abs(excited_return(model, path) - reference) / reference)
        assert gaps[0] >= 10 * gaps[1]
        assert gaps[1] <= 2e-7

    def test_predicts_the_chain_residual(self, lipkin4_chord):
        # K^2 (l^2/K - l^4/2K^2 - I_exact) - R is O(1/K): measured -5.1e-3 at
        # K = 100 halving to -7.1e-4 at K = 800
        model, trajectory = lipkin4_chord
        fine = trajectory.discretize(2000)
        length, coefficient = path_length(model, fine), excited_return(model, fine)
        assert coefficient > 0
        gaps = []
        for steps in (100, 200, 400, 800):
            exact = run_stroboscopic(model, trajectory.discretize(steps)).final_infidelity
            predicted = length**2 / steps - length**4 / (2 * steps**2)
            gaps.append(abs(steps**2 * (predicted - exact) - coefficient))
        assert all(a >= 1.7 * b for a, b in zip(gaps, gaps[1:]))


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

    @pytest.mark.parametrize("steps", [2.5, True, 0])
    def test_rejects_non_integer_step_counts(self, lipkin10, trajectories10, steps):
        # 2.5 used to give a row for K = 2
        with pytest.raises(ValueError, match="step count must be >= 1 and an integer"):
            zeno_sweep(lipkin10, trajectories10["linear-v"], [steps])

    def test_rows_independent_of_order_of_computation(self, lipkin10, trajectories10):
        # each row only depends on its own K
        trajectory = trajectories10["linear-u"]
        full = zeno_sweep(lipkin10, trajectory, [50, 100])
        single = zeno_sweep(lipkin10, trajectory, [100])[0]
        assert full[1]["I_exact"] == single["I_exact"]


DEFAULT_LADDER = list(CONFIG_SPEC["steps.K"][1])


def parsed_steps(raw):
    """The step counts of a ``steps.K`` value such as ``log:50:5000:13``, as the CLI reads it."""
    return list(load_config(None, {"steps.K": raw})["steps.K"])


# for the N=4 tables of about 5 000 segments; the N=10 tests take the default ladder
ZENO_LISTS = {
    "ladder": [5, 10, 20, 50, 100, 200, 500],
    "repeats": [1, 1, 3, 7, 64, 100, 100],
    "geomspace": parsed_steps("log:5:500:13"),
}


def zero_law_trajectory():
    """Distinct points on a time-law table of zero length, 30 segments."""
    points = np.array([[0.0, 0.0], [0.4, 0.1], [1.0, 0.3], [2.0, 0.5]])
    points = geometry.refine(points, 10)
    zeros = np.zeros(len(points))
    return Trajectory("linear-v", points, zeros, zeros)


def per_k_rows(model, trajectory, step_counts):
    """The chain's infidelities with one ``run_stroboscopic`` walk per K."""
    return [
        run_stroboscopic(model, trajectory.discretize(k)).final_infidelity for k in step_counts
    ]


@pytest.fixture(scope="module", params=["default", "jittered", "zero-length"])
def trajectories4(request):
    end = {"default": END, "jittered": np.array([2.0071, 0.4932]), "zero-length": START}
    return {
        family: build_trajectory(LIPKIN4, family, START, end[request.param], dense_steps=5000)
        for family in ("geodesic", "linear-v", "linear-u")
    }


class TestZenoWalk:
    """One eigen-walk per group of step grids that share points, row for row the per-K chains."""

    @pytest.mark.parametrize("family", ["geodesic", "linear-v", "linear-u"])
    @pytest.mark.parametrize("name", list(ZENO_LISTS))
    def test_rows_equal_per_k_chains_n4(self, trajectories4, family, name):
        trajectory, ks = trajectories4[family], ZENO_LISTS[name]
        rows = zeno_sweep(LIPKIN4, trajectory, ks)
        assert [r["K"] for r in rows] == ks
        assert [r["I_exact"] for r in rows] == per_k_rows(LIPKIN4, trajectory, ks)

    @pytest.mark.parametrize("family", ["geodesic", "linear-v", "linear-u"])
    def test_rows_equal_per_k_chains_n10(self, lipkin10, trajectories10, family):
        trajectory = trajectories10[family]
        rows = zeno_sweep(lipkin10, trajectory, DEFAULT_LADDER)
        assert [r["I_exact"] for r in rows] == per_k_rows(lipkin10, trajectory, DEFAULT_LADDER)

    def test_sparse_chains_of_a_joint_walk(self):
        # private route kept: a count of work that no public output reports yet
        # K = 1 and 2 walk with K = 1000 but have no interior point in its
        # first streamed block; K = 3 shares too few points and walks alone
        trajectory = build_trajectory(LIPKIN4, "linear-v", START, END, dense_steps=10000)
        ks = [1, 2, 3, 1000]
        assert protocol._walk_groups(ks) == [[3, 1, 0], [2]]
        rows = zeno_sweep(LIPKIN4, trajectory, ks)
        assert [r["I_exact"] for r in rows] == per_k_rows(LIPKIN4, trajectory, ks)

    def test_groups_of_counts_that_share_points(self):
        # private route kept: a unit test of a kernel that stays
        assert protocol._walk_groups(DEFAULT_LADDER) == [[6, 5, 4, 3, 2, 1, 0]]
        assert protocol._walk_groups(ZENO_LISTS["repeats"]) == [[6, 5, 1, 0], [4], [3], [2]]
        # a lin: list shares few points: only 1000 divides another count
        ks = parsed_steps("lin:1000:10000:50")
        assert sorted(map(len, protocol._walk_groups(ks))) == [1] * 48 + [2]

    @pytest.mark.parametrize("name", ["ladder", "geomspace"])
    def test_one_eigh_per_distinct_point_of_each_group(
        self, lipkin10, trajectories10, monkeypatch, name
    ):
        # private route kept: a count of work that no public output reports yet
        matrices = []

        def counting(stack):
            matrices.append(len(stack))
            return eigh_many(stack)

        monkeypatch.setattr(protocol, "eigh_many", counting)
        trajectory = trajectories10["geodesic"]
        ks = DEFAULT_LADDER if name == "ladder" else parsed_steps("log:50:5000:13")
        zeno_sweep(lipkin10, trajectory, ks)
        groups = protocol._walk_groups(ks)
        # each group's exact union of the fractions i / K, whatever the law length
        distinct = [len({Fraction(i, ks[j]) for j in g for i in range(ks[j] + 1)}) for g in groups]
        assert sum(matrices) == sum(distinct) <= sum(k + 1 for k in ks)
        if name == "ladder":
            # one walk over the 6 001 distinct fractions of the ladder's 8 857 points
            assert len(groups) == 1
            assert sum(matrices) == 6001

    def test_positional_end_points_on_a_table_of_zero_law_length(self):
        # distinct points that the time law does not advance: every interior
        # target is 0, which resamples to the table's last interior point,
        # while each path still starts and ends on the table's end points
        trajectory = zero_law_trajectory()
        ks = [1, 2, 3]
        rows = zeno_sweep(LIPKIN4, trajectory, ks)
        assert [r["I_exact"] for r in rows] == per_k_rows(LIPKIN4, trajectory, ks)
        assert rows[0]["I_exact"] != rows[2]["I_exact"]

    def test_too_coarse_rejected_before_any_work(self, monkeypatch):
        trajectory = build_trajectory(LIPKIN4, "linear-v", START, END, dense_steps=499)

        def no_walk(stack):
            raise AssertionError("walked")

        monkeypatch.setattr(protocol, "eigh_many", no_walk)
        with pytest.raises(ValueError, match="too coarse: 499 segments cannot resolve 50"):
            zeno_sweep(LIPKIN4, trajectory, [5, 49, 50])
        assert zeno_sweep(LIPKIN4, trajectory, []) == []


class TestDiscretizeMany:
    """The one rule for K-step paths, shared by ``discretize`` and the zeno walk."""

    @staticmethod
    def assert_walks_reproduce_discretize(trajectory, ks):
        # private route kept: a unit test of a kernel that stays
        points, walks = trajectory.discretize_many(ks)
        assert len(walks) == len(ks)
        law = trajectory.law_cumlen
        for k, walk in zip(ks, walks):
            path = trajectory.discretize(k)
            assert np.array_equal(points[walk], path)
            # the equal fractions of the time law, ends copied: the path of one resample
            grid = geometry.resample(trajectory.points, law, geometry._fraction_grid(law[-1], k))
            assert np.array_equal(path, grid)

    @pytest.mark.parametrize("family", ["geodesic", "linear-v", "linear-u"])
    def test_walks_reproduce_discretize_on_the_default_ladder(self, trajectories10, family):
        self.assert_walks_reproduce_discretize(trajectories10[family], DEFAULT_LADDER)

    @pytest.mark.parametrize("family", ["geodesic", "linear-v", "linear-u"])
    def test_walks_reproduce_discretize_on_a_list_that_does_not_nest(self, trajectories4, family):
        self.assert_walks_reproduce_discretize(trajectories4[family], [7, 12, 50])

    def test_walks_reproduce_discretize_on_a_table_of_zero_law_length(self):
        trajectory = zero_law_trajectory()
        self.assert_walks_reproduce_discretize(trajectory, [1, 2, 3])
        points, walks = trajectory.discretize_many([1, 2, 3])
        # the interior targets collapse to 0, the ends stay apart
        assert len(points) == 3 and [walk.tolist() for walk in walks] == [
            [0, 2], [0, 1, 2], [0, 1, 1, 2]
        ]

    def test_no_counts_give_no_walks(self):
        # the table's end points and no path
        trajectory = zero_law_trajectory()
        points, walks = trajectory.discretize_many([])
        assert walks == [] and np.array_equal(points, trajectory.points[[0, -1]])

    def test_too_coarse_rejected_before_any_resample(self, monkeypatch):
        trajectory = build_trajectory(LIPKIN4, "linear-v", START, END, dense_steps=499)

        def no_resample(*args):
            raise AssertionError("resampled")

        monkeypatch.setattr(trajectories, "resample", no_resample)
        with pytest.raises(ValueError, match="too coarse: 499 segments cannot resolve 50"):
            trajectory.discretize_many([5, 49, 50])


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

    def test_path_energy_is_least_at_constant_speed(self, lipkin10, trajectories10):
        # Cauchy-Schwarz: E = W sum dl^2/dw >= (sum dl)^2 = l^2, equal at constant metric speed
        for family, trajectory in trajectories10.items():
            energy, squared = trajectory.energy, trajectory.length**2
            if family == "linear-u":
                assert energy > 1.4 * squared
            else:
                assert energy == pytest.approx(squared, rel=1e-12, abs=0)
        model = LIPKIN4
        trajectory = build_trajectory(model, "linear-u", START, END, dense_steps=20000)
        energy = trajectory.energy
        assert energy / trajectory.length**2 == pytest.approx(1.19204, abs=1e-5)
        # E, not l^2, is the Zeno coefficient of the plane-speed law: K (E - K I_exact(K))
        # settles (0.848 at K = 100, 0.857 at K = 1600) while E - l^2 = 0.166
        gaps = []
        for steps in (100, 200, 400):
            exact = run_stroboscopic(model, trajectory.discretize(steps)).final_infidelity
            gaps.append(steps * (energy - steps * exact))
        assert all(0.8 < gap < 0.9 for gap in gaps)


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
    assert fidelity_product(LIPKIN4, path) == fidelity_product(LIPKIN4, as_lists)
    assert geometry.path_length(LIPKIN4, path) == geometry.path_length(LIPKIN4, as_lists)

    # a single (D,) point is a one-point path
    assert run_stroboscopic(LIPKIN4, path[0]).final_fidelity == 1.0
    assert geometry.path_length(LIPKIN4, path[0]) == 0.0
    assert step_lengths_along(LIPKIN4, path[0]).shape == (0,)
    assert geometry.cumulative_lengths(LIPKIN4, path[0]).tolist() == [0.0]
    for lengths in (step_lengths_along, geometry.cumulative_lengths):
        assert np.array_equal(lengths(LIPKIN4, path[0]), lengths(LIPKIN4, path[:1]))
    for consumer in (run_stroboscopic, geometry.path_length, step_lengths_along,
                     geometry.cumulative_lengths):
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
    """Probability trace from one eigendecomposition of the whole path."""
    states = eigh_many(model.hamiltonian_many(points))[1]
    probs = np.zeros((len(points), model.dim))
    probs[0, 0] = 1.0
    for k, ratio in enumerate(branching_along(states)):
        probs[k + 1] = ratio @ probs[k]
    return probs


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
        assert np.array_equal(result.probabilities, single_batch_chain(LIPKIN4, points))
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
        assert np.array_equal(result.probabilities, single_batch_chain(model, points))

    def test_long_chain_memory_is_bounded(self):
        # 5 001 N=10 eigenbases: about 15 MB traced when the whole path is held at once
        model = LipkinModel(10)
        path = START + np.linspace(0, 1, 5001)[:, None] * (END - START)
        peak = traced_peak(lambda: run_stroboscopic(model, path))
        assert peak <= 8e6

    def test_long_chain_holds_one_block_beyond_its_trace(self):
        # 20 001 N=10 points: the probability trace alone is 1.76 MB; 5.29 MB
        # traced when every block's spectrum and carried eigenbasis were views
        # pinning the whole block, 3.3 MB with copies
        model = LipkinModel(10)
        path = START + np.linspace(0, 1, 20001)[:, None] * (END - START)
        assert traced_peak(lambda: run_stroboscopic(model, path)) <= 4e6


class TestPathOptimality:
    """The paper's claim, against the exact chain: at K steps, the best path is
    the geodesic traversed at constant metric speed.

    L-BFGS-B minimizes I_exact over the K - 1 interior vertices (chi >= 0),
    starting from the geodesic's ``discretize(K)``.  Its result is an upper
    bound on the true minimum, so the gaps below are lower bounds.  Measured
    at N=4, default end points: relative gaps 6.3e-4 and 1.4e-4 and largest
    vertex shifts 0.119 and 0.049 at K = 8 and 16; linear-v is 2.2 % worse.
    """

    @pytest.fixture(scope="class")
    def optimized(self):
        from scipy.optimize import minimize

        geodesic = build_trajectory(LIPKIN4, "geodesic", START, END, dense_steps=2000)
        linear = build_trajectory(LIPKIN4, "linear-v", START, END, dense_steps=2000)
        rows = {}
        for steps in (8, 16):
            path = geodesic.discretize(steps)

            def infidelity(interior):
                points = np.vstack([START, interior.reshape(steps - 1, 2), END])
                return run_stroboscopic(LIPKIN4, points).final_infidelity

            best = minimize(
                infidelity, path[1:-1].ravel(), method="L-BFGS-B",
                bounds=[(None, None), (0.0, None)] * (steps - 1),
            )
            rows[steps] = {
                "geodesic": infidelity(path[1:-1].ravel()),
                "optimized": best.fun,
                "shift": np.linalg.norm(best.x.reshape(steps - 1, 2) - path[1:-1], axis=1).max(),
                "linear": run_stroboscopic(LIPKIN4, linear.discretize(steps)).final_infidelity,
            }
        return rows

    def test_no_path_beats_the_geodesic_by_more_than_higher_order(self, optimized):
        gaps = {}
        for steps, row in optimized.items():
            assert row["optimized"] <= row["geodesic"]
            gaps[steps] = (row["geodesic"] - row["optimized"]) / row["geodesic"]
        # I_geo - I_opt falls like K^-3, so the relative gap like K^-2 (4.4x measured)
        assert gaps[8] >= 3 * gaps[16]

    def test_optimal_vertices_converge_to_the_geodesic(self, optimized):
        # like 1/K (2.4x per doubling measured)
        assert optimized[8]["shift"] >= 1.6 * optimized[16]["shift"]

    def test_straight_line_stays_worse(self, optimized):
        for row in optimized.values():
            assert row["linear"] >= 1.01 * row["geodesic"]
