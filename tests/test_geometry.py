import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from zenodrive.geometry import (
    DegenerateGroundStateError,
    GeodesicConvergenceError,
    cumulative_lengths,
    geodesic,
    metric,
    metric_many,
    metric_with_gradient_many,
    path_length,
    refine,
    reparameterize,
    resample,
    step_length,
    step_lengths_along,
)
from zenodrive.models import SIGMA_X, HamiltonianFamily, LipkinModel, TwoLevelModel
from zenodrive.spectral import DegeneracyWarning

START = np.array([0.0, 0.0])
END = np.array([2.0, 0.5])


def batched_kron(a, b):
    """Kronecker product of the last two axes, batched over the leading ones."""
    out = np.einsum("...ij,...kl->...ikjl", a, b)
    return out.reshape(out.shape[:-4] + (a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1]))


class ConstantModel(HamiltonianFamily):
    """Fixed Hamiltonian; the ground state never moves."""

    nparams = 2

    def __init__(self):
        rng = np.random.default_rng(42)
        m = rng.normal(size=(4, 4))
        self._h = 0.5 * (m + m.T)
        self.dim = 4

    def hamiltonian_many(self, points):
        points = self.check_points(points)
        return np.broadcast_to(self._h, points.shape[:-1] + (4, 4)).copy()

    def derivative_many(self, points, axis):
        return np.zeros(self.check_points(points, axis).shape[:-1] + (4, 4))

    def second_derivative_many(self, points, axis1, axis2):
        return np.zeros(self.check_points(points, axis1, axis2).shape[:-1] + (4, 4))


class FlatModel(HamiltonianFamily):
    """Two independently rotated qubits: constant diagonal metric, no curvature."""

    dim = 4
    nparams = 2
    qubit = TwoLevelModel()

    def hamiltonian_many(self, points):
        points = self.check_points(points)
        x = self.qubit.hamiltonian_many(points[..., :1])
        y = self.qubit.hamiltonian_many(points[..., 1:])
        return batched_kron(x, np.eye(2)) + 2 * batched_kron(np.eye(2), y)

    def derivative_many(self, points, axis):
        points = self.check_points(points, axis)
        d = self.qubit.derivative_many(points[..., axis : axis + 1], 0)
        return batched_kron(d, np.eye(2)) if axis == 0 else 2 * batched_kron(np.eye(2), d)

    def second_derivative_many(self, points, axis1, axis2):
        points = self.check_points(points, axis1, axis2)
        if axis1 != axis2:
            return np.zeros(points.shape[:-1] + (4, 4))
        d2 = self.qubit.second_derivative_many(points[..., axis1 : axis1 + 1], 0, 0)
        return batched_kron(d2, np.eye(2)) if axis1 == 0 else 2 * batched_kron(np.eye(2), d2)


class NearDegenerateModel(HamiltonianFamily):
    """Tunable gap; lets tests hit the degeneracy guards."""

    dim = 2
    nparams = 1

    def __init__(self, coupling):
        self.coupling = coupling

    def hamiltonian_many(self, points):
        x = self.check_points(points)[..., 0, None, None]
        return x * np.diag([1.0, -1.0]) + self.coupling * SIGMA_X

    def derivative_many(self, points, axis):
        points = self.check_points(points, axis)
        return np.broadcast_to(np.diag([1.0, -1.0]), points.shape[:-1] + (2, 2)).copy()

    def second_derivative_many(self, points, axis1, axis2):
        return np.zeros(self.check_points(points, axis1, axis2).shape[:-1] + (2, 2))


CONTRACT_MODELS = {
    "lipkin6": lambda: LipkinModel(6),
    "two-level": TwoLevelModel,
    "constant": ConstantModel,
    "flat": FlatModel,
    "near-degenerate": lambda: NearDegenerateModel(coupling=0.3),
}


@pytest.mark.parametrize("name", CONTRACT_MODELS)
class TestModelContract:
    """Each family implements only the batched trio; everything else follows from it."""

    @staticmethod
    def _points(model):
        return np.random.default_rng(5).uniform(0.1, 1.0, size=(2, 3, model.nparams))

    def test_single_point_is_batch_row(self, name):
        model = CONTRACT_MODELS[name]()
        points = self._points(model)
        axes = range(model.nparams)
        maps = [(model.hamiltonian_many, model.hamiltonian, ())]
        maps += [(model.derivative_many, model.derivative, (a,)) for a in axes]
        maps += [
            (model.second_derivative_many, model.second_derivative, (a, b))
            for a in axes
            for b in axes
        ]
        for many, single, axes_args in maps:
            batch = many(points, *axes_args)
            assert batch.shape == points.shape[:-1] + (model.dim, model.dim)
            for index in np.ndindex(points.shape[:-1]):
                assert np.array_equal(many(points[index], *axes_args), batch[index])
                assert np.array_equal(single(points[index], *axes_args), batch[index])

    def test_derivatives_match_central_differences(self, name):
        model = CONTRACT_MODELS[name]()
        points = self._points(model)
        h = 1e-5
        for a in range(model.nparams):
            step = np.zeros(model.nparams)
            step[a] = h
            fd = (model.hamiltonian_many(points + step) - model.hamiltonian_many(points - step)) / (2 * h)
            assert np.abs(fd - model.derivative_many(points, a)).max() <= 1e-8
            for b in range(model.nparams):
                fd = (
                    model.derivative_many(points + step, b) - model.derivative_many(points - step, b)
                ) / (2 * h)
                assert np.abs(fd - model.second_derivative_many(points, a, b)).max() <= 1e-8

    def test_rejects_malformed_input(self, name):
        model = CONTRACT_MODELS[name]()
        good = np.full(model.nparams, 0.5)
        with pytest.raises(ValueError, match="finite"):
            model.hamiltonian_many(np.full(model.nparams, np.inf))
        with pytest.raises(ValueError, match="width"):
            model.hamiltonian_many(np.append(good, 0.5))
        with pytest.raises(ValueError, match="axis"):
            model.derivative_many(good, model.nparams)


@pytest.fixture(scope="module")
def lipkin_geodesic_diag(lipkin10):
    path, diag = geodesic(lipkin10, START, END, 128, return_diagnostics=True)
    return path, diag


def overlap_metric_fd(model, point, d=1e-4):
    """Finite-difference metric from the defining ground-state overlap form.

    Symmetrized probes cancel the cubic term of the overlap expansion, leaving
    the quadratic form to O(d^2) relative accuracy.
    """
    from zenodrive.spectral import eigh_many

    def ground(p):
        return eigh_many(model.hamiltonian(p))[1][:, 0]

    base = ground(point)

    def q(step):
        other = ground(point + step)
        loss = 1.0 - np.abs(np.vdot(other, base)) ** 2
        mirror = ground(point - step)
        loss_m = 1.0 - np.abs(np.vdot(mirror, base)) ** 2
        return 0.5 * (loss + loss_m)

    nparams = model.nparams
    g = np.empty((nparams, nparams))
    qs = []
    for a in range(nparams):
        e = np.zeros(nparams)
        e[a] = d
        qs.append(q(e))
        g[a, a] = qs[a] / d**2
    for a in range(nparams):
        for b in range(a + 1, nparams):
            e = np.zeros(nparams)
            e[a] = d
            e[b] = d
            g[a, b] = g[b, a] = (q(e) - qs[a] - qs[b]) / (2 * d**2)
    return g


class TestMetric:
    def test_two_level_quarter(self, two_level):
        for theta in np.linspace(0.0, 2 * np.pi, 7):
            g = metric(two_level, np.array([theta]))
            assert abs(g[0, 0] - 0.25) <= 1e-10

    def test_constant_model_zero(self):
        g = metric(ConstantModel(), np.array([0.3, 0.7]))
        assert np.abs(g).max() == 0.0

    def test_symmetric_psd_on_lipkin(self, lipkin10):
        rng = np.random.default_rng(8)
        pts = np.column_stack([rng.uniform(0, 3, 10), rng.uniform(0, 1, 10)])
        gs = metric_many(lipkin10, pts)
        for g in gs:
            assert np.abs(g - g.T).max() <= 1e-14
            assert np.linalg.eigvalsh(g).min() >= -1e-12

    def test_matches_overlap_definition(self, lipkin10):
        rng = np.random.default_rng(77)
        count = 0
        while count < 6:
            point = np.array([rng.uniform(0, 3), rng.uniform(0.05, 1)])
            g = metric(lipkin10, point)
            g_fd = overlap_metric_fd(lipkin10, point)
            assert np.abs(g_fd - g).max() <= 1e-3 * np.abs(g).max()
            count += 1

    def test_energy_shift_invariance(self, lipkin10):
        class Shifted(HamiltonianFamily):
            dim = lipkin10.dim
            nparams = 2

            def hamiltonian_many(self, points):
                return lipkin10.hamiltonian_many(points) + 17.3 * np.eye(self.dim)

            def derivative_many(self, points, axis):
                return lipkin10.derivative_many(points, axis)

            def second_derivative_many(self, points, a, b):
                return lipkin10.second_derivative_many(points, a, b)

        point = np.array([1.0, 0.4])
        assert np.abs(metric(Shifted(), point) - metric(lipkin10, point)).max() <= 1e-12

    def test_degenerate_ground_state_error_names_gap(self):
        model = NearDegenerateModel(coupling=0.0)
        with pytest.raises(DegenerateGroundStateError) as err:
            metric(model, np.array([0.0]))
        assert "gap" in str(err.value)
        assert err.value.gap <= 1e-12

    def test_metric_cap_warning(self):
        model = NearDegenerateModel(coupling=1e-8)
        with pytest.warns(UserWarning, match="cap"):
            g = metric(model, np.array([0.0]))
        assert np.abs(g).max() <= 1e12

    def test_gradient_matches_finite_difference(self, lipkin10):
        pts = np.array([[0.7, 0.3], [1.6, 0.8], [2.4, 0.15]])
        g, dg = metric_with_gradient_many(lipkin10, pts)
        h = 1e-5
        for axis in range(2):
            e = np.zeros(2)
            e[axis] = h
            fd = (metric_many(lipkin10, pts + e) - metric_many(lipkin10, pts - e)) / (2 * h)
            assert np.abs(fd - dg[:, axis]).max() <= 1e-5 * max(1.0, np.abs(fd).max())


class TestStepLength:
    def test_zero_at_equal_points(self, lipkin10):
        p = np.array([1.0, 0.5])
        assert step_length(lipkin10, p, p) == 0.0

    def test_symmetry(self, lipkin10):
        a, b = np.array([0.2, 0.1]), np.array([1.7, 0.8])
        assert step_length(lipkin10, a, b) == pytest.approx(
            step_length(lipkin10, b, a), abs=1e-14
        )

    def test_two_level_half_angle(self, two_level):
        for dtheta in (0.3, np.pi / 2, 2.5):
            got = step_length(two_level, np.array([0.4]), np.array([0.4 + dtheta]))
            assert got == pytest.approx(abs(np.sin(dtheta / 2)), abs=1e-12)

    def test_quadratic_form_convergence_order(self, lipkin10):
        # delta_l^2 - g[v, v] should shrink like |v|^3
        point = np.array([1.0, 0.3])
        direction = np.array([0.8, 0.6])
        g = metric(lipkin10, point)
        errs = []
        for d in (1e-2, 1e-3):
            v = d * direction
            dl2 = step_length(lipkin10, point, point + v) ** 2
            errs.append(abs(dl2 - v @ g @ v))
        assert errs[1] <= errs[0] / 100


class TestPathLength:
    def test_single_point(self, lipkin10):
        assert path_length(lipkin10, np.array([[1.0, 0.5]])) == 0.0

    def test_two_level_total_angle(self, two_level):
        thetas = np.linspace(0.0, np.pi, 1001)[:, None]
        assert path_length(two_level, thetas) == pytest.approx(np.pi / 2, abs=1e-4)

    def test_lipkin_linear_regression_anchor(self, lipkin10):
        pts = START + np.linspace(0, 1, 2001)[:, None] * (END - START)
        ell = path_length(lipkin10, pts)
        # frozen from a converged run; doubling the resolution moves it < 1e-4 relative
        assert ell == pytest.approx(1.558555130036301, rel=1e-9)
        pts2 = START + np.linspace(0, 1, 4001)[:, None] * (END - START)
        assert abs(path_length(lipkin10, pts2) - ell) / ell < 1e-4

    def test_degeneracy_warning_along_path(self):
        model = NearDegenerateModel(coupling=0.0)
        pts = np.linspace(-1, 1, 5)[:, None]
        with pytest.warns(DegeneracyWarning):
            step_lengths_along(model, pts)


class TestGeodesic:
    def test_flat_model_gives_chord(self):
        model = FlatModel()
        a, b = np.array([0.1, 0.2]), np.array([1.1, 0.9])
        path = geodesic(model, a, b, 24)
        chord = a + np.linspace(0, 1, 25)[:, None] * (b - a)
        assert np.abs(path - chord).max() <= 1e-8

    def test_two_level_uniform_angles(self, two_level):
        path = geodesic(two_level, np.array([0.0]), np.array([2.0]), 32)
        uniform = np.linspace(0.0, 2.0, 33)[:, None]
        assert np.abs(path - uniform).max() <= 1e-8

    def test_lipkin_converges_with_equal_steps(self, lipkin10, lipkin_geodesic_diag):
        path, diag = lipkin_geodesic_diag
        assert diag.residual < 1e-9
        dl = step_lengths_along(lipkin10, path)
        assert dl.max() / dl.min() - 1 < 0.01

    def test_lipkin_shorter_than_chord_and_bows_up(self, lipkin10, lipkin_geodesic_diag):
        path, _ = lipkin_geodesic_diag
        ell_geo = path_length(lipkin10, path)
        chord = START + np.linspace(0, 1, 129)[:, None] * (END - START)
        ell_lin = path_length(lipkin10, chord)
        assert ell_geo < ell_lin
        # curved toward larger chi than the chord while crossing the small-gap region
        chord_chi = np.interp(path[:, 0], [START[0], END[0]], [START[1], END[1]])
        interior = slice(10, -10)
        assert np.all(path[interior, 1] > chord_chi[interior])

    def test_length_trace_monotone(self, lipkin_geodesic_diag):
        # non-increasing up to the discretization slack between the exact
        # overlap length and the energy the solver actually descends on;
        # endgame Newton polish wiggles the inscribed length at ~1e-7
        _, diag = lipkin_geodesic_diag
        lengths = np.array(diag.length_trace)
        assert np.all(np.diff(lengths) <= lengths[:-1] * 1e-6)
        assert lengths.argmax() == 0
        assert lengths[-1] < lengths[0]

    def test_energy_trace_decreasing(self, lipkin_geodesic_diag):
        _, diag = lipkin_geodesic_diag
        energies = np.array(diag.energy_trace)
        assert np.all(np.diff(energies) < 0)

    def test_endpoints_fixed_exactly(self, lipkin_geodesic_diag):
        path, _ = lipkin_geodesic_diag
        assert np.array_equal(path[0], START)
        assert np.array_equal(path[-1], END)

    def test_interior_respects_halfplane(self, lipkin_geodesic_diag):
        path, _ = lipkin_geodesic_diag
        assert np.all(path[:, 1] >= 0.0)

    def test_convergence_error_carries_residual(self, lipkin10):
        with pytest.raises(GeodesicConvergenceError) as err:
            geodesic(lipkin10, START, END, 64, max_iterations=1)
        assert err.value.residual > 0

    def test_needs_two_steps(self, lipkin10):
        with pytest.raises(ValueError):
            geodesic(lipkin10, START, END, 1)


class TestReparameterize:
    def test_modes_coincide_on_flat_model(self):
        model = FlatModel()
        a, b = np.array([0.0, 0.0]), np.array([1.0, 0.5])
        dense = a + np.linspace(0, 1, 501)[:, None] * (b - a)
        pv = reparameterize(model, dense, 20, "constant-manifold-speed")
        pu = reparameterize(model, dense, 20, "constant-euclidean-speed")
        assert np.abs(pv - pu).max() <= 1e-9

    def test_two_level_uniform(self, two_level):
        dense = np.linspace(0.0, np.pi, 801)[:, None]
        out = reparameterize(two_level, dense, 16, "constant-manifold-speed")
        assert np.abs(out - np.linspace(0, np.pi, 17)[:, None]).max() <= 1e-8

    def test_constant_speed_spread(self, lipkin10):
        dense = START + np.linspace(0, 1, 4001)[:, None] * (END - START)
        out = reparameterize(lipkin10, dense, 100, "constant-manifold-speed")
        dl = step_lengths_along(lipkin10, out)
        assert (dl.max() - dl.min()) / dl.mean() <= 0.01

    def test_euclidean_spacing_exact(self, lipkin10):
        dense = START + np.linspace(0, 1, 2001)[:, None] * (END - START)
        out = reparameterize(lipkin10, dense, 50, "constant-euclidean-speed")
        steps = np.linalg.norm(np.diff(out, axis=0), axis=1)
        assert steps.max() - steps.min() <= 1e-10

    def test_points_concentrate_in_small_gap_region(self, lipkin10):
        dense = START + np.linspace(0, 1, 4001)[:, None] * (END - START)
        out = reparameterize(lipkin10, dense, 100, "constant-manifold-speed")
        euclid = np.linalg.norm(np.diff(out, axis=0), axis=1)
        lam_at_min = out[np.argmin(euclid), 0]
        # the plane speed collapses where the gap is smallest (lam ~ 1.2 at N=10)
        assert 0.8 <= lam_at_min <= 1.6

    def test_rejects_coarse_input(self, lipkin10):
        dense = START + np.linspace(0, 1, 100)[:, None] * (END - START)
        with pytest.raises(ValueError, match="too coarse"):
            reparameterize(lipkin10, dense, 50, "constant-manifold-speed")

    def test_rejects_unknown_mode(self, lipkin10):
        dense = START + np.linspace(0, 1, 501)[:, None] * (END - START)
        with pytest.raises(ValueError, match="mode"):
            reparameterize(lipkin10, dense, 10, "smooth")

    def test_refinement_consistency_flat_model(self):
        model = FlatModel()
        a, b = np.array([0.0, 0.1]), np.array([1.2, 0.7])
        dense = a + np.linspace(0, 1, 3201)[:, None] * (b - a)
        coarse = reparameterize(model, dense, 10, "constant-manifold-speed")
        fine = reparameterize(model, dense, 20, "constant-manifold-speed")
        assert np.abs(coarse - fine[::2]).max() <= 1e-6

    def test_refine_keeps_curve(self, lipkin10):
        pts = START + np.linspace(0, 1, 11)[:, None] * (END - START)
        dense = refine(pts, 10)
        assert dense.shape == (101, 2)
        assert np.abs(dense[::10] - pts).max() <= 1e-15

    def test_cumulative_lengths_monotone(self, lipkin10):
        pts = START + np.linspace(0, 1, 301)[:, None] * (END - START)
        table = cumulative_lengths(lipkin10, pts)
        assert table[0] == 0.0
        assert np.all(np.diff(table) >= 0)


@st.composite
def polylines(draw):
    """A polyline of 2-30 points in 1-3 dimensions and a cumulative table on it.

    Table increments may be zero (a segment the table does not advance over).
    """
    count = draw(st.integers(2, 30))
    dims = draw(st.integers(1, 3))
    coords = st.floats(-10.0, 10.0, allow_nan=False)
    points = draw(arrays(float, (count, dims), elements=coords))
    increments = draw(arrays(float, count - 1, elements=st.floats(0.0, 5.0)))
    increments[draw(st.integers(0, count - 2))] += 0.5   # a table of nonzero length
    return points, np.concatenate([[0.0], np.cumsum(increments)])


class TestResampleProperties:
    @settings(max_examples=200, deadline=None)
    @given(polylines(), st.integers(1, 40))
    def test_resample_at_equal_quantiles(self, line, count):
        points, table = line
        out = resample(points, table, count)
        assert out.shape == (count + 1, points.shape[1])
        assert np.array_equal(out[0], points[0]) and np.array_equal(out[-1], points[-1])
        # carry the table along as one more coordinate: it reads back the targets
        tagged = resample(np.column_stack([points, table]), table, count)
        assert np.array_equal(tagged[1:-1, :-1], out[1:-1])
        quantiles = np.linspace(0.0, table[-1], count + 1)
        assert np.abs(tagged[1:-1, -1] - quantiles[1:-1]).max(initial=0.0) <= 1e-12 * table[-1]
        assert np.all(np.diff(tagged[:, -1]) >= -1e-12 * table[-1])

    @settings(max_examples=200, deadline=None)
    @given(polylines(), st.integers(1, 8))
    def test_refine_keeps_every_vertex(self, line, factor):
        points, _ = line
        dense = refine(points, factor)
        assert dense.shape == ((points.shape[0] - 1) * factor + 1, points.shape[1])
        assert np.array_equal(dense[::factor], points)
