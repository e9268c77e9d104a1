import warnings

import numpy as np
import pytest
from conftest import traced_peak
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import zenodrive.geometry
from zenodrive.geometry import (
    DegenerateGroundStateError,
    GeodesicConvergenceError,
    cumulative_euclidean,
    cumulative_lengths,
    geodesic,
    interpolate_at,
    metric_many,
    metric_with_gradient_many,
    path_length,
    refine,
    resample,
    step_lengths_along,
)
from zenodrive.models import SIGMA_X, HamiltonianFamily, LipkinModel, TwoLevelModel
from zenodrive.spectral import (
    DEGENERACY_GAP,
    DegeneracyWarning,
    eigh_many,
    ground_step_lengths,
    warn_if_degenerate,
)
from zenodrive.trajectories import build_trajectory

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


class ComplexLipkin(HamiltonianFamily):
    """The Lipkin model in a fixed random complex basis: complex Hermitian
    matrices with the Lipkin spectra and metric."""

    def __init__(self, n_qubits):
        self.base = LipkinModel(n_qubits)
        self.dim, self.nparams = self.base.dim, self.base.nparams
        self.lower_bounds = self.base.lower_bounds
        rng = np.random.default_rng(n_qubits)
        shape = (self.dim, self.dim)
        self.basis = np.linalg.qr(rng.normal(size=shape) + 1j * rng.normal(size=shape))[0]

    def _rotated(self, matrices):
        return self.basis @ matrices @ np.conj(self.basis.T)

    def hamiltonian_many(self, points):
        return self._rotated(self.base.hamiltonian_many(points))

    def derivative_many(self, points, axis):
        return self._rotated(self.base.derivative_many(points, axis))

    def second_derivative_many(self, points, axis1, axis2):
        return self._rotated(self.base.second_derivative_many(points, axis1, axis2))


CONTRACT_MODELS = {
    "lipkin6": lambda: LipkinModel(6),
    "two-level": TwoLevelModel,
    "constant": ConstantModel,
    "flat": FlatModel,
    "near-degenerate": lambda: NearDegenerateModel(coupling=0.3),
    "complex-lipkin4": lambda: ComplexLipkin(4),
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
        maps = [(model.hamiltonian_many, ())]
        maps += [(model.derivative_many, (a,)) for a in axes]
        maps += [(model.second_derivative_many, (a, b)) for a in axes for b in axes]
        for many, axes_args in maps:
            batch = many(points, *axes_args)
            assert batch.shape == points.shape[:-1] + (model.dim, model.dim)
            for index in np.ndindex(points.shape[:-1]):
                assert np.array_equal(many(points[index], *axes_args), batch[index])

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
        return eigh_many(model.hamiltonian_many(p))[1][:, 0]

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
            g = metric_many(two_level, np.array([theta]))
            assert abs(g[0, 0] - 0.25) <= 1e-10

    def test_constant_model_zero(self):
        g = metric_many(ConstantModel(), np.array([0.3, 0.7]))
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
            g = metric_many(lipkin10, point)
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
        assert np.abs(metric_many(Shifted(), point) - metric_many(lipkin10, point)).max() <= 1e-12

    def test_degenerate_ground_state_error_names_gap(self):
        model = NearDegenerateModel(coupling=0.0)
        with pytest.raises(DegenerateGroundStateError) as err:
            metric_many(model, np.array([0.0]))
        assert "gap" in str(err.value)
        assert err.value.gap <= 1e-12

    def test_metric_cap_warning(self):
        model = NearDegenerateModel(coupling=1e-8)
        with pytest.warns(UserWarning, match="cap"):
            g = metric_many(model, np.array([0.0]))
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


def einsum_metric_with_gradient(model, points):
    """Reference metric and gradient: the perturbative sums written out with ``einsum``.

    Independent of the matmul contractions in ``geometry``: every B^c and
    every V^dagger d2H V is formed in full, once per ordered axis pair.
    """
    from zenodrive.spectral import eigh_many

    nparams = model.nparams
    energies, states = eigh_many(model.hamiltonian_many(points))
    conj = np.conj(states)
    bmats = [
        np.einsum("...ji,...jk,...kl->...il", conj, model.derivative_many(points, c), states)
        for c in range(nparams)
    ]
    amp = [b[..., :, 0] for b in bmats]
    delta = energies - energies[..., 0:1]
    weight = np.zeros_like(delta)
    weight[..., 1:] = 1.0 / delta[..., 1:] ** 2
    weight3 = np.zeros_like(delta)
    weight3[..., 1:] = 1.0 / delta[..., 1:] ** 3
    g = np.empty(points.shape[:-1] + (nparams, nparams))
    for m in range(nparams):
        for n in range(nparams):
            g[..., m, n] = np.real(np.sum(np.conj(amp[m]) * amp[n] * weight, axis=-1))

    dim = states.shape[-1]
    eye = np.eye(dim, dtype=bool)
    denom = energies[..., None, :] - energies[..., :, None]
    tiny = np.abs(denom) < 1e-10
    denom_safe = np.where(tiny | eye, 1.0, denom)
    damp = {}
    for c in range(nparams):
        tmat = np.where(tiny | eye, 0.0, bmats[c] / denom_safe)
        for m in range(nparams):
            d2h = model.second_derivative_many(points, min(c, m), max(c, m))
            cmat = np.einsum("...ji,...jk,...kl->...il", conj, d2h, states)
            term1 = np.einsum("...ji,...j->...i", np.conj(tmat), amp[m])
            term2 = np.einsum("...ij,...j->...i", bmats[m], tmat[..., :, 0])
            damp[c, m] = term1 + cmat[..., :, 0] + term2
    diag = np.arange(dim)
    dgap = [np.real(b[..., diag, diag] - b[..., 0, 0][..., None]) for b in bmats]
    dg = np.empty(points.shape[:-1] + (nparams,) * 3)
    for c in range(nparams):
        for m in range(nparams):
            for n in range(nparams):
                dg[..., c, m, n] = np.real(
                    np.sum((np.conj(damp[c, m]) * amp[n] + np.conj(amp[m]) * damp[c, n]) * weight, axis=-1)
                    - 2 * np.sum(np.conj(amp[m]) * amp[n] * dgap[c] * weight3, axis=-1)
                )
    return g, dg


class TestMetricKernel:
    @pytest.mark.parametrize("qubits", [4, 10])
    def test_matches_einsum_reference(self, qubits):
        model = LipkinModel(qubits)
        rng = np.random.default_rng(qubits)
        points = np.column_stack([rng.uniform(0.0, 3.0, 24), rng.uniform(0.05, 1.0, 24)])
        g, dg = metric_with_gradient_many(model, points)
        g_ref, dg_ref = einsum_metric_with_gradient(model, points)
        assert np.abs(g - g_ref).max() <= 1e-12 * np.abs(g_ref).max()
        assert np.abs(dg - dg_ref).max() <= 1e-12 * np.abs(dg_ref).max()
        assert np.array_equal(metric_many(model, points), g)

    def test_two_level_closed_form(self, two_level):
        thetas = np.linspace(-1.0, 7.0, 21)[:, None]
        g, dg = metric_with_gradient_many(two_level, thetas)
        assert np.abs(g - 0.25).max() <= 1e-14
        assert np.abs(dg).max() <= 1e-14

    def test_second_derivative_once_per_axis_pair(self, lipkin10, monkeypatch):
        pairs = []
        second = lipkin10.second_derivative_many

        def counting(points, axis1, axis2):
            pairs.append((axis1, axis2))
            return second(points, axis1, axis2)

        monkeypatch.setattr(lipkin10, "second_derivative_many", counting)
        metric_with_gradient_many(lipkin10, np.array([[0.7, 0.3], [1.6, 0.8]]))
        assert sorted(pairs) == [(0, 0), (0, 1), (1, 1)]


class TestStepLength:
    def test_zero_at_equal_points(self, lipkin10):
        p = np.array([1.0, 0.5])
        assert path_length(lipkin10, [p, p]) == 0.0

    def test_symmetry(self, lipkin10):
        a, b = np.array([0.2, 0.1]), np.array([1.7, 0.8])
        assert path_length(lipkin10, [a, b]) == pytest.approx(
            path_length(lipkin10, [b, a]), abs=1e-14
        )

    def test_two_level_half_angle(self, two_level):
        for dtheta in (0.3, np.pi / 2, 2.5):
            got = path_length(two_level, [[0.4], [0.4 + dtheta]])
            assert got == pytest.approx(abs(np.sin(dtheta / 2)), abs=1e-12)

    def test_quadratic_form_convergence_order(self, lipkin10):
        # delta_l^2 - g[v, v] should shrink like |v|^3
        point = np.array([1.0, 0.3])
        direction = np.array([0.8, 0.6])
        g = metric_many(lipkin10, point)
        errs = []
        for d in (1e-2, 1e-3):
            v = d * direction
            dl2 = path_length(lipkin10, [point, point + v]) ** 2
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

    def test_convergence_error_carries_residual(self, lipkin10, monkeypatch):
        monkeypatch.setattr(zenodrive.geometry, "GEODESIC_MAX_ITERATIONS", 1)
        with pytest.raises(GeodesicConvergenceError) as err:
            geodesic(lipkin10, START, END, 64)
        assert err.value.residual > 0

    def test_needs_two_steps(self, lipkin10):
        with pytest.raises(ValueError):
            geodesic(lipkin10, START, END, 1)

    def test_length_trace_only_with_diagnostics(self, monkeypatch):
        model = LipkinModel(4)
        calls = []

        def counting(*args):
            calls.append(args)
            return path_length(*args)

        monkeypatch.setattr(zenodrive.geometry, "path_length", counting)
        plain = geodesic(model, START, END, 32)
        assert len(calls) == 0
        traced, diag = geodesic(model, START, END, 32, return_diagnostics=True)
        assert len(calls) == len(diag.length_trace) > 0
        assert np.array_equal(plain, traced)

    def test_hessian_matches_gradient_difference(self):
        # the Hessian blocks applied to v against a central difference of the
        # analytic energy gradient along v, on a perturbed N=4 chord; the
        # block-tridiagonal solve against a dense solve of the same system
        rng = np.random.default_rng(3)
        points = perturbed_chord(np.array([0.2, 0.1]), np.array([1.8, 0.6]), 16, rng)
        _, grad, blocks = zenodrive.geometry._energy_grad_hess(LipkinModel(4), points)
        hess = dense_hessian(blocks)
        assert hessian_gradient_gap(LipkinModel(4), points, rng.normal(size=(15, 2))) <= 1e-6
        assert np.array_equal(hess, hess.T)
        assert_solve_matches_dense(blocks, -grad[1:-1])

    def test_hessian_matches_gradient_difference_on_the_domain_edge(self):
        # every mid-point on chi = 0, where a probe below the mid would leave
        # the domain; lam-only perturbations keep the points there (a central
        # difference projected onto chi >= 0 gave 1.7e-6 here)
        rng = np.random.default_rng(3)
        points = perturbed_chord(np.array([0.2, 0.0]), np.array([1.8, 0.0]), 16, rng, axes=[0])
        v = np.column_stack([rng.normal(size=15), np.zeros(15)])
        assert hessian_gradient_gap(LipkinModel(4), points, v) <= 1e-7

    def test_probes_one_forward_set_per_axis(self, monkeypatch):
        # only the mids go to eigh_many (none when their eigensystem is given);
        # D probe points per segment get the metric gradient, none below the
        # lower bounds, on a path that starts on chi = 0
        model, diagonalized, evaluated = LipkinModel(4), [], []
        metric_block = zenodrive.geometry._metric_block

        def counting_eigh(matrices):
            diagonalized.append(len(matrices))
            return eigh_many(matrices)

        def recording(model, points, *args):
            evaluated.append(np.asarray(points))
            return metric_block(model, points, *args)

        monkeypatch.setattr(zenodrive.geometry, "eigh_many", counting_eigh)
        monkeypatch.setattr(zenodrive.geometry, "_metric_block", recording)
        rng = np.random.default_rng(3)
        points = perturbed_chord(START, END, 16, rng, axes=[0])
        zenodrive.geometry._energy_grad_hess(model, points)
        assert sum(diagonalized) == 16
        mids, *probes = evaluated
        probes = np.concatenate([c.reshape(-1, model.nparams) for c in probes])
        assert len(mids) == 16 and len(probes) == model.nparams * 16
        assert np.all(probes >= model.lower_bounds)
        diagonalized.clear()
        eigensystem = eigh_many(model.hamiltonian_many(mids))
        zenodrive.geometry._energy_grad_hess(model, points, eigensystem)
        assert diagonalized == []

    @pytest.mark.parametrize("model", [LipkinModel(4), LipkinModel(10), ComplexLipkin(4)],
                             ids=["lipkin4", "lipkin10", "complex-lipkin4"])
    def test_probe_eigensystem_matches_eigh(self, model):
        # first-order perturbation theory from the mid's eigensystem against
        # diagonalizing mid + h e_c: within rounding at the solver's h, and an
        # error that falls as h^2 (about 100x per decade) above rounding
        rng = np.random.default_rng(model.dim)
        points = np.column_stack([rng.uniform(0.0, 3.0, 32), rng.uniform(0.05, 1.0, 32)])
        for axis in range(model.nparams):
            errors = {h: probe_eigensystem_error(model, points, axis, h)
                      for h in (zenodrive.geometry.GEODESIC_FD_STEP, 1e-6, 1e-5)}
            energy_error, projector_error = errors[zenodrive.geometry.GEODESIC_FD_STEP]
            assert energy_error <= 1e-12 and projector_error <= 1e-10
            for coarse, fine in zip(errors[1e-5], errors[1e-6]):
                assert coarse >= 50 * fine

    @pytest.mark.parametrize("model_size", [4, 10])
    def test_hessian_matches_eigh_probes(self, model_size, monkeypatch):
        # the Hessian blocks from perturbative probe eigensystems against
        # those from diagonalizing every probe
        model = LipkinModel(model_size)
        rng = np.random.default_rng(model_size)
        points = perturbed_chord(np.array([0.2, 0.1]), np.array([1.8, 0.6]), 32, rng)
        perturbative = zenodrive.geometry._energy_grad_hess(model, points)
        monkeypatch.setattr(
            zenodrive.geometry, "_shifted_eigensystem",
            lambda model, points, eigensystem, axis, step, *workspace: eigh_many(
                model.hamiltonian_many(points + step * np.eye(model.nparams)[axis])),
        )
        diagonalized = zenodrive.geometry._energy_grad_hess(model, points)
        assert perturbative[0] == diagonalized[0]
        assert np.array_equal(perturbative[1], diagonalized[1])
        for a, b in zip(perturbative[2], diagonalized[2]):
            assert np.abs(a - b).max() <= 1e-6 * np.abs(b).max()

    def test_solve_matches_dense_on_scalar_blocks(self):
        # D = 1: a random symmetric positive definite tridiagonal system
        rng = np.random.default_rng(5)
        segs = 40
        blocks = (
            rng.uniform(1.5, 2.0, size=(segs, 1, 1)),
            rng.uniform(1.5, 2.0, size=(segs, 1, 1)),
            rng.uniform(-1.0, 1.0, size=(segs, 1, 1)),
        )
        assert np.all(np.linalg.eigvalsh(dense_hessian(blocks)) > 0)
        assert_solve_matches_dense(blocks, rng.normal(size=(segs - 1, 1)))

    @pytest.mark.parametrize("nparams", [1, 2, 3])
    @pytest.mark.parametrize("size", [1, 2, 3, 7, 255])
    def test_cyclic_reduction_matches_dense(self, nparams, size):
        # random symmetric positive definite block-tridiagonal systems, odd and
        # even sizes, one to eight reduction levels
        rng = np.random.default_rng(100 * nparams + size)
        blocks = spd_blocks(rng, size + 1, nparams)
        assert np.all(np.linalg.eigvalsh(dense_hessian(blocks)) > 0)
        assert_solve_matches_dense(blocks, rng.normal(size=(size, nparams)))

    @pytest.mark.parametrize("nparams", [1, 2, 3])
    @pytest.mark.parametrize("size", [1, 2, 3, 7, 255])
    def test_cyclic_reduction_returns_none_unless_positive_definite(self, nparams, size):
        # random symmetric (indefinite) block-tridiagonal systems, shifted to
        # put their smallest eigenvalue just above and just below zero
        rng = np.random.default_rng(100 * nparams + size)
        diagonal = rng.normal(size=(size, nparams, nparams))
        diagonal += np.swapaxes(diagonal, 1, 2)
        upper = rng.normal(size=(size - 1, nparams, nparams))
        eigenvalues = np.linalg.eigvalsh(dense_block_tridiagonal(diagonal, upper))
        rhs = rng.normal(size=(size, nparams))
        for margin in (1e-6, -1e-6):
            shift = margin * np.abs(eigenvalues).max() - eigenvalues[0]
            shifted = diagonal + shift * np.eye(nparams)
            positive = np.linalg.eigvalsh(dense_block_tridiagonal(shifted, upper))[0] > 0
            assert positive == (margin > 0)
            x = zenodrive.geometry._cyclic_reduction(shifted, upper, rhs)
            assert (x is not None) == positive

    def test_energy_grad_hess_from_line_search_eigensystem(self):
        # the mid-point eigensystems the line-search energy keeps give the same
        # bits as diagonalizing again, also across an EIGH_BLOCK boundary
        model = LipkinModel(4)
        segs = zenodrive.geometry.EIGH_BLOCK + 44
        rng = np.random.default_rng(3)
        points = perturbed_chord(np.array([0.2, 0.1]), np.array([1.8, 0.6]), segs, rng)
        energy, eigensystem = zenodrive.geometry._discrete_energy(model, points)
        reused = zenodrive.geometry._energy_grad_hess(model, points, eigensystem)
        fresh = zenodrive.geometry._energy_grad_hess(model, points)
        assert reused[0] == fresh[0] == energy
        assert np.array_equal(reused[1], fresh[1])
        for a, b in zip(reused[2], fresh[2]):
            assert np.array_equal(a, b)
        mids = 0.5 * (points[:-1] + points[1:])
        from_eigensystem = zenodrive.geometry._metric_impl(
            model, mids, with_gradient=True, eigensystem=eigensystem
        )
        for a, b in zip(from_eigensystem, metric_with_gradient_many(model, mids)):
            assert np.array_equal(a, b)

    def test_diagnostics_count_trials_and_solves(self, monkeypatch):
        energies, solves = [], []
        discrete_energy = zenodrive.geometry._discrete_energy
        solve_hessian = zenodrive.geometry._solve_hessian

        def counting_energy(*args):
            energies.append(1)
            return discrete_energy(*args)

        def counting_solve(*args):
            solves.append(1)
            return solve_hessian(*args)

        monkeypatch.setattr(zenodrive.geometry, "_discrete_energy", counting_energy)
        monkeypatch.setattr(zenodrive.geometry, "_solve_hessian", counting_solve)
        _, diag = geodesic(LipkinModel(4), START, END, 48, return_diagnostics=True)
        assert diag.trials == len(energies) >= diag.iterations > 0
        assert diag.solves == len(solves) >= diag.iterations

    def test_trial_on_a_level_crossing_is_rejected(self, monkeypatch):
        # a trial whose mid-points include a degenerate one counts as a trial of
        # infinite energy: the line search halves the step instead of raising
        discrete_energy = zenodrive.geometry._discrete_energy
        calls = []

        def degenerate_first(model, points, workspace=None):
            calls.append(1)
            if len(calls) == 1:
                raise DegenerateGroundStateError(0.0)
            return discrete_energy(model, points, workspace)

        monkeypatch.setattr(zenodrive.geometry, "_discrete_energy", degenerate_first)
        _, diag = geodesic(LipkinModel(4), START, END, 32, return_diagnostics=True)
        assert diag.residual < zenodrive.geometry.GEODESIC_GTOL
        assert diag.trials == len(calls) > diag.iterations

    @pytest.mark.parametrize("segs", [44, 48])
    def test_converges_where_the_energy_is_flat(self, lipkin10, segs):
        # at N=10, 48 segments the block Thomas sweep left every trial energy
        # near the minimum equal to the current one bit for bit while the
        # residual was still 1.1e-9
        _, diag = geodesic(lipkin10, START, END, segs, return_diagnostics=True)
        assert diag.residual < zenodrive.geometry.GEODESIC_GTOL

    def test_full_steps_at_once_where_the_energy_is_flat(self, monkeypatch):
        # after the first three trials every trial energy equals the current
        # one bit for bit, as near the minimum: once one resampled line search
        # fails, each full undamped step that lowers the residual is kept at
        # once, and they reach the same minimum (a whole 40-rung x 30-halving
        # search, resampled and not, used to come first: over 2 400 trials)
        model = LipkinModel(4)
        relaxed = geodesic(model, START, END, 16)
        discrete_energy = zenodrive.geometry._discrete_energy
        energy_grad_hess = zenodrive.geometry._energy_grad_hess
        current, calls = [], []

        def recording(model, points, eigensystem=None, workspace=None):
            state = energy_grad_hess(model, points, eigensystem, workspace)
            current.append(state[0])
            return state

        def flat_after_three(model, points, workspace=None):
            calls.append(1)
            energy, eigensystem = discrete_energy(model, points, workspace)
            return (energy if len(calls) <= 3 else current[-1]), eigensystem

        monkeypatch.setattr(zenodrive.geometry, "_energy_grad_hess", recording)
        monkeypatch.setattr(zenodrive.geometry, "_discrete_energy", flat_after_three)
        path, diag = geodesic(model, START, END, 16, return_diagnostics=True)
        assert diag.residual < zenodrive.geometry.GEODESIC_GTOL
        assert diag.trials == len(calls) <= 3 + 30 + diag.iterations
        assert np.abs(path - relaxed).max() <= 1e-9

    @pytest.mark.parametrize("model_size, segs", [(10, 12), (10, 16), (12, 28)])
    def test_certificate_rejects_aliased_paths(self, model_size, segs):
        # the relaxation converges to a minimum of the discrete energy, but its
        # segments hop over the small-gap region: the vertex chords are about
        # twice the mid-point quadrature (at N=10, 12 segments a polyline of
        # length 1.72 against a geodesic length of 1.48)
        with pytest.raises(GeodesicConvergenceError, match=rf"{segs} segments is aliased") as err:
            geodesic(LipkinModel(model_size), START, END, segs)
        assert err.value.residual < zenodrive.geometry.GEODESIC_GTOL
        gap = float(str(err.value).split("chords are ")[1].split("%")[0]) / 100
        assert 0.4 <= gap <= 0.6

    def test_stall_stops_at_the_iteration_cap(self):
        # N=6, 8 segments is the one pair of the N = 4..12 convergence sweep
        # that stalls until the cap; the slowest pair that converges takes 39
        # iterations, so 64 rejects the stall without failing any of them
        with pytest.raises(GeodesicConvergenceError, match="stalled") as err:
            geodesic(LipkinModel(6), START, END, 8)
        assert err.value.iterations == zenodrive.geometry.GEODESIC_MAX_ITERATIONS == 64

    def test_aliased_range_raises(self):
        # too few segments for the small-gap region: at N=12, 24 segments the
        # relaxation stalls on its way to an aliased path (gap 0.46)
        with pytest.raises(GeodesicConvergenceError):
            geodesic(LipkinModel(12), START, END, 24)

    @pytest.mark.parametrize("model_size, segs", [(6, 12), (8, 16)])
    def test_never_returns_a_saddle(self, model_size, segs):
        # both used to return saddles of the discrete energy, whose dense
        # interior Hessian had a negative eigenvalue
        model = LipkinModel(model_size)
        try:
            path = geodesic(model, START, END, segs)
        except GeodesicConvergenceError:
            return
        blocks = zenodrive.geometry._energy_grad_hess(model, path)[2]
        assert np.linalg.eigvalsh(dense_hessian(blocks))[0] > 0

    @pytest.mark.parametrize("model_size, segs, most", [(4, 48, 6), (6, 256, 7)])
    def test_iteration_count(self, model_size, segs, most):
        _, diag = geodesic(LipkinModel(model_size), START, END, segs, return_diagnostics=True)
        assert diag.iterations <= most

    def test_trial_count(self, lipkin10):
        # each line search starts from twice the last accepted step fraction
        # (27 trials when every search started at the full step)
        _, diag = geodesic(lipkin10, START, END, 256, return_diagnostics=True)
        assert diag.residual < zenodrive.geometry.GEODESIC_GTOL
        assert diag.trials <= 20

    def test_line_search_starts_at_twice_the_accepted_step(self, monkeypatch):
        # the first two trials are rejected, so the first step is taken at a
        # quarter; the next search starts at a half (resampling is replaced by
        # a copy, so every trial is points + scale * step)
        class Stop(Exception):
            pass

        discrete_energy = zenodrive.geometry._discrete_energy
        solve_hessian = zenodrive.geometry._solve_hessian
        trials, steps = [], []

        def recording_solve(blocks, damping, rhs):
            step = solve_hessian(blocks, damping, rhs)
            if step is not None:
                steps.append(step)
            return step

        def rejecting_two(model, points, workspace=None):
            trials.append(points.copy())
            if len(trials) == 4:   # the first trial of the second search
                raise Stop
            energy, eigensystem = discrete_energy(model, points, workspace)
            return (np.inf if len(trials) <= 2 else energy), eigensystem

        monkeypatch.setattr(zenodrive.geometry, "resample",
                            lambda points, table, count: points.copy())
        monkeypatch.setattr(zenodrive.geometry, "_solve_hessian", recording_solve)
        monkeypatch.setattr(zenodrive.geometry, "_discrete_energy", rejecting_two)
        start, end = np.array([0.2, 0.1]), np.array([1.8, 0.6])
        with pytest.raises(Stop):
            geodesic(LipkinModel(4), start, end, 16)
        chord = start + np.linspace(0.0, 1.0, 17)[:, None] * (end - start)
        scales = [line_search_scale(chord, steps[0], trial) for trial in trials[:3]]
        assert scales == pytest.approx([1.0, 0.5, 0.25], abs=1e-12)
        assert line_search_scale(trials[2], steps[1], trials[3]) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.filterwarnings("error")
    def test_certificate_passes_equal_end_points(self, lipkin10):
        path = geodesic(lipkin10, END, END, 8)
        assert np.array_equal(path, np.broadcast_to(END, path.shape))

    @pytest.mark.parametrize("model_size", [4, 10])
    @pytest.mark.parametrize("point", [(0.0, 0.0), (1.0, 0.5), (2.0, 0.5)])
    def test_equal_end_points_give_the_constant_path(self, model_size, point):
        # the constant path is returned before any relaxation: its vertex
        # chords used to sit at the sqrt(1 - |o|^2) rounding floor against a
        # quadrature of exactly 0, which the certificate read as aliasing
        model = LipkinModel(model_size)
        path, diag = geodesic(model, point, point, 16, return_diagnostics=True)
        assert np.array_equal(path, np.broadcast_to(point, (17, 2)))
        assert (diag.iterations, diag.residual, diag.trials, diag.solves) == (0, 0.0, 0, 0)
        trajectory = build_trajectory(model, "geodesic", point, point, dense_steps=64,
                                      geodesic_steps=16)
        assert trajectory.length == 0.0
        assert np.array_equal(trajectory.points, np.broadcast_to(point, (65, 2)))

    @pytest.mark.parametrize("steps", [2.5, 48.0, True, "48"])
    def test_rejects_non_integer_steps(self, lipkin10, steps):
        with pytest.raises(ValueError, match="steps"):
            geodesic(lipkin10, START, END, steps)
        with pytest.raises(ValueError, match="steps"):
            build_trajectory(lipkin10, "geodesic", START, END, geodesic_steps=steps)

    def test_undamped_step_that_does_not_lower_the_residual_raises(self, monkeypatch):
        # a zero step never lowers the residual; its resampled trial can lower
        # the energy once by rounding, so the error may come at iteration 1
        monkeypatch.setattr(zenodrive.geometry, "_solve_hessian",
                            lambda blocks, damping, rhs: np.zeros_like(rhs))
        with pytest.raises(GeodesicConvergenceError) as err:
            geodesic(LipkinModel(4), START, END, 16)
        assert err.value.iterations <= 1 and err.value.residual > 0

    @pytest.mark.parametrize("pivot", [np.zeros((2, 2)), np.diag([1.0, -1.0])],
                             ids=["zero", "indefinite"])
    def test_singular_or_indefinite_pivot_gives_none(self, pivot):
        rng = np.random.default_rng(7)
        h_low, h_high, h_cross = spd_blocks(rng, 8, 2)
        rhs = np.ones((7, 2))
        assert zenodrive.geometry._solve_hessian((h_low, h_high, h_cross), 0.0, rhs) is not None
        h_low[3] = pivot - h_high[2]   # the diagonal block of path point 3 is the pivot
        h_cross[2] = 0.0               # and nothing is eliminated into it
        assert zenodrive.geometry._solve_hessian((h_low, h_high, h_cross), 0.0, rhs) is None

    def test_failed_solve_retries_with_damping(self, monkeypatch):
        # a solve that finds H indefinite (None) is retried with more damping
        solve = zenodrive.geometry._solve_hessian
        dampings = []

        def failing_once(blocks, damping, rhs):
            dampings.append(damping)
            return None if len(dampings) == 1 else solve(blocks, damping, rhs)

        monkeypatch.setattr(zenodrive.geometry, "_solve_hessian", failing_once)
        _, diag = geodesic(LipkinModel(4), START, END, 32, return_diagnostics=True)
        assert diag.residual < zenodrive.geometry.GEODESIC_GTOL
        assert dampings[0] == 0.0 and dampings[1] > 0.0

    def test_solve_that_never_succeeds_raises(self, monkeypatch):
        # as from a non-finite Hessian: the damping overflows, and the ladder
        # ends with an error instead of looping
        dampings = []

        def never(blocks, damping, rhs):
            dampings.append(damping)

        monkeypatch.setattr(zenodrive.geometry, "_solve_hessian", never)
        with pytest.raises(GeodesicConvergenceError) as err:
            geodesic(LipkinModel(4), START, END, 16)
        assert err.value.iterations == 0 and dampings[-1] == np.inf

    def test_coding_error_in_solve_is_not_retried(self, monkeypatch):
        def broken(blocks, damping, rhs):
            raise TypeError("not a failed solve")

        monkeypatch.setattr(zenodrive.geometry, "_solve_hessian", broken)
        with pytest.raises(TypeError, match="not a failed solve"):
            geodesic(LipkinModel(4), START, END, 32)


def poisoned_takes(workspace):
    """Fill every buffer ``workspace`` holds with NaN, so a stale read shows."""
    for buffer in workspace.buffers.values():
        buffer[...] = True if buffer.dtype == bool else np.nan


class TestGeodesicWorkspace:
    """One ``_MetricWorkspace`` per geodesic solve: the same bits as fresh buffers."""

    @staticmethod
    def path(segs, seed=3):
        rng = np.random.default_rng(seed)
        return perturbed_chord(np.array([0.2, 0.1]), np.array([1.8, 0.6]), segs, rng)

    @staticmethod
    def assert_same_state(a, b):
        assert a[0] == b[0]
        assert np.array_equal(a[1], b[1])
        for x, y in zip(a[2], b[2]):
            assert np.array_equal(x, y)

    @pytest.mark.parametrize("model", [LipkinModel(10), ComplexLipkin(4)],
                             ids=["lipkin10", "complex-lipkin4"])
    def test_workspace_gives_the_allocating_bits(self, model, monkeypatch):
        # one workspace through a line-search energy and a Newton iterate,
        # across an EIGH_BLOCK boundary, against a fresh array at every take
        workspace = zenodrive.geometry._MetricWorkspace()
        points = self.path(zenodrive.geometry.EIGH_BLOCK + 44)
        energy, eigensystem = zenodrive.geometry._discrete_energy(model, points, workspace)
        shared = zenodrive.geometry._energy_grad_hess(model, points, eigensystem, workspace)
        assert workspace.buffers   # the kernels did use it
        monkeypatch.setattr(zenodrive.geometry._MetricWorkspace, "take",
                            lambda self, name, shape, dtype=float: np.empty(shape, dtype))
        assert zenodrive.geometry._discrete_energy(model, points)[0] == energy
        self.assert_same_state(
            shared, zenodrive.geometry._energy_grad_hess(model, points, eigensystem))

    @pytest.mark.parametrize("model", [LipkinModel(4), ComplexLipkin(4)],
                             ids=["lipkin4", "complex-lipkin4"])
    def test_reuse_after_a_larger_count_reads_no_stale_entries(self, model, monkeypatch):
        # a workspace filled by 48 segments, then poisoned, serves 16 and 48
        # segments with the bits of a stand-alone call
        monkeypatch.setattr(zenodrive.geometry, "EIGH_BLOCK", 40)   # a short second block
        workspace = zenodrive.geometry._MetricWorkspace()
        for segs in (48, 16, 48):
            points = self.path(segs, seed=segs)
            shared = zenodrive.geometry._energy_grad_hess(model, points, None, workspace)
            self.assert_same_state(shared, zenodrive.geometry._energy_grad_hess(model, points))
            alias = zenodrive.geometry._alias_gap(model, points, None, workspace)
            assert alias == zenodrive.geometry._alias_gap(model, points, None)
            poisoned_takes(workspace)

    def test_mid_products_formed_once_per_axis(self, monkeypatch):
        # B^c and T^c at the mids serve both the metric gradient and the
        # probes: one derivative_many per axis and one _mixing (of all axes) there
        model = LipkinModel(4)
        points = self.path(16)
        mids = 0.5 * (points[:-1] + points[1:])
        eigensystem = eigh_many(model.hamiltonian_many(mids))
        derivatives, mixed = [], []
        derivative, mixing = model.derivative_many, zenodrive.geometry._mixing

        def recording_derivative(points, axis):
            derivatives.append((np.array(points), axis))
            return derivative(points, axis)

        def recording_mixing(energies, bmats, *args):
            mixed.append((np.array(energies), len(bmats)))
            return mixing(energies, bmats, *args)

        monkeypatch.setattr(model, "derivative_many", recording_derivative)
        monkeypatch.setattr(zenodrive.geometry, "_mixing", recording_mixing)
        zenodrive.geometry._energy_grad_hess(model, points, eigensystem)
        at_mids = sorted(axis for p, axis in derivatives if np.array_equal(p, mids))
        assert at_mids == list(range(model.nparams))
        assert len(derivatives) == model.nparams * (1 + model.nparams)   # mids, then each probe
        assert [count for energies, count in mixed
                if np.array_equal(energies, eigensystem[0])] == [model.nparams]
        assert len(mixed) == 1 + model.nparams

    def test_one_workspace_per_solve(self, monkeypatch):
        made = []

        class Counting(zenodrive.geometry._MetricWorkspace):
            def __init__(self):
                made.append(self)
                super().__init__()

        monkeypatch.setattr(zenodrive.geometry, "_MetricWorkspace", Counting)
        _, diag = geodesic(LipkinModel(4), START, END, 48, return_diagnostics=True)
        assert diag.iterations > 0 and diag.trials > 0
        assert len(made) == 1


def perturbed_chord(start, end, segs, rng, axes=(0, 1)):
    """The straight chord of ``segs`` segments, interior points moved by up to 0.02 along ``axes``."""
    points = start + np.linspace(0.0, 1.0, segs + 1)[:, None] * (end - start)
    points[1:-1, axes] += 0.02 * rng.uniform(-1.0, 1.0, size=(segs - 1, len(axes)))
    return points


def line_search_scale(points, step, trial):
    """The s with trial = points + s * step at the interior points, checked to hold."""
    moved = trial[1:-1] - points[1:-1]
    scale = float(np.vdot(moved, step) / np.vdot(step, step))
    assert np.abs(moved - scale * step).max() <= 1e-12 * np.abs(step).max()
    return scale


def probe_eigensystem_error(model, points, axis, step):
    """Largest energy and projector errors of ``_shifted_eigensystem`` against
    ``np.linalg.eigh`` at points + step e_axis."""
    eigensystem = eigh_many(model.hamiltonian_many(points))
    energies, states = zenodrive.geometry._shifted_eigensystem(
        model, points, eigensystem, axis, step)
    shifted = points + step * np.eye(model.nparams)[axis]
    ref_energies, ref_states = np.linalg.eigh(model.hamiltonian_many(shifted))

    def projectors(v):
        return np.einsum("pai,pbi->piab", v, np.conj(v))

    return (np.abs(energies - ref_energies).max(),
            np.abs(projectors(states) - projectors(ref_states)).max())


def hessian_gradient_gap(model, points, v, eps=1e-5):
    """Max gap between the Hessian applied to the interior step v and a central
    difference of the analytic energy gradient along v, relative to the difference."""
    hess = dense_hessian(zenodrive.geometry._energy_grad_hess(model, points)[2])
    shifted = [points.copy(), points.copy()]
    shifted[0][1:-1] += eps * v
    shifted[1][1:-1] -= eps * v
    grads = [zenodrive.geometry._energy_grad_hess(model, p)[1][1:-1] for p in shifted]
    difference = ((grads[0] - grads[1]) / (2 * eps)).ravel()
    return np.abs(hess @ v.ravel() - difference).max() / np.abs(difference).max()


def dense_hessian(blocks, damping=0.0):
    """Dense interior Hessian of the path energy from its (h_low, h_high, h_cross) blocks."""
    h_low, h_high, h_cross = blocks
    diagonal = h_high[:-1] + h_low[1:] + damping * np.eye(h_low.shape[1])
    return dense_block_tridiagonal(diagonal, h_cross[1:-1])


def dense_block_tridiagonal(diagonal, upper):
    """Dense symmetric matrix of (n, D, D) ``diagonal`` blocks and (n - 1, D, D) ``upper`` ones."""
    size, nparams = diagonal.shape[:2]
    dense = np.zeros((size * nparams,) * 2)
    for k in range(size):
        here = slice(k * nparams, (k + 1) * nparams)
        dense[here, here] = diagonal[k]
        if k < size - 1:
            after = slice((k + 1) * nparams, (k + 2) * nparams)
            dense[here, after] = upper[k]
            dense[after, here] = upper[k].T
    return dense


def spd_blocks(rng, segs, nparams):
    """Random (h_low, h_high, h_cross) blocks of a symmetric positive definite Hessian."""

    def spd(count):
        a = rng.normal(size=(count, nparams, nparams))
        return a @ np.swapaxes(a, 1, 2) + 2 * nparams * np.eye(nparams)

    return spd(segs), spd(segs), rng.normal(size=(segs, nparams, nparams))


def assert_solve_matches_dense(blocks, rhs):
    for damping in (0.0, 1e-3):
        step = zenodrive.geometry._solve_hessian(blocks, damping, rhs)
        reference = np.linalg.solve(dense_hessian(blocks, damping), rhs.ravel())
        assert np.abs(step.ravel() - reference).max() <= 1e-12 * np.abs(reference).max()


def shoot_geodesic(model, start, velocity):
    """DOP853 solution of the geodesic equation x'' = -g^-1 Gamma(x', x') over s in [0, 1].

    An oracle independent of the relaxation: the Christoffel symbols of the
    first kind, Gamma_abc = (d_b g_ac + d_c g_ab - d_a g_bc) / 2, come from
    the analytic ``metric_with_gradient_many``.  The metric is read at chi
    clamped to 0, since a start on the chi = 0 edge may step just below it.
    """
    from scipy.integrate import solve_ivp

    def rhs(_, state):
        x, v = state[:2], state[2:]
        g, dg = metric_with_gradient_many(model, np.array([x[0], max(x[1], 0.0)]))
        gamma = np.einsum("bac,b,c->a", dg, v, v) - 0.5 * np.einsum("abc,b,c->a", dg, v, v)
        return np.concatenate([v, -np.linalg.solve(g, gamma)])

    state = np.concatenate([start, velocity])
    return solve_ivp(rhs, (0.0, 1.0), state, method="DOP853", rtol=1e-12, atol=1e-12,
                     dense_output=True)


def test_relaxed_geodesic_converges_to_shot_geodesic():
    # N=4, default end points: the shot closes to ~2e-12 with its metric speed
    # constant to ~6e-12 and l_geo = 0.91931169; refined relaxed polylines of
    # 64, 128 and 256 segments exceed it by 1.5e-6, 3.8e-7 and 9.8e-8
    from scipy.optimize import root

    model = LipkinModel(4)
    seed = geodesic(model, START, END, 64)
    # one-sided second-order difference of the relaxed path, within 6e-4 of x'(0)
    guess = 32 * (4 * seed[1] - 3 * seed[0] - seed[2])
    aim = root(lambda v: shoot_geodesic(model, START, v).y[:2, -1] - END, guess, tol=1e-10)
    shot = shoot_geodesic(model, START, aim.x)
    assert np.abs(shot.y[:2, -1] - END).max() <= 1e-10

    states = shot.sol(np.linspace(0.0, 1.0, 201)).T
    points = np.column_stack([states[:, 0], np.maximum(states[:, 1], 0.0)])
    speed = np.sqrt(np.einsum("kab,ka,kb->k", metric_many(model, points),
                              states[:, 2:], states[:, 2:]))
    ell_geo = speed.mean()
    assert np.ptp(speed) <= 1e-8 * ell_geo

    excess = np.array([
        build_trajectory(model, "geodesic", START, END, geodesic_steps=segments).length - ell_geo
        for segments in (64, 128, 256)
    ])
    assert np.all(excess >= 0), excess
    # the polyline's length error is second order in the segment length
    ratios = excess[:-1] / excess[1:]
    assert np.all((3 <= ratios) & (ratios <= 5)), ratios


def single_batch_lengths(model, points):
    """Step lengths from one eigendecomposition of the whole table."""
    return ground_step_lengths(eigh_many(model.hamiltonian_many(points))[1])


class TestStreamedLengths:
    BLOCK = 7

    @pytest.fixture
    def batch_sizes(self, monkeypatch):
        """Block size 7; records how many matrices each ``eigh_many`` call gets."""
        sizes = []

        def counting(matrices):
            sizes.append(len(matrices))
            return eigh_many(matrices)

        monkeypatch.setattr(zenodrive.geometry, "EIGH_BLOCK", self.BLOCK)
        monkeypatch.setattr(zenodrive.geometry, "eigh_many", counting)
        return sizes

    @pytest.mark.parametrize("count", [1, 2, 7, 8, 9, 15, 16, 100])
    def test_matches_single_batch_across_block_boundaries(self, count, batch_sizes):
        model = LipkinModel(4)
        points = START + np.linspace(0, 1, count)[:, None] * (END - START)
        got = step_lengths_along(model, points)
        assert np.array_equal(got, single_batch_lengths(model, points))
        assert sum(batch_sizes) == count
        assert max(batch_sizes) <= self.BLOCK + 1

    def test_one_warning_with_global_min_spacing(self, batch_sizes):
        model = NearDegenerateModel(coupling=0.0)
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
            got = step_lengths_along(model, points)
        assert len(batch_sizes) == 2
        assert [w.category for w in caught] == [DegeneracyWarning]
        assert str(caught[0].message) == str(expected[0].message)
        assert np.array_equal(got, single_batch_lengths(model, points))

    def test_dense_table_memory_is_bounded(self):
        # the whole 20 001-point N=10 stack is about 19 MB per temporary
        chord = START + np.linspace(0, 1, 20001)[:, None] * (END - START)
        model = LipkinModel(10)
        peak = traced_peak(lambda: cumulative_lengths(model, chord))
        assert peak <= 24e6

    def test_long_table_holds_one_block_beyond_itself(self):
        # 100 001 N=10 points: the table is 0.8 MB; 10.85 MB traced when each
        # block's spectrum stayed pinned for the warning and the table was
        # concatenated, summed and concatenated again, 2.0 MB in one array
        chord = START + np.linspace(0, 1, 100001)[:, None] * (END - START)
        model = LipkinModel(10)
        assert traced_peak(lambda: cumulative_lengths(model, chord)) <= 3e6

    @pytest.mark.parametrize("count", [0, 1, 2, 8, 100])
    def test_table_is_the_running_sum_of_the_step_lengths(self, count, batch_sizes):
        model = LipkinModel(4)
        points = START + np.linspace(0, 1, count)[:, None] * (END - START)
        expected = np.concatenate([[0.0], np.cumsum(step_lengths_along(model, points))])
        assert np.array_equal(cumulative_lengths(model, points), expected)


class TestStreamedMetric:
    BLOCK = 7

    @staticmethod
    def probes(count):
        rng = np.random.default_rng(count)
        return rng.uniform([0.2, 0.05], [2.5, 0.8], size=(count, 2))

    @pytest.mark.parametrize("count", [1, 2, 7, 8, 9, 15, 100])
    def test_matches_single_batch_across_block_boundaries(self, count, monkeypatch):
        model = LipkinModel(4)
        points = self.probes(count)
        monkeypatch.setattr(zenodrive.geometry, "EIGH_BLOCK", count)
        whole_g, whole_dg = metric_with_gradient_many(model, points)
        whole_gap = metric_many(model, points, with_gap=True)[1]
        monkeypatch.setattr(zenodrive.geometry, "EIGH_BLOCK", self.BLOCK)
        g, dg = metric_with_gradient_many(model, points)
        assert np.array_equal(g, whole_g)
        assert np.array_equal(dg, whole_dg)
        assert np.array_equal(metric_many(model, points), whole_g)
        assert np.array_equal(metric_many(model, points, with_gap=True)[1], whole_gap)

    def test_batch_shape_kept_across_blocks(self, monkeypatch):
        model = LipkinModel(4)
        points = self.probes(15)
        flat_g, flat_dg = metric_with_gradient_many(model, points)
        monkeypatch.setattr(zenodrive.geometry, "EIGH_BLOCK", self.BLOCK)
        g, dg = metric_with_gradient_many(model, points.reshape(3, 5, 2))
        assert g.shape == (3, 5, 2, 2) and dg.shape == (3, 5, 2, 2, 2)
        assert np.array_equal(g.reshape(flat_g.shape), flat_g)
        assert np.array_equal(dg.reshape(flat_dg.shape), flat_dg)

    def test_one_cap_warning_at_callers_level(self, monkeypatch):
        monkeypatch.setattr(zenodrive.geometry, "EIGH_BLOCK", self.BLOCK)
        model = NearDegenerateModel(coupling=1e-8)
        points = np.zeros((2 * self.BLOCK, 1))   # every point of both blocks clips
        for call in (metric_many, metric_with_gradient_many):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                call(model, points)
            assert len(caught) == 1
            assert "cap" in str(caught[0].message)
            assert caught[0].filename == __file__

    def test_degenerate_point_in_a_later_block(self, monkeypatch):
        monkeypatch.setattr(zenodrive.geometry, "EIGH_BLOCK", self.BLOCK)
        points = np.linspace(1.0, 2.0, 2 * self.BLOCK)[:, None]
        points[self.BLOCK + 3] = 0.0
        with pytest.raises(DegenerateGroundStateError) as err:
            metric_with_gradient_many(NearDegenerateModel(coupling=0.0), points)
        assert err.value.gap <= 1e-12

    def test_zero_points_give_empty_arrays(self):
        model = LipkinModel(4)
        empty = np.zeros((0, 2))
        g, gap = metric_many(model, empty, with_gap=True)
        assert g.shape == (0, 2, 2) and gap.shape == (0,)
        assert metric_many(model, empty).shape == (0, 2, 2)
        g, dg = metric_with_gradient_many(model, empty)
        assert g.shape == (0, 2, 2) and dg.shape == (0, 2, 2, 2)

    def test_probe_batch_memory_is_bounded(self):
        # the geodesic's probe batch at N=10: about 18 MB traced in one batch
        model = LipkinModel(10)
        points = self.probes(1280)
        peak = traced_peak(lambda: metric_with_gradient_many(model, points))
        assert peak <= 8e6


def diff_interpolate_at(points, cumlen, targets):
    """Reference interpolation that reads its segment lengths from the whole ``np.diff`` table."""
    seg = np.diff(cumlen)
    idx = np.clip(np.searchsorted(cumlen, targets, side="right") - 1, 0, len(seg) - 1)
    frac = (targets - cumlen[idx]) / np.where(seg[idx] > 0, seg[idx], 1.0)
    return points[idx] + frac[..., None] * (points[idx + 1] - points[idx])


class TestInterpolateAt:
    def test_matches_diff_table_bit_for_bit(self):
        rng = np.random.default_rng(7)
        points = rng.normal(size=(40, 2))
        seg = rng.uniform(0.0, 1.0, size=39)
        seg[[0, 5, 6, 20, 38]] = 0.0   # zero-length segments, at both ends too
        cumlen = np.concatenate([[0.0], np.cumsum(seg)])
        targets = np.concatenate([
            [0.0, cumlen[-1], -1.0, cumlen[-1] + 1.0],   # both ends and beyond them
            cumlen,                                       # every knot, repeated ones too
            rng.uniform(0.0, cumlen[-1], size=200),
        ])
        for shaped in (targets, targets.reshape(4, -1)):
            got = interpolate_at(points, cumlen, shaped)
            assert np.array_equal(got, diff_interpolate_at(points, cumlen, shaped))

    def test_few_targets_read_few_segments(self):
        # np.diff of a 100 001-entry table is a 0.8 MB temporary
        cumlen = np.linspace(0.0, 1.0, 100001)
        points = np.column_stack([cumlen, cumlen**2])
        targets = np.linspace(0.0, 1.0, 11)
        peak = traced_peak(lambda: interpolate_at(points, cumlen, targets))
        assert peak <= 0.1e6


class TestReparameterize:
    """Equal-length steps along a chord, through ``Trajectory.discretize``."""

    def test_modes_coincide_on_flat_model(self):
        model = FlatModel()
        a, b = np.array([0.0, 0.0]), np.array([1.0, 0.5])
        pv = build_trajectory(model, "linear-v", a, b, dense_steps=500).discretize(20)
        pu = build_trajectory(model, "linear-u", a, b, dense_steps=500).discretize(20)
        assert np.abs(pv - pu).max() <= 1e-9

    def test_two_level_uniform(self, two_level):
        trajectory = build_trajectory(two_level, "linear-v", [0.0], [np.pi], dense_steps=800)
        out = trajectory.discretize(16)
        assert np.abs(out - np.linspace(0, np.pi, 17)[:, None]).max() <= 1e-8

    def test_constant_speed_spread(self, lipkin10):
        out = build_trajectory(lipkin10, "linear-v", START, END, dense_steps=4000).discretize(100)
        dl = step_lengths_along(lipkin10, out)
        assert (dl.max() - dl.min()) / dl.mean() <= 0.01

    def test_euclidean_spacing_exact(self, lipkin10):
        out = build_trajectory(lipkin10, "linear-u", START, END, dense_steps=2000).discretize(50)
        steps = np.linalg.norm(np.diff(out, axis=0), axis=1)
        assert steps.max() - steps.min() <= 1e-10

    def test_points_concentrate_in_small_gap_region(self, lipkin10):
        out = build_trajectory(lipkin10, "linear-v", START, END, dense_steps=4000).discretize(100)
        euclid = np.linalg.norm(np.diff(out, axis=0), axis=1)
        lam_at_min = out[np.argmin(euclid), 0]
        # the plane speed collapses where the gap is smallest (lam ~ 1.2 at N=10)
        assert 0.8 <= lam_at_min <= 1.6

    @pytest.mark.parametrize("family", ["linear-v", "linear-u"])
    def test_linear_table_ends_exactly_at_end(self, family):
        start, end = np.array([-0.7, 0.3]), np.array([1.1, 0.9])
        trajectory = build_trajectory(LipkinModel(4), family, start, end, dense_steps=100)
        assert np.array_equal(trajectory.points[[0, -1]], [start, end])
        assert np.array_equal(trajectory.discretize(10)[-1], end)
        assert np.array_equal(trajectory.position_at(np.array([1.0]))[0], end)

    def test_rejects_coarse_input(self, lipkin10):
        trajectory = build_trajectory(lipkin10, "linear-v", START, END, dense_steps=99)
        with pytest.raises(ValueError, match="too coarse"):
            trajectory.discretize(50)

    @pytest.mark.parametrize("steps", [2.5, 20.0, True, "20", 0])
    def test_discretize_rejects_non_integer_steps(self, lipkin10, steps):
        # 2.5 raised a TypeError from numpy and True gave a one-step path
        trajectory = build_trajectory(lipkin10, "linear-v", START, END, dense_steps=400)
        with pytest.raises(ValueError, match="steps must be >= 1 and an integer"):
            trajectory.discretize(steps)

    def test_rejects_unknown_mode(self, lipkin10):
        with pytest.raises(ValueError, match="unknown path family"):
            build_trajectory(lipkin10, "smooth", START, END, dense_steps=500)

    @pytest.mark.parametrize("family", ["geodesic", "linear-v", "linear-u"])
    @pytest.mark.parametrize("dense_steps", [0, -5])
    def test_rejects_dense_steps_below_one(self, lipkin10, family, dense_steps):
        # without the check linear-v built a 0-segment table, -5 failed inside
        # numpy, and the geodesic family ignored both
        with pytest.raises(ValueError, match="dense_steps must be >= 1"):
            build_trajectory(lipkin10, family, START, END, dense_steps=dense_steps)

    @pytest.mark.parametrize("family", ["geodesic", "linear-v", "linear-u"])
    @pytest.mark.parametrize("dense_steps", [2.5, 400.0, True, "400"])
    def test_rejects_non_integer_dense_steps(self, lipkin10, family, dense_steps):
        # 2.5 raised a TypeError from np.linspace on the linear families, and
        # the geodesic family took it (and True) as a count
        with pytest.raises(ValueError, match="dense_steps"):
            build_trajectory(lipkin10, family, START, END, dense_steps=dense_steps)

    @pytest.mark.parametrize("factor", [2.5, 2.0, True])
    def test_refine_rejects_non_integer_factor(self, factor):
        with pytest.raises(ValueError, match="factor"):
            refine(np.array([START, END]), factor)

    def test_refinement_consistency_flat_model(self):
        model = FlatModel()
        a, b = np.array([0.0, 0.1]), np.array([1.2, 0.7])
        trajectory = build_trajectory(model, "linear-v", a, b, dense_steps=3200)
        coarse, fine = trajectory.discretize(10), trajectory.discretize(20)
        assert np.abs(coarse - fine[::2]).max() <= 1e-6

    def test_refine_keeps_curve(self, lipkin10):
        pts = START + np.linspace(0, 1, 11)[:, None] * (END - START)
        dense = refine(pts, 10)
        assert dense.shape == (101, 2)
        assert np.abs(dense[::10] - pts).max() <= 1e-15

    @pytest.mark.parametrize("family", ["geodesic", "linear-v", "linear-u"])
    def test_trajectory_tables(self, family):
        model = LipkinModel(4)
        trajectory = build_trajectory(model, family, START, END, dense_steps=64, geodesic_steps=8)
        assert np.array_equal(
            trajectory.metric_cumlen, cumulative_lengths(model, trajectory.points)
        )
        if family == "linear-u":
            assert np.array_equal(trajectory.law_cumlen, cumulative_euclidean(trajectory.points))
        else:   # a constant-manifold-speed law runs along the metric table itself
            assert trajectory.law_cumlen is trajectory.metric_cumlen

    @pytest.mark.parametrize("fractions", [[np.nan, 0.5], [0.5, np.inf], -np.inf])
    def test_position_at_rejects_non_finite_fractions(self, fractions):
        trajectory = build_trajectory(LipkinModel(4), "linear-v", START, END, dense_steps=64)
        with pytest.raises(ValueError, match="finite"):
            trajectory.position_at(fractions)
        assert np.array_equal(trajectory.position_at([-1.0, 2.0]), trajectory.points[[0, -1]])

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
