import numpy as np
import pytest

from zenodrive.models import (
    KAPPA,
    SIGMA_X,
    SIGMA_Z,
    LipkinModel,
    TwoLevelModel,
    brute_force_lipkin,
    collective_spin_ops,
    dicke_states,
    _site_operator,
)
from zenodrive.spectral import eigh_many

GRID = [(0.0, 0.0), (2.0, 0.5), (1.0, 0.3), (3.0, 1.0), (0.5, 0.8), (-1.0, 0.2)]


def test_collective_ops_commutator():
    jx, jz = collective_spin_ops(6)
    # [Jz, Jx] = i Jy and [Jx, [Jx, Jz]] = -Jz closure imply the quadratic Casimir;
    # check the basic su(2) relation via Jy = -i [Jz, Jx]
    jy = -1j * (jz @ jx - jx @ jz)
    comm = jx @ jy - jy @ jx
    assert np.abs(comm - 1j * jz).max() <= 1e-12


def test_quasispin_identities_against_tensor_products():
    # the pair-sum identities used to assemble the reduced Hamiltonian,
    # evaluated inside the symmetric sector of the full 2^N space
    n = 4
    jx, jz = collective_spin_ops(n)
    eye = np.eye(n + 1)
    basis = dicke_states(n)
    sx = [_site_operator(SIGMA_X, i, n) for i in range(n)]
    kp = [_site_operator(KAPPA, i, n) for i in range(n)]

    def project(op):
        return basis.T @ op @ basis

    sum_xx = sum(sx[i] @ sx[j] for i in range(n) for j in range(n) if i != j)
    assert np.abs(project(sum_xx) - (4 * jx @ jx - n * eye)).max() <= 1e-12

    q = jz + (n / 2) * eye
    sum_k = sum(kp)
    assert np.abs(project(sum_k) - q).max() <= 1e-12

    sum_kk = sum(kp[i] @ kp[j] for i in range(n) for j in range(n) if i != j)
    assert np.abs(project(sum_kk) - (q @ q - q)).max() <= 1e-12

    sum_xk = sum(
        sx[i] @ kp[j] + kp[i] @ sx[j] for i in range(n) for j in range(n) if i != j
    )
    assert np.abs(project(sum_xk) - (2 * (jx @ q + q @ jx) - 2 * jx)).max() <= 1e-12


def test_free_point_is_jz():
    model = LipkinModel(10)
    h = model.hamiltonian_many(np.array([0.0, 0.0]))
    assert np.abs(h - np.diag(np.arange(-5, 6, dtype=float))).max() <= 1e-14
    energies, states = eigh_many(h)
    assert np.allclose(energies, np.arange(-5, 6))
    assert energies[0] == pytest.approx(-5.0)
    assert np.abs(np.abs(states[:, 0]) - np.eye(11)[:, 0]).max() <= 1e-14


def test_brute_force_two_qubits_free():
    evals = np.linalg.eigvalsh(brute_force_lipkin(2, np.array([0.0, 0.0])))
    assert np.allclose(evals, [-1.0, 0.0, 0.0, 1.0])


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_spectrum_containment(n):
    model = LipkinModel(n)
    for lam, chi in [(g[0], g[1]) for g in GRID]:
        point = np.array([lam, chi])
        reduced = np.linalg.eigvalsh(model.hamiltonian_many(point))
        full = np.linalg.eigvalsh(brute_force_lipkin(n, point))
        for e in reduced:
            assert np.min(np.abs(full - e)) <= 1e-10


def test_symmetric_sector_match():
    n = 4
    point = np.array([2.0, 0.5])
    basis = dicke_states(n)
    projected = basis.T @ brute_force_lipkin(n, point) @ basis
    reduced = LipkinModel(n).hamiltonian_many(point)
    e1 = np.linalg.eigvalsh(projected)
    e2 = np.linalg.eigvalsh(reduced)
    assert np.abs(e1 - e2).max() <= 1e-10
    # the projected matrix itself matches entrywise in the shared basis
    assert np.abs(projected - reduced).max() <= 1e-10


def test_random_point_containment_small_n():
    rng = np.random.default_rng(123)
    for _ in range(3):
        point = np.array([rng.uniform(-1, 3), rng.uniform(0, 1.2)])
        reduced = np.linalg.eigvalsh(LipkinModel(3).hamiltonian_many(point))
        full = np.linalg.eigvalsh(brute_force_lipkin(3, point))
        for e in reduced:
            assert np.min(np.abs(full - e)) <= 1e-10


def test_real_symmetric():
    # exactly symmetric, bit for bit, over batched points: eigh_many reads
    # only the lower triangle
    rng = np.random.default_rng(11)
    lipkin_points = np.concatenate([GRID, rng.uniform([-3.0, 0.0], [3.0, 2.0], size=(64, 2))])
    for model, points in [
        (LipkinModel(7), lipkin_points),
        (LipkinModel(10), lipkin_points),
        (TwoLevelModel(), rng.uniform(-4.0, 4.0, size=(70, 1))),
    ]:
        h = model.hamiltonian_many(points.reshape(10, 7, model.nparams))
        assert np.isrealobj(h)
        assert np.array_equal(h, np.swapaxes(h, -1, -2))


@pytest.mark.parametrize("n_qubits", [2.5, True, "4", 0])
def test_rejects_non_integer_qubit_count(n_qubits):
    # 2.5 raised a TypeError from numpy, and True built a 1-qubit model
    with pytest.raises(ValueError, match="n_qubits must be >= 1 and an integer"):
        LipkinModel(n_qubits)


@pytest.mark.parametrize("n_qubits", [0, -1, 2.5, True])
@pytest.mark.parametrize("build", [collective_spin_ops, dicke_states])
def test_basis_builders_reject_bad_qubit_counts(build, n_qubits):
    # 0 gave 1x1 matrices, -1 gave 0x0 ones (dicke_states: a numpy TypeError)
    # and 2.5 a TypeError
    with pytest.raises(ValueError, match="n_qubits must be >= 1 and an integer"):
        build(n_qubits)


def test_rejects_negative_chi():
    model = LipkinModel(4)
    with pytest.raises(ValueError, match="halfplane"):
        model.hamiltonian_many(np.array([1.0, -0.1]))
    with pytest.raises(ValueError, match="halfplane"):
        brute_force_lipkin(4, np.array([1.0, -0.1]))


@pytest.mark.parametrize(
    "entry",
    [
        "hamiltonian_many",
        "run_stroboscopic",
        "metric",
        "build_trajectory",
        "two_level_run_stroboscopic",
        "brute_force_lipkin",
        "path_length",
        "refine",
        "excited_return",
    ],
)
def test_rejects_nan_points(entry):
    from zenodrive.geometry import metric_many, path_length, refine
    from zenodrive.protocol import excited_return, run_stroboscopic
    from zenodrive.trajectories import build_trajectory

    model = LipkinModel(4)
    point = np.array([np.nan, 0.2])
    calls = {
        "hamiltonian_many": lambda: model.hamiltonian_many(point[None]),
        "run_stroboscopic": lambda: run_stroboscopic(model, np.array([[0.0, 0.0], point])),
        "metric": lambda: metric_many(model, point),
        "build_trajectory": lambda: build_trajectory(
            model, "linear-v", np.zeros(2), point, dense_steps=100
        ),
        "two_level_run_stroboscopic": lambda: run_stroboscopic(
            TwoLevelModel(), np.array([[0.0], [np.nan]])
        ),
        "brute_force_lipkin": lambda: brute_force_lipkin(4, point),
        "path_length": lambda: path_length(model, point),
        "refine": lambda: refine(np.array([[0.0, 0.0], [1.0, np.nan]]), 2),
        "excited_return": lambda: excited_return(model, np.array([[0.0, 0.0], point])),
    }
    with pytest.raises(ValueError, match="finite"):
        calls[entry]()


@pytest.mark.parametrize(
    "entry, match",
    [
        ("geodesic_start_below_domain", "halfplane"),
        ("geodesic_end_below_domain", "halfplane"),
        ("geodesic_wide_endpoint", "width"),
        ("build_trajectory_geodesic", "halfplane"),
    ],
)
def test_geodesic_rejects_invalid_endpoints(entry, match):
    from zenodrive.geometry import geodesic
    from zenodrive.trajectories import build_trajectory

    model = LipkinModel(4)
    below = np.array([0.0, -0.5])
    end = np.array([2.0, 0.5])
    calls = {
        "geodesic_start_below_domain": lambda: geodesic(model, below, end, 16),
        "geodesic_end_below_domain": lambda: geodesic(model, np.zeros(2), -end, 16),
        "geodesic_wide_endpoint": lambda: geodesic(model, np.zeros(3), end, 16),
        "build_trajectory_geodesic": lambda: build_trajectory(
            model, "geodesic", below, end, dense_steps=100, geodesic_steps=16
        ),
    }
    with pytest.raises(ValueError, match=match):
        calls[entry]()


def test_brute_force_scale_guard():
    with pytest.raises(ValueError, match="N <= 8"):
        brute_force_lipkin(9, np.array([1.0, 0.5]))


def test_lambda_derivative_is_parameter_independent():
    model = LipkinModel(6)
    d1 = model.derivative_many(np.array([0.3, 0.2]), 0)
    d2 = model.derivative_many(np.array([2.5, 0.9]), 0)
    assert np.array_equal(d1, d2)


@pytest.mark.parametrize("axis", [0, 1])
def test_derivative_matches_central_difference(axis):
    model = LipkinModel(8)
    point = np.array([1.0, 0.3])
    analytic = model.derivative_many(point, axis)
    h = 1e-4
    step = np.zeros(2)
    step[axis] = h
    fd = (model.hamiltonian_many(point + step) - model.hamiltonian_many(point - step)) / (2 * h)
    assert np.abs(fd - analytic).max() <= 1e-7


def test_derivative_second_order_bound():
    # residual <= C h^2 for both probe steps; the matrix is polynomial in the
    # parameters (degree <= 2), so the central difference is exact up to roundoff
    model = LipkinModel(6)
    point = np.array([1.2, 0.4])
    for h in (1e-3, 1e-4):
        for axis in (0, 1):
            step = np.zeros(2)
            step[axis] = h
            fd = (model.hamiltonian_many(point + step) - model.hamiltonian_many(point - step)) / (2 * h)
            assert np.abs(fd - model.derivative_many(point, axis)).max() <= 1.0 * h**2


def test_two_level_derivative_second_order_convergence():
    # trigonometric parameter dependence makes the h^2 truncation observable
    model = TwoLevelModel()
    point = np.array([0.9])
    errs = []
    for h in (1e-2, 1e-3):
        fd = (model.hamiltonian_many(point + h) - model.hamiltonian_many(point - h)) / (2 * h)
        errs.append(np.abs(fd - model.derivative_many(point, 0)).max())
    assert errs[1] <= errs[0] / 30
    assert errs[0] <= 1.0 * 1e-2**2


def test_chi_derivative_off_diagonal_at_chi_zero():
    model = LipkinModel(10)
    d = model.derivative_many(np.array([1.0, 0.0]), 1)
    off = d - np.diag(np.diag(d))
    assert np.abs(off).max() > 1e-3
    # the collective one-body transverse piece -(1/N) Jx is part of it
    jx, _ = collective_spin_ops(10)
    h = 1e-5
    fd = (
        model.hamiltonian_many(np.array([1.0, h])) - model.hamiltonian_many(np.array([1.0, 0.0]))
    ) / h
    assert np.abs(fd - d).max() <= 1e-4


def test_second_derivative_exact():
    model = LipkinModel(5)
    point = np.array([0.7, 0.6])
    h = 1e-4
    step = np.array([0.0, h])
    fd = (model.derivative_many(point + step, 1) - model.derivative_many(point - step, 1)) / (2 * h)
    assert np.abs(fd - model.second_derivative_many(point, 1, 1)).max() <= 1e-9
    assert np.abs(model.second_derivative_many(point, 0, 0)).max() == 0.0
    assert np.abs(model.second_derivative_many(point, 0, 1)).max() == 0.0


def test_parity_symmetry_at_chi_zero():
    # with no transverse terms the Hamiltonian conserves the spin-flip parity
    # diag((-1)^(j - m)); eigenvectors carry definite parity
    for n, lam in ((4, 0.8), (6, 1.5)):
        model = LipkinModel(n)
        h = model.hamiltonian_many(np.array([lam, 0.0]))
        j = n / 2
        parity = np.diag([(-1.0) ** (j - m) for m in model.m_values])
        assert np.abs(h @ parity - parity @ h).max() <= 1e-12
        states = eigh_many(h)[1]
        cross = states.T @ parity @ states
        off = cross - np.diag(np.diag(cross))
        assert np.abs(off).max() <= 1e-10
        assert np.allclose(np.abs(np.diag(cross)), 1.0, atol=1e-10)


def test_parity_broken_at_positive_chi():
    model = LipkinModel(4)
    h = model.hamiltonian_many(np.array([0.8, 0.5]))
    parity = np.diag([(-1.0) ** (2 - m) for m in model.m_values])
    assert np.abs(h @ parity - parity @ h).max() > 1e-3


def test_n10_gap_regression_anchor():
    # small but positive gap at the far endpoint; value frozen from the
    # eigensolver output as a regression anchor
    energies = eigh_many(LipkinModel(10).hamiltonian_many(np.array([2.0, 0.5])))[0]
    gap = energies[1] - energies[0]
    assert gap > 0
    assert gap == pytest.approx(1.2998319990210732, rel=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 10, 16])
@pytest.mark.parametrize("shape", [(), (5,), (3, 4), (7,), (3, 5)])
def test_hamiltonian_is_the_plain_monomial_sum(n, shape):
    # the sum on the band keeps the order ((lam A_lam + a0) + chi A_chi) + chi^2 A_chi2
    # and leaves +0.0 off it, bit for bit the full four-term sum
    model = LipkinModel(n)
    rng = np.random.default_rng(n)
    points = np.stack([rng.uniform(-2.0, 3.0, shape), rng.uniform(0.0, 1.0, shape)], axis=-1)
    points.reshape(-1, 2)[0] = (-1.5, 0.0)   # chi = 0 at negative lam
    lam, chi = points[..., 0, None, None], points[..., 1, None, None]
    plain = lam * model._alam + model._a0 + chi * model._achi + chi**2 * model._achi2
    got = model.hamiltonian_many(points)
    assert got.shape == shape + (n + 1, n + 1)
    assert np.array_equal(got, plain)
    assert np.array_equal(np.signbit(got), np.signbit(plain))
    single = points.reshape(-1, 2)[-1]
    assert np.array_equal(model.hamiltonian_many(single), plain.reshape(-1, n + 1, n + 1)[-1])


def test_batch_evaluators_match_single():
    model = LipkinModel(6)
    pts = np.array([[0.5, 0.1], [1.5, 0.9], [2.5, 0.0]])
    batch = model.hamiltonian_many(pts)
    for k, p in enumerate(pts):
        assert np.abs(batch[k] - model.hamiltonian_many(p)).max() <= 1e-14
    for axis in (0, 1):
        dbatch = model.derivative_many(pts, axis)
        for k, p in enumerate(pts):
            assert np.abs(dbatch[k] - model.derivative_many(p, axis)).max() <= 1e-14


class TestTwoLevel:
    def test_ground_state_at_zero(self):
        model = TwoLevelModel()
        energies, states = eigh_many(model.hamiltonian_many(np.array([0.0])))
        assert energies[0] == pytest.approx(-0.5)
        assert np.abs(states[:, 0] - np.array([0.0, 1.0])).max() <= 1e-14

    def test_overlap_law(self):
        model = TwoLevelModel()
        rng = np.random.default_rng(3)
        for _ in range(5):
            a, b = rng.uniform(0, 2 * np.pi, 2)
            va = eigh_many(model.hamiltonian_many(np.array([a])))[1][:, 0]
            vb = eigh_many(model.hamiltonian_many(np.array([b])))[1][:, 0]
            assert abs(va @ vb) ** 2 == pytest.approx(np.cos((a - b) / 2) ** 2, abs=1e-12)

    def test_spectrum_constant(self):
        model = TwoLevelModel()
        for theta in np.linspace(0, 2 * np.pi, 9):
            evals = np.linalg.eigvalsh(model.hamiltonian_many(np.array([theta])))
            assert np.allclose(evals, [-0.5, 0.5], atol=1e-14)

    def test_exact_ground_state_helper(self):
        model = TwoLevelModel()
        for theta in (0.0, 0.7, 2.0):
            ground = eigh_many(model.hamiltonian_many(np.array([theta])))[1][:, 0]
            exact = model.ground_state_exact(theta)
            assert min(
                np.abs(ground - exact).max(),
                np.abs(ground + exact).max(),
            ) <= 1e-12

    def test_invalid_axis(self):
        with pytest.raises(ValueError):
            TwoLevelModel().derivative_many(np.array([0.0]), 1)
