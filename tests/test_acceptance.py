"""Acceptance suite: one test per release criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion lines
as they complete.  The heavyweight shared inputs (dense trajectories of the
three driving families, the coherent time sweep) are computed once per session.
"""
import functools

import numpy as np
import pytest
from lipkin_oracle import brute_force_lipkin

from zenodrive.coherent import integrate_schrodinger, minimal_steps
from zenodrive.geometry import interpolate_at, metric_many, step_lengths_along
from zenodrive.models import LipkinModel, TwoLevelModel
from zenodrive.protocol import infidelity_terms, run_stroboscopic, zeno_sweep
from zenodrive.spectator import evolve_gadget, reduced_density
from zenodrive.spectral import eigh_many

FAMILIES = ("geodesic", "linear-v", "linear-u")

ZENO_STEPS = sorted(set(np.geomspace(50, 5000, 13).astype(int)))
SLOPE_WINDOW = (500, 5000)


def _time_grid(lo, hi, early_per_decade=6, final_per_decade=16):
    """Log-spaced times, sampled densely over the final decade."""
    final_lo = hi / 10.0
    n_early = max(2, int(np.ceil(np.log10(final_lo / lo) * early_per_decade)))
    early = np.geomspace(lo, final_lo, n_early, endpoint=False)
    final = np.geomspace(final_lo, hi, final_per_decade + 1)
    return np.concatenate([early, final])


# the linear drives leave the exponential regime later than the geodesic one
# (later still at constant plane speed), so their windows extend further
COHERENT_TIMES = {
    "geodesic": _time_grid(0.6, 600.0),
    "linear-v": _time_grid(0.6, 2000.0),
    "linear-u": _time_grid(0.6, 3000.0),
}


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\n[acceptance] criterion {number:2d} ({description}): FAIL")
                raise
            print(f"\n[acceptance] criterion {number:2d} ({description}): PASS")

        return wrapper

    return decorate


@pytest.fixture(scope="module")
def zeno_data(lipkin10, trajectories10):
    return {
        family: zeno_sweep(lipkin10, trajectories10[family], ZENO_STEPS)
        for family in FAMILIES
    }


@pytest.fixture(scope="module")
def coherent_data(lipkin10, trajectories10):
    data = {}
    for family in FAMILIES:
        trajectory = trajectories10[family]
        infids = np.array(
            [
                integrate_schrodinger(lipkin10, trajectory.position_at, float(t)).infidelity
                for t in COHERENT_TIMES[family]
            ]
        )
        data[family] = infids
    return data


@criterion(1, "quasispin reduction matches the tensor-product oracle")
def test_criterion_1_reduction_oracle():
    lams = np.linspace(0.0, 3.0, 5)
    chis = np.linspace(0.0, 1.0, 4)
    grid = [(l, c) for l in lams for c in chis]
    assert len(grid) == 20
    for n in range(2, 7):
        model = LipkinModel(n)
        for lam, chi in grid:
            point = np.array([lam, chi])
            reduced = np.linalg.eigvalsh(model.hamiltonian_many(point))
            full = np.linalg.eigvalsh(brute_force_lipkin(n, point))
            worst = max(np.min(np.abs(full - e)) for e in reduced)
            assert worst <= 1e-10, (n, lam, chi, worst)


def overlap_metric_fd(model, point, d=1e-4):
    """Finite-difference metric from the defining ground-state overlap form.

    Symmetrized probes cancel the cubic term of the overlap expansion, leaving
    the quadratic form to O(d^2) relative accuracy.
    """
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


@criterion(2, "perturbative metric matches the overlap definition")
def test_criterion_2_metric_cross_validation(lipkin10, two_level):
    rng = np.random.default_rng(20240817)
    checked = 0
    while checked < 20:
        point = np.array([rng.uniform(0.0, 3.0), rng.uniform(0.0, 1.0)])
        energies = eigh_many(lipkin10.hamiltonian_many(point))[0]
        if energies[1] - energies[0] <= 1e-3 or point[1] < 2e-4:
            continue
        g = metric_many(lipkin10, point)
        g_fd = overlap_metric_fd(lipkin10, point, d=1e-4)
        rel = np.abs(g_fd - g).max() / np.abs(g).max()
        assert rel <= 1e-3, (point, rel)
        checked += 1
    for theta in np.linspace(0.0, 2 * np.pi, 9):
        g = metric_many(two_level, np.array([theta]))
        assert abs(g[0, 0] - 0.25) <= 1e-10


@criterion(3, "stroboscopic infidelity scales as the inverse step count")
def test_criterion_3_zeno_scaling(zeno_data, trajectories10):
    window_report = []
    for family in FAMILIES:
        rows = zeno_data[family]
        ks = np.array([r["K"] for r in rows], dtype=float)
        infids = np.array([r["I_exact"] for r in rows])
        in_window = (ks >= SLOPE_WINDOW[0]) & (ks <= SLOPE_WINDOW[1])
        slope = np.polyfit(np.log(ks[in_window]), np.log(infids[in_window]), 1)[0]
        assert abs(slope + 1.0) <= 0.05, (family, slope)

        length = trajectories10[family].length
        ratio = ks[-1] * infids[-1] / length**2
        if family in ("geodesic", "linear-v"):
            # equidistant-in-length discretizations: K * I converges to l^2
            assert abs(ratio - 1.0) <= 0.05, (family, ratio)
        else:
            # constant plane speed is not equidistant on the manifold, so the
            # limit of K * I is the larger mean-square speed integral; report it
            window_report.append((family, ratio))
            assert ratio >= 1.0 - 1e-9

        if family in ("geodesic", "linear-v"):
            for row in rows:
                two = infidelity_terms(length, row["K"])[1]
                rel = abs(two - row["I_exact"]) / row["I_exact"]
                assert rel <= 0.10, (family, row["K"], rel)
    for family, ratio in window_report:
        print(f"\n[acceptance]   note: {family} K*I/l^2 at K=5000 is {ratio:.3f} (> 1 expected)")


@criterion(4, "geodesic driving dominates; constant manifold speed beats plane speed")
def test_criterion_4_path_ordering(zeno_data, lipkin10, trajectories10):
    for idx in range(len(ZENO_STEPS)):
        i_a = zeno_data["geodesic"][idx]["I_exact"]
        i_b = zeno_data["linear-v"][idx]["I_exact"]
        i_c = zeno_data["linear-u"][idx]["I_exact"]
        assert i_a < i_b < i_c, (ZENO_STEPS[idx], i_a, i_b, i_c)
    assert trajectories10["geodesic"].length < trajectories10["linear-v"].length


@criterion(5, "the equidistant partition minimizes the summed squared steps")
def test_criterion_5_equidistant_optimality(lipkin10, trajectories10):
    trajectory = trajectories10["geodesic"]
    steps = 100
    base = trajectory.discretize(steps)
    base_cost = float((step_lengths_along(lipkin10, base) ** 2).sum())
    rng = np.random.default_rng(5)
    table = trajectory.metric_cumlen
    uniform = np.linspace(0.0, table[-1], steps + 1)
    spacing = table[-1] / steps
    for _ in range(100):
        targets = uniform.copy()
        targets[1:-1] += rng.uniform(-0.45, 0.45, size=steps - 1) * spacing
        targets = np.sort(targets)
        points = interpolate_at(trajectory.points, table, targets)
        points[0] = trajectory.points[0]
        points[-1] = trajectory.points[-1]
        cost = float((step_lengths_along(lipkin10, points) ** 2).sum())
        assert base_cost < cost


def _largest_decade_mask(times):
    return times >= times[-1] / 10 * (1 - 1e-12)


def _envelope_slope(times, infids):
    """Log-log slope of the local-maxima envelope over the largest decade.

    Local maxima of the sampled curve trace the oscillation envelope; when the
    sampling catches too few of them, the decade is split into four log-spaced
    bins and the largest point of each bin is used instead.
    """
    idx = np.where(_largest_decade_mask(times))[0]
    maxima = [
        i
        for i in idx
        if (i == 0 or infids[i] >= infids[i - 1])
        and (i == len(times) - 1 or infids[i] >= infids[i + 1])
    ]
    if len(maxima) < 3:
        edges = np.geomspace(times[idx[0]], times[idx[-1]] * (1 + 1e-12), 5)
        maxima = []
        for lo, hi in zip(edges[:-1], edges[1:]):
            members = [i for i in idx if lo <= times[i] < hi]
            if members:
                maxima.append(max(members, key=lambda i: infids[i]))
    return np.polyfit(np.log(times[maxima]), np.log(infids[maxima]), 1)[0]


@criterion(6, "coherent infidelity decays algebraically with oscillations")
def test_criterion_6_coherent_asymptotics(coherent_data):
    for family in FAMILIES:
        times = COHERENT_TIMES[family]
        infids = coherent_data[family]
        slope = _envelope_slope(times, infids)
        assert abs(slope + 2.0) <= 0.2, (family, slope)
        decade = _largest_decade_mask(times)
        assert np.any(np.diff(infids[decade]) > 0), family


# coherent infidelities between the asymptotic regime and a sudden-like drive
CROSSOVER_WINDOW = (3e-3, 0.15)
# sub-steps per sweep interval inside the window's bracket: 6 per decade
# becomes 18, about 8 samples across the geodesic window's 0.45 decades
WINDOW_REFINEMENT = 3


def _refine_window(times, infids, infidelity_at):
    """Sweep resampled ``WINDOW_REFINEMENT`` times more finely across the window.

    The bracket runs from the last sample above the window to the first later
    sample below it.  Each sweep interval in the bracket is split into
    ``WINDOW_REFINEMENT`` log-uniform sub-steps; only the new interior times
    are passed to ``infidelity_at``.  Returns the merged, sorted times and
    infidelities and the bracket's end times.
    """
    lo, hi = CROSSOVER_WINDOW
    times = np.asarray(times, dtype=float)
    infids = np.asarray(infids, dtype=float)
    above = np.flatnonzero(infids > hi)
    start = int(above[-1]) if above.size else 0
    below = np.flatnonzero(infids[start:] < lo)
    stop = start + int(below[0]) if below.size else len(times) - 1
    fractions = np.arange(1, WINDOW_REFINEMENT) / WINDOW_REFINEMENT
    left, right = times[start:stop, None], times[start + 1 : stop + 1, None]
    new_times = (left * (right / left) ** fractions).ravel()
    new_infids = np.array([infidelity_at(float(t)) for t in new_times])
    merged_times = np.concatenate([times, new_times])
    order = np.argsort(merged_times)
    merged_infids = np.concatenate([infids, new_infids])[order]
    return merged_times[order], merged_infids, (float(times[start]), float(times[stop]))


def _in_window(times, infids):
    lo, hi = CROSSOVER_WINDOW
    return [(float(t), float(i)) for t, i in zip(times, infids) if lo <= i <= hi]


def test_window_refinement_is_grid_phase_independent():
    # synthetic curve shaped like the geodesic one: 0.15 at T = 13, 3e-3 at T = 37
    power = np.log(0.15 / 3e-3) / np.log(37.0 / 13.0)

    def curve(t):
        return 0.15 * (np.asarray(t, dtype=float) / 13.0) ** -power

    base = COHERENT_TIMES["geodesic"]
    plain_counts = []
    for offset in np.arange(12) / 12:
        # shifts the grid by a fraction of its 1/6-decade early step
        times = base * 10 ** (offset / 6)
        plain_counts.append(len(_in_window(times, curve(times))))
        calls = []

        def probe(t):
            calls.append(t)
            return float(curve(t))

        merged_t, merged_i, (t_lo, t_hi) = _refine_window(times, curve(times), probe)
        assert len(_in_window(merged_t, merged_i)) >= 3, (offset, t_lo, t_hi)
        assert np.all(np.diff(merged_t) > 0)
        assert set(times) <= set(merged_t)
        # only interior times of the bracket are evaluated
        assert all(t_lo < t < t_hi for t in calls)
        assert curve(t_lo) > CROSSOVER_WINDOW[1] and curve(t_hi) < CROSSOVER_WINDOW[0]
    assert min(plain_counts) < 3, plain_counts


@criterion(7, "moderate step counts beat coherent driving before the asymptotic regime")
def test_criterion_7_crossover_window(lipkin10, trajectories10, coherent_data):
    """Moderate step counts win where the coherent infidelity is in [3e-3, 0.15].

    On the geodesic that window spans T of about 13 to 37, only about 0.45
    decades, while the early sweep grid has 6 samples per decade.  Whether
    the window holds 2 or 3 sweep samples would then depend on the grid's
    phase alone, so the sweep is refined inside the window's bracket to
    1/18 decade before the first three in-window times are taken.
    """
    trajectory = trajectories10["geodesic"]

    def coherent_infidelity(total_time):
        return integrate_schrodinger(lipkin10, trajectory.position_at, total_time).infidelity

    times, infids, bracket = _refine_window(
        COHERENT_TIMES["geodesic"], coherent_data["geodesic"], coherent_infidelity
    )
    candidates = _in_window(times, infids)
    assert len(candidates) >= 3, (
        f"bracket T in [{bracket[0]:.2f}, {bracket[1]:.2f}]; refined sweep "
        + ", ".join(
            f"T={t:.2f}: I={i:.4g}" for t, i in zip(times, infids) if bracket[0] <= t <= bracket[1]
        )
    )
    for total_time, i_coh in candidates[:3]:
        k_min, tau = minimal_steps(
            lipkin10, trajectory, total_time, coherent_infidelity=i_coh
        )
        assert k_min is not None
        assert 10 <= k_min <= 1000, (total_time, k_min)
        assert tau == pytest.approx(total_time / k_min)
        # the crossover search assumes I_exact(K) decreases near K_min
        tail = [
            run_stroboscopic(lipkin10, trajectory.discretize(k)).final_infidelity
            for k in range(int(0.9 * k_min), k_min + 1)
        ]
        assert np.all(np.diff(tail) < 0), (total_time, tail)


@criterion(8, "spectator gadget dephases on the cosine law with constant populations")
def test_criterion_8_spectator_gadget():
    a0, a1, tau = 0.6, 0.8, 0.9
    for t in np.linspace(0.0, 4 * tau, 41):
        rho = reduced_density(evolve_gadget(a0, a1, tau, t))
        expected = abs(a0 * a1) * abs(np.cos(np.pi * t / (2 * tau)))
        assert abs(rho.coherence - expected) <= 1e-10
        p0, p1 = rho.populations
        assert abs(p0 - a0**2) <= 1e-12 and abs(p1 - a1**2) <= 1e-12
    for t in (tau, 3 * tau):
        assert reduced_density(evolve_gadget(a0, a1, tau, t)).coherence <= 1e-12
    rho_tau = reduced_density(evolve_gadget(a0, a1, tau, tau)).matrix
    assert np.abs(rho_tau - np.diag([a0**2, a1**2])).max() <= 1e-12


@criterion(9, "two-level chain reproduces the closed-form fidelity")
def test_criterion_9_two_level_closed_form(two_level):
    for total_angle in (np.pi / 2, np.pi):
        for steps in (1, 2, 10, 1000):
            path = np.linspace(0.0, total_angle, steps + 1)[:, None]
            got = run_stroboscopic(two_level, path).final_fidelity
            expected = 0.5 * (1 + np.cos(total_angle / steps) ** steps)
            assert abs(got - expected) <= 1e-12, (total_angle, steps)


@criterion(10, "identical command-line invocations are byte-identical")
def test_criterion_10_cli_determinism(tmp_path):
    from zenodrive.cli import main

    def run(name, *args):
        out = tmp_path / name
        assert main([*args, "--out", str(out)]) == 0
        return {
            p.name: p.read_bytes()
            for p in sorted(out.iterdir())
            if p.name != "metadata.txt"
        }

    zeno_args = (
        "zeno", "--model.N", "4", "--path.family", "geodesic",
        "--geodesic.segments", "48", "--dense.steps", "2000",
        "--steps.K", "20,40",
    )
    assert run("za", *zeno_args) == run("zb", *zeno_args)
    gadget_args = ("gadget", "--gadget.tau", "0.8", "--gadget.samples", "61")
    assert run("ga", *gadget_args) == run("gb", *gadget_args)
