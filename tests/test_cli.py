import re

import numpy as np
import pytest

from zenodrive.cli import load_config, main

SMALL = [
    "--model.N", "4",
    "--geodesic.segments", "48",
    "--dense.steps", "3000",
]


def run_cli(tmp_path, name, command, *extra):
    out = tmp_path / name
    code = main([command, "--out", str(out), *extra])
    assert code == 0
    return out


def read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestConfig:
    def test_defaults_reproduce_reference_setup(self):
        config = load_config(None, {})
        assert config["model.N"] == 10
        assert config["path.start"] == (0.0, 0.0)
        assert config["path.end"] == (2.0, 0.5)
        assert config["path.family"] == "geodesic"

    def test_file_and_override_precedence(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model.N = 6\npath.family = linear-v\n# comment\n", encoding="utf-8")
        config = load_config(str(cfg), {"model.N": "8"})
        assert config["model.N"] == 8
        assert config["path.family"] == "linear-v"

    def test_list_syntaxes(self):
        config = load_config(None, {"steps.K": "log:10:1000:3", "times.T": "1,2.5,7"})
        assert config["steps.K"] == (10, 100, 1000)
        assert config["times.T"] == (1.0, 2.5, 7.0)

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("model.M = 4\n", encoding="utf-8")
        with pytest.raises(ValueError, match="unknown key"):
            load_config(str(cfg), {})

    def test_bad_family_rejected(self):
        with pytest.raises(ValueError, match="path.family"):
            load_config(None, {"path.family": "spiral"})

    @pytest.mark.parametrize("cap", ["0", "-5"])
    def test_cap_below_one_rejected_before_any_work(self, tmp_path, monkeypatch, cap):
        import zenodrive.cli as cli

        calls = []
        monkeypatch.setattr(cli, "build_trajectory", lambda *a, **k: calls.append("table"))
        monkeypatch.setattr(cli, "integrate_schrodinger", lambda *a, **k: calls.append("coherent"))
        with pytest.raises(ValueError, match="compare.cap"):
            main(["compare", "--model.N", "4", "--times.T", "1", "--compare.cap", cap,
                  "--out", str(tmp_path / "out"), "--jobs", "1"])
        assert calls == []
        assert not (tmp_path / "out").exists()

    def test_negative_dense_steps_rejected_before_any_work(self, tmp_path, monkeypatch):
        import zenodrive.cli as cli

        assert load_config(None, {"dense.steps": "0"})["dense.steps"] == 0   # 0 = auto
        calls = []
        monkeypatch.setattr(cli, "build_trajectory", lambda *a, **k: calls.append("table"))
        with pytest.raises(ValueError, match="dense.steps"):
            main(["path", "--model.N", "4", "--dense.steps", "-5",
                  "--out", str(tmp_path / "out"), "--jobs", "1"])
        assert calls == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv, key",
        [
            (["zeno", "--steps.K", "0,50"], "steps.K"),
            (["path", "--steps.K", "-3"], "steps.K"),
            (["compare", "--times.T=0,5"], "times.T"),
            (["compare", "--times.T=-1"], "times.T"),
            (["compare", "--times.T=inf"], "times.T"),
            (["compare", "--times.T=nan"], "times.T"),
            (["zeno", "--geodesic.segments", "1"], "geodesic.segments"),
            (["zeno", "--model.N", "0"], "model.N"),
            (["metric-map", "--grid.lambda", "0:3:1"], "grid.lambda"),
            (["metric-map", "--grid.chi", "0:1:1"], "grid.chi"),
            (["path", "--path.start", "0.0,-0.1"], "path.start"),
            (["zeno", "--path.end", "2.0,-0.5"], "path.end"),
            (["zeno", "--steps.K", "log:50:5000:0"], "steps.K"),
            (["compare", "--times.T", "lin:1:5:0"], "times.T"),
            (["gadget", "--gadget.tau", "0"], "gadget.tau"),
            (["gadget", "--gadget.tmax", "-1"], "gadget.tmax"),
            (["gadget", "--gadget.samples", "-1"], "gadget.samples"),
            (["gadget", "--gadget.a0", "2"], "gadget.a0"),
        ],
    )
    def test_bad_steps_and_times_rejected_before_any_work(self, tmp_path, monkeypatch, argv, key):
        import zenodrive.cli as cli

        calls = []
        monkeypatch.setattr(cli, "build_trajectory", lambda *a, **k: calls.append("table"))
        monkeypatch.setattr(cli, "metric_many", lambda *a, **k: calls.append("metric"))
        # the case's own flags come last, so they win over the default N = 4
        with pytest.raises(ValueError, match=key):
            main([argv[0], "--model.N", "4", *argv[1:], "--out", str(tmp_path / "out"),
                  "--jobs", "1"])
        assert calls == []
        assert not (tmp_path / "out").exists()

    def test_negative_jobs_rejected_before_any_output(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["gadget", "--out", str(tmp_path / "out"), "--jobs", "-1"])
        assert exit_info.value.code == 2
        assert "--jobs: must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestMetricMap:
    def test_headers_and_free_point_gap(self, tmp_path):
        out = run_cli(
            tmp_path, "mm", "metric-map", *SMALL,
            "--grid.lambda", "0:3:4", "--grid.chi", "0:1:3",
        )
        header, rows = read_csv(out / "metric_map.csv")
        assert header == ["lambda", "chi", "gap", "g_ll", "g_lc", "g_cc"]
        assert len(rows) == 12
        first = [float(c) for c in rows[0]]
        # at (0, 0) the spectrum is integer-spaced: gap exactly 1
        assert first[0] == 0.0 and first[1] == 0.0
        assert first[2] == pytest.approx(1.0, abs=1e-12)

    def test_metric_symmetry_column(self, tmp_path):
        out = run_cli(
            tmp_path, "mm2", "metric-map", *SMALL,
            "--grid.lambda", "0:2:3", "--grid.chi", "0:1:3",
        )
        from zenodrive.geometry import metric_many
        from zenodrive.models import LipkinModel

        _, rows = read_csv(out / "metric_map.csv")
        model = LipkinModel(4)
        for row in rows[:4]:
            lam, chi, _, g_ll, g_lc, g_cc = (float(c) for c in row)
            g = metric_many(model, np.array([lam, chi]))
            assert g_lc == pytest.approx(g[1, 0], abs=1e-12)
            assert g_ll == pytest.approx(g[0, 0], abs=1e-12)
            assert g_cc == pytest.approx(g[1, 1], abs=1e-12)

    def test_rejects_single_point_grid(self, tmp_path):
        with pytest.raises(ValueError, match="at least 2"):
            run_cli(tmp_path, "mm3", "metric-map", *SMALL, "--grid.lambda", "0:3:1")


class TestPath:
    def test_linear_u_constant_plane_speed(self, tmp_path):
        out = run_cli(
            tmp_path, "pu", "path", *SMALL,
            "--path.family", "linear-u", "--steps.K", "40",
        )
        header, rows = read_csv(out / "path.csv")
        assert header == ["k", "lambda", "chi", "delta_ell", "cumulative_ell", "u_speed"]
        u = np.array([float(r[5]) for r in rows])
        assert u[0] == 0.0
        assert np.ptp(u[1:]) <= 1e-10

    def test_constant_manifold_speed_families(self, tmp_path):
        for name, family in (("pv", "linear-v"), ("pg", "geodesic")):
            out = run_cli(
                tmp_path, name, "path", *SMALL,
                "--path.family", family, "--steps.K", "40",
            )
            _, rows = read_csv(out / "path.csv")
            dl = np.array([float(r[3]) for r in rows])[1:]
            assert (dl.max() - dl.min()) / dl.mean() <= 0.01

    def test_geodesic_shorter_than_linear(self, tmp_path):
        outs = {}
        for name, family in (("sg", "geodesic"), ("sl", "linear-v")):
            out = run_cli(
                tmp_path, name, "path", *SMALL,
                "--path.family", family, "--steps.K", "40",
            )
            _, rows = read_csv(out / "path.csv")
            outs[family] = float(rows[-1][4])
        assert outs["geodesic"] < outs["linear-v"]

    def test_endpoints_exact(self, tmp_path):
        out = run_cli(tmp_path, "pe", "path", *SMALL, "--steps.K", "40")
        _, rows = read_csv(out / "path.csv")
        assert [float(rows[0][1]), float(rows[0][2])] == [0.0, 0.0]
        assert [float(rows[-1][1]), float(rows[-1][2])] == [2.0, 0.5]


class TestZeno:
    def test_rows_and_columns(self, tmp_path):
        out = run_cli(
            tmp_path, "z", "zeno", *SMALL,
            "--path.family", "linear-v", "--steps.K", "20,40,80",
        )
        header, rows = read_csv(out / "zeno.csv")
        assert header == ["path_family", "K", "I_exact", "I_one_term", "I_two_term", "ell"]
        assert [r[0] for r in rows] == ["linear-v"] * 3
        assert [int(r[1]) for r in rows] == [20, 40, 80]
        infids = [float(r[2]) for r in rows]
        assert infids[0] > infids[1] > infids[2]

    def test_scientific_notation_cells(self, tmp_path):
        out = run_cli(
            tmp_path, "zf", "zeno", *SMALL,
            "--path.family", "linear-v", "--steps.K", "20",
        )
        _, rows = read_csv(out / "zeno.csv")
        assert re.fullmatch(r"-?\d\.\d{17}e[+-]\d{2,3}", rows[0][2])


class TestCompare:
    def test_columns_and_crossover(self, tmp_path):
        out = run_cli(
            tmp_path, "c", "compare", *SMALL,
            "--path.family", "linear-v", "--times.T", "2,6", "--compare.cap", "400",
        )
        header, rows = read_csv(out / "compare.csv")
        assert header == ["path_family", "T", "I_coherent", "K_min", "tau_min", "capped"]
        for row in rows:
            assert row[5] == "0"
            k_min = int(row[3])
            assert 1 <= k_min <= 400
            assert float(row[4]) == pytest.approx(float(row[1]) / k_min)

    def test_capped_row_flagged_and_empty(self, tmp_path):
        # cap of 1 step cannot beat coherent driving at a comfortable time
        out = run_cli(
            tmp_path, "cc", "compare", *SMALL,
            "--path.family", "linear-v", "--times.T", "6", "--compare.cap", "1",
        )
        _, rows = read_csv(out / "compare.csv")
        assert rows[0][3] == "" and rows[0][4] == ""
        assert rows[0][5] == "1"

    def test_probe_budget_on_golden_config(self, tmp_path, monkeypatch):
        # work budget without a clock: at the compare-n4-linear-v golden
        # configuration the second-order Zeno seed is K_min on every row, so
        # each row takes two chain runs (the seed ceil(l^2 / I_coh) took 2, 4, 4)
        import zenodrive.cli as cli
        from zenodrive import coherent

        rows, minimal_steps, run_stroboscopic = [], cli.minimal_steps, coherent.run_stroboscopic

        def one_row(*args, **kwargs):
            rows.append([])
            return minimal_steps(*args, **kwargs)

        def counting(model, path):
            rows[-1].append(len(path) - 1)
            return run_stroboscopic(model, path)

        monkeypatch.setattr(cli, "minimal_steps", one_row)
        monkeypatch.setattr(coherent, "run_stroboscopic", counting)
        run_cli(
            tmp_path, "budget", "compare", "--model.N", "4", "--path.family", "linear-v",
            "--times.T", "1,5,20", "--jobs", "1",
        )
        assert rows == [[2, 1], [3, 2], [366, 365]]


class TestGadget:
    def test_columns_and_laws(self, tmp_path):
        out = run_cli(
            tmp_path, "g", "gadget",
            "--gadget.tau", "0.5", "--gadget.samples", "81", "--gadget.tmax", "4.0",
        )
        header, rows = read_csv(out / "gadget.csv")
        assert header == ["t_prime", "coherence_abs", "p0", "p1"]
        t = np.array([float(r[0]) for r in rows])
        coh = np.array([float(r[1]) for r in rows])
        p0 = np.array([float(r[2]) for r in rows])
        # zeros of the coherence at tau and 3 tau, revival at 2 tau
        idx_tau = np.argmin(np.abs(t - 0.5))
        idx_2tau = np.argmin(np.abs(t - 1.0))
        idx_3tau = np.argmin(np.abs(t - 1.5))
        assert coh[idx_tau] <= 1e-12
        assert coh[idx_3tau] <= 1e-12
        assert coh[idx_2tau] == pytest.approx(0.5, abs=1e-12)
        assert np.ptp(p0) <= 1e-12

    def test_rejects_unnormalized_amplitudes(self, tmp_path):
        with pytest.raises(ValueError, match="normalized"):
            run_cli(tmp_path, "gb", "gadget", "--gadget.a0", "1.0", "--gadget.a1", "1.0")


class TestReproducibility:
    def _data_bytes(self, out):
        return {
            p.name: p.read_bytes()
            for p in sorted(out.iterdir())
            if p.name != "metadata.txt"
        }

    def test_identical_invocations_byte_identical(self, tmp_path):
        args = ["zeno", *SMALL, "--path.family", "linear-v", "--steps.K", "20,40"]
        a = run_cli(tmp_path, "r1", *args)
        b = run_cli(tmp_path, "r2", *args)
        assert self._data_bytes(a) == self._data_bytes(b)

    def test_jobs_do_not_change_output(self, tmp_path):
        args = ["zeno", *SMALL, "--path.family", "linear-v", "--steps.K", "20,40,80"]
        a = run_cli(tmp_path, "j1", *args, "--jobs", "1")
        b = run_cli(tmp_path, "j2", *args, "--jobs", "3")
        assert self._data_bytes(a) == self._data_bytes(b)

    def test_config_round_trip(self, tmp_path):
        args = ["gadget", "--gadget.tau", "0.7", "--gadget.samples", "41"]
        a = run_cli(tmp_path, "t1", *args)
        b = run_cli(tmp_path, "t2", "gadget", "--config", str(a / "config.txt"))
        assert self._data_bytes(a) == self._data_bytes(b)

    def test_metadata_written(self, tmp_path):
        out = run_cli(tmp_path, "md", "gadget")
        text = (out / "metadata.txt").read_text(encoding="utf-8")
        assert "version" in text and "wall_time_seconds" in text
