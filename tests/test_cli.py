import math

import numpy as np
import pytest

from tactsqueeze import cli, exact


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_rows(path):
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    comments = [ln for ln in lines if ln.startswith("#")]
    data = [ln for ln in lines if ln and not ln.startswith("#")]
    header = data[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in data[1:]]
    return comments, header, rows


class TestConfig:
    def test_unknown_key_is_hard_error(self, tmp_path):
        cfg = write_config(tmp_path, "[params]\nn_spins = 3\nj_cuopling = 0.1\n")
        assert cli.main(["analytic", "--config", cfg,
                         "--out", str(tmp_path / "o.csv")]) == 2
        # once-reserved [run] keys are unknown too, never silently ignored
        for key in ("theta_hi = 0.5", "output = x.csv", "workers = 2"):
            cfg = write_config(tmp_path, f"[run]\n{key}\n")
            assert cli.main(["optimize", "--config", cfg,
                             "--out", str(tmp_path / "o.csv")]) == 2

    def test_unknown_section_is_hard_error(self, tmp_path):
        cfg = write_config(tmp_path, "[paramz]\nn_spins = 3\n")
        assert cli.main(["analytic", "--config", cfg,
                         "--out", str(tmp_path / "o.csv")]) == 2

    def test_bad_axis_spec(self, tmp_path):
        cfg = write_config(tmp_path, "[sweep]\naxis = gamma 0.1 1.0 10\n")
        assert cli.main(["analytic", "--config", cfg,
                         "--out", str(tmp_path / "o.csv")]) == 2

    @pytest.mark.parametrize("text", [
        "[verify]\ngamma = 0\n",
        "[verify]\npolarization_p = 1.5\n",
        "[verify]\nalpha = abc\n",
        "[verify]\nn_min = 5\nn_max = 4\n",
        "[run]\nn_cap = abc\n",
        "[run]\nengine = exactt\n",
        "[run]\nwith_factorization = maybe\n",
        "[integrator]\ntrace_tol = abc\n",
        "[integrator]\ntrace_tol = 0\n",
        "[integrator]\nmin_eigenvalue_tol = 0\n",
    ])
    def test_bad_option_value_is_config_error(self, tmp_path, capsys, text):
        cfg = write_config(tmp_path, text)
        out = tmp_path / "o.csv"
        assert cli.main(["verify", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert not out.exists()

    def test_axis_must_name_existing_parameter(self, tmp_path):
        cfg = write_config(tmp_path, "[sweep]\naxis = delta 0.1 1.0 10 linear\n")
        assert cli.main(["analytic", "--config", cfg,
                         "--out", str(tmp_path / "o.csv")]) == 2

    def test_fractional_spin_count_is_config_error(self, tmp_path, capsys):
        # linspace(3, 8, 4) = 3, 4.67, 6.33, 8: never truncated to 4 and 6
        cfg = write_config(tmp_path, "[sweep]\naxis = n_spins 3 8 4 linear\n")
        out = tmp_path / "o.csv"
        assert cli.main(["analytic", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "sweep.axis" in err and "4.666666666666667" in err
        assert not out.exists()


class TestInvalidInput:
    @pytest.mark.parametrize("engine", ["analytic", "linearized", "optimize", "exact"])
    def test_invalid_point_is_never_an_ok_row(self, tmp_path, engine):
        cfg = write_config(tmp_path, (
            "[params]\nn_spins = 3\npolarization_p = 1.5\ngamma = -0.1\n"
            "j_coupling = nan\n"
            "[sweep]\naxis = t_squeeze 0.5 1.0 2 linear\n"))
        out = str(tmp_path / "o.csv")
        assert cli.main([engine, "--config", cfg, "--out", out, "--no-timing"]) == 0
        _, header, rows = read_rows(out)
        assert header == cli.PARAM_FIELDS + ["status"]
        assert [r["t_squeeze"] for r in rows] == ["0.5", "1"]
        for row in rows:
            assert row["status"] == "invalid: P_OUT_OF_RANGE J_NONNEGATIVE GAMMA_NONNEGATIVE"
            assert row["polarization_p"] == "1.5" and row["j_coupling"] == "nan"


class TestAnalyticCommand:
    def test_single_point_zero_squeeze_time(self, tmp_path):
        cfg = write_config(tmp_path, (
            "[params]\nn_spins = 10\npolarization_p = 0.8\nj_coupling = 0.1\n"
            "gamma = 0.05\nt_squeeze = 0\nt_signal = 1\n"))
        out = str(tmp_path / "o.csv")
        assert cli.main(["analytic", "--config", cfg, "--out", out]) == 0
        _, _, rows = read_rows(out)
        assert len(rows) == 1
        assert float(rows[0]["xi2_paper"]) == pytest.approx(1 / 0.8, rel=1e-12)

    def test_regime_flips_at_threshold(self, tmp_path):
        # alpha = J N P / (4 Gamma) sweeps through 1 as J grows
        cfg = write_config(tmp_path, (
            "[params]\nn_spins = 10\npolarization_p = 1.0\ngamma = 0.25\n"
            "t_squeeze = 1\n"
            "[sweep]\naxis = j_coupling 0.05 0.2 16 linear\n"))
        out = str(tmp_path / "o.csv")
        assert cli.main(["analytic", "--config", cfg, "--out", out]) == 0
        _, _, rows = read_rows(out)
        regimes = [(float(r["alpha"]), r["regime"]) for r in rows]
        for alpha, regime in regimes:
            if alpha <= 1.0:
                assert regime == "sub_threshold"
            else:
                assert regime != "sub_threshold"
        assert {r for _, r in regimes} >= {"sub_threshold", "squeezing"}

    def test_log_sweep_row_count_and_order(self, tmp_path):
        cfg = write_config(tmp_path, (
            "[params]\nn_spins = 10\n"
            "[sweep]\naxis = gamma 0.001 1.0 100 log\n"))
        out = str(tmp_path / "o.csv")
        assert cli.main(["analytic", "--config", cfg, "--out", out]) == 0
        _, _, rows = read_rows(out)
        assert len(rows) == 100
        gammas = [float(r["gamma"]) for r in rows]
        assert gammas == sorted(gammas)

    def test_log_spin_axis_rounds_to_integers(self, tmp_path):
        # geomspace(2, 64, 6) returns 3.999999999999999, 7.999999999999999, ...
        cfg = write_config(tmp_path, "[sweep]\naxis = n_spins 2 64 6 log\n")
        out = str(tmp_path / "o.csv")
        assert cli.main(["analytic", "--config", cfg, "--out", out]) == 0
        _, _, rows = read_rows(out)
        assert [r["n_spins"] for r in rows] == ["2", "4", "8", "16", "32", "64"]

    def test_rows_echo_all_inputs(self, tmp_path):
        cfg = write_config(tmp_path, "[params]\nn_spins = 5\ngamma = 0.125\n")
        out = str(tmp_path / "o.csv")
        assert cli.main(["analytic", "--config", cfg, "--out", out]) == 0
        _, header, rows = read_rows(out)
        for field in cli.PARAM_FIELDS:
            assert field in header
        assert rows[0]["n_spins"] == "5"
        assert float(rows[0]["gamma"]) == 0.125


class TestExactCommand:
    def test_single_spin_decay_column(self, tmp_path):
        cfg = write_config(tmp_path, (
            "[params]\nn_spins = 1\npolarization_p = 1.0\nj_coupling = 0\n"
            "gamma = 0.1\nt_squeeze = 1\n"))
        out = str(tmp_path / "o.csv")
        assert cli.main(["exact", "--config", cfg, "--out", out]) == 0
        _, _, rows = read_rows(out)
        assert float(rows[0]["mean_sz_per_site"]) == pytest.approx(
            math.exp(-0.4), abs=1e-6)
        assert float(rows[0]["trace_residual"]) <= 1e-9

    def test_short_tact_squeezes(self, tmp_path):
        cfg = write_config(tmp_path, (
            "[params]\nn_spins = 4\npolarization_p = 1.0\nj_coupling = 0.05\n"
            "gamma = 0\nt_squeeze = 0.5\n"))
        out = str(tmp_path / "o.csv")
        assert cli.main(["exact", "--config", cfg, "--out", out]) == 0
        _, _, rows = read_rows(out)
        assert float(rows[0]["xi2_kitagawa_ueda"]) < 1.0

    @pytest.mark.parametrize("with_factorization", [False, True])
    def test_row_equals_library_calls(self, with_factorization):
        n, p, j, gamma, t = 4, 0.9, 0.05, 0.1, 0.3
        pdict = dict(cli._DEFAULT_PARAMS, n_spins=n, polarization_p=p,
                     j_coupling=j, gamma=gamma, t_squeeze=t)
        row = cli._row_exact(pdict, {"with_factorization": with_factorization})
        rho = exact.evolve(exact.build_initial_state(n, p),
                           [exact.squeeze_generator(n, j),
                            exact.depolarize_generator(n, gamma)], t)
        ops = exact.spin_operators(n)
        assert row["status"] == "ok"
        assert row["mean_sz_per_site"] == exact.measure(rho, ops.collective_z) / n
        assert row["xi2_kitagawa_ueda"] == exact.squeezing_parameter_exact(
            rho, ops, exact.KITAGAWA_UEDA)
        assert row["xi2_wineland"] == exact.squeezing_parameter_exact(
            rho, ops, exact.WINELAND)
        if with_factorization:
            assert row["factorization_error"] == exact.factorization_error(n, j, gamma, t, p)
        else:
            assert "factorization_error" not in row

    def test_cap_exceeded_exits_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "[params]\nn_spins = 12\n")
        out = str(tmp_path / "o.csv")
        assert cli.main(["exact", "--config", cfg, "--out", out]) == 1
        assert "4^N" in capsys.readouterr().err


class TestOptimizeCommand:
    def test_threshold_and_improvement_columns(self, tmp_path):
        # alpha = 0.9 and alpha = 10 via j sweep at N=10, P=1, Gamma=0.25
        cfg = write_config(tmp_path, (
            "[params]\nn_spins = 10\npolarization_p = 1.0\ngamma = 0.25\n"
            "[sweep]\naxis = j_coupling 0.09 1.0 2 linear\n"))
        out = str(tmp_path / "o.csv")
        assert cli.main(["optimize", "--config", cfg, "--out", out]) == 0
        _, _, rows = read_rows(out)
        low, high = rows
        assert float(low["alpha"]) == pytest.approx(0.9, rel=1e-12)
        assert float(low["theta_star"]) == 0.0
        assert float(low["improvement_factor"]) <= 1.0
        assert float(high["alpha"]) == pytest.approx(10.0, rel=1e-12)
        assert float(high["improvement_factor"]) == pytest.approx(
            math.exp(10 / math.e) / 10, rel=1e-9)


class TestVerifyCommand:
    def test_small_range_summary(self, tmp_path, capsys):
        cfg = write_config(tmp_path, (
            "[verify]\nn_min = 2\nn_max = 3\nalpha = 5\ngamma = 0.25\n"))
        out = str(tmp_path / "o.csv")
        code = cli.main(["verify", "--config", cfg, "--out", out])
        assert code == 0
        captured = capsys.readouterr().out
        assert "alpha=5" in captured
        comments, _, rows = read_rows(out)
        assert len(rows) == 2
        assert any("summary:" in c for c in comments)
        for row in rows:
            assert float(row["factorization_error"]) > 0


class TestSweepDeterminism:
    CONFIG = (
        "[params]\nn_spins = 20\npolarization_p = 0.9\n"
        "[sweep]\naxis = j_coupling 0.01 0.5 10 linear\naxis2 = gamma 0.01 1.0 10 log\n"
        "[run]\nengine = analytic\n")

    def test_worker_counts_produce_identical_bytes(self, tmp_path):
        cfg = write_config(tmp_path, self.CONFIG)
        out1 = str(tmp_path / "w1.csv")
        out8 = str(tmp_path / "w8.csv")
        assert cli.main(["sweep", "--config", cfg, "--out", out1,
                         "--workers", "1", "--no-timing"]) == 0
        assert cli.main(["sweep", "--config", cfg, "--out", out8,
                         "--workers", "8", "--no-timing"]) == 0
        with open(out1, "rb") as f1, open(out8, "rb") as f8:
            assert f1.read() == f8.read()

    def test_failed_sweep_keeps_same_rows_for_any_worker_count(self, tmp_path):
        # n_cap = 3 fails the N = 4 task: both worker counts keep the
        # finished N = 2, 3 rows and mark the file incomplete
        cfg = write_config(tmp_path, (
            "[sweep]\naxis = n_spins 2 5 4 linear\n"
            "[run]\nengine = exact\nn_cap = 3\n"))
        outs = []
        for workers in ("1", "2"):
            out = str(tmp_path / f"w{workers}.csv")
            assert cli.main(["sweep", "--config", cfg, "--out", out,
                             "--workers", workers, "--no-timing"]) == 1
            with open(out, "rb") as fh:
                outs.append(fh.read())
        assert outs[0] == outs[1]
        comments, _, rows = read_rows(str(tmp_path / "w1.csv"))
        assert [r["n_spins"] for r in rows] == ["2", "3"]
        assert comments[-1] == "# INCOMPLETE"

    def test_two_axis_row_major_order(self, tmp_path):
        cfg = write_config(tmp_path, self.CONFIG)
        out = str(tmp_path / "o.csv")
        assert cli.main(["sweep", "--config", cfg, "--out", out,
                         "--no-timing"]) == 0
        _, _, rows = read_rows(out)
        assert len(rows) == 100
        js = [float(r["j_coupling"]) for r in rows]
        gs = [float(r["gamma"]) for r in rows]
        # outer axis changes every 10 rows, inner axis cycles
        assert js[0] == js[9] and js[10] > js[9]
        np.testing.assert_allclose(gs[:10], gs[10:20])

    def test_empty_grid_header_only(self, tmp_path):
        cfg = write_config(tmp_path, (
            "[sweep]\naxis = gamma 0.1 1.0 0 linear\n"))
        out = str(tmp_path / "o.csv")
        assert cli.main(["analytic", "--config", cfg, "--out", out]) == 0
        _, header, rows = read_rows(out)
        assert rows == []
        assert "n_spins" in header

    def test_timing_column_toggle(self, tmp_path):
        cfg = write_config(tmp_path, "[params]\nn_spins = 4\n")
        out = str(tmp_path / "o.csv")
        assert cli.main(["analytic", "--config", cfg, "--out", out]) == 0
        _, header, _ = read_rows(out)
        assert "wall_time" in header
        assert cli.main(["analytic", "--config", cfg, "--out", out,
                         "--no-timing"]) == 0
        _, header, _ = read_rows(out)
        assert "wall_time" not in header
