import concurrent.futures
import contextlib
import csv
import io
import itertools
import math
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tactsqueeze import analytic, cli, core, exact, linearized, optimize
from tactsqueeze.errors import DomainError, ResourceLimitError, TactError


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_rows(path):
    """Comment lines, header and rows of a CSV, read with the csv module;
    every row must have the header's field count."""
    with open(path, newline="") as fh:
        lines = fh.read().splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    data = list(csv.reader(ln for ln in lines if ln and not ln.startswith("#")))
    header = data[0]
    rows = [dict(zip(header, fields, strict=True)) for fields in data[1:]]
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

    def test_unknown_section_is_hard_error(self, tmp_path, capsys):
        # the integrator settings are constants of the exact module
        for text in ("[paramz]\nn_spins = 3\n", "[integrator]\ntrace_tol = 1e-9\n"):
            cfg = write_config(tmp_path, text)
            out = tmp_path / "o.csv"
            assert cli.main(["analytic", "--config", cfg, "--out", str(out)]) == 2
            section = text.split("\n")[0]
            assert capsys.readouterr().err == f"config error: unknown config section {section}\n"
            assert not out.exists()

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
        None,  # a config path that cannot be read
        "n_spins = 3\n",  # no section header: an INI parse error
        "[sweep]\nrange = gamma 0.1 1 3 linear\n",
        "[params]\ngamma = abc\n",
        "[sweep]\naxis = gamma 0.1 1 3 cubic\n",
        "[sweep]\naxis = gamma low 1 3 linear\n",
        "[sweep]\naxis = gamma 0.1 1 -1 linear\n",
        "[sweep]\naxis = gamma 0 1 3 log\n",
    ])
    def test_bad_option_value_is_config_error(self, tmp_path, capsys, text):
        cfg = str(tmp_path / "missing.cfg") if text is None else write_config(tmp_path, text)
        out = tmp_path / "o.csv"
        assert cli.main(["verify", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert not out.exists()

    def test_n_cap_lowers_the_built_in_cap_and_never_raises_it(self, tmp_path, capsys):
        for value in (0, exact.DEFAULT_N_CAP + 1):
            cfg = write_config(tmp_path, f"[run]\nn_cap = {value}\n")
            out = tmp_path / "o.csv"
            assert cli.main(["exact", "--config", cfg, "--out", str(out)]) == 2
            assert capsys.readouterr().err == (
                f"config error: run.n_cap must be in 1..10, got '{value}'\n")
            assert not out.exists()
        for value in (1, exact.DEFAULT_N_CAP):
            assert cli.load_config(write_config(tmp_path, f"[run]\nn_cap = {value}\n")
                                   )["run"]["n_cap"] == value

    def test_tau_total_is_no_longer_a_parameter(self, tmp_path, capsys):
        for text, err in (("[params]\ntau_total = 2\n", "unknown key 'tau_total' in [params]"),
                          ("[sweep]\naxis = tau_total 1 2 2 linear\n",
                           "sweep.axis: unknown parameter 'tau_total'")):
            cfg = write_config(tmp_path, text)
            assert cli.main(["optimize", "--config", cfg,
                             "--out", str(tmp_path / "o.csv")]) == 2
            assert capsys.readouterr().err == f"config error: {err}\n"

    def test_verify_coupling_that_overflows_is_config_error(self, tmp_path, capsys):
        # J = 4 gamma alpha/(N P) at n_min: 4e310 overflows; 8e307 / 0.1 does
        # too, only once divided by n_min P
        for text in ("[verify]\ngamma = 1e300\nalpha = 1e10\n",
                     "[verify]\ngamma = 1e300\nalpha = 2e7\nn_min = 1\npolarization_p = 0.1\n"):
            cfg = write_config(tmp_path, text)
            out = tmp_path / "o.csv"
            assert cli.main(["verify", "--config", cfg, "--out", str(out)]) == 2
            n_min = 1 if "n_min" in text else 2
            assert capsys.readouterr().err == (
                f"config error: verify: J = 4 gamma alpha/(N P) overflows at N = {n_min}\n")
            assert not out.exists()
        loaded = cli.load_config(write_config(
            tmp_path, "[verify]\ngamma = 1e300\nalpha = 2e7\nn_min = 1\n"))
        assert loaded["verify"]["alpha"] == 2e7

    def test_no_config_writes_the_default_point(self, tmp_path):
        out = str(tmp_path / "o.csv")
        assert cli.main(["analytic", "--out", out, "--no-timing"]) == 0
        comments, _, rows = read_rows(out)
        assert "# config sha256=none" in comments
        assert len(rows) == 1 and rows[0]["status"] == "ok"
        assert {k: float(rows[0][k]) for k in cli.PARAM_FIELDS} == cli._DEFAULT_PARAMS

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


DOCS = Path(__file__).resolve().parents[1] / "docs" / "csv_columns.md"


def documented_header(command: str, factorize: bool = False, timing: bool = False) -> list[str]:
    """The header docs/csv_columns.md gives a command: the first cell of each
    table row (each backticked name where a section has no table) of every
    section whose title names it, or all engines, in the order of the file;
    an engine's factorization_error only with `factorize`, wall_time only
    with `timing`."""
    engines = ("analytic", "linearized", "exact") if command == "all" else (command,)
    columns = []
    for section in DOCS.read_text().split("\n## ")[1:]:
        title, _, body = section.partition("\n")
        if (any(f"`{e}`" in title for e in engines)
                or ("all engines" in title and command != "verify")):
            columns += (re.findall(r"^\| `(\w+)`", body, re.M)
                        or re.findall(r"`(\w+)`", body))
    dropped = set() if timing else {"wall_time"}
    if not (factorize or command == "verify"):
        dropped.add("factorization_error")
    return [c for c in columns if c not in dropped]


class TestCellText:
    @pytest.mark.parametrize("values, texts", [
        (np.array([True, False]), ["true", "false"]),
        (np.array([3, -1]), ["3", "-1"]),
        (np.array([0.1, -0.0, 1e300, np.inf, np.nan]), ["0.1", "-0", "1e+300", "inf", "nan"]),
        (np.array(["strong", "sub_threshold"]), ["strong", "sub_threshold"]),
        (np.array(["ok", 7], dtype=object), ["ok", "7"]),
    ])
    def test_format_follows_the_dtype(self, values, texts):
        assert cli._texts(values) == texts

    @pytest.mark.parametrize("values", [
        np.array(["ok", 'a "b"', "x, y", "two\nlines"], dtype=object),
        np.array(["ok", "x, y"])])
    def test_text_cells_are_quoted_per_rfc_4180(self, values):
        texts = cli._texts(values)
        assert texts[0] == "ok"
        assert [next(csv.reader([t]))[0] for t in texts] == values.tolist()
        assert cli._texts(np.array(["x, y", 'a "b"'])) == ['"x, y"', '"a ""b"""']


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
        inputs = len(cli.PARAM_FIELDS)
        assert header[:inputs] == cli.PARAM_FIELDS and header[-1] == "status"
        assert [r["t_squeeze"] for r in rows] == ["0.5", "1"]
        for row in rows:
            assert row["status"] == "invalid: P_OUT_OF_RANGE J_NONNEGATIVE GAMMA_NONNEGATIVE"
            assert row["polarization_p"] == "1.5" and row["j_coupling"] == "nan"
            # only the input columns are filled
            assert not any(row[k] for k in header[inputs:-1])


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

    def test_underflowing_divisor_is_a_row_status(self, tmp_path, capsys):
        # at Gamma = 1, 4 Gamma T = 800 and P e^{-4 Gamma T} underflows to 0
        cfg = write_config(tmp_path, (
            "[params]\nn_spins = 3\nt_squeeze = 200\n"
            "[sweep]\naxis = gamma 0.1 1 2 linear\n"))
        out = str(tmp_path / "o.csv")
        assert cli.main(["analytic", "--config", cfg, "--out", out, "--no-timing"]) == 0
        assert capsys.readouterr().err == ""
        comments, _, rows = read_rows(out)
        assert "# INCOMPLETE" not in comments
        assert [r["status"] for r in rows] == [
            "ok", "xi2_min divides by P e^{-4 Gamma T} = 0 (underflow at 4 Gamma T = 800.0)"]

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
        moments = exact.collective_moments(rho, n)
        assert row["status"] == "ok"
        assert row["mean_sz_per_site"] == moments.mean[2] / n
        assert (row["xi2_kitagawa_ueda"], row["xi2_wineland"]) == moments.xi2()
        if with_factorization:
            assert row["factorization_error"] == exact.factorization_error(n, j, gamma, t, p)
        else:
            assert "factorization_error" not in row

    @pytest.mark.parametrize("j, gamma", [(0.05, 0.1), (0.0, 0.1), (0.05, 0.0)])
    def test_factorization_row_reuses_the_joint_evolution(self, monkeypatch, j, gamma):
        # the row's own state is the joint side: 3 evolves (joint, depolarize,
        # squeeze), not 4; a zero-rate row leaves that generator out of its
        # own evolve and still gives the library's factorization error
        n, p, t = 3, 0.9, 0.3
        expected = exact.factorization_error(n, j, gamma, t, p)
        pdict = dict(cli._DEFAULT_PARAMS, n_spins=n, polarization_p=p,
                     j_coupling=j, gamma=gamma, t_squeeze=t)
        calls = []
        evolve = exact.evolve

        def counting(*args, **kwargs):
            calls.append(args)
            return evolve(*args, **kwargs)

        monkeypatch.setattr(exact, "evolve", counting)
        row = cli._row_exact(pdict, {"with_factorization": True})
        assert len(calls) == 3
        assert row["factorization_error"] == expected

    def test_row_builds_no_spin_operator(self, monkeypatch):
        # every cell is read from the state's entries (exact.collective_moments):
        # no collective or per-site operator matrix is built, no trace taken
        n = 4
        calls = {"spin_operators": 0, "measure": 0, "site_operator": 0}
        for name in calls:
            def counting(*args, _name=name, _fn=getattr(exact, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(exact, name, counting)
        pdict = dict(cli._DEFAULT_PARAMS, n_spins=n, j_coupling=0.05, gamma=0.1,
                     t_squeeze=0.3)
        assert cli._row_exact(pdict, {})["status"] == "ok"
        assert calls == {"spin_operators": 0, "measure": 0, "site_operator": 0}

    @pytest.mark.parametrize("t, factorize, checks", [(0.3, False, 1), (0.0, False, 1),
                                                      (0.3, True, 3)])
    def test_row_checks_each_final_state_once(self, monkeypatch, t, factorize, checks):
        # the row reads the residuals of evolve's accepted pass; it runs
        # channel_residuals itself only when evolve ran no RK4 pass (T = 0)
        calls = []
        channel_residuals = exact.channel_residuals

        def counting(rho):
            calls.append(rho)
            return channel_residuals(rho)

        monkeypatch.setattr(exact, "channel_residuals", counting)
        pdict = dict(cli._DEFAULT_PARAMS, n_spins=3, j_coupling=0.05, gamma=0.1,
                     t_squeeze=t)
        row = cli._row_exact(pdict, {"with_factorization": factorize})
        assert len(calls) == checks
        rho = exact.evolve(exact.build_initial_state(3, 1.0),
                           [exact.squeeze_generator(3, 0.05),
                            exact.depolarize_generator(3, 0.1)], t)
        assert (row["trace_residual"], row["hermiticity_residual"],
                row["min_eigenvalue"]) == channel_residuals(rho)

    def test_cap_exceeded_exits_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "[params]\nn_spins = 12\n")
        out = str(tmp_path / "o.csv")
        assert cli.main(["exact", "--config", cfg, "--out", out]) == 1
        assert "4^N" in capsys.readouterr().err

    def test_huge_rates_are_a_row_status(self, tmp_path, capsys):
        # J T = 1 and 4 Gamma T = 1, but rates of 1e300 overflow the RK4
        # pass: a whole-row status, not the end of the sweep
        cfg = write_config(tmp_path, (
            "[params]\nn_spins = 2\nj_coupling = 1e300\nt_squeeze = 1e-300\n"
            "gamma = 0\npolarization_p = 1\n"))
        out = str(tmp_path / "o.csv")
        assert cli.main(["exact", "--config", cfg, "--out", out, "--no-timing"]) == 0
        comments, _, rows = read_rows(out)
        assert "# INCOMPLETE" not in comments
        assert len(rows) == 1 and rows[0]["status"].startswith("RK4 pass of ")
        assert rows[0]["mean_sz_per_site"] == ""
        cfg = write_config(tmp_path, (
            "[verify]\nn_min = 2\nn_max = 3\nalpha = 1\ngamma = 1e300\n"
            "polarization_p = 1\n"))
        assert cli.main(["verify", "--config", cfg, "--out", out, "--no-timing"]) == 1
        comments, _, rows = read_rows(out)
        assert "# INCOMPLETE" not in comments
        assert [r["n_spins"] for r in rows] == ["2", "3"]
        for row in rows:
            assert row["status"].startswith("RK4 pass of ")
            assert row["factorization_error"] == ""
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.strip() == "FAIL: insufficient usable rows (0)"


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

    def test_grid_goes_through_the_module_attributes(self, tmp_path, monkeypatch):
        # the grid's optima come from one array call of each function, as
        # looked up on the module (where a tracer wraps it), even with no
        # row for the scalar call to settle
        calls = []
        for name in ("optimal_theta", "optimal_u"):
            def counting(alpha, _fn=getattr(optimize, name), _name=name):
                calls.append((_name, np.shape(alpha)))
                return _fn(alpha)
            monkeypatch.setattr(optimize, name, counting)
        cfg = write_config(tmp_path, (
            "[params]\nn_spins = 10\npolarization_p = 1.0\ngamma = 0.25\n"
            "[sweep]\naxis = j_coupling 0.5 5.0 5 log\n"))  # alpha 5..50
        out = str(tmp_path / "o.csv")
        assert cli.main(["optimize", "--config", cfg, "--out", out, "--no-timing"]) == 0
        assert all(r["status"] == "ok" for r in read_rows(out)[2])
        assert calls == [("optimal_theta", (5,)), ("optimal_u", (5,))]


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

    def test_partly_capped_range_fits_the_rows_below_the_cap(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "[verify]\nn_min = 2\nn_max = 4\n[run]\nn_cap = 3\n")
        out = str(tmp_path / "o.csv")
        assert cli.main(["verify", "--config", cfg, "--out", out, "--no-timing"]) == 1
        comments, _, rows = read_rows(out)
        assert [r["n_spins"] for r in rows] == ["2", "3", "4"]
        gamma, t = 0.25, 1.0  # the defaults, T = 1/(4 Gamma)
        errors = []
        for n, row in zip((2, 3), rows):
            j = 4 * gamma * 5.0 / n
            errors.append(exact.factorization_error(n, j, gamma, t, 1.0))
            comm = exact.commutator_action_norm(n, j, gamma, 1.0)
            assert row["j_coupling"] == f"{j:.15g}" and row["status"] == "ok"
            assert row["factorization_error"] == f"{errors[-1]:.15g}"
            assert row["commutator_norm"] == f"{comm.value:.15g}"
            assert row["commutator_degenerate"] == str(comm.degenerate).lower()
        capped = rows[2]
        assert "exceeds the cap 3" in capped["status"] and capped["alpha"] == "5"
        for key in ("factorization_error", "commutator_norm", "commutator_degenerate"):
            assert capped[key] == ""
        slope = np.polyfit(np.log([2, 3]), np.log(errors), 1)[0]
        summary = capsys.readouterr().out.strip()
        assert comments[-1] == f"# summary: {summary}"
        assert summary.startswith(f"FAIL: slope={slope:.4f} ")

    def test_two_workers_run_the_rows_on_a_pool_with_the_same_bytes(self, tmp_path,
                                                                     monkeypatch):
        # a partly capped range: the capped N = 4 row is a status on both paths
        cfg = write_config(tmp_path, "[verify]\nn_min = 2\nn_max = 4\n[run]\nn_cap = 3\n")
        outs = []
        for workers in ("1", "2"):
            out = tmp_path / f"w{workers}.csv"
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(["verify", "--config", cfg, "--out", str(out),
                                 "--workers", workers, "--no-timing"]) == 1
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        # one pool, sized to the three rows
        monkeypatch.setattr(RecordingPool, "sizes", [])
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        out = tmp_path / "w8.csv"
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["verify", "--config", cfg, "--out", str(out),
                             "--workers", "8", "--no-timing"]) == 1
        assert RecordingPool.sizes == [3]
        assert out.read_bytes() == outs[0]

    def test_unexpected_error_in_a_row_keeps_the_rows_before_it(self, tmp_path, monkeypatch,
                                                                capsys):
        norm = exact.commutator_action_norm

        def broken(n_spins, *args):
            if n_spins == 3:
                raise RuntimeError("broken at N = 3")
            return norm(n_spins, *args)

        monkeypatch.setattr(exact, "commutator_action_norm", broken)
        cfg = write_config(tmp_path, "[verify]\nn_min = 2\nn_max = 4\n")
        out = str(tmp_path / "o.csv")
        assert cli.main(["verify", "--config", cfg, "--out", out, "--no-timing"]) == 1
        comments, header, rows = read_rows(out)
        assert header == documented_header("verify")
        assert [(r["n_spins"], r["status"]) for r in rows] == [("2", "ok")]
        assert comments[-1] == "# INCOMPLETE"
        captured = capsys.readouterr()
        assert captured.err.strip().splitlines()[-1] == "error: task failed: broken at N = 3"
        assert captured.out.strip() == "FAIL: insufficient usable rows (1)"

    def test_one_large_row_takes_few_generator_applications(self, tmp_path, monkeypatch):
        # the joint and both split evolves of the N = 7 row: 2764 RK4 steps,
        # which stage by stage took 4 applications each (11 056)
        applies = []
        evolve = exact.evolve

        def counted(rho, gens, duration, stats=None):
            stats = {} if stats is None else stats
            out = evolve(rho, gens, duration, stats)
            applies.append((stats["n_steps"], stats["applies"]))
            return out

        monkeypatch.setattr(exact, "evolve", counted)
        cfg = write_config(tmp_path, "[verify]\nn_min = 7\nn_max = 7\nalpha = 5\ngamma = 0.25\n")
        assert cli.main(["verify", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 0
        assert sum(n for n, _ in applies) == 2764
        assert len(applies) == 3 and sum(a for _, a in applies) < 200


class TestAllEngine:
    def sweep(self, tmp_path, text, engine):
        cfg = write_config(tmp_path, text + f"engine = {engine}\n", name=f"{engine}.cfg")
        out = str(tmp_path / f"{engine}.csv")
        assert cli.main(["sweep", "--config", cfg, "--out", out, "--no-timing"]) == 0
        return read_rows(out)[1:]

    def test_keeps_the_first_status_that_is_not_ok(self, tmp_path):
        # T = 0: the analytic part of each row has a domain status, the
        # linearized and exact parts are ok
        text = ("[params]\nn_spins = 3\nt_squeeze = 0\n"
                "[sweep]\naxis = j_coupling 0 0.1 2 linear\n[run]\n")
        _, analytic_rows = self.sweep(tmp_path, text, "analytic")
        _, all_rows = self.sweep(tmp_path, text, "all")
        for one, both in zip(analytic_rows, all_rows, strict=True):
            assert both["snr_while_measuring"] == ""
            assert both["status"] == one["status"] == (
                "snr_while_measuring: snr_squeeze_while_measure requires J > 0 and T > 0")

    def test_ok_row_is_the_union_of_the_engine_rows(self, tmp_path):
        text = ("[params]\nn_spins = 3\nj_coupling = 0.05\nt_squeeze = 0.3\n"
                "[sweep]\naxis = gamma 0 0.1 2 linear\n"
                "[run]\nwith_factorization = true\n")
        parts = [self.sweep(tmp_path, text, e) for e in ("analytic", "linearized", "exact")]
        header, rows = self.sweep(tmp_path, text, "all")
        assert header == list(dict.fromkeys(
            k for part_header, _ in parts for k in part_header if k != "status")) + ["status"]
        for i, row in enumerate(rows):
            assert row["status"] == "ok"
            assert row == {k: v for _, part_rows in parts for k, v in part_rows[i].items()}


class TestColumnDocs:
    @pytest.mark.parametrize("command",
                             ["analytic", "linearized", "exact", "optimize", "all", "verify"])
    def test_written_columns_are_the_documented_ones(self, tmp_path, command):
        for factorize, timing in itertools.product((False, True), repeat=2):
            cfg = write_config(tmp_path, (
                f"[run]\nengine = {command if command != 'verify' else 'all'}\n"
                f"with_factorization = {factorize}\n[verify]\nn_min = 2\nn_max = 2\n"))
            out = str(tmp_path / "o.csv")
            argv = ["sweep" if command == "all" else command, "--config", cfg, "--out", out]
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv + ([] if timing else ["--no-timing"])) == 0
            _, header, rows = read_rows(out)
            assert len(rows) == 1
            assert header == documented_header(command, factorize, timing)
            assert header[-2:] == ["status", "wall_time"] if timing else header[-1] == "status"

    # every point invalid (Gamma < 0), and a zero-count axis
    @pytest.mark.parametrize("axis, n_rows", [("gamma -1 -0.5 2", 2), ("gamma 0.1 1 0", 0)])
    @pytest.mark.parametrize("factorize", [False, True])
    @pytest.mark.parametrize("engine", ["analytic", "linearized", "exact", "optimize", "all"])
    def test_grid_without_engine_rows_writes_the_full_header(self, tmp_path, engine, factorize,
                                                             axis, n_rows):
        cfg = write_config(tmp_path, (
            f"[sweep]\naxis = {axis} linear\n"
            f"[run]\nengine = {engine}\nwith_factorization = {factorize}\n"))
        out = str(tmp_path / "o.csv")
        assert cli.main(["sweep", "--config", cfg, "--out", out, "--no-timing"]) == 0
        _, header, rows = read_rows(out)
        assert header == documented_header(engine, factorize)
        assert len(rows) == n_rows
        for row in rows:
            assert row["status"] == "invalid: GAMMA_NONNEGATIVE"
            assert not any(row[k] for k in header[len(cli.PARAM_FIELDS):-1])

    def test_verify_with_every_row_failed_writes_the_full_header(self, tmp_path):
        # n_cap = 1 refuses N = 2 and 3: every row is a status
        cfg = write_config(tmp_path, "[verify]\nn_min = 2\nn_max = 3\n[run]\nn_cap = 1\n")
        out = str(tmp_path / "o.csv")
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["verify", "--config", cfg, "--out", out, "--no-timing"]) == 1
        _, header, rows = read_rows(out)
        assert header == documented_header("verify")
        assert [r["n_spins"] for r in rows] == ["2", "3"]
        for row in rows:
            assert "exceeds the cap 1" in row["status"]
            assert row["factorization_error"] == row["commutator_norm"] == ""


class TestSpinCap:
    @pytest.mark.parametrize("command, text", [
        ("exact", "[params]\nt_squeeze = 0.1\n[sweep]\naxis = n_spins 2 4 3 linear\n"),
        ("verify", "[verify]\nn_min = 2\nn_max = 4\n"),
    ])
    def test_capped_row_builds_no_oracle_state(self, tmp_path, monkeypatch, command, text):
        # n_cap = 3: the N = 4 row is refused before any exact builder runs
        built = []
        for name in ("build_initial_state", "tact_hamiltonian"):
            def counting(n_spins, *args, _build=getattr(exact, name)):
                built.append(n_spins)
                return _build(n_spins, *args)
            monkeypatch.setattr(exact, name, counting)
        cfg = write_config(tmp_path, text + "[run]\nn_cap = 3\n")
        out = str(tmp_path / "o.csv")
        with (contextlib.redirect_stdout(io.StringIO()),
              contextlib.redirect_stderr(io.StringIO()) as err):
            assert cli.main([command, "--config", cfg, "--out", out, "--no-timing"]) == 1
        assert sorted(set(built)) == [2, 3]
        capped = "n_spins=4 exceeds the cap 3: a dense density matrix costs 16*4^N"
        if command == "exact":
            assert err.getvalue().startswith(f"error: {capped}")
        else:
            assert read_rows(out)[2][-1]["status"].startswith(capped)

    @pytest.mark.parametrize("n", [8000, 10 ** 6])
    def test_huge_n_gets_the_cap_message(self, tmp_path, n):
        # 16*4^N has over 4300 digits from N = 7141 on, too many to print
        # as an integer: the message gives it as 2^(2N + 4)
        capped = (f"n_spins={n} exceeds the cap 10: a dense density matrix costs "
                  f"16*4^N = 2^{2 * n + 4} bytes")
        cfg = write_config(tmp_path, f"[params]\nn_spins = {n}\n")
        out = str(tmp_path / "o.csv")
        with contextlib.redirect_stderr(io.StringIO()) as err:
            assert cli.main(["exact", "--config", cfg, "--out", out, "--no-timing"]) == 1
        assert err.getvalue().startswith(f"error: {capped}")
        # verify keeps both capped N as rows of the study and goes on
        cfg = write_config(tmp_path, f"[verify]\nn_min = {n - 1}\nn_max = {n}\n")
        with (contextlib.redirect_stdout(io.StringIO()),
              contextlib.redirect_stderr(io.StringIO()) as err):
            assert cli.main(["verify", "--config", cfg, "--out", out, "--no-timing"]) == 1
        assert err.getvalue() == ""
        _, _, rows = read_rows(out)
        assert [r["n_spins"] for r in rows] == [str(n - 1), str(n)]
        assert rows[-1]["status"].startswith(capped)
        assert "# INCOMPLETE" not in Path(out).read_text()


def _changed(value):
    """Another valid value of a [params] key: half of it, or 0.5 for 0."""
    return value // 2 if isinstance(value, int) else (value / 2 or 0.5)


class TestEveryParameterReachesACell:
    @pytest.mark.parametrize("key", cli.PARAM_FIELDS)
    def test_changing_one_parameter_moves_a_closed_form_cell(self, tmp_path, key):
        # a [params] key that no engine cell reads is a dead input
        moved = []
        for engine in CLOSED_FORM:
            cells = []
            for value in (cli._DEFAULT_PARAMS[key], _changed(cli._DEFAULT_PARAMS[key])):
                cfg = write_config(tmp_path, f"[params]\n{key} = {value}\n")
                out = str(tmp_path / "o.csv")
                assert cli.main([engine, "--config", cfg, "--out", out, "--no-timing"]) == 0
                _, header, (row,) = read_rows(out)
                assert row[key] == f"{value:.15g}"
                cells.append({k: row[k] for k in header[len(cli.PARAM_FIELDS):-1]})
            moved += [f"{engine}.{k}" for k in cells[0] if cells[0][k] != cells[1][k]]
        assert moved, f"no closed-form cell reads {key}"


CONFIG_DOCS = DOCS.with_name("config_format.md")


class TestConfigDocs:
    def tables(self):
        """The sections docs/config_format.md names, and each keyed section's
        table: key -> its documented default.  A heading naming one section
        holds its table of keys."""
        documented, tables = set(), {}
        for section in CONFIG_DOCS.read_text().split("\n## ")[1:]:
            title, _, body = section.partition("\n")
            names = re.findall(r"`\[(\w+)\]`", title)
            documented.update(names)
            if len(names) == 1:
                tables[names[0]] = {
                    key: default.strip("`") for key, default
                    in re.findall(r"^\| `(\w+)`\s*\|\s*([^|]*?)\s*\|", body, re.M)}
        return documented, tables

    def test_documented_keys_are_the_accepted_ones(self):
        documented, tables = self.tables()
        assert documented == {*cli._OPTIONS, "sweep"}
        for name in ("params", "run", "verify"):
            assert set(tables[name]) == set(cli._OPTIONS[name]), name

    def test_documented_defaults_are_the_loaded_ones(self):
        _, tables = self.tables()
        loaded = cli.load_config(None)
        for name in ("params", "run", "verify"):
            for key, text in tables[name].items():
                if (name, key) == ("verify", "t_squeeze"):  # the one dependent default
                    assert text == "1/(4Γ)" and loaded[name][key] is None
                else:
                    value = cli._OPTIONS[name][key].parse(text)
                    assert loaded[name][key] == value == cli._OPTIONS[name][key].default, key


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

    def test_every_command_writes_the_same_bytes_for_any_worker_count(self, tmp_path):
        # an invalid point (Gamma < 0) and a capped N (4 > n_cap) on every
        # command: exact and all end the sweep there, verify writes its status
        cfg = write_config(tmp_path, (
            "[params]\nj_coupling = 0.05\nt_squeeze = 0.1\n"
            "[sweep]\naxis0 = n_spins 2 4 3 linear\naxis1 = gamma -0.1 0.1 2 linear\n"
            "[run]\nengine = all\nn_cap = 3\nwith_factorization = true\n"
            "[verify]\nn_min = 2\nn_max = 4\n"))
        for command in ("analytic", "linearized", "optimize", "exact", "sweep", "verify"):
            outs = []
            for workers in ("1", "2"):
                out = tmp_path / f"{command}.w{workers}.csv"
                with (contextlib.redirect_stdout(io.StringIO()),
                      contextlib.redirect_stderr(io.StringIO())):
                    code = cli.main([command, "--config", cfg, "--out", str(out),
                                     "--workers", workers, "--no-timing"])
                outs.append((code, out.read_bytes()))
            assert outs[0] == outs[1], command
            assert (outs[0][0] == 1) == (command in ("exact", "sweep", "verify")), command
            assert b"invalid: GAMMA_NONNEGATIVE" in outs[0][1] or command == "verify"

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


CLOSED_FORM = ("analytic", "linearized", "optimize")


def _groups(p: dict) -> dict:
    g = core.derive_dimensionless(core.ProtocolParams(**p))
    return {"theta": g.theta, "alpha": "" if g.alpha_infinite else g.alpha,
            "alpha_infinite": g.alpha_infinite, "p_eff": g.p_eff}


def _guard(cells: dict, key: str, prefix: str, value) -> None:
    """cells[key] = value(); on a DomainError the cell is '' and, unless the
    row has a status already, the status names the cell."""
    try:
        cells[key] = value()
    except DomainError as exc:
        cells[key] = ""
        cells.setdefault("status", f"{prefix}: {exc}")


def _analytic_cells(p: dict) -> dict:
    args = (p["j_coupling"], p["n_spins"], p["polarization_p"], p["gamma"], p["t_squeeze"])
    cells = _groups(p)
    xi = analytic.xi2_min(*args)
    cells.update(xi2_paper=xi.xi2, exponent_arg=xi.exponent_arg, regime=xi.regime)
    _guard(cells, "snr_while_measuring", "snr_while_measuring",
           lambda: analytic.snr_squeeze_while_measure(*args).snr_per_root_time)
    _guard(cells, "snr_squeeze_then_measure", "snr_squeeze_then_measure",
           lambda: analytic.snr_squeeze_then_measure(*args, p["t_signal"]).snr_per_root_time)
    return cells


def _linearized_cells(p: dict) -> dict:
    cells = _groups(p)
    n, j, p_eff = p["n_spins"], p["j_coupling"], cells["p_eff"]
    kappa = j * n * p_eff
    vac = linearized.squeezed_vacuum(kappa * p["t_squeeze"])
    sig = linearized.signal(p["b_field"], j, n * p_eff, p["t_signal"])
    cells.update(kappa=kappa, min_quadrature_variance=vac.min_variance,
                 min_variance_angle=vac.angle, isotropic=vac.isotropic, cov_det=vac.cov_det,
                 signal=sig.value, signal_degenerate=sig.degenerate)
    return cells


OPTIMIZE_KEYS = ("theta_star", "xi2_at_theta_star", "theta_at_boundary", "u_star",
                 "u_at_boundary", "snr_at_u_star", "improvement_factor")


def _optimize_cells(p: dict) -> dict:
    cells = _groups(p)
    if cells["alpha_infinite"]:
        return dict(cells, **dict.fromkeys(OPTIMIZE_KEYS, ""),
                    status="alpha infinite (gamma = 0)")
    alpha, n, pol, gamma = cells["alpha"], p["n_spins"], p["polarization_p"], p["gamma"]
    th = optimize.optimal_theta(alpha)
    uo = optimize.optimal_u(alpha)
    cells.update(theta_star=th.argmax,
                 xi2_at_theta_star=analytic.xi2_min_dimensionless(alpha, th.argmax, pol).xi2,
                 theta_at_boundary=th.at_boundary, u_star=uo.argmax,
                 u_at_boundary=uo.at_boundary)
    _guard(cells, "snr_at_u_star", "snr_optimum_strong",
           lambda: analytic.snr_optimum_strong(alpha, n, gamma, pol).snr_per_root_time)
    _guard(cells, "improvement_factor", "improvement_factor",
           lambda: 1.0 if uo.at_boundary else analytic.improvement_factor(alpha))
    return cells


REFERENCE_CELLS = {"analytic": _analytic_cells, "linearized": _linearized_cells,
                   "optimize": _optimize_cells}


def reference_row(p: dict, engine: str) -> dict:
    """One point's row, assembled from the scalar library calls alone: an
    invalid point or a TactError outside a guarded cell leaves the inputs
    and the status; any other error propagates."""
    violations = core.validate(core.ProtocolParams(**p))
    if violations:
        return dict(p, status="invalid: " + " ".join(v.code for v in violations))
    try:
        cells = REFERENCE_CELLS[engine](p)
    except TactError as exc:
        return dict(p, status=str(exc))
    cells.setdefault("status", "ok")
    return dict(p, **cells)


def oracle_reference_row(p: dict, engine: str, run: dict) -> dict:
    """One point's `exact` or `all` row, assembled per point: reference_row's
    analytic and linearized parts (for `exact`, the groups alone) and
    cli._row_exact's cells, which test_row_equals_library_calls pins to the
    library.  A row keeps its first status that is not ok; a TactError of
    the oracle other than a ResourceLimitError leaves the inputs and its
    status; any other error propagates."""
    first = reference_row(p, "analytic" if engine == "all" else "linearized")
    if first.keys() == {*p, "status"}:  # invalid, or a whole-row status
        return first
    if engine == "all":
        row = first
        row.update((k, v) for k, v in reference_row(p, "linearized").items() if k != "status")
    else:
        row = dict(p, **_groups(p))
    try:
        cells = cli._row_exact(p, run)
    except ResourceLimitError:
        raise
    except TactError as exc:
        return dict(p, status=str(exc))
    status = row.get("status", "ok")
    row.update(cells)
    if status != "ok":
        row["status"] = status
    return row


def _text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.15g}"
    return str(value)


def row_path_output(cfg_path: str, engine: str) -> tuple[list[str], int, str | None]:
    """What a sweep should write, point by point: each grid point's
    reference_row (oracle_reference_row for `exact` and `all`) in index
    order, written by csv.writer under the header docs/csv_columns.md
    gives the engine; the first error ends the sweep."""
    cfg = cli.load_config(cfg_path)
    n, params = cli.build_grid(cfg)
    rows, error = [], None
    for i in range(n):
        point = {name: values[index[i]] for name, (values, index) in params.items()}
        try:
            rows.append(oracle_reference_row(point, engine, cfg["run"])
                        if engine in ("exact", "all") else reference_row(point, engine))
        except Exception as exc:  # noqa: BLE001 -- ends the sweep, as in run_sweep
            error = exc
            break
    header = documented_header(engine, cfg["run"].get("with_factorization", False))
    assert all(r.keys() <= set(header) for r in rows)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_text(r.get(k, "")) for k in header] for r in rows)
    lines = out.getvalue().splitlines()
    if error is not None:
        lines.append("# INCOMPLETE")
        prefix = "" if isinstance(error, ResourceLimitError) else "task failed: "
        return lines, 1, f"error: {prefix}{error}"
    return lines, 0, None


# (lo, hi) pairs per axis: zeros (Gamma = 0 is alpha infinite; J, T and t = 0
# are domain edges), invalid values, and J = 20 (alpha/e ~ 736 at N = 100,
# Gamma = 0.25), where optimize aborts the sweep
AXIS_BOUNDS = {
    "j_coupling": [(0.0, 0.3), (1e-3, 1.0), (-0.05, 0.2), (0.1, 20.0), (0.0, 40.0)],
    "gamma": [(0.0, 0.25), (0.01, 1.0), (-0.01, 0.25), (0.25, 0.25)],
    "t_squeeze": [(0.0, 0.5), (0.5, 2.0), (-0.5, 0.5)],
    "t_signal": [(0.0, 1.0), (1.0, 3.0)],
    "polarization_p": [(0.5, 1.0), (0.0, 1.5)],
    "n_spins": [(1, 9)],
}


@st.composite
def closed_form_configs(draw) -> str:
    lines = ["[params]",
             f"n_spins = {draw(st.sampled_from([1, 3, 100]))}",
             f"polarization_p = {draw(st.sampled_from([0.9, 1.0]))}",
             f"j_coupling = {draw(st.sampled_from([0.0, 0.05, 20.0]))}",
             f"gamma = {draw(st.sampled_from([0.0, 0.01, 0.25]))}",
             f"b_field = {draw(st.sampled_from([0.0, 0.2]))}",
             f"t_squeeze = {draw(st.sampled_from([0.0, 0.5, 3.0]))}",
             f"t_signal = {draw(st.sampled_from([0.0, 1.0]))}",
             "[sweep]"]
    names = draw(st.lists(st.sampled_from(sorted(AXIS_BOUNDS)), min_size=1, max_size=2))
    for k, name in enumerate(names):
        lo, hi = draw(st.sampled_from(AXIS_BOUNDS[name]))
        lines.append(f"axis{k} = {name} {lo} {hi} {draw(st.integers(1, 3))} linear")
    return "\n".join(lines) + "\n"


def no_oracle_task(*args, **kwargs):
    raise AssertionError("closed-form sweeps evaluate the grid only")


class TestClosedFormGrid:
    # every public closed form, by module attribute, as perfbench/tracing.py wraps them
    CLOSED_FORMS = {analytic: ("xi2_min", "xi2_min_dimensionless", "xi2_strong_squeezing",
                               "snr_squeeze_while_measure", "snr_squeeze_then_measure",
                               "snr_optimum_strong", "improvement_factor"),
                    optimize: ("optimal_theta", "optimal_u")}

    @pytest.mark.parametrize("engine, called", [
        ("analytic", {"xi2_min", "snr_squeeze_while_measure", "snr_squeeze_then_measure"}),
        ("optimize", {"optimal_theta", "optimal_u", "xi2_min_dimensionless",
                      "snr_optimum_strong", "improvement_factor"})])
    def test_each_closed_form_is_one_array_call_per_sweep(self, tmp_path, monkeypatch,
                                                          engine, called):
        # J = 0 and T = 0 rows are domain statuses of a guarded cell (analytic)
        # or whole-row statuses (optimize), as are 4 Gamma T = 2000 (analytic)
        # and alpha/e <= 1 (snr_optimum_strong); J = 30 (alpha/e ~ 993) ends
        # optimize at row 8
        calls = []
        for module, names in self.CLOSED_FORMS.items():
            for name in names:
                def spy(*args, _fn=getattr(module, name), _name=name):
                    calls.append((_name, args))
                    return _fn(*args)

                monkeypatch.setattr(module, name, spy)
        cfg = write_config(tmp_path, (
            "[params]\nn_spins = 100\npolarization_p = 0.9\nt_signal = 1.0\n[sweep]\n"
            "axis0 = j_coupling 0 30 3 linear\naxis1 = gamma 0.25 1000 2 linear\n"
            "axis2 = t_squeeze 0 0.5 2 linear\n"))
        out = tmp_path / "o.csv"
        with contextlib.redirect_stderr(io.StringIO()):
            code = cli.main([engine, "--config", cfg, "--out", str(out), "--no-timing"])
        statuses = [r["status"] for r in read_rows(str(out))[2]]
        assert (code, len(statuses)) == ((0, 12) if engine == "analytic" else (1, 8))
        assert sorted(name for name, _ in calls) == sorted(called)
        assert all(isinstance(a, np.ndarray) for _, args in calls for a in args), [
            (name, args) for name, args in calls]
        assert len(set(statuses)) > 2

    @settings(max_examples=60, deadline=None)
    @given(text=closed_form_configs())
    # J = 0 and Gamma = 0 rows first; optimize aborts on alpha/e ~ 736
    # (math range error); analytic writes a status where J N P T = 1000
    # underflows the divisor of both SNR formulas
    @example(text="[params]\nn_spins = 100\npolarization_p = 1.0\nt_squeeze = 0.5\n"
                  "[sweep]\naxis0 = j_coupling 0 20 3 linear\n"
                  "axis1 = gamma 0 0.25 2 linear\n")
    # T = 0 and t = 0 domain statuses, with invalid (negative) Gamma rows
    @example(text="[params]\nn_spins = 3\nt_squeeze = 0\n"
                  "[sweep]\naxis0 = t_signal 0 1 2 linear\n"
                  "axis1 = gamma -0.1 0.2 3 linear\n")
    # the first row has Gamma = 0 and J > 0: optimize's first engine cells
    # are '' with the status last
    @example(text="[params]\nn_spins = 3\nj_coupling = 0.05\n"
                  "[sweep]\naxis0 = gamma 0 0.25 2 linear\n")
    # invalid (t < 0) rows before optimize's abort row, one of them at the
    # aborting alpha/e ~ 736: an invalid point is settled before any call
    @example(text="[params]\nn_spins = 100\npolarization_p = 1.0\ngamma = 0.25\n"
                  "t_squeeze = 0.5\n[sweep]\naxis0 = j_coupling 10 20 2 linear\n"
                  "axis1 = t_signal -1 1 3 linear\n")
    # alpha/e = 710.3 at J = 19.308: only improvement_factor overflows
    # (optimal_u's e^{a-1} is finite below alpha/e ~ 710.78), and optimize
    # ends at that row with math range error
    @example(text="[params]\nn_spins = 100\npolarization_p = 1.0\ngamma = 0.25\n"
                  "t_squeeze = 0.5\n[sweep]\naxis0 = j_coupling 19.2 19.308 2 linear\n")
    def test_grid_path_writes_what_the_row_path_writes(self, text):
        # two rows a chunk: statuses, aborts and the float dedup all cross
        # chunk boundaries
        with (tempfile.TemporaryDirectory() as tmp, mock.patch.object(cli, "_CHUNK_ROWS", 2),
              mock.patch.object(cli, "_oracle", no_oracle_task)):
            cfg = Path(tmp) / "run.cfg"
            cfg.write_text(text)
            for engine in CLOSED_FORM:
                out = Path(tmp) / f"{engine}.csv"
                err = io.StringIO()
                with contextlib.redirect_stderr(err):
                    code = cli.main([engine, "--config", str(cfg), "--out", str(out),
                                     "--no-timing"])
                lines = [ln for ln in out.read_text().splitlines()
                         if not ln.startswith("#") or ln == "# INCOMPLETE"]
                want_lines, want_code, want_err = row_path_output(str(cfg), engine)
                got_err = (err.getvalue().strip().splitlines() or [None])[-1]
                assert (code, got_err) == (want_code, want_err), engine
                assert lines == want_lines, engine

    @pytest.mark.parametrize("engine", CLOSED_FORM)
    def test_log_grid_same_bytes_as_row_path(self, tmp_path, monkeypatch, engine):
        # enough rows that a last bit that depended on the array call (a
        # SIMD kernel's tail against a one-element call, say) reaches some
        # %.15g string; 17 chunks, the last one short
        monkeypatch.setattr(cli, "_CHUNK_ROWS", 97)
        monkeypatch.setattr(cli, "_oracle", no_oracle_task)
        cfg = write_config(tmp_path, (
            "[params]\nn_spins = 100\npolarization_p = 0.9\nt_squeeze = 0.5\n"
            "[sweep]\naxis = j_coupling 1e-3 0.5 40 log\naxis2 = gamma 0.01 1.0 40 log\n"))
        out = tmp_path / "o.csv"
        assert cli.main([engine, "--config", cfg, "--out", str(out), "--no-timing"]) == 0
        lines = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
        assert lines == row_path_output(cfg, engine)[0]

    def test_quoted_status_keeps_the_field_count(self, tmp_path):
        # J = 0, Gamma > 0: optimal_u's whole-row status has a comma
        cfg = write_config(tmp_path, (
            "[params]\nn_spins = 3\ngamma = 0.25\n"
            "[sweep]\naxis = j_coupling 0 1 2 linear\n"))
        out = tmp_path / "o.csv"
        assert cli.main(["optimize", "--config", cfg, "--out", str(out), "--no-timing"]) == 0
        assert '"requires alpha > 0, got 0.0"' in out.read_text()
        with open(out, newline="") as fh:
            fields = list(csv.reader(ln for ln in fh if not ln.startswith("#")))
        assert [len(f) for f in fields] == [len(fields[0])] * 3
        assert dict(zip(fields[0], fields[1]))["status"] == "requires alpha > 0, got 0.0"

    @pytest.mark.parametrize("engine", CLOSED_FORM)
    def test_two_workers_start_no_pool(self, tmp_path, monkeypatch, engine):
        def refuse(*args, **kwargs):
            raise AssertionError("closed-form engines run in process")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
        cfg = write_config(tmp_path, TestSweepDeterminism.CONFIG)
        out = str(tmp_path / "o.csv")
        assert cli.main([engine, "--config", cfg, "--out", out, "--workers", "2"]) == 0
        assert len(read_rows(out)[2]) == 100

    @pytest.mark.parametrize("engine", CLOSED_FORM)
    def test_timing_writes_wall_time(self, tmp_path, engine):
        cfg = write_config(tmp_path, TestSweepDeterminism.CONFIG)
        out = str(tmp_path / "o.csv")
        assert cli.main([engine, "--config", cfg, "--out", out]) == 0
        _, header, rows = read_rows(out)
        assert header[-1] == "wall_time"
        assert all(float(r["wall_time"]) > 0.0 for r in rows)


def sweep_output(cfg: Path, engine: str, workers: int = 1) -> tuple[list[str], int, str | None]:
    """The CSV lines (comments dropped, but for '# INCOMPLETE'), exit code and
    last stderr line of one --no-timing sweep."""
    out = cfg.with_suffix(f".{engine}.csv")
    text = cfg.read_text()  # its [run] section, if any, is the last
    text += ("" if "[run]" in text else "[run]\n") + f"engine = {engine}\n"
    cfg.with_suffix(".sweep").write_text(text)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(["sweep", "--config", str(cfg.with_suffix(".sweep")), "--out", str(out),
                         "--workers", str(workers), "--no-timing"])
    lines = [ln for ln in out.read_text().splitlines()
             if not ln.startswith("#") or ln == "# INCOMPLETE"]
    return lines, code, (err.getvalue().strip().splitlines() or [None])[-1]


ORACLE_AXES = {
    "n_spins": [(0, 2), (1, 3)],
    "j_coupling": [(0.0, 0.2), (-0.05, 0.1)],
    "gamma": [(0.0, 0.1), (-0.1, 0.2)],
    "t_squeeze": [(0.0, 0.3), (-0.3, 0.3)],
    "polarization_p": [(0.5, 1.0), (0.0, 1.5)],
    "t_signal": [(0.0, 1.0)],
}


@st.composite
def oracle_configs(draw) -> str:
    lines = ["[params]",
             f"n_spins = {draw(st.sampled_from([1, 2, 3]))}",
             f"polarization_p = {draw(st.sampled_from([0.9, 1.0]))}",
             f"j_coupling = {draw(st.sampled_from([0.0, 0.05]))}",
             f"gamma = {draw(st.sampled_from([0.0, 0.1]))}",
             f"t_squeeze = {draw(st.sampled_from([0.0, 0.3]))}",
             f"t_signal = {draw(st.sampled_from([0.0, 1.0]))}",
             "[sweep]"]
    names = draw(st.lists(st.sampled_from(sorted(ORACLE_AXES)), min_size=1, max_size=2))
    for k, name in enumerate(names):
        lo, hi = draw(st.sampled_from(ORACLE_AXES[name]))
        lines.append(f"axis{k} = {name} {lo} {hi} {draw(st.integers(0, 3))} linear")
    lines += ["[run]", f"n_cap = {draw(st.sampled_from([2, 10]))}",
              f"with_factorization = {draw(st.booleans())}"]
    return "\n".join(lines) + "\n"


class RecordingPool:
    """ProcessPoolExecutor's stand-in: records each pool's max_workers and
    maps in this process, so no process is started."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks, chunksize=1):
        return map(fn, tasks)


class TestOracleSweep:
    @settings(max_examples=40, deadline=None)
    @given(text=oracle_configs())
    # T = 200: every oracle row is a whole-row status (invariants violated),
    # and at Gamma = 1 all's analytic part settles the row before the oracle
    @example(text="[params]\nn_spins = 1\nj_coupling = 0\nt_squeeze = 200\n"
                  "[sweep]\naxis0 = gamma 0.1 1 2 linear\n[run]\nwith_factorization = true\n")
    # invalid P rows at N = 3 above n_cap: the sweep ends at the first
    # valid N = 3 row, and the invalid rows before it are never oracle rows
    @example(text="[params]\nj_coupling = 0.05\ngamma = 0.1\nt_squeeze = 0.3\n"
                  "[sweep]\naxis0 = n_spins 2 3 2 linear\n"
                  "axis1 = polarization_p 0 1.5 3 linear\n[run]\nn_cap = 2\n")
    # T = 0: all's analytic part has a domain status before its last cell;
    # J = 0 at N = 1: a zero mean-spin direction is the oracle's status
    @example(text="[params]\nn_spins = 1\nt_squeeze = 0\npolarization_p = 0\n"
                  "[sweep]\naxis0 = j_coupling 0 0.1 2 linear\n")
    def test_oracle_sweep_writes_what_the_row_path_writes(self, text):
        # two rows a chunk; the closed-form cells come from the grid record
        with (tempfile.TemporaryDirectory() as tmp, mock.patch.object(cli, "_CHUNK_ROWS", 2)):
            cfg = Path(tmp) / "run.cfg"
            cfg.write_text(text)
            for engine in ("exact", "all"):
                want_lines, want_code, want_err = row_path_output(str(cfg), engine)
                assert sweep_output(cfg, engine) == (want_lines, want_code, want_err), engine

    @pytest.mark.parametrize("engine", ["exact", "all"])
    def test_two_workers_write_what_the_row_path_writes(self, tmp_path, engine):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[params]\nj_coupling = 0.05\ngamma = 0.1\nt_squeeze = 0.3\n"
                       "[sweep]\naxis0 = n_spins 1 3 3 linear\n"
                       "axis1 = polarization_p 0.5 1.5 2 linear\n"
                       "[run]\nn_cap = 2\nwith_factorization = true\n")
        # invalid rows between oracle rows; the first N = 3 row ends the sweep
        want = row_path_output(str(cfg), engine)
        assert want[1] == 1 and "exceeds the cap 2" in want[2]
        assert sweep_output(cfg, engine, workers=2) == want

    @pytest.mark.parametrize("axis, sizes", [("n_spins 2 3 2", [2]), ("n_spins 2 2 1", []),
                                             ("gamma -1 -0.5 2", [])])
    def test_pool_is_sized_to_the_oracle_rows(self, tmp_path, monkeypatch, axis, sizes):
        # 2 oracle rows ask for 2 processes, 1 row and an all-invalid grid
        # start none, whatever --workers says
        monkeypatch.setattr(RecordingPool, "sizes", [])
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        cfg = write_config(tmp_path, f"[params]\nt_squeeze = 0.1\n[sweep]\naxis = {axis} linear\n")
        out = str(tmp_path / "o.csv")
        assert cli.main(["exact", "--config", cfg, "--out", out, "--workers", "8"]) == 0
        assert RecordingPool.sizes == sizes

    @pytest.mark.parametrize("engine", ["exact", "all"])
    def test_one_grid_record_and_no_point_validation(self, tmp_path, monkeypatch, engine):
        calls = []
        derive = core.derive_dimensionless

        def counting(*args, **kwargs):
            calls.append(args)
            return derive(*args, **kwargs)

        def refuse(*args, **kwargs):
            raise AssertionError("the grid record settles invalid points")

        monkeypatch.setattr(core, "derive_dimensionless", counting)
        monkeypatch.setattr(core, "validate", refuse)
        cfg = write_config(tmp_path, (
            "[params]\nn_spins = 2\nt_squeeze = 0.1\n"
            f"[sweep]\naxis = gamma -0.1 0.1 3 linear\n[run]\nengine = {engine}\n"))
        out = str(tmp_path / "o.csv")
        assert cli.main(["sweep", "--config", cfg, "--out", out, "--no-timing"]) == 0
        assert len(calls) == 1
        assert [r["status"][:8] for r in read_rows(out)[2]] == ["invalid:", "ok", "ok"]

    @pytest.mark.parametrize("engine", ["exact", "all"])
    def test_wall_time_is_the_oracle_time_plus_the_grid_share(self, tmp_path, engine):
        cfg = write_config(tmp_path, (
            f"[params]\nn_spins = 2\nt_squeeze = 0.1\n[run]\nengine = {engine}\n"
            "[sweep]\naxis = gamma -0.1 0.1 2 linear\n"))
        out = str(tmp_path / "o.csv")
        assert cli.main(["sweep", "--config", cfg, "--out", out]) == 0
        _, header, rows = read_rows(out)
        invalid, valid = (float(r["wall_time"]) for r in rows)
        assert header[-2:] == ["status", "wall_time"]
        assert 0.0 < invalid < valid
