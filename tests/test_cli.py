import concurrent.futures
import contextlib
import io
import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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

    def test_row_builds_the_spin_operators_once(self, monkeypatch):
        n = 4
        calls = []
        site_operator = exact.site_operator

        def counting(*args, **kwargs):
            calls.append(args)
            return site_operator(*args, **kwargs)

        monkeypatch.setattr(exact, "site_operator", counting)
        pdict = dict(cli._DEFAULT_PARAMS, n_spins=n, j_coupling=0.05, gamma=0.1,
                     t_squeeze=0.3)
        assert cli._row_exact(pdict, {})["status"] == "ok"
        assert len(calls) <= 3 * n

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


CLOSED_FORM = ("analytic", "linearized", "optimize")


def row_path_output(cfg_path: str, engine: str) -> tuple[list[str], int, str | None]:
    """What the row path gives for a closed-form sweep: every point through
    _run_point in index order, each cell formatted by _fmt, the header in
    order of first appearance; the first exception ends the sweep."""
    cfg = cli.load_config(cfg_path)
    n, params = cli.build_grid(cfg)
    rows, error = [], None
    for i in range(n):
        try:
            rows.append(cli._run_point((i, cli._grid_point(params, i), engine, {}, False)))
        except Exception as exc:  # noqa: BLE001 -- ends the sweep, as in run_sweep
            error = exc
            break
    header = (list(dict.fromkeys(k for r in rows for k in r if k != "_index"))
              or cli.PARAM_FIELDS + ["status"])
    lines = [",".join(header)]
    lines += [",".join(cli._fmt(r.get(k, "")) for k in header) for r in rows]
    if error is not None:
        lines.append("# INCOMPLETE")
        return lines, 1, f"error: task failed: {error}"
    return lines, 0, None


# (lo, hi) pairs per axis: zeros (Gamma = 0 is alpha infinite; J, T and t = 0
# are domain edges), invalid values, and J = 20 (alpha/e ~ 736 at N = 100,
# Gamma = 0.25), where optimize and analytic abort the sweep
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


class TestClosedFormGrid:
    @settings(max_examples=60, deadline=None)
    @given(text=closed_form_configs())
    # J = 0 and Gamma = 0 rows first; optimize aborts on alpha/e ~ 736
    # (math range error), analytic on J N P T = 1000 (division by zero)
    @example(text="[params]\nn_spins = 100\npolarization_p = 1.0\nt_squeeze = 0.5\n"
                  "[sweep]\naxis0 = j_coupling 0 20 3 linear\n"
                  "axis1 = gamma 0 0.25 2 linear\n")
    # T = 0 and t = 0 domain statuses, with invalid (negative) Gamma rows
    @example(text="[params]\nn_spins = 3\nt_squeeze = 0\n"
                  "[sweep]\naxis0 = t_signal 0 1 2 linear\n"
                  "axis1 = gamma -0.1 0.2 3 linear\n")
    def test_grid_path_writes_what_the_row_path_writes(self, text):
        # two rows a chunk: handoff rows, aborts and the float dedup all
        # cross chunk boundaries
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(cli, "_CHUNK_ROWS", 2):
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
        # enough rows that an exp differing in the last bit (as np.exp does
        # from math.exp on a few percent of inputs) reaches some %.15g string;
        # 17 chunks, the last one short
        monkeypatch.setattr(cli, "_CHUNK_ROWS", 97)
        cfg = write_config(tmp_path, (
            "[params]\nn_spins = 100\npolarization_p = 0.9\nt_squeeze = 0.5\n"
            "[sweep]\naxis = j_coupling 1e-3 0.5 40 log\naxis2 = gamma 0.01 1.0 40 log\n"))
        out = tmp_path / "o.csv"
        assert cli.main([engine, "--config", cfg, "--out", str(out), "--no-timing"]) == 0
        lines = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
        assert lines == row_path_output(cfg, engine)[0]

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
