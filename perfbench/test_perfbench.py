"""Tests of the benchmark harness itself: python3 -m pytest perfbench"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
import tactsqueeze  # noqa: E402
import tactsqueeze.cli  # noqa: E402,F401
import tracing  # noqa: E402
import workloads  # noqa: E402


def _patched_attributes():
    names = [(getattr(tactsqueeze, layer), attr)
             for layer, attrs in tracing.LAYER_FUNCTIONS.items() for attr in attrs]
    return names + [(tactsqueeze.exact, attr) for attr in tracing.GENERATORS]


def test_wrappers_restore_module_attributes():
    originals = {(m, a): getattr(m, a) for m, a in _patched_attributes()}
    tracer = tracing.Tracer("test")
    with pytest.raises(RuntimeError):
        with tracer.installed(tactsqueeze):
            assert all(getattr(m, a) is not f for (m, a), f in originals.items())
            rho = tactsqueeze.exact.build_initial_state(2, 1.0)
            l1 = tactsqueeze.exact.squeeze_generator(2, 0.1)
            tactsqueeze.exact.evolve(rho, [l1], 0.1)
            raise RuntimeError("leaving the block by an exception")
    assert all(getattr(m, a) is f for (m, a), f in originals.items())
    sp = tracing.Spans(tracer)
    assert sp.count("exact.L1_apply") > 0
    # every RK4 pass inside evolve ends in one invariant check
    assert sp.under(("exact.channel_residuals",), ("exact.evolve",)).sum() >= 1


def test_self_time_excludes_children_and_groups_do_not_double_count():
    tracer = tracing.Tracer("test")

    def inner():
        return sum(range(1000))

    traced_inner = tracer.wrap("inner", inner)
    outer = tracer.wrap("outer", lambda: [traced_inner() for _ in range(3)])
    outer()
    sp = tracing.Spans(tracer)
    o = sp.mask("outer")
    assert sp.self_time[o][0] == pytest.approx(
        sp.duration[o][0] - sp.duration[sp.mask("inner")].sum(), abs=1e-12)
    assert sp.time("outer", "inner") == pytest.approx(sp.duration[o][0])


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    layers = tracing.layer_metrics(tracing.Tracer("empty"))
    added_by_measure = {"trace.overhead_s", "cli.pool_busy_share", "cli.pool_pass_s"}
    assert set(layers) | added_by_measure == set(run.PER_LAYER)


def test_inputs_depend_only_on_seed(tmp_path):
    for name in workloads.NAMES:
        a = workloads.make(name, 7, tmp_path / "a").inputs
        assert a == workloads.make(name, 7, tmp_path / "b").inputs
        assert a != workloads.make(name, 8, tmp_path / "c").inputs


def _optimize_step(tmp_path, j_axis):
    # Gamma = 0.01, T = 0.5: alpha = J N P / (4 Gamma) = 2250 J
    axes = [("j_coupling", *j_axis), ("gamma", 0.01, 0.01, 1), ("t_squeeze", 0.5, 0.5, 1)]
    return workloads.cf_step(tmp_path, "optimize_w1", "optimize", axes)


def test_aborted_sweep_counts_unwritten_rows_as_failed(tmp_path):
    # alpha = 225, 711, 2250: the last row overflows exp(alpha/e) in optimize
    # and aborts the sweep
    wl = workloads.make("closed_form_sweep", 0, tmp_path)
    step = _optimize_step(tmp_path, (0.1, 1.0, 3))
    acc = measure.account(wl, [measure.run_step(tactsqueeze, step, None)])
    assert acc["attempted"] == 3
    assert acc["failed"] == 1 and acc["completed"] == 2
    assert acc["aborts"][0]["rows_unwritten"] == 1
    assert "math range error" in acc["aborts"][0]["message"][0]
    assert acc["check_failures"] == 0


def test_unexpected_exit_fails_every_row_of_the_step(tmp_path):
    wl = workloads.make("closed_form_sweep", 0, tmp_path)
    step = _optimize_step(tmp_path, (0.1, 1.0, 3))
    Path(step.argv[step.argv.index("--config") + 1]).write_text("[params]\nno_such_key = 1\n")
    acc = measure.account(wl, [measure.run_step(tactsqueeze, step, None)])
    assert acc["failed"] == acc["attempted"] == 3
    assert acc["unexpected"][0]["exit_code"] == 2


def test_check_flags_a_wrong_value(tmp_path):
    wl = workloads.make("closed_form_sweep", 0, tmp_path)
    step = _optimize_step(tmp_path, (0.1, 0.3, 2))
    assert tactsqueeze.cli.main(step.argv) == 0
    _, rows = checks.read_csv(step.out)
    rows[1]["u_star"] = str(float(rows[1]["u_star"]) + 1e-3)
    report = checks.CheckReport()
    checks.check_optimize(wl, step, rows, report)
    assert report.failed_rows == {"optimize_w1": {1}}


def test_closed_form_abort_row_does_not_move_with_the_seed(tmp_path):
    # optimal_u overflows exp(alpha/e U) near U = 1 once alpha/e > ~709.8,
    # i.e. alpha > ~1.93e3; no grid row may fall near that threshold, so the
    # sweep aborts at the same row, and fails the same rows, for every seed
    for seed in range(50):
        wl = workloads.make("closed_form_sweep", seed, tmp_path)
        step = next(s for s in wl.steps if s.label == "optimize_w1")
        j, g, _ = checks._cf_grid(step)
        alpha = j * workloads.CF_N * workloads.CF_P / (4.0 * g)
        assert alpha.max() == pytest.approx(2250.0)
        assert np.argmax(alpha > 1.85e3) == np.argmax(alpha > 1.95e3) == 9700
