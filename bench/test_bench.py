"""Tests of the benchmark's own parts: span arithmetic, output checks, tracer
hygiene and the metric names in BENCHMARK.json.

    PYTHONPATH=src python3 -m pytest -q bench
"""

import json
import warnings
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import spans
from advsynth.cli import main, make_scenario, parse_config

BENCH = Path(__file__).resolve().parent
CONFIGS = BENCH / "configs"


def span(name, start, end, parent, note=None):
    return [name, start, end, parent, 0, note]


def test_self_time_on_nested_tree():
    tree = [
        span("cli.main", 0.0, 10.0, -1),          # 0: children 1 and 4
        span("cli.synthesize", 1.0, 7.0, 0),      # 1: children 2 and 3
        span("continuous.difficulty", 2.0, 4.0, 1),
        span("continuous.difficulty", 4.5, 6.0, 1),
        span("cli.synthesize", 8.0, 9.5, 0),
    ]
    assert spans.self_times(tree) == pytest.approx([2.5, 2.5, 2.0, 1.5, 1.5])


def test_self_time_counts_overlapping_children_once():
    tree = [
        span("a", 0.0, 10.0, -1),
        span("b", 1.0, 5.0, 0),
        span("c", 3.0, 6.0, 0),
        span("d", 9.0, 12.0, 0),  # runs past its parent: only 9..10 counts
    ]
    assert spans.self_times(tree)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_layer_metrics_sum_jobs_and_pool_samples():
    job = [span("cli.main", 0.0, 1.0, -1),
           span("cli.synthesize_discrete", 0.1, 0.9, 0),
           span("discrete.one_step_difficulty", 0.2, 0.3, 1),
           span("scenarios.solve_reward", 0.21, 0.25, 2, "cold"),
           span("scenarios.solve_reward", 0.26, 0.27, 2)]
    summary = spans.summarize(job, artifact_bytes=100)
    metrics, samples = spans.layer_metrics([[summary, summary], [summary]])
    assert metrics["discrete.synth_calls"] == 2
    assert metrics["cli.artifact_bytes"] == 200
    assert metrics["scenarios.reward_hit_ratio"] == pytest.approx(0.5)
    assert metrics["scenarios.reward_solve_ms"] == pytest.approx(80.0)
    assert metrics["discrete.self_ms"] == pytest.approx(2 * 700.0)
    assert samples["discrete.synth_ms_p50"] == 3


def _trial_rows(tmp_path, workload, count=2, seed=5):
    out = tmp_path / workload
    argv = ["trials", "--config", str(CONFIGS / f"{workload}.cfg"), "--seed", str(seed),
            "--count", str(count), "--out", str(out)]
    assert main(argv) == 0
    return json.loads((out / "trials.json").read_text())["per_trial"], out


def _scenario(workload):
    return make_scenario(parse_config(CONFIGS / f"{workload}.cfg"))


def test_gamma_check_rejects_flipped_verdict(tmp_path, capsys):
    rows, out = _trial_rows(tmp_path, "unicycle-gamma")
    scn = _scenario("unicycle-gamma")
    assert all(checks.gamma_row_ok(scn, row) for row in rows)
    doctored = dict(rows[0], in_gamma=False)
    assert not checks.gamma_row_ok(scn, doctored)
    # a test away from the blocking set: the oracle finds a safe input
    assert not checks.gamma_row_ok(scn, dict(rows[0], d_star=[1.0, 1.0]))
    assert checks.check_trials("unicycle-gamma", scn, 3, out, len(rows)) == [False] * len(rows)


def test_refine_check_rejects_moved_difficulty(tmp_path, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rows, _ = _trial_rows(tmp_path, "unicycle-refine", count=3, seed=1)
    scn = _scenario("unicycle-refine")
    assert all(checks.refine_row_ok(scn, row) for row in rows)
    open_rows = [row for row in rows if not row["in_gamma"]]
    assert open_rows
    row = open_rows[0]
    assert not checks.refine_row_ok(scn, dict(row, difficulty=row["difficulty"] - 1e-6))
    assert not checks.refine_row_ok(scn, dict(row, in_gamma=True))
    assert not checks.refine_row_ok(scn, dict(row, d_star=[1.5] + row["d_star"][1:]))


def test_grid_check_rejects_obstacle_off_goal(tmp_path, capsys):
    rows, _ = _trial_rows(tmp_path, "gridworld-cold")
    scn = _scenario("gridworld-cold")
    assert all(checks.grid_row_ok(scn, row) for row in rows)
    goal = rows[0]["goal"]
    moved = [goal[0], (goal[1] + 1) % 10]
    assert not checks.grid_row_ok(scn, dict(rows[0], d_star=moved))


def test_loop_check_rejects_command_off_corner_map(tmp_path, capsys):
    out = tmp_path / "episode"
    cfg = CONFIGS / "quadgrid-loop.cfg"
    argv = ["simulate", "--config", str(cfg), "--horizon", "1.0", "--state=1.3,0.6",
            "--out", str(out)]
    assert main(argv) == 0
    n_steps, dt, period = 100, 0.01, 0.5
    assert checks.check_episode(0, out, n_steps, dt, period)
    assert not checks.check_episode(3, out, n_steps, dt, period)
    assert not checks.check_episode(0, out, n_steps + 1, dt, period)

    monitor = json.loads((out / "monitor.json").read_text())
    trajectory = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1, ndmin=2)
    assert checks.loop_ok(monitor, trajectory, n_steps, dt, period)
    first_command = checks.command_rows(n_steps, dt, period)[1]
    doctored = trajectory.copy()
    doctored[first_command:, -4] += 0.5  # obstacle 0 moved off every corner
    assert not checks.loop_ok(monitor, doctored, n_steps, dt, period)


def test_loop_check_needs_every_file(tmp_path):
    (tmp_path / "monitor.json").write_text(json.dumps({"aborted": False, "samples": 101}))
    assert not checks.check_episode(0, tmp_path, 100, 0.01, 0.5)


def test_command_rows_follow_the_simulation_schedule():
    assert checks.command_rows(100, 0.01, 0.25) == [0, 25, 50, 75]


def _bindings():
    import importlib

    return {(m, a): getattr(importlib.import_module(m), a) for m, a in spans.BINDINGS}


def test_tracer_restores_every_binding():
    before = _bindings()
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert all(_bindings()[key] is not fn for key, fn in before.items())
    finally:
        tracer.uninstall()
    assert tracer.restored()
    assert all(_bindings()[key] is fn for key, fn in before.items())


def test_tracer_restores_after_a_failing_call():
    before = _bindings()
    tracer = spans.Tracer()
    tracer.install()
    try:
        from advsynth import continuous

        with pytest.raises(Exception):
            continuous.difficulty(None, None, None, 0.0)
    finally:
        tracer.uninstall()
    assert tracer.spans[-1][spans.NOTE] == spans.FAILED
    assert all(_bindings()[key] is fn for key, fn in before.items())


def test_traced_run_writes_identical_artifacts_and_repeats_counts(tmp_path, capsys):
    argv = ["trials", "--config", str(CONFIGS / "unicycle-refine.cfg"), "--seed", "3",
            "--count", "2"]
    assert main(argv + ["--out", str(tmp_path / "plain")]) == 0
    counts = []
    for k in range(2):
        out = tmp_path / f"traced{k}"
        tracer = spans.Tracer()
        tracer.install()
        try:
            assert tracer.call("cli.main", main, (argv + ["--out", str(out)],)) == 0
        finally:
            tracer.uninstall()
        assert (out / "trials.json").read_bytes() == (tmp_path / "plain" / "trials.json").read_bytes()
        counts.append(spans.summarize(tracer.spans, 0)["counts"])
    assert counts[0] == counts[1]
    assert counts[0]["continuous.synth_calls"] == 2
    assert counts[0]["continuous.evals"] == counts[0]["core.assembly_calls"]


def test_benchmark_json_names_what_the_benchmark_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == spans.PER_LAYER
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert set(e2e) == {"ops_per_s", "setup_s", "peak_rss_mb", "success_frac"}
