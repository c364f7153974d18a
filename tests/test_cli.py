import csv
import inspect
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from advsynth import (
    ScenarioError,
    build_gridworld,
    build_unicycle,
    difficulty,
    one_step_difficulty,
    predictive_difficulty,
    synthesize_predictive,
)
from advsynth import cli, discrete, scenarios
from advsynth.cli import main, make_scenario, parse_config
from advsynth.core import DEFAULT_BUDGET

REPO = Path(__file__).resolve().parent.parent


def write_config(tmp_path, text, name="scenario.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


UNICYCLE_CFG = """
# adversarial unicycle setup
scenario = unicycle
goal = 0.5, 0.5
obstacle_count = 1
seed = 7
"""

GRID_CFG = """
scenario = gridworld
goal = 7, 9
seed = 3
"""

QUAD_CFG = """
scenario = quadgrid
synth_period = 0.25
dt = 0.01
seed = 1
"""


def run_cli(capsys, args):
    rc = main(args)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_synth_unicycle_blocking(tmp_path, capsys):
    cfg = write_config(tmp_path, UNICYCLE_CFG)
    rc, out, _ = run_cli(capsys, ["synth", "--config", cfg, "--state=-0.5,0.5,0.7854"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["difficulty"] == -5.0
    assert payload["in_gamma"] is True
    assert payload["seed"] == 7
    assert payload["config"]["scenario"] == "unicycle"


def test_synth_gridworld_obstacle_on_goal(tmp_path, capsys):
    cfg = write_config(tmp_path, GRID_CFG)
    rc, out, _ = run_cli(capsys, ["synth", "--config", cfg, "--state", "3,5"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["d_star"] == [7, 9]
    assert payload["difficulty"] == 0.0


def test_synth_writes_artifact(tmp_path, capsys):
    cfg = write_config(tmp_path, GRID_CFG)
    out_dir = tmp_path / "out"
    rc, out, _ = run_cli(
        capsys, ["synth", "--config", cfg, "--state", "3,5", "--out", str(out_dir)]
    )
    assert rc == 0
    assert (out_dir / "synth.json").read_text() == out


@pytest.mark.parametrize(
    "bad,needle",
    [
        ("scenario = unicycle\ngoel = 0.5,0.5\n", "goel"),
        ("scenario = unicycle\nseed = not_a_number\n", "seed"),
        ("scenario = gridworld\nkappa = 10\n", "kappa"),
        ("scenario = unicycle\nseed = 1\nseed = 2\n", "duplicate"),
        ("goal = 1,1\n", "scenario"),
        ("scenario = spaceship\n", "scenario"),
        ("scenario = unicycle\ngrid_points = 0\n", "grid_points"),
        ("scenario = unicycle\nobstacle_count = 0\n", "obstacle_count"),
        ("scenario = unicycle\nkappa = -1\n", "kappa"),
        ("scenario = unicycle\nrefine_iterations = -3\n", "refine_iterations"),
        ("scenario = unicycle\nstep_tolerance = inf\n", "step_tolerance"),
        ("scenario = unicycle\nstep_tolerance = -1e-4\n", "step_tolerance"),
        ("scenario = unicycle\nseed = -3\n", "seed"),
        ("scenario = unicycle\ntau = 0.7\n", "tau"),
        # the discrete enumeration has DEFAULT_BUDGET, as every other search
        ("scenario = gridworld\nbudget = 10\n", "unknown key 'budget'"),
        # an infinite floor would report the easiest test as the hardest
        ("scenario = unicycle\nm = inf\n", "'m'"),
        ("scenario = gridworld\nm = -inf\n", "'m'"),
    ],
)
def test_malformed_config_exits_2(tmp_path, capsys, bad, needle):
    cfg = write_config(tmp_path, bad)
    rc, _, err = run_cli(capsys, ["synth", "--config", cfg, "--state", "0,0,0"])
    assert rc == 2
    assert needle in err


@pytest.mark.parametrize(
    "text,command,needle",
    [
        ("scenario = unicycle\nm = nan\n", ["synth", "--state=0,0,0"],
         "bad value for 'm': not a number"),
        ("scenario = unicycle\ngoal = ,\n", ["synth", "--state=0,0,0"],
         "expected a comma-separated list of numbers"),
        ("scenario = gridworld\ncheck_path = maybe\n", ["synth", "--state=3,5"],
         "expected true/false"),
        (None, ["synth", "--state=0,0,0"], "[Errno 2] No such file or directory"),
        ("scenario = unicycle\ngoal\n", ["synth", "--state=0,0,0"], "expected 'key = value'"),
        (UNICYCLE_CFG, ["synth", "--state=a,b,c"], "bad --state:"),
        (UNICYCLE_CFG, ["sweep", "--state=0,0,0", "--axes", "0:-1:1"],
         "expected component:lo:hi:count"),
        (UNICYCLE_CFG, ["sweep", "--state=0,0,0", "--axes", "x:-1:1:2,1:-1:1:2"],
         "invalid literal for int()"),
        (UNICYCLE_CFG, ["sweep", "--state=0,0,0", "--axes", "0:1:-1:2,1:-1:1:2"],
         "need count >= 1 and hi >= lo"),
    ],
    ids=["nan-value", "empty-list", "bad-bool", "missing-file", "bare-key", "bad-state",
         "axis-three-parts", "axis-component", "axis-reversed"],
)
def test_unparsable_input_exits_2(tmp_path, capsys, text, command, needle):
    cfg = write_config(tmp_path, text) if text is not None else str(tmp_path / "missing.cfg")
    out_dir = tmp_path / "out"
    rc, out, err = run_cli(capsys, [command[0], "--config", cfg, "--out", str(out_dir)] + command[1:])
    assert rc == 2
    assert needle in err
    assert out == "" and not out_dir.exists()


@pytest.mark.parametrize(
    "command",
    [
        ["synth", "--state", "3,5"],
        ["trials", "--count", "3"],
        ["sweep", "--state", "3,5", "--axes", "0:0:9:10,1:0:9:10", "--out", "OUT"],
    ],
    ids=["synth", "trials", "sweep"],
)
def test_budget_overflow_exits_2(tmp_path, capsys, monkeypatch, command):
    monkeypatch.setattr(discrete, "DEFAULT_BUDGET", 10)
    cfg = write_config(tmp_path, GRID_CFG + "horizon_n = 2\n")
    args = [a.replace("OUT", str(tmp_path / "out")) for a in command]
    rc, out, err = run_cli(capsys, [args[0], "--config", cfg] + args[1:])
    assert rc == 2
    assert "'horizon_n'" in err
    assert "needs 2500 sequence evaluations but the budget is 10" in err
    assert out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command",
    [
        ["synth", "--state", "0,0,0"],
        ["trials", "--count", "3"],
        ["sweep", "--state", "0,0,0", "--axes", "0:-1:1:3,1:-1:1:3", "--out", "OUT"],
        ["simulate", "--horizon", "0.1", "--out", "OUT"],
    ],
    ids=["synth", "trials", "sweep", "simulate"],
)
def test_continuous_budget_overflow_exits_2(tmp_path, capsys, command):
    # four obstacles make an 8-D test box: 25^8 grid points
    cfg = write_config(tmp_path, "scenario = unicycle\nobstacle_count = 4\n")
    args = [a.replace("OUT", str(tmp_path / "out")) for a in command]
    rc, out, err = run_cli(capsys, [args[0], "--config", cfg] + args[1:])
    assert rc == 2
    assert "scan 152587890625 candidate tests but the budget is 10000000" in err
    assert out == ""
    assert not (tmp_path / "out").exists()


UNICYCLE_2_CFG = "scenario = unicycle\nobstacle_count = 2\ngrid_points = 3\n"
SWEEP = ["sweep", "--state=0.1,0.2,0.3", "--axes", "0:-1:1:3,1:-1:1:3"]


@pytest.mark.parametrize("config,state,axes", [
    ("configs/unicycle.cfg", "0,0,0", "0:-1:1:4000,1:-1:1:2501"),
    ("configs/gridworld-goal-7-9.cfg", "3,5", "0:0:9:4000,1:0:9:2501"),
])
def test_sweep_over_the_budget_exits_2_before_any_work(tmp_path, capsys, config, state, axes):
    # 4000 x 2501 cells would be hours of difficulty evaluations
    out_dir = tmp_path / "out"
    rc, out, err = run_cli(capsys, ["sweep", "--config", str(REPO / config), f"--state={state}",
                                    "--axes", axes, "--out", str(out_dir)])
    assert rc == 2
    assert f"sweep would evaluate 10004000 cells but the budget is {DEFAULT_BUDGET}" in err
    assert out == "" and not out_dir.exists()


def test_sweep_budget_admits_exactly_its_cell_count(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "DEFAULT_BUDGET", 12)
    cfg = str(REPO / "configs/unicycle.cfg")
    args = ["sweep", "--config", cfg, "--state=0,0,0", "--out", str(tmp_path / "out")]
    rc, _, err = run_cli(capsys, args + ["--axes", "0:-1:1:3,1:-1:1:5"])
    assert rc == 2 and "sweep would evaluate 15 cells but the budget is 12" in err
    assert not (tmp_path / "out").exists()
    rc, _, _ = run_cli(capsys, args + ["--axes", "0:-1:1:3,1:-1:1:4"])
    assert rc == 0
    assert len((tmp_path / "out" / "sweep.csv").read_text().splitlines()) == 4


def test_simulate_over_the_step_budget_exits_2_before_any_work(tmp_path, capsys):
    # 1e9 s at dt = 0.01 would be 1e11 Euler steps and logs without bound
    out_dir = tmp_path / "out"
    rc, out, err = run_cli(capsys, ["simulate", "--config", str(REPO / "configs/quadgrid.cfg"),
                                    "--horizon", "1e9", "--out", str(out_dir)])
    assert rc == 2
    assert f"the run would take 1e+11 Euler steps but the budget is {DEFAULT_BUDGET}" in err
    assert out == "" and not out_dir.exists()


@pytest.mark.parametrize(
    "text,command,needle",
    [
        (UNICYCLE_CFG, ["trials", "--count", "1", "--seed", "-1"], "--seed must be >= 0"),
        (UNICYCLE_2_CFG + "seed = -3\n", ["trials", "--count", "1"], "'seed': seeds must be >= 0"),
        (UNICYCLE_2_CFG + "d_fixed = 0, 0\n", SWEEP, "'d_fixed' needs 4 components"),
        (UNICYCLE_2_CFG + "d_fixed = 0, 0, 0, 0, 0\n", SWEEP, "'d_fixed' needs 4 components"),
        (UNICYCLE_2_CFG + "d_fixed = 0, 0, inf, 0\n", SWEEP, "non-finite"),
        (QUAD_CFG + "d_fixed = 0, 0\n", ["sweep", "--state=0.5,0.5", "--axes", "0:0:1:2,1:0:1:2"],
         "'d_fixed' needs 4 components"),
        (UNICYCLE_CFG, SWEEP[:3] + ["0:nan:1:3,1:-1:1:3"], "bounds must be finite"),
        (UNICYCLE_CFG, SWEEP[:3] + ["0:-inf:1:3,1:-1:1:3"], "bounds must be finite"),
        (UNICYCLE_CFG, SWEEP[:3] + ["0:-1:1:3,0:-1:1:3"], "two different components"),
        (QUAD_CFG + "d_fixed = 0, 0, 0, 0\n",
         ["sweep", "--state=0.5,0.5", "--axes", "1:0:1:2,1:0:1:2"], "two different components"),
        (GRID_CFG, ["sweep", "--state", "3,5", "--axes", "0:0:9:10,0:0:9:10"],
         "two different components"),
        (GRID_CFG, ["sweep", "--state", "3,5", "--axes", "0:0:9:10,2:0:9:10"],
         "axis component 2 out of range for test dim 2"),
        (QUAD_CFG, ["simulate", "--horizon=-1"], "--horizon"),
        (QUAD_CFG, ["simulate", "--horizon=inf"], "--horizon"),
    ],
    ids=["seed-flag", "seed-key", "unicycle-d-fixed-short", "unicycle-d-fixed-long",
         "unicycle-d-fixed-inf", "quadgrid-d-fixed-short", "axes-nan", "axes-minus-inf",
         "unicycle-axes-same-component", "quadgrid-axes-same-component",
         "gridworld-axes-same-component", "gridworld-axes-component-2", "horizon-negative",
         "horizon-inf"],
)
def test_bad_seed_anchor_or_axis_exits_2(tmp_path, capsys, text, command, needle):
    cfg = write_config(tmp_path, text)
    out_dir = tmp_path / "out"
    rc, out, err = run_cli(capsys, [command[0], "--config", cfg, "--out", str(out_dir)] + command[1:])
    assert rc == 2
    assert needle in err
    assert out == ""
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "text,axes,state,needle",
    [
        # at horizon_n = 5 a full synthesis would take seconds
        (GRID_CFG + "horizon_n = 5\n", "0:0:10:11,1:0:9:10", "3,5", "a sweep cell"),
        (GRID_CFG, "1:0:9:10,0:0:9:19", "3,5", "a sweep cell"),
        (GRID_CFG, "0:0:9:10,2:0:9:10", "3,5", "axis component 2 out of range for test dim 2"),
        (UNICYCLE_2_CFG + "d_fixed = 0, 0\n", "0:-1:1:3,1:-1:1:3", "0.1,0.2,0.3",
         "'d_fixed' needs 4 components"),
        (UNICYCLE_CFG, "0:-1:1:3,2:-1:1:3", "0.1,0.2,0.3",
         "axis component 2 out of range for test dim 2"),
        (QUAD_CFG + "d_fixed = 0, 0\n", "0:0:1:2,1:0:1:2", "0.5,0.5",
         "'d_fixed' needs 4 components"),
        (QUAD_CFG + "d_fixed = 0, 0, 0, 0\n", "0:0:1:2,4:0:1:2", "0.5,0.5",
         "axis component 4 out of range for test dim 4"),
        (QUAD_CFG, "0:0:1:2,1:0:1:2", "0.5,0.5", "needs d_fixed"),
    ],
    ids=["gridworld-axis-value", "gridworld-second-axis-value", "gridworld-component",
         "unicycle-d-fixed", "unicycle-component", "quadgrid-d-fixed", "quadgrid-component",
         "quadgrid-no-d-fixed"],
)
def test_bad_sweep_request_exits_2_before_any_search(tmp_path, capsys, monkeypatch, text, axes,
                                                     state, needle):
    def no_search(*args, **kwargs):
        raise AssertionError("sweep searched before checking its request")

    monkeypatch.setattr(cli, "synthesize_discrete", no_search)
    monkeypatch.setattr(cli, "synthesize_constrained", no_search)
    cfg = write_config(tmp_path, text)
    out_dir = tmp_path / "out"
    rc, out, err = run_cli(capsys, ["sweep", "--config", cfg, f"--state={state}", "--axes", axes,
                                    "--out", str(out_dir)])
    assert rc == 2
    assert needle in err
    assert out == "" and not out_dir.exists()


@pytest.mark.parametrize(
    "text,command,needle",
    [
        (QUAD_CFG, ["synth", "--state=1,2,3"], "--state needs 2 components"),
        (QUAD_CFG, ["simulate", "--state=1,2,3", "--horizon", "1"], "--state needs 2 components"),
        (UNICYCLE_CFG, ["synth", "--state=0,0"], "--state needs 3 components"),
        (QUAD_CFG + "x0 = 1, 2, 3\n", ["simulate", "--horizon", "1"], "'x0' needs 2 components"),
    ],
    ids=["quadgrid-synth", "quadgrid-simulate", "unicycle-synth", "quadgrid-x0"],
)
def test_state_length_mismatch_exits_2(tmp_path, capsys, text, command, needle):
    cfg = write_config(tmp_path, text)
    out_dir = tmp_path / "out"
    rc, out, err = run_cli(capsys, [command[0], "--config", cfg, "--out", str(out_dir)] + command[1:])
    assert rc == 2
    assert needle in err
    assert out == ""
    assert not out_dir.exists()


@pytest.mark.parametrize("scenario,x0", [("quadgrid", [0.0, 0.0]),
                                         ("unicycle", [-0.5, -0.5, 0.0])])
def test_simulate_starts_at_the_documented_default(tmp_path, capsys, scenario, x0):
    # with neither --state nor x0, the README's default start
    cfg = write_config(tmp_path, f"scenario = {scenario}\n")
    out_dir = tmp_path / "out"
    rc, _, _ = run_cli(capsys, ["simulate", "--config", cfg, "--horizon", "0", "--out", str(out_dir)])
    assert rc == 0
    rows = list(csv.reader((out_dir / "trajectory.csv").read_text().splitlines()))
    n = len(x0)
    assert rows[0][1:n + 1] == [f"x{i}" for i in range(n)]
    assert [float(v) for v in rows[1][1:n + 1]] == x0


@pytest.mark.parametrize(
    "extra,needle",
    [("dt = 0\n", "dt"), ("synth_period = 0.001\n", "synth_period"), ("x0 = inf, 0\n", "x0"),
     ("obstacle_speed = -1\n", "obstacle_speed")],
)
def test_simulate_bad_config_exits_2(tmp_path, capsys, extra, needle):
    cfg = write_config(tmp_path, "scenario = quadgrid\n" + extra)
    rc, _, err = run_cli(
        capsys, ["simulate", "--config", cfg, "--horizon", "1", "--out", str(tmp_path / "s")]
    )
    assert rc == 2
    assert needle in err


def test_non_finite_state_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, UNICYCLE_CFG)
    rc, _, err = run_cli(capsys, ["synth", "--config", cfg, "--state=inf,0,0"])
    assert rc == 2
    assert "--state" in err


def test_gridworld_non_integer_goal_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, "scenario = gridworld\ngoal = 7.5, 9\n")
    rc, _, err = run_cli(capsys, ["synth", "--config", cfg, "--state", "3,5"])
    assert rc == 2
    assert "goal" in err


@pytest.mark.parametrize(
    "text,command,needle",
    [
        (GRID_CFG.replace("goal = 7, 9", "goal = 7.0000000001, 9"),
         ["synth", "--state", "3,5"], "'goal'"),
        (GRID_CFG, ["synth", "--state", "3.0000000001,5"], "--state"),
        (GRID_CFG, ["sweep", "--state", "3,5", "--axes", "0:0.0000000001:9:10,1:0:9:10"],
         "--axes"),
    ],
    ids=["goal", "state", "axes"],
)
def test_gridworld_cells_must_be_exact_integers(tmp_path, capsys, text, command, needle):
    cfg = write_config(tmp_path, text)
    out_dir = tmp_path / "out"
    rc, out, err = run_cli(capsys, [command[0], "--config", cfg, "--out", str(out_dir)] + command[1:])
    assert rc == 2
    assert needle in err
    assert "must be a pair of integers in 0..9" in err
    assert out == ""
    assert not out_dir.exists()


def test_synth_deterministic_output(tmp_path, capsys):
    cfg = write_config(tmp_path, UNICYCLE_CFG)
    args = ["synth", "--config", cfg, "--state=0.1,-0.2,1.0"]
    _, out1, _ = run_cli(capsys, args)
    _, out2, _ = run_cli(capsys, args)
    assert out1 == out2


def test_seed_flag_overrides_config(tmp_path, capsys):
    cfg = write_config(tmp_path, GRID_CFG)
    rc, out, _ = run_cli(capsys, ["synth", "--config", cfg, "--state", "3,5", "--seed", "99"])
    assert rc == 0
    assert json.loads(out)["seed"] == 99


# ---------------------------------------------------------------------------
# sweep

def test_sweep_unicycle_difficulty_landscape(tmp_path, capsys):
    cfg = write_config(tmp_path, UNICYCLE_CFG)
    out_dir = tmp_path / "sweep"
    rc, out, _ = run_cli(
        capsys,
        [
            "sweep",
            "--config",
            cfg,
            "--state",
            "0,0,0",
            "--axes",
            "0:-1:1:50,1:-1:1:50",
            "--out",
            str(out_dir),
        ],
    )
    assert rc == 0
    lines = (out_dir / "sweep.csv").read_text().strip().splitlines()
    assert len(lines) == 51  # header row plus 50 value rows
    assert all(len(line.split(",")) == 51 for line in lines)
    values = np.array(
        [[float(v) for v in line.split(",")[1:]] for line in lines[1:]]
    )
    assert values.min() == -5.0
    assert np.all(values >= -5.0)
    overlay = json.loads((out_dir / "sweep_overlay.json").read_text())
    assert overlay["difficulty"] <= values.min() + 1e-9
    assert overlay["min_cell"]["value"] == -5.0


def test_sweep_matches_direct_difficulty_calls(tmp_path, capsys):
    cfg = write_config(tmp_path, UNICYCLE_CFG)
    out_dir = tmp_path / "sweep_small"
    rc, _, _ = run_cli(
        capsys,
        ["sweep", "--config", cfg, "--state", "0.2,0.1,0.5", "--axes",
         "0:-1:1:5,1:-1:1:5", "--out", str(out_dir)],
    )
    assert rc == 0
    lines = (out_dir / "sweep.csv").read_text().strip().splitlines()
    a2 = [float(v) for v in lines[0].split(",")[1:]]
    scn = build_unicycle(goal=(0.5, 0.5))
    x = np.array([0.2, 0.1, 0.5])
    for line in lines[1:]:
        parts = [float(v) for v in line.split(",")]
        for j, cell_value in enumerate(parts[1:]):
            expect, _ = difficulty(scn, x, np.array([parts[0], a2[j]]), floor=-5.0)
            assert cell_value == expect  # cells are direct difficulty calls


def test_sweep_quadgrid_anchors_on_d_fixed(tmp_path, capsys, quadgrid):
    cfg = write_config(tmp_path, QUAD_CFG + "d_fixed = 0, 0, 2, 1\n")
    out_dir = tmp_path / "sweep_quad"
    rc, _, _ = run_cli(
        capsys,
        ["sweep", "--config", cfg, "--state=0.5,0.5", "--axes", "0:0:1:2,1:0:1:2",
         "--out", str(out_dir)],
    )
    assert rc == 0
    lines = (out_dir / "sweep.csv").read_text().strip().splitlines()
    x = np.array([0.5, 0.5])
    for i, line in enumerate(lines[1:]):
        for j, cell_value in enumerate(line.split(",")[1:]):
            d = np.array([float(i), float(j), 2.0, 1.0])
            assert float(cell_value) == difficulty(quadgrid, x, d, floor=-8.0)[0]


def test_sweep_gridworld_minimum_at_goal(tmp_path, capsys):
    cfg = write_config(tmp_path, GRID_CFG)
    out_dir = tmp_path / "gsweep"
    rc, out, _ = run_cli(
        capsys,
        ["sweep", "--config", cfg, "--state", "3,5", "--axes", "0:0:9:10,1:0:9:10",
         "--out", str(out_dir)],
    )
    assert rc == 0
    overlay = json.loads(out)
    assert overlay["min_cell"]["axis_values"] == [7.0, 9.0]
    assert overlay["min_cell"]["value"] == 0.0
    assert overlay["d_star"] == [7, 9]
    # spot-check one cell against the library call
    scn = build_gridworld((7, 9))
    lines = (out_dir / "sweep.csv").read_text().strip().splitlines()
    row4 = [float(v) for v in lines[5].split(",")]  # axis value 4
    assert row4[0] == 4.0
    assert row4[3] == one_step_difficulty(scn, (3, 5), (4, 2), floor=-15.0)[0]


def test_sweep_gridworld_cells_follow_horizon(tmp_path, capsys):
    cfg = write_config(tmp_path, GRID_CFG + "horizon_n = 2\n")
    out_dir = tmp_path / "gsweep2"
    rc, out, _ = run_cli(
        capsys,
        ["sweep", "--config", cfg, "--state", "3,5", "--axes", "0:0:9:10,1:0:9:10",
         "--out", str(out_dir)],
    )
    assert rc == 0
    scn = build_gridworld((7, 9))
    lines = (out_dir / "sweep.csv").read_text().strip().splitlines()
    for i, line in enumerate(lines[1:]):
        for j, cell_value in enumerate(float(v) for v in line.split(",")[1:]):
            assert cell_value == predictive_difficulty(scn, (3, 5), (i, j), -15.0, 2)[0]
    # one and two steps differ on this cell, so the check above has teeth
    assert predictive_difficulty(scn, (3, 5), (4, 2), -15.0, 2)[0] != one_step_difficulty(
        scn, (3, 5), (4, 2), -15.0
    )[0]
    assert json.loads(out)["difficulty"] == synthesize_predictive(scn, (3, 5), n_steps=2).difficulty


def test_sweep_degenerate_single_cell(tmp_path, capsys):
    cfg = write_config(tmp_path, UNICYCLE_CFG)
    out_dir = tmp_path / "one"
    rc, _, _ = run_cli(
        capsys,
        ["sweep", "--config", cfg, "--state", "0,0,0", "--axes",
         "0:0.3:0.3:1,1:-0.4:-0.4:1", "--out", str(out_dir)],
    )
    assert rc == 0
    lines = (out_dir / "sweep.csv").read_text().strip().splitlines()
    got = float(lines[1].split(",")[1])
    scn = build_unicycle(goal=(0.5, 0.5))
    expect, _ = difficulty(scn, np.array([0.0, 0.0, 0.0]), np.array([0.3, -0.4]), floor=-5.0)
    assert got == expect


def test_sweep_rejects_three_axes(tmp_path, capsys):
    cfg = write_config(tmp_path, UNICYCLE_CFG)
    rc, _, err = run_cli(
        capsys,
        ["sweep", "--config", cfg, "--state", "0,0,0", "--axes",
         "0:-1:1:5,1:-1:1:5,0:-1:1:5", "--out", str(tmp_path / "x")],
    )
    assert rc == 2
    assert "exactly 2 axes" in err


def test_sweep_skips_an_empty_axis_chunk(tmp_path, capsys):
    cfg = write_config(tmp_path, UNICYCLE_CFG)
    csvs = []
    for axes in ("0:-1:1:2,1:-1:1:2", "0:-1:1:2,,1:-1:1:2"):
        out_dir = tmp_path / str(len(csvs))
        rc, _, _ = run_cli(capsys, ["sweep", "--config", cfg, "--state", "0,0,0", "--axes", axes,
                                    "--out", str(out_dir)])
        assert rc == 0
        csvs.append((out_dir / "sweep.csv").read_bytes())
    assert csvs[0] == csvs[1]


# ---------------------------------------------------------------------------
# trials

def test_trials_small_unicycle(tmp_path, capsys):
    cfg = write_config(tmp_path, UNICYCLE_CFG)
    rc, out, _ = run_cli(capsys, ["trials", "--config", cfg, "--count", "5"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["count"] == 5
    assert payload["fraction_attaining_optimum"] == 1.0
    assert len(payload["per_trial"]) == 5
    # aggregates recompute from the rows
    assert payload["difficulty_min"] == min(r["difficulty"] for r in payload["per_trial"])


def test_trials_gridworld_randomizes_goals(tmp_path, capsys):
    cfg = write_config(tmp_path, GRID_CFG)
    rc, out, _ = run_cli(capsys, ["trials", "--config", cfg, "--count", "8"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["optimum_rule"] == "d_star == goal"
    assert payload["fraction_attaining_optimum"] == 1.0
    for row in payload["per_trial"]:
        assert row["state"] != row["goal"]
        assert row["d_star"] == row["goal"]


@pytest.mark.parametrize("check_path", ["false", "true"])
def test_trials_gridworld_follows_horizon(tmp_path, capsys, monkeypatch, check_path):
    cfg = write_config(tmp_path, GRID_CFG + f"horizon_n = 2\ncheck_path = {check_path}\n")
    real, calls, results = cli.synthesize_discrete, [], []

    def spy(*args, **kwargs):
        calls.append(inspect.signature(real).bind(*args, **kwargs).arguments)
        results.append(real(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(cli, "synthesize_discrete", spy)
    rc, out, _ = run_cli(capsys, ["trials", "--config", cfg, "--count", "4"])
    assert rc == 0
    rows = json.loads(out)["per_trial"]
    assert len(results) == len(rows) == 4
    # check_path never changes a grid trial's result (the hardest test covers
    # the goal, where every cell is safe), so check that it is passed on
    assert all(call["check_path"] is (check_path == "true") for call in calls)
    for row, got in zip(rows, results):
        want = synthesize_predictive(
            build_gridworld(tuple(row["goal"])),
            tuple(row["state"]),
            n_steps=2,
            check_path=check_path == "true",
        )
        assert row["difficulty"] == want.difficulty
        assert row["d_star"] == list(want.d_star)
        assert got.inner_maximizer == want.inner_maximizer
        assert got.evaluations == want.evaluations


def test_trials_deterministic_json(tmp_path, capsys):
    cfg = write_config(tmp_path, UNICYCLE_CFG)
    args = ["trials", "--config", cfg, "--count", "1", "--seed", "5"]
    _, out1, _ = run_cli(capsys, args)
    _, out2, _ = run_cli(capsys, args)
    assert out1 == out2


@pytest.mark.parametrize(
    "text,count",
    [
        (UNICYCLE_CFG + "grid_points = 25\n", 8),
        ("scenario = unicycle\nobstacle_count = 2\ngrid_points = 3\nseed = 11\n", 12),
        ("scenario = quadgrid\nseed = 4\n", 30),
    ],
    ids=["unicycle-1obs-25pt", "unicycle-2obs-3pt", "quadgrid"],
)
def test_trials_artifact_matches_reference_scan(tmp_path, capsys, monkeypatch, text, count):
    from advsynth import continuous
    from conftest import reference_synthesize_over

    cfg = write_config(tmp_path, text)
    args = ["trials", "--config", cfg, "--count", str(count), "--out"]
    assert run_cli(capsys, args + [str(tmp_path / "scan")])[0] == 0
    with monkeypatch.context() as m:
        m.setattr(continuous, "_synthesize_over", reference_synthesize_over)
        assert run_cli(capsys, args + [str(tmp_path / "reference")])[0] == 0
    got = (tmp_path / "scan" / "trials.json").read_bytes()
    assert got == (tmp_path / "reference" / "trials.json").read_bytes()


def test_trials_rejects_bad_count(tmp_path, capsys):
    cfg = write_config(tmp_path, UNICYCLE_CFG)
    rc, _, err = run_cli(capsys, ["trials", "--config", cfg, "--count", "0"])
    assert rc == 2
    assert "count" in err


def test_trials_imports_no_numpy_random():
    # a fresh interpreter, since the suite's own draws load numpy.random here
    argv = ["trials", "--config", str(REPO / "bench/configs/gridworld-cold.cfg"),
            "--count", "3", "--seed", "7"]
    code = ("import sys\nfrom advsynth import cli\n"
            f"rc = cli.main({argv!r})\n"
            "print(rc, 'numpy.random' in sys.modules, file=sys.stderr)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert json.loads(proc.stdout)["count"] == 3
    assert proc.stderr.splitlines()[-1] == "0 False"


def test_gridworld_trials_build_no_reward_grid(capsys, monkeypatch):
    # each trial's scan stops at the goal test, whose (goal, goal) grid is
    # all zeros, so no trial builds a reward grid, even from a cold cache
    scenarios._solve_reward_cached.cache_clear()
    builds = []
    build = scenarios._reward_base
    monkeypatch.setattr(scenarios, "_reward_base", lambda *pair: builds.append(pair) or build(*pair))
    rc, out, _ = run_cli(capsys, ["trials", "--config", str(REPO / "bench/configs/gridworld-cold.cfg"),
                                  "--count", "25", "--seed", "11"])
    assert rc == 0
    assert json.loads(out)["count"] == 25
    assert builds == []


# ---------------------------------------------------------------------------
# simulate

def test_simulate_quadgrid_outputs(tmp_path, capsys):
    cfg = write_config(tmp_path, QUAD_CFG)
    out_dir = tmp_path / "sim"
    rc, out, _ = run_cli(
        capsys,
        ["simulate", "--config", cfg, "--horizon", "0.2", "--out", str(out_dir)],
    )
    assert rc == 0
    assert (out_dir / "trajectory.csv").exists()
    assert (out_dir / "min_barrier.csv").exists()
    assert (out_dir / "monitor.json").exists()
    barrier_lines = (out_dir / "min_barrier.csv").read_text().strip().splitlines()
    assert len(barrier_lines) == 22  # header + horizon/dt + 1 samples
    verdict = json.loads(out)
    assert verdict["samples"] == 21
    assert verdict["aborted"] is False


def test_simulate_byte_identical_runs(tmp_path, capsys):
    cfg = write_config(tmp_path, QUAD_CFG)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out_dir in (out_a, out_b):
        rc, _, _ = run_cli(
            capsys,
            ["simulate", "--config", cfg, "--horizon", "0.3", "--out", str(out_dir)],
        )
        assert rc == 0
    for name in ("trajectory.csv", "min_barrier.csv", "monitor.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_simulate_zero_horizon_single_row(tmp_path, capsys):
    cfg = write_config(tmp_path, QUAD_CFG)
    out_dir = tmp_path / "zero"
    rc, out, _ = run_cli(
        capsys, ["simulate", "--config", cfg, "--horizon", "0", "--out", str(out_dir)]
    )
    assert rc == 0
    lines = (out_dir / "trajectory.csv").read_text().strip().splitlines()
    assert len(lines) == 2  # header + one sample
    assert json.loads(out)["samples"] == 1


def test_simulate_writes_an_infinite_synth_period_as_a_string(tmp_path, capsys):
    cfg = write_config(tmp_path, "scenario = quadgrid\nsynth_period = inf\n")
    out_dir = tmp_path / "sim"
    rc, out, _ = run_cli(capsys, ["simulate", "--config", cfg, "--horizon", "0.05",
                                  "--out", str(out_dir)])
    assert rc == 0
    assert '"synth_period": "inf"' in (out_dir / "monitor.json").read_text()
    assert json.loads(out)["synth_period"] == "inf"


def test_scenario_error_aborts_the_run_with_exit_3(tmp_path, capsys, monkeypatch):
    def controller(scn, x, d):
        raise ScenarioError("no input keeps the avoid set")

    monkeypatch.setattr(cli, "greedy_safe_controller", controller)
    cfg = write_config(tmp_path, QUAD_CFG)
    out_dir = tmp_path / "sim"
    rc, out, err = run_cli(
        capsys, ["simulate", "--config", cfg, "--horizon", "0.2", "--out", str(out_dir)]
    )
    assert rc == 3 and out == ""
    assert err.strip() == "runtime abort: no input keeps the avoid set"
    assert not out_dir.exists()


def test_simulate_non_finite_state_writes_partial_logs_and_exits_3(tmp_path, capsys, monkeypatch):
    # a NaN input makes the first Euler step non-finite, so the run keeps
    # only its start sample
    monkeypatch.setattr(cli, "greedy_safe_controller", lambda scn, x, d: np.full(2, np.nan))
    cfg = write_config(tmp_path, QUAD_CFG)
    out_dir = tmp_path / "sim"
    rc, out, err = run_cli(
        capsys, ["simulate", "--config", cfg, "--horizon", "0.2", "--out", str(out_dir)]
    )
    assert rc == 3
    verdict = json.loads(out)
    assert verdict["aborted"] is True and verdict["samples"] == 1
    assert "integration aborted on non-finite state; logs are partial" in err
    for name in ("trajectory.csv", "min_barrier.csv"):
        assert len((out_dir / name).read_text().strip().splitlines()) == 2
    assert json.loads((out_dir / "monitor.json").read_text()) == verdict


def first_command(out_dir):
    """The test vector commanded at t = 0, from ``trajectory.csv``."""
    with open(out_dir / "trajectory.csv", newline="") as f:
        row = next(csv.DictReader(f))
    return [float(v) for k, v in row.items() if k.startswith("cmd")]


def test_simulate_follows_the_configured_search(tmp_path, capsys):
    state = "--state=-0.5,-0.5,0"
    coarse = write_config(tmp_path, UNICYCLE_CFG + "grid_points = 3\nrefine_iterations = 0\n")
    rc, out, _ = run_cli(capsys, ["synth", "--config", coarse, state])
    assert rc == 0
    d_star = json.loads(out)["d_star"]
    commands = []
    for cfg, name in ((coarse, "coarse"), (write_config(tmp_path, UNICYCLE_CFG, "default.cfg"), "default")):
        rc, _, _ = run_cli(capsys, ["simulate", "--config", cfg, state, "--horizon", "0",
                                    "--out", str(tmp_path / name)])
        assert rc == 0
        commands.append(first_command(tmp_path / name))
    assert commands[0] == d_star
    assert commands[1] != d_star


def test_simulate_rejects_bad_search_settings(tmp_path, capsys):
    cfg = write_config(tmp_path, UNICYCLE_CFG + "grid_points = 0\n")
    _, _, synth_err = run_cli(capsys, ["synth", "--config", cfg, "--state=0,0,0"])
    out_dir = tmp_path / "sim"
    rc, out, err = run_cli(capsys, ["simulate", "--config", cfg, "--horizon", "1", "--out", str(out_dir)])
    assert rc == 2
    assert "grid_points must be an integer >= 1" in err
    assert err == synth_err
    assert out == ""
    assert not out_dir.exists()


def test_simulate_quadgrid_meets_its_deadline_or_fails(tmp_path, capsys):
    verdicts = []
    for t_max in ("", "t_max = 0.5\n"):
        cfg = write_config(tmp_path, "scenario = quadgrid\nx0 = 0.3, 1.7\n" + t_max)
        rc, out, _ = run_cli(capsys, ["simulate", "--config", cfg, "--horizon", "15",
                                      "--out", str(tmp_path / "sim")])
        assert rc == 0
        verdicts.append(json.loads(out))
    # the goal is reached at 0.59 s: in time without a deadline, late for 0.5 s
    assert (verdicts[0]["satisfied"], verdicts[0]["reach_time"]) == (True, 0.59)
    assert (verdicts[1]["satisfied"], verdicts[1]["reach_time"]) == (False, None)


def test_simulate_prints_no_start_state_warning(tmp_path):
    # the loop reaches the goal at 0.59 s, so every later adversary solve
    # starts inside it
    proc = subprocess.run(
        [sys.executable, "-m", "advsynth", "simulate", "--config", str(REPO / "configs/quadgrid.cfg"),
         "--state=0.3,1.7", "--horizon", "15", "--out", str(tmp_path / "sim")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["reach_time"] == 0.59
    assert "UserWarning" not in proc.stderr
    assert proc.stderr.startswith("simulate wall time: ")


def test_simulate_rejects_gridworld(tmp_path, capsys):
    cfg = write_config(tmp_path, GRID_CFG)
    rc, _, err = run_cli(
        capsys, ["simulate", "--config", cfg, "--horizon", "1", "--out", str(tmp_path / "g")]
    )
    assert rc == 2
    assert "simulation" in err


def test_console_entry_point(tmp_path):
    cfg = write_config(tmp_path, GRID_CFG)
    proc = subprocess.run(
        [sys.executable, "-m", "advsynth", "synth", "--config", cfg, "--state", "3,5"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["d_star"] == [7, 9]


def test_main_entry_exits_with_the_code_of_main(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["advsynth", "synth", "--config",
                                      str(tmp_path / "missing.cfg"), "--state", "3,5"])
    with pytest.raises(SystemExit) as exc:
        cli.main_entry()
    assert exc.value.code == 2
    assert "No such file or directory" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# shipped configs

SHIPPED_CONFIGS = sorted(REPO.glob("configs/*.cfg")) + sorted(REPO.glob("bench/configs/*.cfg"))
FIXED_STATE = {"unicycle": "-0.5,0.5,0.7854", "gridworld": "3,5", "quadgrid": "0.3,1.7"}


def test_shipped_configs_found():
    assert {p.parent for p in SHIPPED_CONFIGS} == {REPO / "configs", REPO / "bench" / "configs"}


@pytest.mark.parametrize(
    "path", SHIPPED_CONFIGS, ids=[str(p.relative_to(REPO)) for p in SHIPPED_CONFIGS]
)
def test_shipped_config_runs_synth(path, capsys):
    cfg = parse_config(path)
    make_scenario(cfg)
    rc, out, _ = run_cli(capsys, ["synth", "--config", str(path), f"--state={FIXED_STATE[cfg.scenario]}"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["scenario"] == cfg.scenario
    assert payload["config"] == cfg.echo
