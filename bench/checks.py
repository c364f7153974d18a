"""Output checks for the advsynth benchmark workloads.

Each check reads what a CLI command wrote and returns one verdict per
operation.  The unicycle checks confirm Γ verdicts and difficulties with a
vertex-enumeration oracle that shares no code with ``advsynth.lp``; the
polytope itself is assembled by the library, as every synthesizer does.
"""

from __future__ import annotations

import itertools
import json
import math
from pathlib import Path

import numpy as np

from advsynth.core import feasible_input_polytope, lie_derivatives

VERTEX_TOL = 1e-9      # containment slack for a candidate vertex
DIFFICULTY_TOL = 1e-7  # oracle and reported difficulty must agree this closely


def vertices(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Vertices of {u : A u <= b}, by solving every square subset of rows."""
    m = A.shape[1]
    found = []
    for idx in itertools.combinations(range(A.shape[0]), m):
        sub = A[list(idx)]
        if abs(np.linalg.det(sub)) < 1e-12:
            continue
        v = np.linalg.solve(sub, b[list(idx)])
        if np.all(A @ v <= b + VERTEX_TOL):
            found.append(v)
    return np.array(found).reshape(-1, m)


def oracle(scn, x, d):
    """``(empty, value)`` at (x, d): whether no safe input exists and, if one
    does, the best reach-barrier rate over the safe inputs."""
    x = np.asarray(x, dtype=float)
    d = np.asarray(d, dtype=float)
    poly = feasible_input_polytope(scn.spec, scn.dynamics, x, d, scn.input_polytope)
    verts = vertices(poly.A, poly.b)
    if verts.shape[0] == 0:
        return True, None
    drift_rate, input_row = lie_derivatives(scn.spec.reach, scn.dynamics, x, d)
    return False, float(drift_rate + (verts @ input_row).max())


def gamma_row_ok(scn, row) -> bool:
    """Criterion 1: the trial ends in Γ at the floor, and the oracle agrees
    that no safe input exists at the reported test."""
    if not (row["in_gamma"] is True and row["difficulty"] == scn.floor):
        return False
    return oracle(scn, row["state"], row["d_star"])[0]


def refine_row_ok(scn, row) -> bool:
    """The test lies in the test box, and the oracle reproduces the Γ verdict
    and the difficulty."""
    d = np.asarray(row["d_star"], dtype=float)
    space = scn.test_space
    if d.shape != space.lower.shape or np.any(d < space.lower) or np.any(d > space.upper):
        return False
    empty, value = oracle(scn, row["state"], d)
    if empty != row["in_gamma"]:
        return False
    if empty:
        return row["difficulty"] == scn.floor
    return abs(value - row["difficulty"]) <= DIFFICULTY_TOL


def grid_row_ok(scn, row) -> bool:
    """Criterion 3: the obstacle goes on the goal, at difficulty 0."""
    return list(row["d_star"]) == list(row["goal"]) and row["difficulty"] == 0.0


ROW_CHECKS = {
    "unicycle-gamma": gamma_row_ok,
    "unicycle-refine": refine_row_ok,
    "gridworld-cold": grid_row_ok,
}


def check_trials(workload: str, scn, code: int, out_dir: Path, count: int) -> list:
    """One verdict per trial; a failed command fails every trial."""
    path = Path(out_dir) / "trials.json"
    if code != 0 or not path.is_file():
        return [False] * count
    rows = json.loads(path.read_text())["per_trial"]
    if len(rows) != count:
        return [False] * count
    ok = ROW_CHECKS[workload]
    return [ok(scn, row) for row in rows]


def command_rows(n_steps: int, dt: float, synth_period: float) -> list:
    """Sample indices at which the closed loop issues a new command, on the
    schedule ``simulate_adversarial`` documents: t = 0, then every period."""
    rows = [0]
    next_synth = synth_period
    for k in range(1, n_steps):
        if k * dt >= next_synth - 1e-9:
            rows.append(k)
            next_synth += synth_period
    return rows


def corner_ok(state, cmd) -> bool:
    """Every obstacle in ``cmd`` sits on a corner of the unit cell around
    the planar ``state`` (criterion 7)."""
    xs = {math.floor(state[0]), math.ceil(state[0])}
    ys = {math.floor(state[1]), math.ceil(state[1])}
    return all(cmd[j] in xs and cmd[j + 1] in ys for j in range(0, len(cmd), 2))


def loop_ok(monitor: dict, trajectory: np.ndarray, n_steps: int, dt: float,
            synth_period: float) -> bool:
    """A complete, unaborted run whose every command is a corner map of the
    state it was issued at and is held until the next command."""
    if monitor.get("aborted") is not False or monitor.get("samples") != n_steps + 1:
        return False
    issued = command_rows(n_steps, dt, synth_period)
    if monitor.get("commands") != len(issued) or trajectory.shape[0] != n_steps + 1:
        return False
    state, cmd = trajectory[:, 1:3], trajectory[:, -4:]
    issued_set = set(issued)
    for k in range(n_steps + 1):
        if k in issued_set:
            if not corner_ok(state[k], cmd[k]):
                return False
        elif not np.array_equal(cmd[k], cmd[k - 1]):
            return False
    return True


def check_episode(code: int, out_dir: Path, n_steps: int, dt: float, synth_period: float) -> bool:
    out_dir = Path(out_dir)
    monitor_path = out_dir / "monitor.json"
    traj_path = out_dir / "trajectory.csv"
    if code != 0 or not monitor_path.is_file() or not traj_path.is_file():
        return False
    monitor = json.loads(monitor_path.read_text())
    trajectory = np.loadtxt(traj_path, delimiter=",", skiprows=1, ndmin=2)
    return loop_ok(monitor, trajectory, n_steps, dt, synth_period)
