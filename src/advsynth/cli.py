"""Command line front end: synth, sweep, trials, simulate.

Configs are flat ``key = value`` text files; '#' starts a comment and
unknown or inapplicable keys are rejected with the offending line.  All
randomness flows from one seed >= 0: ``trials`` draws the stream
``numpy.random.default_rng(seed)`` would give, computed in pure Python
(``_pcg64``), so no command imports ``numpy.random``.  Artifacts
(stdout JSON, CSV and JSON files) are byte-identical across repeated
runs with the same inputs; timing goes to stderr only.

Exit codes: 0 success, 2 config/usage error, 3 runtime abort.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
import warnings
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path
from typing import Optional

import numpy as np

from ._pcg64 import Generator
# ``synthesize`` stays bound here because bench/spans.py wraps it by name
from .continuous import SearchConfig, difficulty, synthesize, synthesize_constrained
from .core import (
    DEFAULT_BUDGET,
    BudgetError,
    MappedSpace,
    ScenarioError,
    as_vector,
    dim_at,
    monitor_trajectory,
)
from .discrete import (
    DiscreteScenario,
    predictive_difficulty,
    synthesize_discrete,
)
from .scenarios import (
    build_gridworld,
    build_quadgrid,
    build_unicycle,
    greedy_safe_controller,
    grid_cell,
    simulate_adversarial,
    simulation_steps,
)

__all__ = ["main", "main_entry", "ConfigError", "parse_config"]

SCENARIO_NAMES = ("unicycle", "gridworld", "quadgrid")


class ConfigError(Exception):
    """Bad config file, flag value, or request; exits with code 2."""


def _parse_float(s: str) -> float:
    v = float(s)
    if math.isnan(v):
        raise ValueError("not a number")
    return v


def _parse_int(s: str) -> int:
    return int(s, 10)


def _parse_seed(s: str) -> int:
    v = _parse_int(s)
    if v < 0:
        raise ValueError("seeds must be >= 0")
    return v


def _parse_floats(s: str) -> tuple:
    parts = [p.strip() for p in s.split(",") if p.strip()]
    if not parts:
        raise ValueError("expected a comma-separated list of numbers")
    return tuple(_parse_float(p) for p in parts)


def _parse_bool(s: str) -> bool:
    low = s.strip().lower()
    if low in ("true", "yes", "1"):
        return True
    if low in ("false", "no", "0"):
        return False
    raise ValueError("expected true/false")


def _parse_scenario(s: str) -> str:
    if s not in SCENARIO_NAMES:
        raise ValueError(f"expected one of {', '.join(SCENARIO_NAMES)}")
    return s


_CONT = ("unicycle", "quadgrid")


def _key(parse, *scope, default=None):
    """A config key's field: its default, and as metadata its value parser
    and the scenarios it applies to."""
    return field(default=default, metadata={"parse": parse, "scope": frozenset(scope)})


@dataclass
class RunConfig:
    """A parsed config, one field per config key.  A key left unset stays
    None and is not passed on, so the library's default applies; only
    ``check_path``, ``seed``, ``synth_period`` and ``dt`` have defaults of
    the CLI's own."""

    scenario: str = _key(_parse_scenario, *SCENARIO_NAMES, default=MISSING)
    goal: Optional[tuple] = _key(_parse_floats, "unicycle", "gridworld")
    obstacle_count: Optional[int] = _key(_parse_int, "unicycle")
    kappa: Optional[float] = _key(_parse_float, *_CONT)
    m: Optional[float] = _key(_parse_float, *SCENARIO_NAMES)
    t_max: Optional[float] = _key(_parse_float, *_CONT)
    horizon_n: Optional[int] = _key(_parse_int, "gridworld")
    check_path: bool = _key(_parse_bool, "gridworld", default=False)
    grid_points: Optional[int] = _key(_parse_int, "unicycle")
    refine_iterations: Optional[int] = _key(_parse_int, "unicycle")
    step_tolerance: Optional[float] = _key(_parse_float, "unicycle")
    seed: int = _key(_parse_seed, *SCENARIO_NAMES, default=0)
    synth_period: float = _key(_parse_float, *_CONT, default=0.5)
    dt: float = _key(_parse_float, *_CONT, default=0.01)
    obstacle_speed: Optional[float] = _key(_parse_float, *_CONT)
    x0: Optional[tuple] = _key(_parse_floats, *_CONT)
    d_fixed: Optional[tuple] = _key(_parse_floats, *_CONT)
    echo: dict = field(default_factory=dict)


# key -> {"parse": parser, "scope": scenarios the key applies to}
_KEYS = {f.name: f.metadata for f in fields(RunConfig) if f.metadata}


def parse_config(path) -> RunConfig:
    """Parse and validate a flat key = value config file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    values: dict = {}
    echo: dict = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if not sep or not key or not val:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        if key not in _KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key '{key}'")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key '{key}'")
        try:
            values[key] = _KEYS[key]["parse"](val)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for '{key}': {exc}") from exc
        echo[key] = val

    if "scenario" not in values:
        raise ConfigError(f"{path}: missing required key 'scenario'")
    scenario = values["scenario"]
    for key in values:
        if scenario not in _KEYS[key]["scope"]:
            raise ConfigError(
                f"{path}: key '{key}' does not apply to scenario '{scenario}'"
            )
    return RunConfig(**values, echo=echo)


@contextmanager
def _rejected(what: str):
    """Report a library ValueError about config values as a ConfigError."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"bad value for {what}: {exc}") from exc


def _given(cfg: RunConfig, *keys) -> dict:
    """The keys among ``keys`` that the config sets, with their values."""
    return {k: getattr(cfg, k) for k in keys if getattr(cfg, k) is not None}


# each scenario's builder, and the keyword each config key it reads sets
_BUILDERS = {
    "unicycle": (build_unicycle, {"goal": "goal", "obstacle_count": "n_obstacles",
                                  "kappa": "kappa", "m": "floor", "t_max": "t_max"}),
    "gridworld": (build_gridworld, {"goal": "goal", "m": "floor", "horizon_n": "horizon"}),
    "quadgrid": (build_quadgrid, {"kappa": "kappa", "m": "floor", "t_max": "t_max"}),
}


def make_scenario(cfg: RunConfig):
    builder, keywords = _BUILDERS[cfg.scenario]
    keys = [k for k in keywords if k in cfg.echo]
    with _rejected(", ".join(f"'{k}'" for k in keys) or f"scenario '{cfg.scenario}'"):
        return builder(**{keywords[k]: v for k, v in _given(cfg, *keywords).items()})


def _search(cfg: RunConfig) -> SearchConfig:
    with _rejected("the search settings"):
        return SearchConfig(**_given(cfg, "grid_points", "refine_iterations", "step_tolerance"))


# ---------------------------------------------------------------------------
# deterministic serialization

def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, float) and math.isinf(obj):
        return "inf" if obj > 0 else "-inf"
    return obj


def _fmt(v) -> str:
    return f"{float(v):.17g}"




def _emit(cfg: RunConfig, payload: dict, out_dir: Optional[Path], name: str) -> None:
    """Print ``payload`` with the run's scenario, seed and config echo as a
    JSON artifact, and write it to ``out_dir / name`` when given."""
    payload = {**payload, "scenario": cfg.scenario, "seed": cfg.seed, "config": dict(cfg.echo)}
    text = json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n"
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / name).write_text(text)
    sys.stdout.write(text)


def _write_csv(path: Path, rows) -> None:
    lines = [",".join(row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def _parse_state(scn, text: str):
    try:
        values = _parse_floats(text)
    except ValueError as exc:
        raise ConfigError(f"bad --state: {exc}") from exc
    with _rejected("--state"):
        if isinstance(scn, DiscreteScenario):
            return grid_cell(values, "the state")
        return scn.check_state(values, "--state")


# ---------------------------------------------------------------------------
# commands

def _synthesize(cfg: RunConfig, scn, x):
    """The hardest test at x: the one place that picks a synthesizer by
    scenario family.  Discrete scenarios plan over their own horizon."""
    try:
        if isinstance(scn, DiscreteScenario):
            return synthesize_discrete(scn, x, check_path=cfg.check_path)
        return synthesize_constrained(scn, x, 0.0, search=_search(cfg))
    except BudgetError as exc:
        what = "'horizon_n'" if isinstance(scn, DiscreteScenario) else "the search settings"
        raise ConfigError(f"bad value for {what}: {exc}") from exc


def _difficulty(cfg: RunConfig, scn, x, d) -> float:
    """The difficulty of test d at x, as :func:`_synthesize`'s synthesizer
    measures it."""
    if isinstance(scn, DiscreteScenario):
        return predictive_difficulty(scn, x, d, scn.floor, scn.horizon, cfg.check_path)[0]
    return difficulty(scn, x, d, scn.floor)[0]


def _synthesis_payload(cfg: RunConfig, scn, x) -> dict:
    res = _synthesize(cfg, scn, x)
    return {
        "state": _jsonable(x),
        "d_star": _jsonable(res.d_star),
        "difficulty": res.difficulty,
        "in_gamma": res.in_gamma,
        "early_exit": res.early_exit,
        "evaluations": res.evaluations,
    }


def cmd_synth(cfg: RunConfig, state_text: str, out_dir: Optional[Path]) -> int:
    scn = make_scenario(cfg)
    x = _parse_state(scn, state_text)
    _emit(cfg, _synthesis_payload(cfg, scn, x), out_dir, "synth.json")
    return 0


def _parse_axes(spec_text: str) -> list:
    axes = []
    for chunk in spec_text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        if len(parts) != 4:
            raise ConfigError(
                f"bad axis '{chunk}': expected component:lo:hi:count"
            )
        try:
            comp = int(parts[0])
            lo, hi = float(parts[1]), float(parts[2])
            count = int(parts[3])
        except ValueError as exc:
            raise ConfigError(f"bad axis '{chunk}': {exc}") from exc
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ConfigError(f"bad axis '{chunk}': bounds must be finite")
        if count < 1 or hi < lo:
            raise ConfigError(f"bad axis '{chunk}': need count >= 1 and hi >= lo")
        axes.append((comp, lo, hi, count))
    if len(axes) != 2:
        raise ConfigError(
            f"sweep needs exactly 2 axes (got {len(axes)}); "
            "pass --axes component:lo:hi:count,component:lo:hi:count"
        )
    if axes[0][0] == axes[1][0]:
        raise ConfigError(f"sweep axes must be two different components, got {axes[0][0]} twice")
    return axes


def _sweep_test(scn, base, c1: int, c2: int, v1: float, v2: float):
    """The test vector of one sweep cell: ``base`` with components c1 and
    c2 set; a discrete one must be a grid cell."""
    d = base.copy()
    d[c1], d[c2] = v1, v2
    if isinstance(scn, DiscreteScenario):
        with _rejected("--axes"):
            return grid_cell(d, "a sweep cell")
    return d


def cmd_sweep(cfg: RunConfig, state_text: str, axes_text: str, out_dir: Path) -> int:
    scn = make_scenario(cfg)
    x = _parse_state(scn, state_text)
    axes = _parse_axes(axes_text)
    (c1, lo1, hi1, n1), (c2, lo2, hi2, n2) = axes
    if n1 * n2 > DEFAULT_BUDGET:
        raise ConfigError(f"sweep would evaluate {n1 * n2} cells but the budget is "
                          f"{DEFAULT_BUDGET}; lower the axis counts")
    a1 = np.linspace(lo1, hi1, n1)
    a2 = np.linspace(lo2, hi2, n2)

    # every check comes before the synthesis, so a bad request exits before
    # any search, and a budget error leaves no partial artifact
    p = dim_at(scn.test_space, x)
    if cfg.d_fixed is not None:
        with _rejected("'d_fixed'"):
            base = as_vector(cfg.d_fixed, "'d_fixed'")
        if base.size != p:
            raise ConfigError(
                f"'d_fixed' needs {p} components (the test dimension), got {base.size}")
    elif isinstance(scn.test_space, MappedSpace):
        raise ConfigError("this scenario needs d_fixed to anchor unswept components")
    else:
        base = np.zeros(p)
    for c in (c1, c2):
        if not 0 <= c < p:
            raise ConfigError(f"axis component {c} out of range for test dim {p}")
    if isinstance(scn, DiscreteScenario):
        # a cell is a grid cell when each coordinate is, so the first row
        # and column of cells check every axis value
        for v1, v2 in [(v, a2[0]) for v in a1] + [(a1[0], v) for v in a2]:
            _sweep_test(scn, base, c1, c2, v1, v2)
    payload = _synthesis_payload(cfg, scn, x)

    values = np.zeros((n1, n2))
    for i, j in np.ndindex(n1, n2):
        values[i, j] = _difficulty(cfg, scn, x, _sweep_test(scn, base, c1, c2, a1[i], a2[j]))

    out_dir.mkdir(parents=True, exist_ok=True)
    rows = [[""] + [_fmt(v) for v in a2]]
    for i in range(n1):
        rows.append([_fmt(a1[i])] + [_fmt(values[i, j]) for j in range(n2)])
    _write_csv(out_dir / "sweep.csv", rows)

    imin, jmin = np.unravel_index(int(np.argmin(values)), values.shape)
    d_star = payload["d_star"]
    overlay = {
        "state": payload["state"],
        "axes": [list(a) for a in axes],
        "d_star": d_star,
        "swept_coordinates": [d_star[c1], d_star[c2]],
        "difficulty": payload["difficulty"],
        "in_gamma": payload["in_gamma"],
        "min_cell": {
            "value": float(values[imin, jmin]),
            "axis_values": [float(a1[imin]), float(a2[jmin])],
            "indices": [int(imin), int(jmin)],
        },
        "floor": scn.floor,
        "note": (
            "cell values are exact difficulty evaluations on the axis grid; "
            "the synthesizer may refine between cells, so its difficulty can "
            "undercut the minimum cell by up to one grid step"
        ),
    }
    _emit(cfg, overlay, out_dir, "sweep_overlay.json")
    return 0


def cmd_trials(cfg: RunConfig, count: int, out_dir: Optional[Path]) -> int:
    if count < 1:
        raise ConfigError("--count must be >= 1")
    if count > DEFAULT_BUDGET:
        raise ConfigError(f"trials would run {count} syntheses but the budget is "
                          f"{DEFAULT_BUDGET}; lower --count")
    scn = make_scenario(cfg)
    # grid trials draw a non-overlapping state/goal pair, and so a fresh
    # scenario, per trial; the others draw states uniformly from the box
    redraw_goal = cfg.scenario == "gridworld"
    rng = Generator(cfg.seed)
    t0 = time.perf_counter()
    rows = []
    with warnings.catch_warnings():
        # random starts occasionally sit inside the goal disc already;
        # that is expected in a batch sweep
        warnings.simplefilter("ignore")
        for k in range(count):
            if redraw_goal:
                while True:
                    x = tuple(rng.integers(10, size=2))
                    goal = tuple(rng.integers(10, size=2))
                    if x != goal:
                        break
                scn = make_scenario(replace(cfg, goal=goal))
            else:
                x = np.array(rng.uniform(scn.state_lower, scn.state_upper))
            res = _synthesize(cfg, scn, x)
            row = {
                "trial": k,
                "state": x,
                "d_star": res.d_star,
                "difficulty": res.difficulty,
                "in_gamma": res.in_gamma,
            }
            if redraw_goal:
                row.update(goal=goal, optimal=res.d_star == goal)
            else:
                row["optimal"] = res.difficulty == scn.floor
            rows.append(row)

    elapsed = time.perf_counter() - t0
    # aggregates recomputed from the per-trial rows, never tracked separately
    difficulties = [r["difficulty"] for r in rows]
    summary = {
        "count": len(rows),
        "optimum_rule": "d_star == goal" if redraw_goal else "difficulty == floor",
        "fraction_attaining_optimum": sum(1 for r in rows if r["optimal"]) / len(rows),
        "difficulty_min": min(difficulties),
        "difficulty_max": max(difficulties),
        "difficulty_mean": sum(difficulties) / len(difficulties),
        "per_trial": rows,
    }
    _emit(cfg, summary, out_dir, "trials.json")
    print(f"trials wall time: {elapsed:.2f} s", file=sys.stderr)
    return 0


_DEFAULT_X0 = {"quadgrid": (0.0, 0.0), "unicycle": (-0.5, -0.5, 0.0)}


def cmd_simulate(cfg: RunConfig, state_text: Optional[str], horizon: float, out_dir: Path) -> int:
    if cfg.scenario == "gridworld":
        raise ConfigError("scenario 'gridworld' does not support simulation")
    scn = make_scenario(cfg)
    if state_text is not None:
        x0 = _parse_state(scn, state_text)
    elif cfg.x0 is not None:
        with _rejected("'x0'"):
            x0 = scn.check_state(cfg.x0, "'x0'")
    else:
        x0 = np.array(_DEFAULT_X0[cfg.scenario])
    speed = _given(cfg, "obstacle_speed")
    with _rejected("--horizon / 'dt' / 'synth_period' / 'obstacle_speed'"):
        simulation_steps(cfg.dt, cfg.synth_period, horizon, **speed)
    search = _search(cfg)

    t0 = time.perf_counter()
    try:
        with warnings.catch_warnings():
            # once the loop reaches the goal, every later adversary solve
            # starts inside it; that is expected in a closed loop
            warnings.simplefilter("ignore")
            log = simulate_adversarial(
                scn,
                x0,
                greedy_safe_controller,
                synth_period=cfg.synth_period,
                dt=cfg.dt,
                horizon=horizon,
                search=search,
                **speed,
            )
    except BudgetError as exc:
        raise ConfigError(f"bad value for the search settings: {exc}") from exc
    elapsed = time.perf_counter() - t0

    out_dir.mkdir(parents=True, exist_ok=True)
    n = log.states.shape[1]
    p = log.obstacles.shape[1]
    header = (
        ["t"]
        + [f"x{i}" for i in range(n)]
        + [f"obs{i}" for i in range(p)]
        + [f"cmd{i}" for i in range(p)]
    )
    rows = []
    cmd_idx = 0
    cmds = [cmd.tolist() for _, _, cmd in log.commands]
    times = log.times.tolist()
    for t, x, obs in zip(times, log.states.tolist(), log.obstacles.tolist()):
        while cmd_idx + 1 < len(log.commands) and log.commands[cmd_idx + 1][0] <= t:
            cmd_idx += 1
        rows.append((t, *x, *obs, *cmds[cmd_idx]))
    # one format per row gives each float the text of _fmt, in a third of the time
    line = ",".join(["%.17g"] * len(header))
    _write_csv(out_dir / "trajectory.csv", [header] + [[line % row] for row in rows])
    lows = log.min_barrier.tolist()
    barriers = [["%.17g,%.17g" % r] for r in zip(times, lows)]
    _write_csv(out_dir / "min_barrier.csv", [["t", "min_barrier"]] + barriers)

    # the avoid values are the ones the loop logged, so only the reach
    # barrier is evaluated again
    verdict = monitor_trajectory(scn.spec, list(zip(times, log.states)),
                                 list(zip(times, log.obstacles)), lows)
    payload = {
        "satisfied": verdict.satisfied,
        "reach_time": verdict.reach_time,
        "min_avoid_value": verdict.min_avoid_value,
        "aborted": log.aborted,
        "samples": int(log.times.size),
        "commands": len(log.commands),
        "horizon": horizon,
        "dt": cfg.dt,
        "synth_period": cfg.synth_period,
    }
    _emit(cfg, payload, out_dir, "monitor.json")
    print(f"simulate wall time: {elapsed:.2f} s", file=sys.stderr)
    if log.aborted:
        print("integration aborted on non-finite state; logs are partial", file=sys.stderr)
        return 3
    return 0


# ---------------------------------------------------------------------------
# entry point

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="advsynth",
        description="Adversarial test synthesis for reach-avoid control tasks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, state_required=False, state=True, out_required=False):
        p.add_argument("--config", required=True, help="flat key=value config file")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument(
            "--out",
            default=None,
            required=out_required,
            help="directory for output artifacts",
        )
        if state:
            p.add_argument(
                "--state",
                required=state_required,
                default=None,
                help="comma-separated state vector",
            )

    p_synth = sub.add_parser("synth", help="synthesize the hardest test at one state")
    common(p_synth, state_required=True)

    p_sweep = sub.add_parser("sweep", help="difficulty landscape over two test components")
    common(p_sweep, state_required=True, out_required=True)
    p_sweep.add_argument(
        "--axes", required=True, help="two specs: component:lo:hi:count,component:lo:hi:count"
    )

    p_trials = sub.add_parser("trials", help="randomized synthesis trials")
    common(p_trials, state=False)
    p_trials.add_argument("--count", type=int, default=100, help="number of trials")

    p_sim = sub.add_parser("simulate", help="closed-loop adversarial simulation")
    common(p_sim, out_required=True)
    p_sim.add_argument("--horizon", type=float, default=20.0, help="run length in seconds")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config)
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError("--seed must be >= 0")
            cfg.seed = args.seed
        out_dir = Path(args.out) if args.out is not None else None
        if args.command == "synth":
            return cmd_synth(cfg, args.state, out_dir)
        if args.command == "sweep":
            return cmd_sweep(cfg, args.state, args.axes, out_dir)
        if args.command == "trials":
            return cmd_trials(cfg, args.count, out_dir)
        return cmd_simulate(cfg, args.state, args.horizon, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ScenarioError as exc:
        print(f"runtime abort: {exc}", file=sys.stderr)
        return 3


def main_entry() -> None:
    sys.exit(main())
