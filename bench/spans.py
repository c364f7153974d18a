"""Outside-in span tracer and per-layer metrics for the advsynth benchmark.

The tracer replaces the module-level bindings that advsynth's modules call
through with thin wrappers, records one span per call (name, start, end,
parent, operation id and a small note), and puts the original objects back
on ``uninstall``.  Nothing under ``src/`` knows about it.  Spans stay in
memory while the workload runs and are written out when it ends.

``summarize`` reduces one traced process's spans to counts, self times
and latency samples; ``layer_metrics`` combines the summaries of a run's
jobs into the per-layer metrics the benchmark reports.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time

from advsynth.continuous import SearchConfig
from advsynth.core import BoxSpace

# (module, attribute) pairs whose bindings are wrapped.  The span name is
# "<module suffix>.<attribute>", so the same library function seen through
# two modules' bindings gives two span names.
BINDINGS = (
    ("advsynth.cli", "synthesize"),
    ("advsynth.cli", "synthesize_constrained"),
    ("advsynth.cli", "synthesize_discrete"),
    ("advsynth.cli", "simulate_adversarial"),
    ("advsynth.cli", "greedy_safe_controller"),
    ("advsynth.scenarios", "synthesize_constrained"),
    ("advsynth.scenarios", "solve_reward"),
    ("advsynth.scenarios", "solve_lp"),
    ("advsynth.scenarios", "feasible_input_polytope"),
    ("advsynth.scenarios", "lie_derivatives"),
    ("advsynth.continuous", "difficulty"),
    ("advsynth.continuous", "solve_lp"),
    ("advsynth.continuous", "feasible_input_polytope"),
    ("advsynth.continuous", "lie_derivatives"),
    ("advsynth.core", "lie_derivatives"),
    ("advsynth.discrete", "one_step_difficulty"),
)

CLI_MAIN = "cli.main"
LP = ("scenarios.solve_lp", "continuous.solve_lp")
ASSEMBLY = ("scenarios.feasible_input_polytope", "continuous.feasible_input_polytope")
LIE = ("scenarios.lie_derivatives", "continuous.lie_derivatives", "core.lie_derivatives")
COMMAND = ("scenarios.synthesize_constrained",)
CONT_SYNTH = ("cli.synthesize", "cli.synthesize_constrained") + COMMAND
CONT_EVAL = ("continuous.difficulty",)
DISC_SYNTH = ("cli.synthesize_discrete",)
DISC_EVAL = ("discrete.one_step_difficulty",)
REWARD = ("scenarios.solve_reward",)
CONTROLLER = ("cli.greedy_safe_controller",)
SIMULATE = ("cli.simulate_adversarial",)

# one closed-loop operation ends when one of these returns: a synthesis
# trial, or a simulation step (one controller call per step)
OPERATION_ENDS = frozenset(("cli.synthesize", "cli.synthesize_constrained",
                            "cli.synthesize_discrete", "cli.greedy_safe_controller"))

LAYERS = {
    "lp": LP,
    "core": ASSEMBLY + LIE,
    "continuous": CONT_SYNTH + CONT_EVAL,
    "discrete": DISC_SYNTH + DISC_EVAL,
    "scenarios": REWARD + CONTROLLER + SIMULATE,
    "cli": (CLI_MAIN,),
}

# name, start, end, parent index (-1 at the root), operation id, note
NAME, START, END, PARENT, OP, NOTE = range(6)
FAILED = "failed"


def _note_lp(args, kwargs, out):
    return out.status if out.status == "infeasible" else None


def _note_synthesis(args, kwargs, out):
    space = args[0].test_space
    if isinstance(space, BoxSpace):
        grid = (kwargs.get("search") or SearchConfig()).grid_points ** space.dim
    else:
        grid = out.evaluations  # finite test sets are scanned without refinement
    return [out.evaluations, grid, bool(out.early_exit)]


class Tracer:
    """Records spans around the wrapped bindings of one process."""

    def __init__(self):
        self.spans: list = []
        self.op = 0
        self._stack: list = []
        self._saved: list = []
        self._rewards_seen: set = set()

    def call(self, name: str, fn, args=(), kwargs=None, note=None):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        kwargs = kwargs or {}
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            rec[NOTE] = FAILED
            raise
        finally:
            rec[END] = time.perf_counter()
            self._stack.pop()
        if note is not None:
            rec[NOTE] = note(args, kwargs, out)
        if name in OPERATION_ENDS:
            self.op += 1
        return out

    def _note_reward(self, args, kwargs, out):
        key = (tuple(int(v) for v in args[0]), tuple(int(v) for v in args[1]))
        if key in self._rewards_seen:
            return None
        self._rewards_seen.add(key)
        return "cold"

    def _wrap(self, name: str, fn):
        note = None
        if name in LP:
            note = _note_lp
        elif name in CONT_SYNTH:
            note = _note_synthesis
        elif name in REWARD:
            note = self._note_reward

        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, note)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for module_name, attr in BINDINGS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            name = f"{module_name.rsplit('.', 1)[-1]}.{attr}"
            setattr(module, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)

    def restored(self) -> bool:
        """True when every wrapped binding holds its original object again."""
        return all(getattr(module, attr) is original for module, attr, original in self._saved)

    def dump(self) -> dict:
        return {"fields": ["name", "start", "end", "parent", "op", "note"], "spans": self.spans}


def self_times(spans) -> list:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict = {}
    for s in spans:
        if s[PARENT] >= 0:
            children.setdefault(s[PARENT], []).append((s[START], s[END]))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        lo_bound, hi_bound = s[START], s[END]
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, lo_bound), min(hi, hi_bound)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(s[END] - s[START] - covered)
    return out


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (0 for no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


# every per-layer metric the benchmark reports, with its unit and whether
# higher or lower is better
PER_LAYER = {
    "lp.calls": ("count", "lower"),
    "lp.infeasible": ("count", "higher"),
    "lp.self_ms": ("ms", "lower"),
    "lp.call_us_p50": ("us", "lower"),
    "lp.call_us_p90": ("us", "lower"),
    "lp.failed": ("count", "lower"),
    "core.assembly_calls": ("count", "lower"),
    "core.assembly_self_ms": ("ms", "lower"),
    "core.lie_calls": ("count", "lower"),
    "core.lie_self_ms": ("ms", "lower"),
    "core.failed": ("count", "lower"),
    "continuous.synth_calls": ("count", "lower"),
    "continuous.synth_ms_p50": ("ms", "lower"),
    "continuous.synth_ms_p90": ("ms", "lower"),
    "continuous.evals": ("count", "lower"),
    "continuous.evals_grid": ("count", "lower"),
    "continuous.evals_refine": ("count", "lower"),
    "continuous.gamma_exits": ("count", "higher"),
    "continuous.evals_per_synth": ("count", "lower"),
    "continuous.eval_us_p50": ("us", "lower"),
    "continuous.self_ms": ("ms", "lower"),
    "continuous.failed": ("count", "lower"),
    "discrete.synth_calls": ("count", "lower"),
    "discrete.synth_ms_p50": ("ms", "lower"),
    "discrete.synth_ms_p90": ("ms", "lower"),
    "discrete.evals": ("count", "lower"),
    "discrete.eval_us_p50": ("us", "lower"),
    "discrete.self_ms": ("ms", "lower"),
    "discrete.failed": ("count", "lower"),
    "scenarios.reward_lookups": ("count", "lower"),
    "scenarios.reward_solves": ("count", "lower"),
    "scenarios.reward_hit_ratio": ("ratio", "higher"),
    "scenarios.reward_solve_ms": ("ms", "lower"),
    "scenarios.controller_calls": ("count", "lower"),
    "scenarios.controller_us_p50": ("us", "lower"),
    "scenarios.controller_us_p90": ("us", "lower"),
    "scenarios.commands": ("count", "lower"),
    "scenarios.command_ms_p50": ("ms", "lower"),
    "scenarios.sim_self_ms": ("ms", "lower"),
    "scenarios.failed": ("count", "lower"),
    "cli.self_ms": ("ms", "lower"),
    "cli.artifact_bytes": ("bytes", "lower"),
    "cli.failed": ("count", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}

# (metric, span names, percentile, scale to the metric's unit)
PERCENTILES = (
    ("lp.call_us_p50", LP, 50, 1e6),
    ("lp.call_us_p90", LP, 90, 1e6),
    ("continuous.synth_ms_p50", CONT_SYNTH, 50, 1e3),
    ("continuous.synth_ms_p90", CONT_SYNTH, 90, 1e3),
    ("continuous.eval_us_p50", CONT_EVAL, 50, 1e6),
    ("discrete.synth_ms_p50", DISC_SYNTH, 50, 1e3),
    ("discrete.synth_ms_p90", DISC_SYNTH, 90, 1e3),
    ("discrete.eval_us_p50", DISC_EVAL, 50, 1e6),
    ("scenarios.controller_us_p50", CONTROLLER, 50, 1e6),
    ("scenarios.controller_us_p90", CONTROLLER, 90, 1e6),
    ("scenarios.command_ms_p50", COMMAND, 50, 1e3),
)

# (metric, span names) whose self time, in ms, is summed over a run
SELF_MS = (
    ("lp.self_ms", LP),
    ("core.assembly_self_ms", ASSEMBLY),
    ("core.lie_self_ms", LIE),
    ("continuous.self_ms", CONT_SYNTH),
    ("discrete.self_ms", DISC_SYNTH),
    ("scenarios.sim_self_ms", SIMULATE),
    ("cli.self_ms", (CLI_MAIN,)),
)


def summarize(spans, artifact_bytes: int) -> dict:
    """Counts, summed times and latency samples of one traced process.

    The counts repeat exactly for the same inputs; the caller checks that.
    """
    by_name: dict = {}
    for s in spans:
        by_name.setdefault(s[NAME], []).append(s)

    def group(names):
        return [s for n in names for s in by_name.get(n, ())]

    synth = [s[NOTE] for s in group(CONT_SYNTH) if isinstance(s[NOTE], list)]
    evals_grid = sum(min(n[0], n[1]) for n in synth)
    counts = {
        "lp.calls": len(group(LP)),
        "lp.infeasible": sum(1 for s in group(LP) if s[NOTE] == "infeasible"),
        "core.assembly_calls": len(group(ASSEMBLY)),
        "core.lie_calls": len(group(LIE)),
        "continuous.synth_calls": len(group(CONT_SYNTH)),
        "continuous.evals": len(group(CONT_EVAL)),
        "continuous.evals_grid": evals_grid,
        "continuous.evals_refine": sum(n[0] for n in synth) - evals_grid,
        "continuous.gamma_exits": sum(1 for n in synth if n[2]),
        "discrete.synth_calls": len(group(DISC_SYNTH)),
        "discrete.evals": len(group(DISC_EVAL)),
        "scenarios.reward_lookups": len(group(REWARD)),
        "scenarios.reward_solves": sum(1 for s in group(REWARD) if s[NOTE] == "cold"),
        "scenarios.controller_calls": len(group(CONTROLLER)),
        "scenarios.commands": len(group(COMMAND)),
        "cli.artifact_bytes": artifact_bytes,
    }
    for layer, names in LAYERS.items():
        counts[f"{layer}.failed"] = sum(1 for s in group(names) if s[NOTE] == FAILED)

    owner = {n: metric for metric, names in SELF_MS for n in names}
    times = {metric: 0.0 for metric, _ in SELF_MS}
    times["scenarios.reward_solve_ms"] = 0.0
    for s, own in zip(spans, self_times(spans)):
        if s[NAME] in owner:
            times[owner[s[NAME]]] += own * 1e3
        if s[NOTE] == "cold":
            times["scenarios.reward_solve_ms"] += (s[END] - s[START]) * 1e3

    samples = {
        metric: [(s[END] - s[START]) * scale for s in group(names)]
        for metric, names, _, scale in PERCENTILES
    }
    return {"counts": counts, "times": times, "samples": samples}


def layer_metrics(jobs) -> tuple:
    """Per-layer metrics of a run, from the traced processes of each job.

    ``jobs`` holds, per job of the run, the ``summarize`` results of its
    traced processes.  Counts add up the jobs' first process; times add up
    each job's median; percentiles pool every traced process.  Returns the
    metrics and the sample count behind each percentile.
    """
    metrics: dict = {}
    for job in jobs:
        for name, value in job[0]["counts"].items():
            metrics[name] = metrics.get(name, 0) + value
        for name in job[0]["times"]:
            metrics[name] = metrics.get(name, 0.0) + statistics.median(
                rep["times"][name] for rep in job
            )
    synth_calls = metrics["continuous.synth_calls"]
    metrics["continuous.evals_per_synth"] = (
        metrics["continuous.evals"] / synth_calls if synth_calls else 0.0
    )
    lookups = metrics["scenarios.reward_lookups"]
    metrics["scenarios.reward_hit_ratio"] = (
        (lookups - metrics["scenarios.reward_solves"]) / lookups if lookups else 0.0
    )
    counts = {}
    for metric, _, q, _ in PERCENTILES:
        pool = [v for job in jobs for rep in job for v in rep["samples"][metric]]
        metrics[metric] = percentile(pool, q)
        counts[metric] = len(pool)
    return metrics, counts


def load(path) -> list:
    with open(path) as fh:
        return json.load(fh)["spans"]
