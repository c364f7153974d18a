"""The advsynth benchmark: real CLI workloads, measured end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/advsynth`` must be there).

The seed fixes a workload's jobs: each job is one ``advsynth`` command
(``trials`` or ``simulate``) with inputs drawn from the seed.  Every
execution of a job is a fresh interpreter (``worker.py``) that calls
``advsynth.cli.main`` in process, so the import and the process-wide reward
cache start cold, as they do for a CLI user.  Executions run one after
another, one process and one thread each (a closed loop with one client),
cycling through the jobs until ``--seconds`` have passed and every job has
run at least once.

A shared 2-core Xeon VM was seen to change speed by up to 2x for seconds
to minutes at a time as other tenants came and went, and the work of a
trial varies a lot from state to state.  So a run holds many short jobs with
distinct inputs, spread over its whole length: a job's command time is the
median of its executions, and ``ops_per_s`` is the run's operations over
the sum of those medians.  ``setup_s`` and ``peak_rss_mb`` are medians over
every execution.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs every job
span-traced (the first one twice, to check that counts repeat) and half of
them untraced as well, for the tracing overhead, and reports the per-layer
metrics (see ``spans.py``).  Each command's output is checked outside the
timed region (``checks.py``).  The last stdout line is one JSON object with
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; a full record,
with the machine and package versions, goes to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKER_TIMEOUT_S = 120

# On a 2-core Xeon VM at its slower speed, jobs take one to three seconds
# each and a run's jobs about 20 s.
WORKLOADS = {
    # criterion-1 regime: every trial exits early into Γ during the grid scan;
    # the exit index varies a lot per state, hence 300 trials
    "unicycle-gamma": {"command": "trials", "jobs": 12, "count": 25},
    # two obstacles on a 3-point grid: most trials scan the whole grid and
    # then run compass refinement
    "unicycle-refine": {"command": "trials", "jobs": 10, "count": 40},
    # a fresh goal per trial, so most trials pay cold reward solves; no LP
    "gridworld-cold": {"command": "trials", "jobs": 6, "count": 25},
    # closed loop from seeded start states: a controller LP every step, a
    # constrained synthesis every synth_period, every sample written to CSV
    "quadgrid-loop": {"command": "simulate", "jobs": 16, "horizon": 10.0},
}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


class Workload:
    """One workload's config, jobs and output checks for a seed."""

    def __init__(self, name: str, seed: int):
        import numpy as np
        from advsynth.cli import make_scenario, parse_config

        self.name = name
        self.spec = WORKLOADS[name]
        self.config_path = BENCH / "configs" / f"{name}.cfg"
        self.cfg = parse_config(self.config_path)
        self.scenario = make_scenario(self.cfg)
        n_jobs = self.spec["jobs"]
        common = ["--config", str(self.config_path)]
        if self.spec["command"] == "trials":
            self.ops = self.spec["count"]
            job_seeds = np.random.SeedSequence(seed).generate_state(n_jobs)
            self.argvs = [
                ["trials", *common, "--seed", str(int(s)), "--count", str(self.ops)]
                for s in job_seeds
            ]
        else:
            self.ops = int(round(self.spec["horizon"] / self.cfg.dt))
            rng = np.random.default_rng(seed)
            lo, hi = self.scenario.state_lower, self.scenario.state_upper
            self.argvs = []
            for _ in range(n_jobs):
                state = ",".join(repr(float(v)) for v in rng.uniform(lo, hi))
                self.argvs.append(["simulate", *common, "--seed", str(seed), "--horizon",
                                   repr(self.spec["horizon"]), f"--state={state}"])

    def check(self, code: int, out_dir: Path) -> list:
        """One verdict per operation of a job's execution."""
        import checks

        if self.spec["command"] == "trials":
            return checks.check_trials(self.name, self.scenario, code, out_dir, self.ops)
        ok = checks.check_episode(code, out_dir, self.ops, self.cfg.dt, self.cfg.synth_period)
        return [ok] * self.ops


def _artifact_digest(out_dir: Path) -> tuple:
    """SHA-256 over every artifact's name and bytes, and their total size."""
    h = hashlib.sha256()
    size = 0
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        data = path.read_bytes()
        h.update(str(path.relative_to(out_dir)).encode() + b"\0" + data)
        size += len(data)
    return h.hexdigest(), size


class Executions:
    """Runs a workload's jobs in fresh processes and keeps what they report."""

    def __init__(self, workload: Workload, scratch: Path):
        self.workload = workload
        self.scratch = scratch
        n = len(workload.argvs)
        self.reports: list = []               # every execution, in order
        self.by_job = [[] for _ in range(n)]  # execution reports per job
        self.traced = [[] for _ in range(n)]  # spans.summarize() per traced execution
        self.checked: list = [None] * n       # (digest, verdicts) of each job's first run
        self.problems: list = []
        # one thread per process, as the workloads claim: OpenBLAS would
        # otherwise start a thread per core for the reward solves
        self.env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        )

    def run(self, job: int, trace: bool) -> None:
        work = self.scratch / f"exec{len(self.reports)}"
        out_dir = work / "out"
        out_dir.mkdir(parents=True)  # fresh and empty: a stale artifact can never pass
        files = {"report": str(work / "report.json"), "spans": str(work / "spans.json")}
        job_path = work / "job.json"
        job_path.write_text(json.dumps({
            "argv": self.workload.argvs[job] + ["--out", str(out_dir)],
            "trace": trace,
            **files,
        }))
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), str(job_path)],
            cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            timeout=WORKER_TIMEOUT_S,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr.decode(errors="replace"))
            raise RuntimeError(f"worker exited with code {proc.returncode}")
        report = json.loads(Path(files["report"]).read_text())
        if report["code"] != 0:
            sys.stderr.write(proc.stderr.decode(errors="replace"))
        digest, size = _artifact_digest(out_dir)
        if self.checked[job] is not None and digest == self.checked[job][0]:
            verdicts = self.checked[job][1]  # same bytes as a checked run
        else:
            verdicts = self.workload.check(report["code"], out_dir)
            if self.checked[job] is None:
                self.checked[job] = (digest, verdicts)
            else:
                self.problems.append(f"job {job}: artifacts differ between executions")
        report.update(job=job, trace=trace, artifact_sha256=digest,
                      attempted=len(verdicts), failed=verdicts.count(False))
        if trace:
            import spans

            if not report["restored"]:
                self.problems.append(f"job {job}: a wrapped binding was not restored")
            summary = spans.summarize(spans.load(files["spans"]), size)
            if self.traced[job] and summary["counts"] != self.traced[job][0]["counts"]:
                self.problems.append(f"job {job}: per-layer counts differ between traced runs")
            self.traced[job].append(summary)
            shutil.copyfile(files["spans"], self.scratch.with_suffix(".spans.json"))
        self.reports.append(report)
        self.by_job[job].append(report)
        shutil.rmtree(work)

    def command_s(self, trace: bool, jobs) -> float:
        """Sum over ``jobs`` of each job's median command time."""
        return sum(
            statistics.median(r["wall"] for r in self.by_job[j] if r["trace"] == trace)
            for j in jobs
        )


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_size(level: int):
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if (int((index / "level").read_text()) == level
                    and (index / "type").read_text().strip() in ("Unified", "Data")):
                return (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
    return None


def _git_commit():
    """HEAD of the checkout's own .git, if it has one (never a parent's)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _version(package: str):
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def environment(seed: int) -> dict:
    src_hash = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src_hash.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "l2_cache": _cache_size(2),
        "l3_cache": _cache_size(3),
        "git_commit": _git_commit(),
        "src_sha256": src_hash.hexdigest(),
        "seed": seed,
    }


def end_to_end(runs: Executions) -> dict:
    attempted = sum(r["attempted"] for r in runs.reports)
    failed = sum(r["failed"] for r in runs.reports)
    ops = runs.workload.ops * len(runs.by_job)
    return {
        "setup_s": (statistics.median(r["setup_s"] for r in runs.reports), "s"),
        "ops_per_s": (ops / runs.command_s(False, range(len(runs.by_job))), "1/s"),
        "peak_rss_mb": (statistics.median(r["maxrss_kb"] / 1024.0 for r in runs.reports), "MB"),
        "success_frac": ((attempted - failed) / attempted, "ratio"),
    }


def per_layer(runs: Executions) -> tuple:
    import spans

    metrics, samples = spans.layer_metrics(runs.traced)
    paired = [j for j, reports in enumerate(runs.by_job) if not all(r["trace"] for r in reports)]
    plain = runs.command_s(False, paired)
    metrics["trace.overhead_frac"] = (runs.command_s(True, paired) - plain) / plain
    return {k: (metrics[k], unit) for k, (unit, _) in spans.PER_LAYER.items()}, samples


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "advsynth" / "cli.py").is_file():
        print(f"advsynth sources not found under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # checks.py and spans.py import advsynth from here on
    workload = Workload(args.workload, args.seed)  # a key the CLI rejects fails here
    label = f"{args.workload}-trace{args.trace}"    # latest run only, so out/ stays small
    scratch = OUT / f"{label}.tmp"
    if scratch.exists():
        shutil.rmtree(scratch)
    runs = Executions(workload, scratch)

    n_jobs = len(workload.argvs)
    if args.trace:
        # every job traced, job 0 twice since its counts must repeat exactly;
        # even-numbered jobs also run untraced, alternating which goes first,
        # to measure the tracing overhead
        schedule = [(0, True)]
        for j in range(n_jobs):
            if j % 2:
                schedule.append((j, True))
            else:
                schedule += [(j, j % 4 == 0), (j, j % 4 != 0)]
    else:
        schedule = [(j, False) for j in range(n_jobs)]
    deadline = time.perf_counter() + args.seconds
    for k in itertools.count():
        if k >= len(schedule) and time.perf_counter() >= deadline:
            break
        runs.run(*schedule[k % len(schedule)])

    samples = {}
    if args.trace:
        metrics, samples = per_layer(runs)
    else:
        metrics = end_to_end(runs)
    attempted = sum(r["attempted"] for r in runs.reports)
    failed = sum(r["failed"] for r in runs.reports)
    for problem in runs.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    correct = failed == 0 and not runs.problems

    record = {
        "workload": args.workload,
        "config": dict(workload.cfg.echo),
        "jobs": workload.argvs,
        "environment": environment(args.seed),
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": correct,
        "problems": runs.problems,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "percentile_samples": samples,
        "executions": runs.reports,
    }
    (OUT / f"{label}.json").write_text(json.dumps(record, indent=2) + "\n")
    shutil.rmtree(scratch)

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
