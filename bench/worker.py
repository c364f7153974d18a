"""One measured process of the advsynth benchmark.

``run.py`` starts this script in a fresh interpreter for every execution, so
the import cost and advsynth's process-wide reward cache start cold, as they
do for every CLI user.  It reads a JSON job, times ``import advsynth.cli``,
runs the job's CLI command in process through ``advsynth.cli.main`` (inside
a span tracer when the job asks for one) and writes a JSON report.

    python3 bench/worker.py JOB.json
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback


def _invoke(main, argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects bad flags this way
        return exc.code if isinstance(exc.code, int) else 2
    except Exception:  # reported as a failed command, not a failed benchmark
        traceback.print_exc()
        return 1


def run(job: dict) -> dict:
    start = time.perf_counter()
    import advsynth  # noqa: F401
    import advsynth.cli

    setup_s = time.perf_counter() - start

    tracer = None
    if job["trace"]:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    start = time.perf_counter()
    if tracer is None:
        code = _invoke(advsynth.cli.main, job["argv"])
    else:
        code = tracer.call("cli.main", _invoke, (advsynth.cli.main, job["argv"]))
    wall = time.perf_counter() - start

    report = {
        "setup_s": setup_s,
        "wall": wall,
        "code": code,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        tracer.uninstall()
        report["restored"] = tracer.restored()
        with open(job["spans"], "w") as fh:
            json.dump(tracer.dump(), fh)
    return report


def main() -> None:
    with open(sys.argv[1]) as fh:
        job = json.load(fh)
    report = run(job)
    with open(job["report"], "w") as fh:
        json.dump(report, fh)


if __name__ == "__main__":
    main()
