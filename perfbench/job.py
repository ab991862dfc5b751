"""One benchmark process: set up, run one workload job, check it, report.

``run.py`` starts this script in a fresh process for every sample, with the
BLAS thread count pinned in the environment and the checkout's ``src`` on
``PYTHONPATH``::

    python3 perfbench/job.py --workload NAME --seed N --mode setup|job|trace \
        --t0 MONOTONIC --out DIR

Set-up is everything from process start (``--t0``, the parent's
``time.monotonic()`` just before the start) to ready: imports and a warm-up
call.  ``setup`` mode stops there; ``job`` runs the workload's job once
with no tracing; ``trace`` runs it under the span tracer and writes the
spans to ``DIR``.  The last line of standard output is one JSON record.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
import time


def _cpu(ru) -> float:
    return ru.ru_utime + ru.ru_stime


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "job", "trace"),
                        required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    import workloads
    workload = workloads.WORKLOADS[args.workload]
    workloads.warm_up()
    record = {"setup_s": time.monotonic() - args.t0}
    if args.mode == "setup":
        print(json.dumps(record))
        return 0

    tracer = restore = None
    if args.mode == "trace":
        import tracer as tracing
        tracer = tracing.Tracer()
        restore = tracing.install(tracer)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.out)
    try:
        before = resource.getrusage(resource.RUSAGE_SELF)
        start = time.perf_counter()
        outcome = workload.job(args.seed, workdir, tracer=tracer)
        job_s = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_SELF)
        if restore is not None:
            restore()
        problems = workload.check(outcome)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record.update(
        job_s=job_s, cpu_s=_cpu(after) - _cpu(before),
        peak_rss_mb=after.ru_maxrss / 1024.0,       # ru_maxrss is KiB on Linux
        attempted=outcome.attempted, failed=outcome.failed,
        problems=problems, score_rows=outcome.score_rows,
        score_s=job_s if outcome.score_s is None else outcome.score_s,
        bundle_bytes=outcome.bundle_bytes, rmse=outcome.rmse)
    if tracer is not None:
        record["layers"] = tracer.metrics()
        path = os.path.join(args.out, f"trace-{args.workload}-seed{args.seed}.json")
        tracer.write(path, {"workload": args.workload, "seed": args.seed,
                            "job_s": job_s,
                            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")})
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
