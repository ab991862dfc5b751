"""Benchmark of the tvcate library: four workloads, end-to-end and layer metrics.

Run from the root of a checkout::

    python3 perfbench/run.py --workload d1-study --seed 0 --seconds 5 --trace 0

Every sample runs in a fresh process (``job.py``) with one BLAS thread and
``workers = 1``, importing ``tvcate`` from this checkout's ``src``.  A run
starts ``SETUP_PROBES`` set-up-only processes, then runs whole jobs until
``--seconds`` have passed (at least one).  With ``--trace 1`` it then runs
one more job under the span tracer and reports the per-layer metrics
instead of the end-to-end ones.  Each job's outputs are checked; the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  See README.md for what every
metric means and which layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

WORKLOAD_NAMES = ("d1-study", "d3-sweep", "oracle-verify", "cli-score")
BLAS_THREADS = "1"
SETUP_PROBES = 2
#: Wall-clock budget of one run; a sample still running at the end is killed.
RUN_BUDGET_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "job_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "score_rows_per_s": "rows/s",
    "bundle_kb": "KiB",
}


class SampleError(RuntimeError):
    pass


def _interrupt(signum, frame):
    # subprocess.run kills and reaps its child on KeyboardInterrupt
    raise KeyboardInterrupt


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = BLAS_THREADS
    paths = [os.path.join(ROOT, "src"), HERE]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def sample(args, mode: str, env: dict, deadline: float) -> dict:
    """Run job.py once and return its JSON record."""
    t0 = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "job.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--mode", mode, "--t0", repr(t0), "--out", OUT]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=max(deadline - t0, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise SampleError(f"{mode} sample ran past the run budget") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SampleError(f"{mode} sample exited {proc.returncode}:\n"
                          f"{proc.stderr[-4000:]}")
    return json.loads(lines[-1])


def summarize(jobs, setups) -> dict:
    med = lambda key: statistics.median(j[key] for j in jobs)  # noqa: E731
    return {
        "setup_s": statistics.median(setups),
        "job_s": med("job_s"),
        "cpu_s": med("cpu_s"),
        "peak_rss_mb": med("peak_rss_mb"),
        "score_rows_per_s": statistics.median(
            j["score_rows"] / j["score_s"] for j in jobs),
        "bundle_kb": med("bundle_bytes") / 1024.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "tvcate", "__init__.py")):
        print(f"perfbench: no tvcate sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    signal.signal(signal.SIGTERM, _interrupt)
    env = child_env()
    deadline = time.monotonic() + RUN_BUDGET_S
    print(f"perfbench {args.workload} seed={args.seed} "
          f"blas_threads={BLAS_THREADS} workers=1 trace={args.trace}",
          flush=True)
    try:
        setups = [sample(args, "setup", env, deadline)["setup_s"]
                  for _ in range(SETUP_PROBES)]
        jobs, start = [], time.monotonic()
        while not jobs or time.monotonic() - start < args.seconds:
            jobs.append(sample(args, "job", env, deadline))
        traced = sample(args, "trace", env, deadline) if args.trace else None
    except SampleError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3

    runs = jobs + ([traced] if traced else [])
    setups += [j["setup_s"] for j in runs]
    for i, j in enumerate(runs):
        rmse = j["rmse"]
        mean = sum(rmse.values()) / len(rmse) if rmse else float("nan")
        print(f"{'traced ' if j is traced else ''}job {i}: job_s={j['job_s']:.3f} "
              f"cpu_s={j['cpu_s']:.3f} peak_rss_mb={j['peak_rss_mb']:.1f} "
              f"attempted={j['attempted']} failed={j['failed']} "
              f"mean_rmse={mean:.4g}")
        for problem in j["problems"]:
            print(f"  check failed: {problem}")

    values = summarize(jobs, setups)
    if traced:
        metrics = traced["layers"]
        metrics["trace.job_s"] = traced["job_s"]
        metrics["trace.overhead_s"] = traced["job_s"] - values["job_s"]
        import tracer
        units = tracer.LAYER_METRICS
    else:
        metrics, units = values, END_TO_END
    result = {
        "correct": all(not j["problems"] for j in runs),
        "attempted": sum(j["attempted"] for j in runs),
        "failed": sum(j["failed"] for j in runs),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}"
                                f"-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(dict(result, setups=setups, jobs=runs,
                       blas_threads=BLAS_THREADS), fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
