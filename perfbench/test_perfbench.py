"""Fast tests of the benchmark itself: every workload's checks at tiny size,
checks that catch corrupted outputs, the tracer, and the runner's refusal
to run without sources."""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import run
import tracer as tracing
import workloads as W

HERE = os.path.dirname(os.path.abspath(__file__))


_TINY_JOBS = """
import dataclasses, json, os, sys
import workloads as W
out = {}
for name, workload in W.WORKLOADS.items():
    workdir = os.path.join(sys.argv[1], name)
    os.mkdir(workdir)
    out[name] = dataclasses.asdict(workload.job(3, workdir, tiny=True))
print(json.dumps(out))
"""


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """One tiny job per workload, shared by the tests (workdirs kept).

    They run in a child process with one BLAS thread, as the benchmark runs
    them; with more threads the many small fits are several times slower.
    """
    base = tmp_path_factory.mktemp("tiny")
    proc = subprocess.run([sys.executable, "-c", _TINY_JOBS, str(base)],
                          env=run.child_env(), capture_output=True, text=True,
                          timeout=300, check=True)
    return {name: W.Outcome(**d)
            for name, d in json.loads(proc.stdout.splitlines()[-1]).items()}


def _copy(outcome):
    return dataclasses.replace(outcome, data=json.loads(json.dumps(outcome.data)),
                               errors=list(outcome.errors))


@pytest.mark.parametrize("name,attempted", [
    ("d1-study", 12), ("d3-sweep", 10), ("oracle-verify", 5), ("cli-score", 9)])
def test_tiny_jobs_run_whole_and_pass_their_checks(tiny, name, attempted):
    out = tiny[name]
    assert (out.attempted, out.failed) == (attempted, 0)
    assert out.score_rows > 0 and out.bundle_bytes > 0
    assert W.WORKLOADS[name].check(out, True) == []


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        tracing.LAYER_METRICS


def test_derived_cate_is_the_last_arm_contrast():
    from tvcate import benchmark_pair
    assert [W.derived_cate(benchmark_pair(t)) for t in (0, 1, 2)] == [0.5] * 3


def test_shifted_harness_truth_fails_the_check(tiny):
    out = _copy(tiny["d1-study"])
    key = next(iter(out.data["truths"]))
    out.data["truths"][key] += 0.25
    assert any("harness truth" in p for p in W.d1_check(out, True))


def test_bad_cells_fail_the_check(tiny):
    out = _copy(tiny["d3-sweep"])
    out.data["rows"][0]["clip_fraction"] = 1.5
    out.data["rows"][1]["rmse"] = float("nan")
    problems = W.d3_check(out, True)
    assert any("clip_fraction" in p for p in problems)
    assert any("RMSE nan" in p for p in problems)
    out.data["rows"].pop()
    assert any("rows cover" in p for p in W.d3_check(out, True))


def test_overlap_ordering_is_checked(tiny):
    out = _copy(tiny["d3-sweep"])
    rows = {(r["gamma"], r["learner"]): r for r in out.data["rows"]}
    for r in out.data["rows"]:
        r["rmse"] = 0.05
    assert W.d3_check(out, False) != []
    rows[(8.0, "DR")]["rmse"] = 0.06
    assert W.d3_check(out, False) == []


def test_failed_suite_check_fails_the_check(tiny):
    out = _copy(tiny["oracle-verify"])
    out.data["reports"][0]["checks"][0]["passed"] = False
    assert len(W.oracle_check(out, True)) == 1


def test_perturbed_csv_value_fails_the_check(tiny):
    out = tiny["cli-score"]
    path = os.path.join(out.data["workdir"], "test.csv")
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    try:
        fields = lines[7].split(",")
        fields[-1] = repr(float(fields[-1]) + 1e-12) + "\n"
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(lines[:7] + [",".join(fields)] + lines[8:])
        assert any("Y read back differs" in p for p in W.cli_check(out, True))
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(lines[:7] + lines[8:])      # drop one (id, t) row
        assert any("do not form" in p for p in W.cli_check(out, True))
    finally:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(lines)
    assert W.cli_check(out, True) == []


def _traced_counts(workdir):
    import tvcate
    import tvcate.harness
    original = tvcate.simulate_panel
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        assert tvcate.harness.simulate_panel is not original
        assert tvcate.simulate_panel is tvcate.dgp.simulate_panel
        W.d1_job(5, workdir, tiny=True, tracer=tracer)
    finally:
        restore()
    assert tvcate.harness.simulate_panel is original
    assert tvcate.simulate_panel is original
    metrics = tracer.metrics()
    assert set(metrics) == set(tracing.LAYER_METRICS)
    return {k: v for k, v in metrics.items() if not k.endswith("_s")}


def test_tracer_counts_repeat_and_match_the_job(tmp_path):
    first = _traced_counts(str(tmp_path / "a"))
    assert first == _traced_counts(str(tmp_path / "b"))
    # tiny d1: 600 train + 60 test trajectories, taus (0, 1), six learners
    assert first["dgp.trajectories"] == 660
    assert first["panel.trajectories"] == 660
    assert first["nuisance.row_tables"] == 12           # 6 per tau
    assert first["nuisance.row_tables_distinct"] == 4   # train and test per tau
    assert first["nuisance.propensity_queries_distinct"] == 3
    assert first["nuisance.propensity_queries"] == 14 * 3
    assert first["nuisance.mu_queries_distinct"] == 6
    assert 0 < first["learners.feature_map_rows_distinct"] \
        < first["learners.feature_map_rows"]
    assert first["learners.classifier_solver_evals"] > 0


def test_self_time_excludes_children_and_hook_work():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda: time.sleep(0.02),
                        hook=lambda args, kwargs, result: time.sleep(0.05))
    with tracer.span("outer"):
        with tracer.span("middle"):
            inner()
    times = tracer.times()
    assert times["inner"][1] >= 0.02
    assert 0.02 <= times["outer"][1] < 0.05     # the 0.05 s hook is left out
    assert times["outer"][2] < 0.01 and times["middle"][2] < 0.01


def test_runner_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "perfbench" / "run.py"), "--workload",
         "d1-study", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
