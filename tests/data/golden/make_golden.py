"""Write ``golden.json`` in this directory: end-to-end values of the package
at 17 significant digits, which ``tests/test_golden.py`` recomputes.

    PYTHONPATH=src python3 tests/data/golden/make_golden.py tests/data/golden

The values, each under a name ``section/...``:

* ``run`` and ``run-split``: the result rows of ``tvcate run --fast
  --taus=0,1 --seeds=0``, without and with ``--split_enabled=true``;
* ``sweep``: the result rows of ``tvcate sweep --fast --seeds=0``;
* ``cli``: a pipeline of ``simulate`` (d2, 1,000 training and 10 test
  trajectories), ``fit`` at tau = 1, ``train`` DR and PI-RA on that bundle
  and ``evaluate`` each: every prediction on the test panel and every
  number of the evaluate report;
* ``verify``: every statistic and numeric detail of the six verify suites
  at a hundredth of their default budgets.

A change of arithmetic moves some of them; re-run this script and list
what moved.
"""

import contextlib
import io
import json
import os
import sys
import tempfile

from tvcate.cli import main as cli
from tvcate.meta import load_cate_model
from tvcate.nuisance import build_row_table
from tvcate.panel import panel_from_csv
from tvcate.verify import DEFAULT_BUDGETS, SUITE_NAMES, run_suite


def _cli(*argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert cli(list(argv)) == 0


def _rows(section: str, path: str, keys: tuple) -> dict:
    with open(path) as fh:
        rows = json.load(fh)["rows"]
    values = {}
    for row in rows:
        name = "/".join(f"{key}={row[key]}" for key in keys)
        values.update({f"{section}/{name}/{field}": row[field]
                       for field in ("rmse", "clip_fraction")})
    return values


def _experiments(out: str) -> dict:
    values = {}
    for section, extra in (("run", ()), ("run-split", ("--split_enabled=true",))):
        _cli("run", "--fast", "--taus=0,1", "--seeds=0", *extra, "--out", f"{out}/{section}")
        values.update(_rows(section, f"{out}/{section}/results.json",
                            ("learner", "tau", "seed")))
    _cli("sweep", "--fast", "--seeds=0", "--out", f"{out}/sweep")
    values.update(_rows("sweep", f"{out}/sweep/sweep.json", ("gamma", "learner", "seed")))
    return values


def _pipeline(out: str) -> dict:
    _cli("simulate", "--dgp", "d2", "--n", "1000", "--seed", "7", "--out", f"{out}/train.csv")
    _cli("simulate", "--dgp", "d2", "--n", "10", "--seed", "8", "--out", f"{out}/test.csv")
    _cli("fit", "--panel", f"{out}/train.csv", "--tau", "1", "--out", f"{out}/nuis.json")
    test, values = panel_from_csv(f"{out}/test.csv"), {}
    for learner in ("DR", "PI-RA"):
        model_path = f"{out}/{learner}.json"
        _cli("train", "--panel", f"{out}/train.csv", "--tau", "1", "--learner", learner,
             "--nuisances", f"{out}/nuis.json", "--out", model_path)
        _cli("evaluate", "--model", model_path, "--panel", f"{out}/test.csv", "--dgp", "d2",
             "--out", f"{out}/{learner}-report.json")
        model = load_cate_model(model_path)
        preds = model.predict(build_row_table(test, model.tau, model.codec).features(0))
        values.update({f"cli/{learner}/prediction[{i}]": p for i, p in enumerate(preds.tolist())})
        with open(f"{out}/{learner}-report.json") as fh:
            report = json.load(fh)
        values.update({f"cli/{learner}/evaluate/{key}": report[key]
                       for key in ("rmse", "n_rows", "truth")})
    return values


def _verify() -> dict:
    values = {}
    for suite in SUITE_NAMES:
        report = run_suite(suite, budget=DEFAULT_BUDGETS[suite] // 100)
        for check in report.checks:
            name = f"verify/{suite}/{check.name}"
            values[f"{name}/statistic"] = check.statistic
            values.update({f"{name}/{key}": value for key, value in sorted(check.detail.items())
                           if isinstance(value, (int, float)) and not isinstance(value, bool)})
    return values


def golden_values() -> dict:
    """Every golden value by name, computed by this checkout."""
    with tempfile.TemporaryDirectory() as out:
        values = {**_experiments(out), **_pipeline(out), **_verify()}
    return {name: float(value) for name, value in values.items()}


def main(out_dir: str) -> None:
    lines = [f"  {json.dumps(name)}: {value:.17g}"
             for name, value in golden_values().items()]
    with open(os.path.join(out_dir, "golden.json"), "w") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    main(sys.argv[1])
