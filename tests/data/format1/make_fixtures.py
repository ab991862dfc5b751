"""Write the format-1 bundle fixtures in this directory, and the predictions
their writer made.

Format 1 is no longer written, so this script runs against a checkout whose
bundles are format 1 (commit db16692, the last one):

    PYTHONPATH=<that checkout>/src OPENBLAS_NUM_THREADS=1 \
        python3 tests/data/format1/make_fixtures.py tests/data/format1

It fits d1 at horizon 3 and tau = 1 on 120 training trajectories with 16
regressor features and 8 classifier features, with and without a split,
trains the six learners on the unsplit nuisances (16 second-stage
features; IVW-DR's variance model keeps its 256), and records every
prediction on ``test-panel.csv`` in ``predictions.json``.
"""

import dataclasses
import json
import os
import sys
import warnings

from tvcate.dgp import benchmark_pair, make_d1, simulate_panel
from tvcate.learners import ClassifierSpec, RegressorSpec
from tvcate.meta import LEARNER_KINDS, fit_meta, load_cate_model, save_cate_model
from tvcate.nuisance import (build_row_table, fit_nuisances, load_nuisances, make_split,
                             save_nuisances)
from tvcate.panel import panel_from_csv, panel_to_csv


def nuisance_predictions(ns, table):
    return {"mu": {arm: [ns.mu(arm, j, table).tolist() for j in range(ns.tau + 1)]
                   for arm in ("a", "b")},
            "pi": [ns.propensity(j, 1, table)[1].tolist() for j in range(ns.tau + 1)],
            "delta": {arm: ns.history_models[arm].predict(table.features(0)).tolist()
                      for arm in ("a", "b")}}


def main(out, seeds=(41, 42, 5)):
    """Write the fixtures into ``out`` from the seeds of the training panel,
    the test panel and the split."""
    dgp = dataclasses.replace(make_d1(), horizon=3)
    train = simulate_panel(dgp, 120, seed=seeds[0])
    panel_to_csv(simulate_panel(dgp, 20, seed=seeds[1]), os.path.join(out, "test-panel.csv"))
    test = panel_from_csv(os.path.join(out, "test-panel.csv"))
    pair = benchmark_pair(1)
    specs = dict(regressor_spec=RegressorSpec(feature_count=16),
                 classifier_spec=ClassifierSpec(feature_count=8, l2=1e-2))
    predictions = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        plain = fit_nuisances(train, pair, **specs)
        split = fit_nuisances(train, pair, split=make_split(train, 1, True, seed=seeds[2]), **specs)
        for name, ns in (("nuisances-nosplit", plain), ("nuisances-split", split)):
            path = os.path.join(out, f"{name}.json")
            save_nuisances(ns, path)
            table = build_row_table(test, 1, ns.codec)
            predictions[name] = nuisance_predictions(ns, table)
            assert nuisance_predictions(load_nuisances(path), table) == predictions[name]
        for kind in LEARNER_KINDS:
            model = fit_meta(kind, train, pair, plain,
                             RegressorSpec(feature_count=16, ridge_lambda=1e-2))
            path = os.path.join(out, f"model-{kind}.json")
            save_cate_model(model, path)
            feats = build_row_table(test, 1, model.codec).features(0)
            predictions[f"model-{kind}"] = model.predict(feats).tolist()
            assert load_cate_model(path).predict(feats).tolist() == predictions[f"model-{kind}"]
    with open(os.path.join(out, "predictions.json"), "w") as fh:
        json.dump(predictions, fh)


if __name__ == "__main__":
    main(sys.argv[1])
