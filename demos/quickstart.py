"""Library tour: simulate a panel, fit learners, score against the truth.

Walks the core API end to end on the moderate-overlap generator:

1. draw training and test panels,
2. fit the nuisance collection (response surfaces + propensities),
3. fit a doubly robust learner and its inverse-variance weighted variant,
4. predict treatment effects on the encoded pooled test histories and
   compare with the closed-form constant effect,
5. repeat step 3 for DR with oracle nuisances to show the estimators are
   exact when the nuisances are.

Run:  python3 demos/quickstart.py [--n 2000]
"""

import argparse

import numpy as np

from tvcate import (RegressorSpec, build_row_table, fit_meta, fit_nuisances,
                    get_dgp, make_split, oracle_nuisances, benchmark_pair,
                    simulate_panel)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=2000,
                        help="training trajectories")
    parser.add_argument("--tau", type=int, default=1, help="steps ahead")
    args = parser.parse_args()

    dgp = get_dgp("d2")
    pair = benchmark_pair(args.tau)
    truth = dgp.response_form.cate(pair)
    print(f"generator {dgp.name}: contrast {pair.a_seq} vs {pair.b_seq}, "
          f"true effect {truth:g} (constant in history)")

    train = simulate_panel(dgp, args.n, seed=[0, 10])
    test = simulate_panel(dgp, 500, seed=[0, 11])
    print(f"simulated {train.n} training and {test.n} test trajectories")

    split = make_split(train, args.tau, enabled=True, seed=[0, 12])
    nuisances = fit_nuisances(
        train, pair, split=split, clip_eps=0.02,
        regressor_spec=RegressorSpec(bandwidth=1.5, ridge_lambda=1e-2))
    feats = build_row_table(test, args.tau, nuisances.codec).features(0)
    print(f"fit nuisances with cross-fitting; evaluating on {len(feats)} "
          "pooled test histories")

    for kind in ("PI-RA", "DR", "IVW-DR"):
        model = fit_meta(kind, train, pair, nuisances)
        preds = model.predict(feats)
        rmse = float(np.sqrt(np.mean((preds - truth) ** 2)))
        clip = model.diagnostics.get("clip_fraction", 0.0)
        print(f"  {kind:7} rmse {rmse:.4f}   mean prediction "
              f"{preds.mean():+.4f}   clipped propensities {clip:.1%}")

    oracle = oracle_nuisances(dgp, pair)
    model = fit_meta("DR", train, pair, oracle)
    preds = model.predict(feats)
    rmse = float(np.sqrt(np.mean((preds - truth) ** 2)))
    print(f"  DR with oracle nuisances: rmse {rmse:.4f} "
          "(second-stage smoothing is now the only error source)")


if __name__ == "__main__":
    main()
