"""Overlap sweep: what inverse-variance weighting buys as overlap vanishes.

Sweeps the overlap knob gamma of the d3 family.  As gamma grows the
assignment mechanism becomes nearly deterministic given history, inverse
propensity weights explode, and the doubly robust learner's second stage
drowns in pseudo-outcome variance.  Weighting that regression by the
inverse of the conditional variance proxy V keeps it stable: the DR curve
climbs with gamma while the IVW-DR curve stays flat.

Run:  python3 demos/overlap_sweep.py [--full]
CLI equivalent:  tvcate sweep --fast --display-x10
"""

import argparse

from tvcate import overlap_sweep, spearman, summarize
from tvcate.harness import default_sweep_config, format_summary_table


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--full", action="store_true",
                        help="run the full-size sweep (about half a minute)")
    args = parser.parse_args()

    cfg = default_sweep_config()
    if not args.full:
        cfg = type(cfg)(**{**cfg.__dict__, "fast": True})
    print(f"sweeping gamma over {cfg.gammas} at tau={cfg.taus[0]}, "
          f"{len(cfg.seeds)} seeds each")

    sweep = overlap_sweep(cfg)
    print()
    print(format_summary_table(sweep, scale=10.0))
    print()

    summary = summarize(sweep)
    dr = [r["mean_rmse"] for r in summary if r["learner"] == "DR"]
    ivw = [r["mean_rmse"] for r in summary if r["learner"] == "IVW-DR"]
    rho = spearman(cfg.gammas, dr)
    print(f"DR mean RMSE rises with gamma (Spearman rho = {rho:.2f}); "
          f"at gamma={cfg.gammas[-1]:g} the weighted variant gives "
          f"{ivw[-1]:.4f} vs {dr[-1]:.4f} unweighted")


if __name__ == "__main__":
    main()
