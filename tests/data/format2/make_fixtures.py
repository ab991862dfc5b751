"""Write the format-2 bundle fixtures in this directory, and the predictions
their writer made.

Format 2 is no longer written, so this script runs against a checkout whose
bundles are format 2 (commit 673d2db, the last one, whose cosine maps take
``cos`` in float64):

    PYTHONPATH=<that checkout>/src OPENBLAS_NUM_THREADS=1 \
        python3 tests/data/format2/make_fixtures.py tests/data/format2

It follows ``tests/data/format1/make_fixtures.py`` on other seeds: d1 at
horizon 3 and tau = 1 on 120 training trajectories (seed 61), nuisances
with and without a split (seed 10), the six learners on the unsplit ones,
and every prediction on ``test-panel.csv`` (seed 62) in
``predictions.json``.
"""

import importlib.util
import pathlib
import sys

FORMAT1 = pathlib.Path(__file__).parent.parent / "format1" / "make_fixtures.py"

if __name__ == "__main__":
    spec = importlib.util.spec_from_file_location("format1_fixtures", FORMAT1)
    recipe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(recipe)
    recipe.main(sys.argv[1], seeds=(61, 62, 10))
