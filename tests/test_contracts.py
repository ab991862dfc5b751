"""Relations every learner meets end to end, exactly (metamorphic tests:
Chen, Cheung and Yiu, 1998; Segura et al., IEEE TSE 2016).

Arm swap: nuisances and a learner fitted for ``InterventionPair(b_seq,
a_seq)`` predict the exact negation of those fitted for ``(a_seq, b_seq)``
on test histories, for each of the six learners.  The estimators treat the
two arms alike: each arm's response levels, history adjustment, clipped
propensities and pseudo-outcome terms enter the contrast once, with the
sign of its side, so no prediction may move by a bit.

Trajectory order: learners fitted on a panel whose training trajectories
are permuted predict what those fitted on the panel in its order predict,
up to the rounding of sums taken in another row order (1e-11 of the
largest prediction).  The classifier's penalty is fixed: the hold-out rule
of ``l2="auto"`` draws its split by row order, so it may choose another.
"""

import warnings

import numpy as np
import pytest

from tvcate.dgp import benchmark_pair, make_d1, simulate_panel
from tvcate.learners import ClassifierSpec, RegressorSpec
from tvcate.meta import LEARNER_KINDS, fit_meta
from tvcate.nuisance import build_row_table, default_codec, fit_nuisances, make_split
from tvcate.panel import InterventionPair, panel_from_arrays

SPECS = dict(regressor_spec=RegressorSpec(feature_count=64),
             classifier_spec=ClassifierSpec(feature_count=64, l2=1e-3))
SECOND_STAGE = RegressorSpec(feature_count=64)


@pytest.fixture(scope="module")
def panels():
    """A d1 training panel large enough that tau = 2 with a split observes
    every arm path, a test panel, and the training panel's trajectories
    permuted."""
    train = simulate_panel(make_d1(), 1500, seed=61)
    perm = np.random.default_rng(63).permutation(train.n)
    permuted = panel_from_arrays(*(v[perm] for v in train.dense()), train.treatment_arity)
    return train, simulate_panel(make_d1(), 300, seed=62), permuted


def predictions(train, pair, split, feats) -> dict:
    """Each learner's predictions at ``feats``, fitted on ``train`` for ``pair``."""
    plan = make_split(train, pair.tau, enabled=split, seed=3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")         # small folds warn of few rows
        ns = fit_nuisances(train, pair, split=plan, **SPECS)
        return {kind: fit_meta(kind, train, pair, ns, SECOND_STAGE).predict(feats)
                for kind in LEARNER_KINDS}


@pytest.mark.parametrize("tau,split", [(0, False), (1, False), (2, False), (0, True), (1, True)])
def test_swapping_the_arms_negates_every_prediction_exactly(panels, tau, split):
    train, test, _ = panels
    pair = benchmark_pair(tau)
    feats = build_row_table(test, tau, default_codec(train)).features(0)
    given = predictions(train, pair, split, feats)
    swapped = predictions(train, InterventionPair(pair.b_seq, pair.a_seq), split, feats)
    for kind in LEARNER_KINDS:
        assert np.any(given[kind] != 0), kind
        assert np.array_equal(given[kind], -swapped[kind]), kind


@pytest.mark.parametrize("tau", [0, 1, 2])
def test_permuting_the_training_trajectories_moves_no_prediction(panels, tau):
    train, test, permuted = panels
    assert not np.array_equal(train.X, permuted.X)
    pair = benchmark_pair(tau)
    feats = build_row_table(test, tau, default_codec(train)).features(0)
    given = predictions(train, pair, False, feats)
    moved = predictions(permuted, pair, False, feats)
    for kind in LEARNER_KINDS:
        scale = np.max(np.abs(given[kind]))
        assert scale > 0, kind
        assert np.max(np.abs(moved[kind] - given[kind])) <= 1e-11 * scale, kind
