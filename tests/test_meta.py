"""Tests for the meta-learners: pseudo-outcome hand values, algebraic
identities, inverse-variance weighting, model fitting, and serialization."""

import dataclasses
import os
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from tvcate import _blocks, learners, meta
from tvcate.dgp import get_dgp, make_d1, make_d2, make_d3, benchmark_pair, simulate_panel
from tvcate.learners import ClassifierSpec, RegressorSpec, RowMap
from tvcate.meta import (
    DEFAULT_SECOND_STAGE,
    LEARNER_KINDS,
    PseudoRows,
    VModel,
    build_pseudo_rows,
    cate_model_from_dict,
    cate_model_to_dict,
    fit_meta,
    fit_v_model,
    ivw_realized,
    load_cate_model,
    pseudo_dr,
    pseudo_ipw,
    pseudo_ra,
    save_cate_model,
)
from tvcate.nuisance import (
    NuisanceSet,
    build_row_table,
    default_codec,
    fit_nuisances,
    make_split,
    oracle_nuisances,
)
from tvcate.panel import HistoryView, InterventionPair, panel_from_arrays

from helpers import (oracle_history_adjustment, recording, same_bits, set_blocks,
                     suite_report_pinned_and_free)


def tiny_panel(A, Y, arity=2):
    """One-trajectory panel with zero covariates and the given arm/outcome rows."""
    A = np.atleast_2d(A)
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    X = np.zeros(A.shape + (1,))
    return panel_from_arrays(X, A, Y, arity)


def override_nuisances(panel, pair, *, propensity, response=None, clip_eps=0.01):
    """Nuisance set whose every query returns injected constants."""
    return NuisanceSet(
        pair=pair,
        tau=pair.tau,
        codec=default_codec(panel),
        clip_eps=clip_eps,
        split=make_split(panel, pair.tau, enabled=False),
        override_propensity=propensity,
        override_response=response,
    )


def oracle_history_contrast(dgp, pair, histories):
    """Contrast of the seeded oracle history adjustments of the two arms."""
    def arm(seq):
        return np.array([oracle_history_adjustment(dgp, h, seq, n_mc=4000,
                                                   seed=[1299721, i]).value
                         for i, h in enumerate(histories)])
    return arm(pair.a_seq) - arm(pair.b_seq)


def cluster_mean_se(table, values):
    """Mean of per-trajectory means and its standard error."""
    counts = np.bincount(table.traj_id)
    m = np.bincount(table.traj_id, weights=values) / counts
    return m.mean(), m.std(ddof=1) / np.sqrt(m.size)


class TestPseudoHandValues:
    def test_ipw_single_period(self):
        panel = tiny_panel([[1]], [[2.0]])
        pair = InterventionPair((1,), (0,))
        nz = override_nuisances(panel, pair, propensity=0.5)
        table = build_row_table(panel, 0)
        a, b, diff = pseudo_ipw(table, nz, pair)
        assert a == pytest.approx(4.0, abs=0)
        assert b == pytest.approx(0.0, abs=0)
        assert diff == pytest.approx(4.0, abs=0)

    def test_ipw_two_periods_both_arms_zero(self):
        panel = tiny_panel([[1, 0]], [[0.0, 2.0]])
        pair = InterventionPair((1, 1), (0, 0))
        nz = override_nuisances(panel, pair, propensity=0.5)
        table = build_row_table(panel, 1)
        a, b, diff = pseudo_ipw(table, nz, pair)
        assert np.array_equal(a, [0.0])
        assert np.array_equal(b, [0.0])
        assert np.array_equal(diff, [0.0])

    def test_dr_single_period(self):
        panel = tiny_panel([[1]], [[2.0]])
        pair = InterventionPair((1,), (0,))
        nz = override_nuisances(panel, pair, propensity=0.5,
                                response={"a": 1.0, "b": 0.5})
        table = build_row_table(panel, 0)
        a, b, diff = pseudo_dr(table, nz, pair)
        assert a == pytest.approx(3.0, abs=0)
        assert b == pytest.approx(0.5, abs=0)
        assert diff == pytest.approx(2.5, abs=0)

    def test_dr_unit_propensity_reduces_to_outcome(self):
        # a unit propensity on the observed path makes every augmentation
        # factor (1 - 1/pi-hat) vanish, leaving the outcome itself
        panel = tiny_panel([[1, 1, 1]], [[0.0, 1.0, 7.0]])
        pair = InterventionPair((1, 1, 1), (1, 1, 1))
        nz = override_nuisances(panel, pair, propensity=1.0,
                                response={"a": 3.3, "b": -2.2})
        table = build_row_table(panel, 2)
        a, b, diff = pseudo_dr(table, nz, pair)
        assert np.array_equal(a, table.y_term)
        assert np.array_equal(b, table.y_term)
        assert np.array_equal(diff, [0.0])

    def test_ra_first_arm_matches_a(self):
        panel = tiny_panel([[0, 1]], [[0.0, 0.0]])
        pair = InterventionPair((0, 1), (1, 0))
        nz = override_nuisances(
            panel, pair, propensity=0.5,
            response={"a": {0: 99.0, 1: 1.2}, "b": {0: 0.9, 1: 99.0}})
        table = build_row_table(panel, 1)
        assert pseudo_ra(table, nz, pair) == pytest.approx([0.3])

    def test_ra_first_arm_matches_b(self):
        panel = tiny_panel([[1, 1]], [[0.0, 0.0]])
        pair = InterventionPair((0, 1), (1, 0))
        nz = override_nuisances(
            panel, pair, propensity=0.5,
            response={"a": {0: 1.4, 1: 99.0}, "b": {0: 99.0, 1: 0.6}})
        table = build_row_table(panel, 1)
        assert pseudo_ra(table, nz, pair) == pytest.approx([0.8])

    def test_ra_first_arm_matches_neither(self):
        panel = tiny_panel([[2, 0]], [[0.0, 0.0]], arity=3)
        pair = InterventionPair((0, 1), (1, 0))
        nz = override_nuisances(
            panel, pair, propensity=0.5,
            response={"a": {0: 1.4, 1: 99.0}, "b": {0: 0.9, 1: 99.0}})
        table = build_row_table(panel, 1)
        assert pseudo_ra(table, nz, pair) == pytest.approx([0.5])

    def test_ra_horizon_zero_uses_realized_outcome(self):
        panel = tiny_panel([[1]], [[2.0]])
        pair = InterventionPair((1,), (0,))
        nz = override_nuisances(panel, pair, propensity=0.5,
                                response={"a": 99.0, "b": 0.9})
        table = build_row_table(panel, 0)
        assert pseudo_ra(table, nz, pair) == pytest.approx([1.1])

    def test_ra_coinciding_first_arms_rejected(self):
        panel = tiny_panel([[0, 1]], [[0.0, 0.0]])
        pair = InterventionPair((0, 1), (0, 0))
        nz = override_nuisances(panel, pair, propensity=0.5, response=0.0)
        table = build_row_table(panel, 1)
        with pytest.raises(ValueError, match="first-period arms coincide"):
            pseudo_ra(table, nz, pair)

    def test_ivw_single_period(self):
        panel = tiny_panel([[1]], [[2.0]])
        pair = InterventionPair((1,), (0,))
        nz = override_nuisances(panel, pair, propensity=0.5)
        table = build_row_table(panel, 0)
        v_a, v_ab = ivw_realized(table, nz, pair)
        assert np.array_equal(v_a, [4.0])
        assert np.array_equal(v_ab, [4.0])

    def test_ivw_two_periods_accumulates(self):
        panel = tiny_panel([[1, 1]], [[0.0, 0.0]])
        pair = InterventionPair((1, 1), (0, 0))
        nz = override_nuisances(panel, pair, propensity=0.5)
        table = build_row_table(panel, 1)
        v_a, v_ab = ivw_realized(table, nz, pair)
        assert np.array_equal(v_a, [20.0])
        assert np.array_equal(v_ab, [20.0])

    def test_ivw_zero_when_path_matches_neither_arm(self):
        panel = tiny_panel([[2, 0]], [[0.0, 0.0]], arity=3)
        pair = InterventionPair((1, 0), (0, 0))
        nz = override_nuisances(panel, pair, propensity=0.5)
        table = build_row_table(panel, 1)
        v_a, v_ab = ivw_realized(table, nz, pair)
        assert np.array_equal(v_a, [0.0])
        assert np.array_equal(v_ab, [0.0])

    def test_ivw_pair_sums_both_arms(self):
        panel = tiny_panel([[1]], [[0.0]])
        pair = InterventionPair((1,), (0,))
        nz = override_nuisances(panel, pair, propensity=0.25)
        table = build_row_table(panel, 0)
        v_a, v_ab = ivw_realized(table, nz, pair)
        assert np.array_equal(v_a, [16.0])      # 1 / 0.25^2
        assert np.array_equal(v_ab, [16.0])     # arm b indicator is 0


class TestPseudoIdentities:
    def test_dr_equals_ipw_when_responses_are_zero(self):
        d2 = make_d2()
        panel = simulate_panel(d2, 300, seed=11)
        pair = benchmark_pair(1)
        nz = oracle_nuisances(d2, pair).corrupted(response=0.0)
        table = build_row_table(panel, 1)
        a_ipw, b_ipw, d_ipw = pseudo_ipw(table, nz, pair)
        a_dr, b_dr, d_dr = pseudo_dr(table, nz, pair)
        assert np.array_equal(a_ipw, a_dr)
        assert np.array_equal(b_ipw, b_dr)
        assert np.array_equal(d_ipw, d_dr)

    def test_dr_oracle_mean_matches_effect(self):
        d1 = make_d1()
        panel = simulate_panel(d1, 20_000, seed=5)
        pair = benchmark_pair(1)
        table = build_row_table(panel, 1)
        _, _, diff = pseudo_dr(table, oracle_nuisances(d1, pair), pair)
        mean, se = cluster_mean_se(table, diff)
        assert abs(mean - 0.5) <= 3 * se

    def test_ra_oracle_mean_matches_effect(self):
        d1 = make_d1()
        panel = simulate_panel(d1, 20_000, seed=7)
        pair = benchmark_pair(1)
        table = build_row_table(panel, 1)
        values = pseudo_ra(table, oracle_nuisances(d1, pair), pair)
        mean, se = cluster_mean_se(table, values)
        assert abs(mean - 0.5) <= 3 * se

    @pytest.mark.parametrize("tau", [0, 1])
    def test_ipw_oracle_mean_matches_effect(self, tau):
        d2 = make_d2()
        panel = simulate_panel(d2, 20_000, seed=13 + tau)
        pair = benchmark_pair(tau)
        table = build_row_table(panel, tau)
        _, _, diff = pseudo_ipw(table, oracle_nuisances(d2, pair), pair)
        mean, se = cluster_mean_se(table, diff)
        assert abs(mean - 0.5) <= 3 * se

    def test_dr_single_nuisance_corruption_stays_unbiased(self):
        d2 = make_d2()
        panel = simulate_panel(d2, 20_000, seed=19)
        pair = benchmark_pair(1)
        table = build_row_table(panel, 1)
        base = oracle_nuisances(d2, pair)
        for nz in (base.corrupted(propensity=0.5), base.corrupted(response=0.0)):
            _, _, diff = pseudo_dr(table, nz, pair)
            mean, se = cluster_mean_se(table, diff)
            assert abs(mean - 0.5) <= 3 * se

    def test_dr_double_corruption_is_biased(self):
        d2 = make_d2()
        panel = simulate_panel(d2, 100_000, seed=1)
        pair = benchmark_pair(1)
        table = build_row_table(panel, 1)
        nz = oracle_nuisances(d2, pair).corrupted(propensity=0.5, response=0.0)
        _, _, diff = pseudo_dr(table, nz, pair)
        mean, se = cluster_mean_se(table, diff)
        assert abs(mean - 0.5) > 3 * se

    def test_constant_propensity_makes_v_constant(self):
        # at horizon 0 with binary arms, exactly one indicator fires, so
        # V = 1/pi^2 * 1{match} summed over both arms is 1/pi^2 pointwise
        panel = tiny_panel([[1, 0, 1]], [[1.0, 2.0, 3.0]])
        pair = InterventionPair((1,), (0,))
        nz = override_nuisances(panel, pair, propensity=0.5)
        table = build_row_table(panel, 0)
        _, v_ab = ivw_realized(table, nz, pair)
        assert np.array_equal(v_ab, [4.0, 4.0, 4.0])


def matrix_pseudo(table, nz, pair):
    """Per arm, the IPW and DR pseudo-outcomes, the realized V and the clip
    count built from (N, tau + 1) indicator, pi-hat, ratio and prefix
    matrices: the reference the level-by-level arithmetic must match."""
    n, K = table.n_rows, pair.tau + 1
    out = {}
    for arm, seq in (("a", pair.a_seq), ("b", pair.b_seq)):
        ind, pi, nclip = np.empty((n, K)), np.empty((n, K)), 0
        for k in range(K):
            cl, raw = nz.propensity(k, seq[k], table)
            pi[:, k] = cl
            ind[:, k] = table.a_obs[:, k] == seq[k]
            nclip += int(np.count_nonzero(cl != raw))
        ratio = ind / pi
        cum = np.cumprod(ratio, axis=1)
        prefix = np.concatenate([np.ones((n, 1)), cum[:, :-1]], axis=1)
        ipw = dr = cum[:, -1] * table.y_term
        for k in range(K):
            dr = dr + nz.mu(arm, k, table) * (1.0 - ratio[:, k]) * prefix[:, k]
        v = np.cumprod(ind / pi ** 2, axis=1).sum(axis=1)
        out[arm] = ipw, dr, v, nclip
    return out


@pytest.fixture(scope="module")
def d1_sets():
    """{tau: (panel, pair, {name: nuisance set})} on one d1 panel per tau."""
    d1 = make_d1()
    sets = {}
    for tau in (0, 1, 2):
        panel = simulate_panel(d1, 300, seed=[61, tau])
        pair = benchmark_pair(tau)
        oracle = oracle_nuisances(d1, pair)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)   # small response levels
            fitted = fit_nuisances(panel, pair, need=("response", "propensity"))
        sets[tau] = panel, pair, {
            "oracle": oracle, "propensity 0.5": oracle.corrupted(propensity=0.5),
            "response 0": oracle.corrupted(response=0.0), "fitted": fitted}
    return sets


class TestPseudoBitsPinned:
    @pytest.mark.parametrize("name", ["oracle", "propensity 0.5", "response 0", "fitted"])
    @pytest.mark.parametrize("tau", [0, 1, 2])
    def test_level_loop_has_the_bits_of_the_matrix_formulas(self, d1_sets, tau, name):
        panel, pair, sets = d1_sets[tau]
        nz = sets[name]
        table = build_row_table(panel, tau, nz.codec)
        ref = matrix_pseudo(table, nz, pair)
        (ipw_a, dr_a, v_a, clip_a), (ipw_b, dr_b, v_b, clip_b) = ref["a"], ref["b"]
        for got, want in ((pseudo_ipw(table, nz, pair), (ipw_a, ipw_b, ipw_a - ipw_b)),
                          (pseudo_dr(table, nz, pair), (dr_a, dr_b, dr_a - dr_b)),
                          (ivw_realized(table, nz, pair), (v_a, v_a + v_b))):
            assert all(same_bits(g, w) for g, w in zip(got, want, strict=True))
        clip = (clip_a + clip_b) / (2 * table.n_rows * (tau + 1))
        mask = table.traj_id % 3 == 0
        for kind, value, clip_fraction in (("IPW", ipw_a - ipw_b, clip),
                                           ("DR", dr_a - dr_b, clip),
                                           ("RA", pseudo_ra(table, nz, pair), 0.0)):
            for row_mask in (None, mask):
                rows = build_pseudo_rows(table, nz, pair, kind, row_mask=row_mask)
                at = slice(None) if row_mask is None else row_mask
                assert same_bits(rows.features, table.features(0)[at])
                assert same_bits(rows.value, value[at])
                assert same_bits(rows.v_realized, (v_a + v_b)[at])
                assert rows.clip_fraction == clip_fraction

    def test_dr_peak_memory_per_row(self):
        # tau = 2 on oracle nuisances: the three outputs, one arm's three
        # level ratios and the temporaries of one level's terms measure
        # 80 bytes a row; the (N, 3) indicator, pi-hat, ratio, cumprod and
        # prefix matrices this replaced peaked at 168
        d1 = make_d1()
        pair = benchmark_pair(2)
        table = build_row_table(simulate_panel(d1, 6000, seed=62), 2)
        nz = oracle_nuisances(d1, pair)
        tracemalloc.start()
        try:
            pseudo_dr(table, nz, pair)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 88 * table.n_rows


def block_outputs(table, nz, pair):
    """Every pseudo-outcome output of the table, each arm's (value, clip
    count, query count) and the pseudo rows of each second-stage kind."""
    out = {"IPW": pseudo_ipw(table, nz, pair), "DR": pseudo_dr(table, nz, pair),
           "RA": (pseudo_ra(table, nz, pair),), "V": ivw_realized(table, nz, pair)}
    for arm, seq in (("a", pair.a_seq), ("b", pair.b_seq)):
        out[f"arm {arm}"] = meta._arm_value(nz, table, seq, arm)
    for kind in ("RA", "IPW", "DR"):
        rows = build_pseudo_rows(table, nz, pair, kind, row_mask=table.traj_id % 3 == 0)
        out[f"rows {kind}"] = (rows.features, rows.value, rows.v_realized, rows.clip_fraction)
    return out


class TestPseudoRowBlocks:
    """A table of at least ``_blocks._TABLE_MIN_ROWS`` rows runs its
    nuisance queries and pseudo-outcome arithmetic in blocks on every
    usable CPU; every output keeps the bits of the one-span path."""

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("name", ["oracle", "oracle clipped", "propensity 0.5",
                                      "response 0", "fitted", "fitted elsewhere"])
    @pytest.mark.parametrize("tau", [0, 1, 2])
    def test_blocks_have_the_bits_of_one_block(self, d1_sets, tau, name, cpus, monkeypatch):
        panel, pair, sets = d1_sets[tau]
        nz = sets["fitted" if name == "fitted elsewhere" else name.split(" clipped")[0]]
        if name == "oracle clipped":
            nz = dataclasses.replace(nz, clip_eps=0.1)
        if name == "fitted elsewhere":     # the fitted models' own predictions
            panel = simulate_panel(make_d1(), 300, seed=[62, tau])
        table = build_row_table(panel, tau, nz.codec)
        assert table.n_rows < _blocks._TABLE_MIN_ROWS
        want = block_outputs(table, nz, pair)
        set_blocks(monkeypatch, cpus, table_rows=97)
        got = block_outputs(table, nz, pair)
        assert got.keys() == want.keys()
        for key, values in want.items():
            for g, w in zip(got[key], values, strict=True):
                assert same_bits(g, w), key
        if name == "oracle clipped":       # the clip counts are summed over blocks
            assert want["arm a"][1] > 0 and want["arm b"][1] > 0

    @pytest.mark.parametrize("build", [pseudo_dr, pseudo_ipw, ivw_realized])
    def test_blocked_peak_memory_is_the_outputs_and_a_block(self, build, monkeypatch):
        # the 18,000-row tau = 2 table of test_dr_peak_memory_per_row in
        # 1024-row blocks on two CPUs: one pass of the blocks holds the
        # outputs (24 or 16 bytes a row) and each block's levels; a pass per
        # level, whose ratios and pi-hat were table-sized, peaked at 58.8
        # (DR), 49.6 (IPW) and 74.0 (V) bytes a row
        set_blocks(monkeypatch, 2, table_rows=1024)
        d1 = make_d1()
        pair = benchmark_pair(2)
        table = build_row_table(simulate_panel(d1, 6000, seed=62), 2)
        nz = oracle_nuisances(d1, pair)
        tracemalloc.start()
        try:
            build(table, nz, pair)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.n_rows == 18000
        assert peak <= 32 * table.n_rows

    def test_more_threads_than_cores_keep_every_block(self, d1_sets, monkeypatch):
        # eight shares of 7-row blocks, switching threads every microsecond:
        # a block written twice, lost or mixed up changes the bits
        panel, pair, sets = d1_sets[2]
        table = build_row_table(panel, 2, sets["oracle"].codec)
        want = block_outputs(table, sets["oracle"], pair)
        set_blocks(monkeypatch, 8, table_rows=7)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = block_outputs(table, sets["oracle"], pair)
        finally:
            sys.setswitchinterval(interval)
        for key, values in want.items():
            for g, w in zip(got[key], values, strict=True):
                assert same_bits(g, w), key

    def test_block_error_is_raised_in_the_caller(self, monkeypatch):
        caller = threading.current_thread()

        def record(thread):
            if thread is not caller:
                raise FloatingPointError("a block on a started thread")
        set_blocks(monkeypatch, 2, table_rows=97)
        pair = benchmark_pair(1)
        d1 = recording(make_d1(), "f_a", record)   # make_d1() simulates: the same bits
        table = build_row_table(simulate_panel(make_d1(), 300, seed=5), 1)
        with pytest.raises(FloatingPointError, match="started thread"):
            pseudo_ipw(table, oracle_nuisances(d1, pair), pair)

    def test_no_thread_outlives_a_call(self, monkeypatch):
        set_blocks(monkeypatch, 3, table_rows=97)
        seen = set()
        pair = benchmark_pair(2)
        d1 = recording(make_d1(), "f_a", seen.add)   # queries only, not the simulation
        table = build_row_table(simulate_panel(make_d1(), 300, seed=6), 2)
        before = threading.enumerate()
        pseudo_dr(table, oracle_nuisances(d1, pair), pair)
        # the caller and started threads ran blocks, and none of them is left
        assert threading.current_thread() in seen and len(seen) > 1
        assert threading.enumerate() == before
        assert not any(t.is_alive() for t in seen - {threading.current_thread()})

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity call")
    def test_one_cpu_process_writes_the_report_of_every_cpu(self):
        # the double-robust suite at 25,000 trajectories: 100,000-row tables,
        # two blocks, in a process pinned to one CPU (its own affinity only)
        # and in one on all CPUs; the report without its wall time
        pinned, free = suite_report_pinned_and_free("double-robust", 25000)
        assert pinned[0] == "1"
        assert int(free[0]) == len(os.sched_getaffinity(0))
        assert "suite double-robust: PASS (budget 25000, seed 1)" in pinned[1]
        assert pinned[1] == free[1]


class TestBuildPseudoRows:
    def test_kind_validation(self):
        d1 = make_d1()
        panel = simulate_panel(d1, 50, seed=0)
        pair = benchmark_pair(0)
        nz = oracle_nuisances(d1, pair)
        table = build_row_table(panel, 0, nz.codec)
        with pytest.raises(ValueError, match="no pseudo-outcomes"):
            build_pseudo_rows(table, nz, pair, "PI-HA")

    def test_row_mask_subsets_rows(self):
        d1 = make_d1()
        panel = simulate_panel(d1, 80, seed=2)
        pair = benchmark_pair(1)
        nz = oracle_nuisances(d1, pair)
        table = build_row_table(panel, 1, nz.codec)
        full = build_pseudo_rows(table, nz, pair, "DR")
        mask = table.traj_id % 2 == 0
        part = build_pseudo_rows(table, nz, pair, "DR", row_mask=mask)
        assert np.array_equal(part.value, full.value[mask])
        assert np.array_equal(part.v_realized, full.v_realized[mask])
        assert np.array_equal(part.features, full.features[mask])

    def test_clip_fraction_counts_clipped_queries(self):
        d1 = make_d1()
        panel = simulate_panel(d1, 200, seed=4)
        pair = benchmark_pair(1)
        table = build_row_table(panel, 1)
        tight = oracle_nuisances(d1, pair, clip_eps=0.4)
        rows = build_pseudo_rows(table, tight, pair, "IPW")
        # the extreme assignment logits of this generator push most
        # propensities outside [0.4, 0.6]
        assert rows.clip_fraction > 0.5
        loose = oracle_nuisances(d1, pair, clip_eps=0.01)
        assert build_pseudo_rows(table, loose, pair, "IPW").clip_fraction == 0.0

    def test_value_validation(self):
        good = np.zeros(3)
        with pytest.raises(ValueError, match="non-finite"):
            PseudoRows(np.zeros((3, 2)), np.array([0.0, np.nan, 1.0]), good)
        with pytest.raises(ValueError, match="negative realized variance"):
            PseudoRows(np.zeros((3, 2)), good, np.array([1.0, -0.5, 2.0]))


class TestVModel:
    def test_constant_variance_is_recovered(self):
        d2 = make_d2()
        panel = simulate_panel(d2, 2000, seed=3)
        pair = benchmark_pair(0)
        nz = override_nuisances(panel, pair, propensity=0.5)
        table = build_row_table(panel, 0, default_codec(panel))
        rows = build_pseudo_rows(table, nz, pair, "IPW")
        assert np.array_equal(rows.v_realized, np.full(table.n_rows, 4.0))
        vm = fit_v_model(rows)
        assert vm.predict(rows.features) == pytest.approx(4.0, abs=0.05)

    def test_floor_applies_to_predictions(self):
        d2 = make_d2()
        panel = simulate_panel(d2, 500, seed=3)
        pair = benchmark_pair(0)
        nz = override_nuisances(panel, pair, propensity=0.5)
        table = build_row_table(panel, 0, default_codec(panel))
        rows = build_pseudo_rows(table, nz, pair, "IPW")
        vm = VModel(fit_v_model(rows).model, 10.0)
        assert np.all(vm.predict(rows.features) == 10.0)

    def test_floor_must_be_positive(self):
        d2 = make_d2()
        panel = simulate_panel(d2, 200, seed=3)
        pair = benchmark_pair(0)
        nz = override_nuisances(panel, pair, propensity=0.5)
        table = build_row_table(panel, 0, default_codec(panel))
        rows = build_pseudo_rows(table, nz, pair, "IPW")
        model = fit_v_model(rows).model
        with pytest.raises(ValueError, match="v_floor"):
            VModel(model, 0.0)


class TestFitMeta:
    @staticmethod
    def fitted_setup(tau=1, n=400, seed=21, oracle=True):
        d1 = make_d1()
        panel = simulate_panel(d1, n, seed=seed)
        pair = benchmark_pair(tau)
        if oracle:
            nz = oracle_nuisances(d1, pair)
        else:
            nz = fit_nuisances(panel, pair,
                               split=make_split(panel, tau, enabled=True, seed=0),
                               need=("response", "propensity"))
        return d1, panel, pair, nz

    def test_input_validation(self):
        _, panel, pair, nz = self.fitted_setup()
        with pytest.raises(ValueError, match="unknown learner kind"):
            fit_meta("DML", panel, pair, nz)
        other = InterventionPair((1, 1), (0, 0))
        with pytest.raises(ValueError, match="different intervention pair"):
            fit_meta("DR", panel, other, nz)

    # The plug-in identities below hold for the oracle surfaces themselves;
    # fit_meta builds plug-ins over fitted nuisances only.
    @pytest.mark.parametrize("tau", [0, 1, 2])
    def test_plug_in_iterative_oracle_is_exact(self, tau):
        d1, panel, pair, nz = self.fitted_setup(tau=tau, n=60)
        table = build_row_table(panel, tau, nz.codec)
        contrast = nz.mu("a", 0, table) - nz.mu("b", 0, table)
        assert contrast == pytest.approx(0.5, abs=1e-12)

    def test_plug_in_history_oracle_is_near_effect_without_confounding(self):
        # with gamma = 0 assignment ignores the history, so conditioning on
        # the observed arms is a valid adjustment and the contrast of the two
        # history-adjustment surfaces equals the constant effect up to the
        # Monte Carlo noise of the oracle surfaces
        d3 = make_d3(0.0)
        panel = simulate_panel(d3, 60, seed=21)
        histories = [HistoryView(panel.trajectories[i], 2) for i in range(10)]
        preds = oracle_history_contrast(d3, benchmark_pair(1), histories)
        assert np.all(np.abs(preds - 0.5) <= 0.1)

    def test_plug_in_history_is_deterministic_and_biased_under_confounding(self):
        # conditioning on observed arms is *not* a valid adjustment when
        # assignment depends on the history, so the history contrast deviates
        # from the constant effect; the oracle surfaces use fixed simulation
        # seeds, so repeating them is exact
        d1, panel, pair, _ = self.fitted_setup(tau=1, n=60)
        histories = [HistoryView(panel.trajectories[i], 2) for i in range(10)]
        preds = oracle_history_contrast(d1, pair, histories)
        assert np.array_equal(preds, oracle_history_contrast(d1, pair, histories))
        assert np.mean(np.abs(preds - 0.5)) > 0.02

    def test_plug_in_needs_full_histories(self):
        # plug-ins predict on encoded rows, which the oracle surfaces cannot take
        _, panel, pair, nz = self.fitted_setup(n=60)
        for kind in ("PI-HA", "PI-RA"):
            with pytest.raises(ValueError, match="full histories"):
                fit_meta(kind, panel, pair, nz)
        fitted = fit_nuisances(panel, pair, need=("propensity",))
        with pytest.raises(ValueError, match="fitted history models"):
            fit_meta("PI-HA", panel, pair, fitted)

    def test_plug_in_predicts_the_level_zero_contrast(self):
        d1 = make_d1()
        panel = simulate_panel(d1, 400, seed=21)
        pair = benchmark_pair(1)
        nz = fit_nuisances(panel, pair, need=("response", "history"))
        feats = build_row_table(panel, 1, nz.codec).features(0)
        ra = fit_meta("PI-RA", panel, pair, nz).predict(feats)
        mu = nz.response_models
        assert np.array_equal(ra, mu["a"][0].predict(feats) - mu["b"][0].predict(feats))
        ha = fit_meta("PI-HA", panel, pair, nz).predict(feats)
        hm = nz.history_models
        assert np.array_equal(ha, hm["a"].predict(feats) - hm["b"].predict(feats))

    @pytest.mark.parametrize("kind", ["PI-RA", "PI-HA"])
    def test_plug_in_pair_maps_once_with_unchanged_bits(self, kind, tmp_path):
        # the two arms' models share one (W, b); the contrast must keep the
        # bits of two separate predictions, on more rows than one 4096-row block
        d1 = make_d1()
        panel = simulate_panel(d1, 400, seed=21)
        pair = benchmark_pair(1)
        nz = fit_nuisances(panel, pair, need=("response", "history"))
        feats = build_row_table(simulate_panel(d1, 1500, seed=22), 1, nz.codec).features(0)
        model = fit_meta(kind, panel, pair, nz)
        save_cate_model(model, tmp_path / "model.json")
        for m in (model, load_cate_model(tmp_path / "model.json")):
            arms = m.arm_models
            assert np.array_equal(arms["a"].params["W"], arms["b"].params["W"])
            assert np.array_equal(m.predict(feats),
                                  arms["a"].predict(feats) - arms["b"].predict(feats))

    def test_identical_arms_give_zero_effect(self):
        d1 = make_d1()
        panel = simulate_panel(d1, 300, seed=9)
        pair = InterventionPair((1,), (1,))
        nz = oracle_nuisances(d1, pair)
        model = fit_meta("DR", panel, pair, nz)
        table = build_row_table(panel, 0, nz.codec)
        assert np.all(model.predict(table.features(0)) == 0.0)

    @pytest.mark.filterwarnings("ignore:response level.*low-overlap:RuntimeWarning")
    def test_second_stage_trains_on_pseudo_fold_only(self):
        d1, panel, pair, nz = self.fitted_setup(n=400, oracle=False)
        model = fit_meta("DR", panel, pair, nz)
        table = build_row_table(panel, 1, nz.codec)
        expected = int(table.traj_mask(nz.split.fold("po")).sum())
        assert model.diagnostics["n_pseudo_rows"] == expected
        assert expected < table.n_rows

    def test_oracle_split_is_disabled_so_all_rows_train(self):
        _, panel, pair, nz = self.fitted_setup(n=200)
        model = fit_meta("DR", panel, pair, nz)
        table = build_row_table(panel, 1, nz.codec)
        assert model.diagnostics["n_pseudo_rows"] == table.n_rows

    def test_ivw_weights_are_stabilized(self):
        _, panel, pair, nz = self.fitted_setup(n=500)
        model = fit_meta("IVW-DR", panel, pair, nz)
        stats = model.diagnostics["weights"]
        assert stats["mean"] == pytest.approx(1.0, abs=1e-12)
        assert stats["min"] > 0.0
        assert stats["min"] <= stats["max"]
        assert model.v_model is not None

    def test_constant_variance_realized_ivw_equals_dr(self):
        # with a constant injected propensity at horizon 0 the realized V is
        # 4 on every row, the fitted V-hat is 4 up to rounding, the stabilized
        # weights are 1 up to rounding, and the weighted second stage agrees
        # with the unweighted one to rounding: rounding of the fits' sums,
        # which is relative to the largest prediction, not to each one (some
        # lie near zero)
        d2 = make_d2()
        panel = simulate_panel(d2, 400, seed=17)
        pair = benchmark_pair(0)
        nz = override_nuisances(panel, pair, propensity=0.5,
                                response={"a": 0.75, "b": 0.25})
        dr = fit_meta("DR", panel, pair, nz)
        ivw = fit_meta("IVW-DR", panel, pair, nz)
        table = build_row_table(panel, 0, nz.codec)
        feats = table.features(0)
        want = dr.predict(feats)
        np.testing.assert_allclose(ivw.predict(feats), want, rtol=1e-12,
                                   atol=1e-12 * np.max(np.abs(want)))

    def test_clip_fraction_reported(self):
        d1, panel, pair, _ = self.fitted_setup(n=200)
        tight = oracle_nuisances(make_d1(), pair, clip_eps=0.4)
        model = fit_meta("IPW", panel, pair, tight)
        assert model.diagnostics["clip_fraction"] > 0.5

    def test_second_stage_learner_recovers_constant_effect(self):
        d1, panel, pair, nz = self.fitted_setup(tau=1, n=4000, seed=23)
        for kind in ("RA", "DR", "IVW-DR"):
            model = fit_meta(kind, panel, pair, nz)
            table = build_row_table(panel, 1, nz.codec)
            preds = model.predict(table.features(0))
            rmse = np.sqrt(np.mean((preds - 0.5) ** 2))
            assert rmse <= 0.1, f"{kind} RMSE {rmse:.3f}"

    def test_refit_is_deterministic(self, monkeypatch):
        d1, panel, pair, nz = self.fitted_setup(n=300)
        table = build_row_table(panel, 1, nz.codec)
        feats = table.features(0)
        first = fit_meta("IVW-DR", panel, pair, nz).predict(feats)
        second = fit_meta("IVW-DR", panel, pair, nz).predict(feats)
        assert np.array_equal(first, second)
        # without a map, fit_meta maps its pseudo-outcome rows itself, with
        # the bits of a handed-in map of the training positions: also when
        # the variance model draws another map (128 features) and under a
        # split plan, where it maps only the pseudo-outcome fold's rows
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            split_nz = fit_nuisances(panel, pair,
                                     split=make_split(panel, 1, enabled=True, seed=0),
                                     need=("response", "propensity"))
        narrow = RegressorSpec(feature_count=128, ridge_lambda=1e-2)
        cases = [(nz, kind, DEFAULT_SECOND_STAGE) for kind in ("RA", "IPW", "DR", "IVW-DR")]
        cases += [(nz, "IVW-DR", narrow), (split_nz, "DR", DEFAULT_SECOND_STAGE),
                  (split_nz, "IVW-DR", narrow)]
        mapped, original = [0], learners._cosine_features

        def counting(X, W, b):
            mapped[0] += X.shape[0]
            return original(X, W, b)
        monkeypatch.setattr(learners, "_cosine_features", counting)
        for ns, kind, spec in cases:
            given = fit_meta(kind, panel, pair, ns, spec,
                             positions=RowMap(spec, panel.encoded(ns.codec)))
            mapped[0] = 0
            alone = fit_meta(kind, panel, pair, ns, spec)
            maps = 2 if spec is narrow else 1
            assert mapped[0] == maps * alone.diagnostics["n_pseudo_rows"]
            if ns is split_nz:
                assert mapped[0] < maps * panel.X.shape[0] // 4
            models = [(given.second_stage, alone.second_stage)]
            if kind == "IVW-DR":
                models.append((given.v_model.model, alone.v_model.model))
            for got, want in models:
                assert got.params.keys() == want.params.keys()
                assert all(np.array_equal(got.params[k], v) for k, v in want.params.items())
            assert given.diagnostics == alone.diagnostics
            assert np.array_equal(given.predict(feats), alone.predict(feats))

    def test_every_kind_fits_and_predicts(self):
        d1 = make_d1()
        panel = simulate_panel(d1, 300, seed=31)
        pair = benchmark_pair(1)
        nz = fit_nuisances(panel, pair)
        table = build_row_table(panel, 1, nz.codec)
        feats = table.features(0)[table.t == 1][:5]
        for kind in LEARNER_KINDS:
            model = fit_meta(kind, panel, pair, nz)
            preds = model.predict(feats)
            assert preds.shape == (5,)
            assert np.all(np.isfinite(preds))


class TestSerialization:
    def test_second_stage_round_trip(self, tmp_path):
        d1 = make_d1()
        panel = simulate_panel(d1, 300, seed=31)
        pair = benchmark_pair(1)
        nz = oracle_nuisances(d1, pair)
        model = fit_meta("IVW-DR", panel, pair, nz)
        path = tmp_path / "model.json"
        save_cate_model(model, path)
        loaded = load_cate_model(path)
        table = build_row_table(panel, 1, nz.codec)
        feats = table.features(0)
        assert loaded.kind == "IVW-DR"
        assert loaded.pair == pair
        assert np.array_equal(model.predict(feats), loaded.predict(feats))

    def test_plug_in_round_trip(self):
        d1 = get_dgp("D1")
        panel = simulate_panel(d1, 300, seed=31)
        pair = benchmark_pair(1)
        nz = fit_nuisances(panel, pair, need=("response",))
        model = fit_meta("PI-RA", panel, pair, nz)
        loaded = cate_model_from_dict(cate_model_to_dict(model))
        feats = build_row_table(panel, 1, nz.codec).features(0)
        assert np.array_equal(model.predict(feats), loaded.predict(feats))

    def test_bundle_with_old_spec_keys_predicts_identically(self):
        # bundles written while a kNN regressor existed carry "k" in every
        # regressor spec, including those of the nuisance bundle a plug-in embeds
        def with_old_spec_keys(state):
            if isinstance(state, list):
                return [with_old_spec_keys(v) for v in state]
            if not isinstance(state, dict):
                return state
            out = {key: with_old_spec_keys(v) for key, v in state.items()}
            return {**out, "k": 25} if "ridge_lambda" in out else out
        d1 = make_d1()
        panel = simulate_panel(d1, 300, seed=31)
        pair = benchmark_pair(1)
        nz = fit_nuisances(panel, pair)
        feats = build_row_table(panel, 1, nz.codec).features(0)
        for kind in ("PI-HA", "PI-RA", "IVW-DR"):
            model = fit_meta(kind, panel, pair, nz)
            old = cate_model_from_dict(with_old_spec_keys(cate_model_to_dict(model)))
            assert np.array_equal(model.predict(feats), old.predict(feats))

    def test_format_version(self):
        d1 = make_d1()
        panel = simulate_panel(d1, 200, seed=32)
        pair = benchmark_pair(1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            nz = fit_nuisances(panel, pair, regressor_spec=RegressorSpec(feature_count=16),
                               classifier_spec=ClassifierSpec(feature_count=8, l2=1e-2))
        for kind in ("PI-RA", "DR"):
            model = fit_meta(kind, panel, pair, nz)
            state = cate_model_to_dict(model)
            assert state["format_version"] == 2
            # a bundle without the version key is read as format 1, which a
            # format-2 state is not: it raises instead of loading other bits
            legacy = {k: v for k, v in state.items() if k != "format_version"}
            with pytest.raises(ValueError):
                cate_model_from_dict(legacy)
            with pytest.raises(ValueError, match="unknown format_version 'x'"):
                cate_model_from_dict({**state, "format_version": "x"})
            with pytest.raises(ValueError, match="unknown format_version 3"):
                cate_model_from_dict({**state, "format_version": 3})
            broken = {k: v for k, v in state.items() if k != "second_stage"}
            with pytest.raises(ValueError, match="lacks the required key 'second_stage'"):
                cate_model_from_dict(broken)
        with pytest.raises(ValueError, match="model bundle lacks the required key 'kind'"):
            cate_model_from_dict({"pair": {}})

    def test_target_and_weights_mode_are_fixed_format_keys(self):
        # every model is a CATE model: a bundle of another target must not
        # load and predict a contrast; weights_mode never affected prediction
        d1 = make_d1()
        panel = simulate_panel(d1, 200, seed=33)
        pair = benchmark_pair(1)
        nz = oracle_nuisances(d1, pair)
        model = fit_meta("IVW-DR", panel, pair, nz)
        state = cate_model_to_dict(model)
        assert (state["target"], state["weights_mode"]) == ("cate", "estimated")
        feats = build_row_table(panel, 1, nz.codec).features(0)
        realized = cate_model_from_dict({**state, "weights_mode": "realized"})
        assert np.array_equal(realized.predict(feats), model.predict(feats))
        with pytest.raises(ValueError, match="target 'capo'"):
            cate_model_from_dict({**state, "target": "capo"})

    def test_default_second_stage_is_heavier_than_nuisance_default(self):
        assert DEFAULT_SECOND_STAGE.ridge_lambda > RegressorSpec().ridge_lambda
