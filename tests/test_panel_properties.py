"""Property tests of the flat panel store on random ragged panels, and of
pseudo-outcome identities on random simulated panels.

Ragged panels have 1-6 trajectories of lengths 1-6, covariate width 1 or 2
and treatment arity 2 or 3, with any finite float64 values.  Simulated
panels hold 1-40 trajectories of the d1 or d2 generator.
"""

import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from tvcate.dgp import benchmark_pair, get_dgp, simulate_panel
from tvcate.meta import ivw_realized, pseudo_dr, pseudo_ipw
from tvcate.nuisance import build_row_table, default_codec, oracle_nuisances
from tvcate.panel import HistoryView, encode_block, encode_history, panel_from_csv, panel_to_csv

from helpers import decode_history, panel_of, same_bits

SETTINGS = settings(max_examples=60, deadline=None)
FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def ragged_panels(draw):
    d = draw(st.sampled_from([1, 2]))
    arity = draw(st.integers(2, 3))
    lengths = draw(st.lists(st.integers(1, 6), min_size=1, max_size=6))
    trajs = [(draw(arrays(float, (T, d), elements=FINITE)),
              draw(arrays(int, T, elements=st.integers(0, arity - 1))),
              draw(arrays(float, T, elements=FINITE)))
             for T in lengths]
    return panel_of(trajs, arity)


@st.composite
def simulated_panels(draw, taus=(0, 1, 2)):
    """(generator, panel, tau) for a d1 or d2 panel and a benchmark horizon."""
    dgp = get_dgp(draw(st.sampled_from(["d1", "d2"])))
    n = draw(st.integers(1, 40))
    panel = simulate_panel(dgp, n, seed=draw(st.integers(0, 2**32 - 1)))
    return dgp, panel, draw(st.sampled_from(taus))


def csv_lines(panel):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "panel.csv")
        panel_to_csv(panel, path)
        with open(path) as fh:
            return fh.read().splitlines()


def read_lines(lines, arity):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "panel.csv")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        return panel_from_csv(path, treatment_arity=arity)


def rejects(lines, arity, message):
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        read_lines(lines, arity)


def position(panel, row):
    """(trajectory, t) of flat row ``row``."""
    i = int(np.searchsorted(panel.offsets, row, side="right")) - 1
    return i, row - int(panel.offsets[i]) + 1


@SETTINGS
@given(ragged_panels())
def test_csv_round_trip_is_bit_exact(panel):
    # the reader stores arity-2 and arity-3 arms in one byte; the panel built
    # from trajectories keeps their int64
    back = read_lines(csv_lines(panel), panel.treatment_arity)
    assert same_bits(back.A, panel.A.astype(np.uint8))
    for name in ("X", "Y", "offsets"):
        assert same_bits(getattr(back, name), getattr(panel, name)), name


@pytest.mark.parametrize("fault", ["drop", "repeat", "fields", "arm", "non-finite",
                                   "start"])
@SETTINGS
@given(panel=ragged_panels(), data=st.data())
def test_each_single_csv_fault_is_rejected(fault, panel, data):
    lines, m, d = csv_lines(panel), panel.treatment_arity, panel.covariate_dim
    header, body = lines[:1], lines[1:]
    r = data.draw(st.integers(0, len(body) - 1), label="row")
    i, t = position(panel, r)
    fields = body[r].split(",")
    if fault == "drop":
        assume(t < panel.lengths()[i])          # dropping a last row is valid
        message = (f"traj_id {i}: times start at t 2, not 1" if t == 1
                   else f"traj_id {i}, t {t}: missing")
        rejects(header + body[:r] + body[r + 1:], m, message)
    elif fault == "repeat":
        q = data.draw(st.integers(r + 1, len(body)), label="copy at")
        rejects(header + body[:q] + [body[r]] + body[q:], m,
                f"traj_id {i}, t {t}: repeated on line {q + 2}")
    elif fault == "fields":
        fields = fields[:-1] if data.draw(st.booleans()) else fields + ["0"]
        body[r] = ",".join(fields)
        rejects(header + body, m,
                f"line {r + 2}: {len(fields)} fields, the header has {d + 4}")
    elif fault == "arm":
        arm = data.draw(st.sampled_from([-1, m, m + 3]), label="arm")
        body[r] = ",".join(fields[:-2] + [str(arm), fields[-1]])
        rejects(header + body, m, f"traj_id {i}, t {t}: arm {arm} outside [0, {m})")
    elif fault == "non-finite":
        column = data.draw(st.sampled_from(list(range(2, 2 + d)) + [-1]), label="column")
        fields[column] = data.draw(st.sampled_from(["nan", "inf", "-inf"]))
        body[r] = ",".join(fields)
        rejects(header + body, m, f"traj_id {i}, t {t}: non-finite covariate or "
                                  f"outcome on line {r + 2}")
    else:
        shift = data.draw(st.integers(1, 3), label="shift")
        for k in range(panel.offsets[i], panel.offsets[i + 1]):
            tid, s, rest = body[k].split(",", 2)
            body[k] = f"{tid},{int(s) + shift},{rest}"
        rejects(header + body, m, f"traj_id {i}: times start at t {1 + shift}, not 1")


@SETTINGS
@given(ragged_panels(), st.data())
def test_row_table_matches_per_trajectory_reference(panel, data):
    tau = data.draw(st.integers(0, int(panel.lengths().min()) - 1), label="tau")
    table = build_row_table(panel, tau)
    views = panel.trajectories
    rows = [(i, t) for i, tr in enumerate(views) for t in range(1, tr.length - tau + 1)]
    np.testing.assert_array_equal(table.traj_id, [i for i, _ in rows])
    np.testing.assert_array_equal(table.t, [t for _, t in rows])
    for j in range(tau + 1):
        feats = table.features(j)
        for r, (i, t) in enumerate(rows):
            tr, s = views[i], t + j
            assert table.x_tail[r, j] == tr.covariates[s - 1, 0]
            assert table.a_obs[r, j] == tr.treatments[s - 1]
            assert table.aprev_tail[r, j] == (tr.treatments[s - 2] if s >= 2 else 0)
            assert table.yprev_tail[r, j] == (tr.outcomes[s - 2] if s >= 2 else 0)
            assert same_bits(feats[r], encode_history(HistoryView(tr, s), table.codec))
    for r, (i, t) in enumerate(rows):
        assert table.y_term[r] == views[i].outcomes[t + tau - 1]


@SETTINGS
@given(ragged_panels(), st.data())
def test_subset_and_blocks_agree_with_source_views(panel, data):
    views = panel.trajectories
    # a panel holds at least one trajectory
    idx = data.draw(st.lists(st.integers(-panel.n, panel.n - 1), min_size=1, max_size=8),
                    label="idx")
    sub = panel_of([(views[k].covariates, views[k].treatments, views[k].outcomes) for k in idx],
                   panel.treatment_arity)
    assert sub.n == len(idx) and sub.treatment_arity == panel.treatment_arity
    for tr, k in zip(sub.trajectories, idx):
        for name in ("covariates", "treatments", "outcomes"):
            assert same_bits(getattr(tr, name), getattr(views[k], name))
    seen = []
    for block_idx, X, A, Y in panel.dense_blocks():
        seen.extend(block_idx)
        for k, i in enumerate(block_idx):
            assert same_bits(X[k], views[i].covariates)
            assert same_bits(A[k], views[i].treatments)
            assert same_bits(Y[k], views[i].outcomes)
    assert sorted(seen) == list(range(panel.n))


@SETTINGS
@given(ragged_panels())
def test_decode_history_inverts_encode_block_at_every_time(panel):
    codec = default_codec(panel)
    for idx, X, A, Y in panel.dense_blocks():
        for t in range(1, X.shape[1] + 1):
            for k, vec in enumerate(encode_block(X, A, Y, t, codec)):
                x, a, y, s = decode_history(vec, codec)
                assert s == t
                assert same_bits(x, X[k, :t])
                np.testing.assert_array_equal(a, A[k, :t - 1])
                assert same_bits(y, Y[k, :t - 1])


@SETTINGS
@given(simulated_panels())
def test_dr_equals_ipw_when_every_response_is_zero(case):
    # each DR correction term is mu-hat times a finite factor, so it vanishes
    dgp, panel, tau = case
    pair = benchmark_pair(tau)
    table = build_row_table(panel, tau)
    nz = oracle_nuisances(dgp, pair).corrupted(response=0.0)
    for dr, ipw in zip(pseudo_dr(table, nz, pair), pseudo_ipw(table, nz, pair)):
        assert np.array_equal(dr, ipw)


@SETTINGS
@given(simulated_panels(taus=(0,)))
def test_pair_variance_statistic_is_four_at_half_propensity(case):
    # at tau = 0 every binary row follows exactly one arm, with 1/0.5^2 = 4
    dgp, panel, tau = case
    pair = benchmark_pair(tau)
    table = build_row_table(panel, tau)
    nz = oracle_nuisances(dgp, pair).corrupted(propensity=0.5)
    _, v_pair = ivw_realized(table, nz, pair)
    assert np.array_equal(v_pair, np.full(table.n_rows, 4.0))
