"""Helpers the tests share that the package does not need.

Most are Monte-Carlo reference values for the structural generators:
``oracle_response`` (a response surface, whose arm difference is the
CATE), ``oracle_history_adjustment`` (a path-conditioned mean) and
``oracle_propensity``.  They work for any
:class:`~tvcate.dgp.StructuralDGP`, so tests can check the closed forms the
package reads (:class:`~tvcate.dgp.ChainResponseForm`) against an
independent route.  The rest: ``panel_of``, a panel of per-trajectory
(X, A, Y) triples; an encoding inverse; a fresh-interpreter
runner, and a suite's report from one pinned to one CPU and from one on
all CPUs; ``same_bits``; ``recording``, a generator that records the
threads its structural functions run on; and ``set_blocks``, which sets
the block runners' CPU count, BLAS limit and block sizes.
"""

import dataclasses
import os
import subprocess
import sys
import textwrap
import threading
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

import tvcate
from tvcate import _blocks
from tvcate.dgp import StructuralDGP
from tvcate.panel import FeatureCodec, HistoryView, Panel


def run_on_one_thread(script: str) -> str:
    """Run ``script`` in a fresh interpreter on one OpenBLAS thread and
    return what it prints."""
    src = os.path.dirname(os.path.dirname(tvcate.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", textwrap.dedent(script)], env=env,
                          check=True, stdout=subprocess.PIPE, text=True, timeout=600).stdout


def suite_report_pinned_and_free(suite: str, budget) -> tuple:
    """What a fresh interpreter pinned to one CPU (its own affinity only)
    and one on all CPUs print for ``run_suite(suite, budget)``: each a pair
    of its usable CPU count and the report without its wall time, followed
    by the statistics' ``repr``."""
    script = f"""
        import os, re
        from tvcate import _blocks
        from tvcate.verify import format_report, run_suite
        if PIN:
            os.sched_setaffinity(0, {{min(os.sched_getaffinity(0))}})
        report = run_suite({suite!r}, budget={budget!r})
        print(_blocks._usable_cpus())
        print(re.sub(r", [0-9.]+s\\)", ")", format_report(report)))
        print([repr(c.statistic) for c in report.checks])
        """
    return tuple(run_on_one_thread(script.replace("PIN", repr(pin))).split("\n", 1)
                 for pin in (True, False))


def panel_of(trajectories, treatment_arity=2) -> Panel:
    """The panel of ``trajectories``, (X (T, d), A (T,), Y (T,)) triples, end to end."""
    X, A, Y = zip(*trajectories)
    return Panel(np.concatenate(X), np.concatenate(A), np.concatenate(Y),
                 np.cumsum([0] + [len(a) for a in A]), treatment_arity)


def same_bits(got, want):
    """Equal dtype, shape and bytes."""
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and \
        got.tobytes() == want.tobytes()


def recording(dgp, name, record):
    """``dgp`` whose structural function ``name`` calls ``record`` with the
    thread it runs on, then returns the original's values."""
    original = getattr(dgp, name)

    def f(*args):
        record(threading.current_thread())
        return original(*args)
    return dataclasses.replace(dgp, **{name: f})


def set_blocks(monkeypatch, cpus=None, *, blas=None, blas_rows=None, table_rows=None):
    """Set the block runners' knobs in :mod:`tvcate._blocks` for one test,
    each left as it is when None: ``cpus`` usable CPUs, ``blas`` whether
    the one-thread BLAS limit is in force (1) or not (0: a BLAS whose count
    cannot be set), ``blas_rows``-row BLAS blocks, and every table and
    simulation split into ``table_rows``-row blocks."""
    if cpus is not None:
        monkeypatch.setattr(_blocks, "_usable_cpus", lambda: cpus)
    if blas is not None:
        monkeypatch.setattr(_blocks, "_limit_in_force", lambda: bool(blas))
    if blas_rows is not None:
        monkeypatch.setattr(_blocks, "_PREDICT_BLOCK_ROWS", blas_rows)
    if table_rows is not None:
        monkeypatch.setattr(_blocks, "_TABLE_BLOCK_ROWS", table_rows)
        monkeypatch.setattr(_blocks, "_TABLE_MIN_ROWS", 1)


def decode_history(vec: np.ndarray, codec: FeatureCodec):
    """Invert an encoding back to (X (t,d), A (t-1,), Y (t-1,), t).

    Lets the tests check that the encoding is lossless.
    """
    vec = np.asarray(vec, dtype=float)
    if vec.shape[0] != codec.width:
        raise ValueError("vector width does not match codec")
    L, d, m = codec.max_len, codec.cov_dim, codec.treatment_arity
    mask_off = L * d + (L - 1) * (m - 1) + (L - 1)
    mask = vec[mask_off: mask_off + L]
    t = int(round(mask.sum()))
    if t < 1:
        raise ValueError("empty mask: not a valid encoding")
    x = vec[: t * d].reshape(t, d).copy()
    a = np.zeros(t - 1, dtype=int)
    off = L * d
    for j in range(t - 1):
        hot = vec[off + j * (m - 1): off + (j + 1) * (m - 1)]
        nz = np.flatnonzero(hot)
        a[j] = 0 if nz.size == 0 else int(nz[0]) + 1
    off += (L - 1) * (m - 1)
    y = vec[off: off + (t - 1)].copy()
    return x, a, y, t


@dataclass(frozen=True)
class MCEstimate:
    """Monte-Carlo estimate with its standard error (se=0 marks exact values)."""

    value: float
    se: float
    n_mc: int


def _history_tail(dgp: StructuralDGP, h: HistoryView):
    """(x_l, a_prev, y_prev) at the history's frontier, applying the t=1 conventions."""
    x_l = float(h.x_prefix[-1, 0])
    if h.t > 1:
        a_prev = float(h.a_prefix[-1])
        y_prev = float(h.y_prefix[-1])
    else:
        a_prev = float(dgp.a0)
        y_prev = 0.0
    return x_l, a_prev, y_prev


def oracle_propensity(dgp: StructuralDGP, h: HistoryView, a: int = 1) -> float:
    """Exact propensity P(A_t = a | H_t = h) from the structural logit."""
    x_l, a_prev, y_prev = _history_tail(dgp, h)
    p1 = float(expit(dgp.f_a(np.array([x_l]), np.array([a_prev]), np.array([y_prev]))[0]))
    return p1 if a == 1 else 1.0 - p1


def _draw_noise(dgp: StructuralDGP, steps: int, m: int, rng, antithetic: bool):
    eps_y = rng.normal(0.0, dgp.y_noise_std, size=(steps, m))
    eps_x = rng.normal(0.0, dgp.x_noise_std, size=(max(steps - 1, 0), m))
    if antithetic:
        half = m // 2
        eps_y[:, half:] = -eps_y[:, :half]
        if steps > 1:
            eps_x[:, half:] = -eps_x[:, :half]
    return eps_x, eps_y


def _rollout_fixed(dgp: StructuralDGP, x0, y_prev0, a_suffix, eps_x, eps_y):
    """Terminal outcome draws when treatments are pinned to a_suffix."""
    m = x0.shape[0]
    x = x0.copy()
    y_prev = y_prev0.copy()
    for k, a_k in enumerate(a_suffix):
        a = np.full(m, float(a_k))
        y = dgp.f_y(x, a, y_prev) + eps_y[k]
        if k < len(a_suffix) - 1:
            x = dgp.f_x(x, a, y) + eps_x[k]
            y_prev = y
    return y


def _mc_stats(values, antithetic: bool) -> MCEstimate:
    m = values.shape[0]
    if antithetic:
        half = m // 2
        pair_means = 0.5 * (values[:half] + values[half:])
        se = pair_means.std(ddof=1) / np.sqrt(half) if half > 1 else np.inf
        return MCEstimate(float(pair_means.mean()), float(se), m)
    se = values.std(ddof=1) / np.sqrt(m) if m > 1 else np.inf
    return MCEstimate(float(values.mean()), float(se), m)


def oracle_response(dgp: StructuralDGP, h: HistoryView, a_suffix, n_mc: int = 4000,
                    seed=0, antithetic: bool = True) -> MCEstimate:
    """Monte-Carlo estimate of the response surface mu at history h.

    a_suffix pins the treatments from the history's time l through the
    terminal step l + len(a_suffix) - 1 <= horizon.  A suffix of length 1
    needs no rollout (the outcome noise is mean-zero) and is returned
    exactly with se = 0.  Antithetic noise pairs are used by default; the
    standard error then comes from the pair means.
    """
    a_suffix = tuple(int(v) for v in a_suffix)
    if len(a_suffix) < 1:
        raise ValueError("a_suffix must contain at least one arm")
    if h.t + len(a_suffix) - 1 > dgp.horizon:
        raise ValueError("intervention suffix runs past the DGP horizon")
    if n_mc < 1:
        raise ValueError("n_mc must be >= 1")
    x_l, _, y_prev = _history_tail(dgp, h)
    if len(a_suffix) == 1:
        value = float(dgp.f_y(np.array([x_l]), np.array([float(a_suffix[0])]),
                              np.array([y_prev]))[0])
        return MCEstimate(value, 0.0, 0)
    m = n_mc + (n_mc % 2) if antithetic else n_mc
    rng = np.random.default_rng(seed)
    eps_x, eps_y = _draw_noise(dgp, len(a_suffix), m, rng, antithetic)
    y = _rollout_fixed(dgp, np.full(m, x_l), np.full(m, y_prev), a_suffix, eps_x, eps_y)
    return _mc_stats(y, antithetic)


def oracle_history_adjustment(dgp: StructuralDGP, h: HistoryView, a_suffix,
                              n_mc: int = 20000, seed=0) -> MCEstimate:
    """Path-conditioned mean E[Y_terminal | H_l = h, observed arms = a_suffix].

    Unlike the response surface, this conditions on the *observational*
    treatment process having followed a_suffix, so rollouts sample
    treatments from the propensities and only matching paths are kept
    (rejection sampling; no antithetic pairing, the acceptance indicator
    would break it).
    """
    a_suffix = tuple(int(v) for v in a_suffix)
    if h.t + len(a_suffix) - 1 > dgp.horizon:
        raise ValueError("intervention suffix runs past the DGP horizon")
    x_l, a_prev0, y_prev0 = _history_tail(dgp, h)
    rng = np.random.default_rng(seed)
    m = n_mc
    x = np.full(m, x_l)
    a_prev = np.full(m, a_prev0)
    y_prev = np.full(m, y_prev0)
    alive = np.ones(m, dtype=bool)
    y = np.zeros(m)
    for k, a_k in enumerate(a_suffix):
        p1 = expit(dgp.f_a(x, a_prev, y_prev))
        a = (rng.uniform(size=m) < p1).astype(float)
        alive &= (a == float(a_k))
        y = dgp.f_y(x, a, y_prev) + rng.normal(0.0, dgp.y_noise_std, size=m)
        if k < len(a_suffix) - 1:
            x = dgp.f_x(x, a, y) + rng.normal(0.0, dgp.x_noise_std, size=m)
        a_prev, y_prev = a, y
    n_acc = int(alive.sum())
    if n_acc == 0:
        raise ValueError("no rollouts matched the treatment path; raise n_mc")
    kept = y[alive]
    se = kept.std(ddof=1) / np.sqrt(n_acc) if n_acc > 1 else np.inf
    return MCEstimate(float(kept.mean()), float(se), n_acc)
