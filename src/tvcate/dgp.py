"""Structural-equation simulators with closed-form ground truth.

A :class:`StructuralDGP` generates trajectories by

    X_1 ~ Normal(0, x1_std)
    A_t ~ Bernoulli(sigmoid(f_a(X_t, A_{t-1}, Y_{t-1})))
    Y_t = f_y(X_t, A_t, Y_{t-1}) + eps_y
    X_{t+1} = f_x(X_t, A_t, Y_t) + eps_x

with Gaussian noises of standard deviations ``x_noise_std`` and
``y_noise_std``.  The structural functions receive only the most recent
covariate, treatment, and outcome (the shipped families depend on nothing
older); the engine models scalar confounders.  At t = 1 the previous
treatment is the configurable ``a0`` convention and the previous outcome
is 0.

Ground truth is closed-form: exact propensities from ``f_a``, and response
surfaces and effects (:class:`ChainResponseForm`) for every shipped
generator, whose confounder chain is linear and whose outcome mean is
additively separable.  A small all-discrete DGP (:class:`DiscreteDGP`)
supports exact enumeration for brute-force comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np
from scipy.special import expit

from ._blocks import _table_blocks
from .panel import (InterventionPair, Panel, _arm_dtype, _validate_count, _validate_real,
                    panel_from_arrays)

__all__ = [
    "StructuralDGP",
    "ChainResponseForm",
    "DiscreteDGP",
    "make_d1",
    "make_d2",
    "make_d3",
    "make_linear_chain",
    "make_mini_discrete",
    "get_dgp",
    "benchmark_pair",
    "BENCHMARK_PAIRS",
    "simulate_panel",
]


@dataclass(frozen=True)
class ChainResponseForm:
    """Closed-form response surfaces for linear-chain DGPs.

    Valid when f_x(x, a, y) = x_coef * x (treatments and outcomes never feed
    the confounder) and f_y(x, a, y) = g(x) + treat_coef * (a - treat_center)
    with g either cos(omega * x) or a linear map omega * x.  Then m steps
    ahead of x the confounder is Normal(x_coef^m * x, s_m^2) with
    s_m^2 = x_noise_var * sum_{j<m} x_coef^(2j), and

        E[cos(omega Z)] = cos(omega mean) * exp(-omega^2 s_m^2 / 2),

    so the response surface at any level is available exactly.  The CATE of
    an intervention pair is treat_coef * (a_last - b_last), constant in the
    history.
    """

    x_coef: float
    outcome_kind: str = "cos"      # {"cos", "linear"}
    omega: float = 1.0
    treat_coef: float = 0.5
    treat_center: float = 0.5

    def capo(self, x, steps_ahead: int, a_final, x_noise_std: float):
        """mu at a history whose covariate is x, steps_ahead before the end.

        steps_ahead = 0 is the terminal level (a_final plays the role of the
        final intervention arm in both cases).  Oracle queries call it per
        row block, on several threads at once: it must be row-wise.
        """
        x = np.asarray(x, dtype=float)
        m = int(steps_ahead)
        if m < 0:
            raise ValueError("steps_ahead must be >= 0")
        mean = self.x_coef ** m * x
        var = x_noise_std ** 2 * sum(self.x_coef ** (2 * j) for j in range(m))
        if self.outcome_kind == "cos":
            g = np.cos(self.omega * mean) * np.exp(-self.omega ** 2 * var / 2.0)
        elif self.outcome_kind == "linear":
            g = self.omega * mean
        else:
            raise ValueError(f"unknown outcome_kind {self.outcome_kind!r}")
        return g + self.treat_coef * (np.asarray(a_final, dtype=float) - self.treat_center)

    def cate(self, pair: InterventionPair) -> float:
        return self.treat_coef * (pair.a_seq[-1] - pair.b_seq[-1])


@dataclass(frozen=True)
class StructuralDGP:
    """Order-1 structural-equation model over T discrete steps (see module
    docs).  :func:`simulate_panel` calls ``f_a``, ``f_x`` and ``f_y`` per
    block of trajectories, and oracle queries call ``f_a`` per row block,
    on several threads at once: each must be row-wise, each output from
    its row alone."""

    name: str
    f_x: Callable
    f_a: Callable
    f_y: Callable
    horizon: int = 5
    x1_std: float = 1.0
    x_noise_std: float = 0.5
    y_noise_std: float = 0.3
    a0: int = 0
    treatment_arity: int = 2
    response_form: Optional[ChainResponseForm] = None

    def __post_init__(self):
        _validate_count(self.horizon, "horizon")
        for name in ("x1_std", "x_noise_std", "y_noise_std"):
            _validate_real(getattr(self, name), name, 0, strict=True)
        arity = _validate_count(self.treatment_arity, "treatment_arity")
        if _validate_count(self.a0, "a0", 0) >= arity:
            raise ValueError(f"a0 must be an arm in [0, {self.treatment_arity}), got {self.a0}")


def make_d1() -> StructuralDGP:
    """Strong oscillatory confounding: logit 4*cos(0.5*X - 0.5*(A_prev - 0.5))."""
    return StructuralDGP(
        name="d1",
        f_x=lambda x, a, y: 0.5 * x,
        f_a=lambda x, a_prev, y_prev: 4.0 * np.cos(0.5 * x - 0.5 * (a_prev - 0.5)),
        f_y=lambda x, a, y_prev: np.cos(x) + 0.5 * (a - 0.5),
        response_form=ChainResponseForm(x_coef=0.5, outcome_kind="cos", omega=1.0),
    )


def make_d2() -> StructuralDGP:
    """Mild confounding with a fast-oscillating outcome surface cos(5*X)."""
    return StructuralDGP(
        name="d2",
        f_x=lambda x, a, y: 0.5 * x,
        f_a=lambda x, a_prev, y_prev: 0.5 * x - 0.5 * (a_prev - 0.5),
        f_y=lambda x, a, y_prev: np.cos(5.0 * x) + 0.5 * (a - 0.5),
        response_form=ChainResponseForm(x_coef=0.5, outcome_kind="cos", omega=5.0),
    )


def make_d3(gamma: float) -> StructuralDGP:
    """Overlap-controlled linear logit gamma*(0.5*X - 0.5*(A_prev - 0.5));
    a larger gamma >= 0 pushes propensities toward {0, 1}."""
    g = float(gamma)
    if not np.isfinite(g) or g < 0:
        raise ValueError("gamma must be finite and >= 0")
    return StructuralDGP(
        name=f"d3:gamma={g!r}",           # every digit: get_dgp(name) is this generator
        f_x=lambda x, a, y: 0.5 * x,
        f_a=lambda x, a_prev, y_prev: g * (0.5 * x - 0.5 * (a_prev - 0.5)),
        f_y=lambda x, a, y_prev: np.cos(x) + 0.5 * (a - 0.5),
        response_form=ChainResponseForm(x_coef=0.5, outcome_kind="cos", omega=1.0),
    )


def make_linear_chain(noise_std: float = 0.5, logit_scale: float = 0.4,
                      logit_intercept: float = 0.1, treat_coef: float = 1.0) -> StructuralDGP:
    """Verification DGP with constant conditional variances.

    The confounder is a unit-coefficient random walk (X_{t+1} = X_t + eps)
    and the outcome mean is X_t + treat_coef * A_t, so every response
    surface is mu_l = X_l + treat_coef * a_final and the one-step conditional
    variance of the next-level surface equals the (shared) noise variance at
    every level: Var(mu_{l+1}(H_{l+1}) | H_l, A_l) = noise_std^2, the
    constant-variance setting in which inverse-variance weights are exact.
    """
    return StructuralDGP(
        name="linear-chain",
        f_x=lambda x, a, y: x,
        f_a=lambda x, a_prev, y_prev: logit_intercept + logit_scale * x,
        f_y=lambda x, a, y_prev: x + treat_coef * a,
        x1_std=1.0,
        x_noise_std=noise_std,
        y_noise_std=noise_std,
        response_form=ChainResponseForm(x_coef=1.0, outcome_kind="linear", omega=1.0,
                                        treat_coef=treat_coef, treat_center=0.0),
    )


#: Preregistered intervention pairs per horizon: the final-period arm is
#: treated vs control and all earlier arms are swapped between the sequences.
BENCHMARK_PAIRS = {
    0: InterventionPair((1,), (0,)),
    1: InterventionPair((0, 1), (1, 0)),
    2: InterventionPair((0, 0, 1), (1, 0, 0)),
}


def benchmark_pair(tau: int) -> InterventionPair:
    if tau not in BENCHMARK_PAIRS:
        raise ValueError(f"no preregistered intervention pair for tau={tau}")
    return BENCHMARK_PAIRS[tau]


def simulate_panel(dgp: StructuralDGP, n: int, seed, x1=None) -> Panel:
    """Simulate n trajectories of length dgp.horizon; deterministic given seed.

    Draw order is fixed: X_1, then per step the treatment uniforms, the
    outcome noise, and (except at the last step) the next confounder noise,
    each drawn whole in the calling thread.  After each draw, the arithmetic
    that needs it (A_t, Y_t or X_{t+1}) runs row-wise over blocks of
    trajectories, with the bits of one block (:mod:`tvcate._blocks`).  When
    ``x1`` is given (scalar or length-n array) the first covariate is pinned
    to it instead of drawn, so every trajectory starts from a known history;
    the X_1 draw is skipped entirely.  A non-integer or non-positive ``n``
    and an ``x1`` of another length raise ``ValueError`` naming the field.
    """
    _validate_count(n, "n")
    if x1 is not None:
        try:
            x1 = np.asarray(x1, dtype=float)
        except (TypeError, ValueError):
            raise ValueError(f"x1 must be real, got {x1!r}") from None
        if x1.ndim > 1 or x1.size not in (1, n):
            raise ValueError(f"x1 must be a scalar or one value per trajectory ({n}), "
                             f"got shape {x1.shape}")
    rng = np.random.default_rng(seed)
    T = dgp.horizon
    X = np.empty((n, T))
    A = np.empty((n, T), dtype=_arm_dtype(dgp.treatment_arity))   # the panel's own type
    Y = np.empty((n, T))
    X[:, 0] = rng.normal(0.0, dgp.x1_std, size=n) if x1 is None else x1

    # the previous treatment (as float) and outcome of ``rows``: a0 and 0 at t = 1
    def a_prev(t, rows):
        return (np.full(rows.stop - rows.start, float(dgp.a0)) if t == 0
                else A[rows, t - 1].astype(float))

    def y_prev(t, rows):
        return np.zeros(rows.stop - rows.start) if t == 0 else Y[rows, t - 1]

    def treat(t, u, rows):
        A[rows, t] = u[rows] < expit(dgp.f_a(X[rows, t], a_prev(t, rows), y_prev(t, rows)))

    def respond(t, e, rows):
        Y[rows, t] = dgp.f_y(X[rows, t], A[rows, t].astype(float), y_prev(t, rows)) + e[rows]

    def advance(t, e, rows):
        X[rows, t + 1] = dgp.f_x(X[rows, t], A[rows, t].astype(float), Y[rows, t]) + e[rows]

    for t in range(T):
        _table_blocks(n, partial(treat, t, rng.uniform(size=n)))
        _table_blocks(n, partial(respond, t, rng.normal(0.0, dgp.y_noise_std, size=n)))
        if t < T - 1:
            _table_blocks(n, partial(advance, t, rng.normal(0.0, dgp.x_noise_std, size=n)))
    return panel_from_arrays(X, A, Y, dgp.treatment_arity)


@dataclass(frozen=True)
class DiscreteDGP:
    """Two-step all-discrete DGP for brute-force enumeration checks.

    X_1 ~ Bernoulli(p_x1); A_t ~ Bernoulli(sigmoid(a_slope*X_t +
    a_prev_shift*(A_{t-1}-0.5))) with A_0 = 0; Y_1 = 0 exactly;
    X_2 ~ Bernoulli(q(X_1, A_1)) with q = trans_base + trans_x*X_1 +
    trans_a*A_1; and Y_2 = y_base + y_x*X_2 + y_a*A_2 deterministically.
    Because Y_2 is a deterministic table, exhaustive enumeration of the
    response surfaces is exact and a fitted lookup table can be compared
    against it cell by cell.
    """

    p_x1: float = 0.5
    a_slope: float = 0.8
    a_prev_shift: float = -0.4
    trans_base: float = 0.3
    trans_x: float = 0.4
    trans_a: float = 0.2
    y_base: float = 0.2
    y_x: float = 0.6
    y_a: float = 0.15
    horizon: int = 2
    treatment_arity: int = 2
    name: str = "mini-discrete"

    def __post_init__(self):
        _validate_count(self.treatment_arity, "treatment_arity")
        if _validate_count(self.horizon, "horizon") != 2:
            raise ValueError(f"horizon must be 2 (two steps are simulated), got {self.horizon}")

    def propensity1(self, x, a_prev):
        return expit(self.a_slope * np.asarray(x, dtype=float)
                     + self.a_prev_shift * (np.asarray(a_prev, dtype=float) - 0.5))

    def trans_prob(self, x1, a1):
        return (self.trans_base + self.trans_x * np.asarray(x1, dtype=float)
                + self.trans_a * np.asarray(a1, dtype=float))

    def y2(self, x2, a2):
        return (self.y_base + self.y_x * np.asarray(x2, dtype=float)
                + self.y_a * np.asarray(a2, dtype=float))

    def simulate(self, n: int, seed) -> Panel:
        rng = np.random.default_rng(seed)
        x1 = (rng.uniform(size=n) < self.p_x1).astype(float)
        a1 = (rng.uniform(size=n) < self.propensity1(x1, np.zeros(n))).astype(int)
        y1 = np.zeros(n)
        x2 = (rng.uniform(size=n) < self.trans_prob(x1, a1)).astype(float)
        a2 = (rng.uniform(size=n) < self.propensity1(x2, a1)).astype(int)
        y2 = self.y2(x2, a2)
        X = np.stack([x1, x2], axis=1)
        A = np.stack([a1, a2], axis=1)
        Y = np.stack([y1, y2], axis=1)
        return panel_from_arrays(X, A, Y, self.treatment_arity)

    def enumerate_response(self, a_suffix, level: int):
        """Exact response surface by enumeration, for t = 1 and tau = 1.

        level 1 (terminal) returns {x2: mu} — the surface depends only on
        the current covariate; level 0 returns {x1: mu} where the next
        covariate is integrated out under arm a_suffix[0].
        """
        a_suffix = tuple(int(v) for v in a_suffix)
        if len(a_suffix) != 2:
            raise ValueError("enumeration covers t=1, tau=1 (suffix length 2)")
        if level == 1:
            return {x2: float(self.y2(x2, a_suffix[1])) for x2 in (0.0, 1.0)}
        if level == 0:
            out = {}
            for x1 in (0.0, 1.0):
                q = float(self.trans_prob(x1, a_suffix[0]))
                out[x1] = float((1 - q) * self.y2(0.0, a_suffix[1])
                                + q * self.y2(1.0, a_suffix[1]))
            return out
        raise ValueError("level must be 0 or 1")


def make_mini_discrete() -> DiscreteDGP:
    return DiscreteDGP()


_FACTORIES = {
    "d1": make_d1,
    "d2": make_d2,
    "d3": make_d3,
    "linear-chain": make_linear_chain,
    "mini-discrete": make_mini_discrete,
}


def get_dgp(name: str):
    """Look up a DGP by registry name, e.g. "d1" or "d3:gamma=4".

    Parameters after the colon are comma-separated key=value pairs passed to
    the factory as floats.
    """
    if not isinstance(name, str):
        raise ValueError(f"a DGP name is a string, got {name!r}")
    base, _, param_str = name.partition(":")
    base = base.strip().lower()
    if base not in _FACTORIES:
        raise ValueError(f"unknown DGP {base!r}; known: {sorted(_FACTORIES)}")
    kwargs = {}
    if param_str:
        for chunk in param_str.split(","):
            key, sep, val = chunk.partition("=")
            if not sep:
                raise ValueError(f"malformed DGP parameter {chunk!r}; expected key=value")
            kwargs[key.strip()] = float(val)
    try:
        return _FACTORIES[base](**kwargs)
    except TypeError as exc:
        raise ValueError(f"bad parameters for DGP {base!r}: {exc}") from exc
