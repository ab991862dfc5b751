"""Trajectory data model, history views, and deterministic history encoding.

Observational data are trajectories of covariates, discrete treatments, and
scalar outcomes observed over T time steps.  The history at time t collects
the covariates up to t and the treatments/outcomes up to t-1,

    H_t = {X_1..X_t, A_1..A_{t-1}, Y_1..Y_{t-1}},

so covariates lead the treatment/outcome prefixes by one step.  Histories are
encoded into fixed-width real vectors by a :class:`FeatureCodec` so generic
regressors and classifiers can consume them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

__all__ = [
    "Trajectory",
    "Panel",
    "HistoryView",
    "InterventionPair",
    "FeatureCodec",
    "validate_panel",
    "encode_history",
    "encode_block",
    "decode_history",
    "panel_from_arrays",
    "panel_to_csv",
    "panel_from_csv",
]


def _frozen_array(values, dtype) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Trajectory:
    """One observational unit: (X_1..X_T, A_1..A_T, Y_1..Y_T).

    Parameters
    ----------
    covariates : array_like, shape (T, d) or (T,)
        Real covariate vectors X_t.  A 1-D array is treated as d = 1.
    treatments : array_like, shape (T,)
        Treatment category indices A_t (small non-negative integers).
    outcomes : array_like, shape (T,)
        Scalar outcomes Y_t.
    """

    covariates: np.ndarray
    treatments: np.ndarray
    outcomes: np.ndarray

    def __post_init__(self):
        x = np.atleast_1d(np.asarray(self.covariates, dtype=float))
        if x.ndim == 1:
            x = x[:, None]
        object.__setattr__(self, "covariates", _frozen_array(x, float))
        object.__setattr__(self, "treatments", _frozen_array(self.treatments, int))
        object.__setattr__(self, "outcomes", _frozen_array(self.outcomes, float))

    @property
    def length(self) -> int:
        return self.covariates.shape[0]

    @property
    def covariate_dim(self) -> int:
        return self.covariates.shape[1]


@dataclass(frozen=True)
class Panel:
    """A collection of trajectories sharing covariate dimension and treatment arity."""

    trajectories: tuple[Trajectory, ...]
    treatment_arity: int = 2

    def __post_init__(self):
        object.__setattr__(self, "trajectories", tuple(self.trajectories))

    @property
    def n(self) -> int:
        return len(self.trajectories)

    @property
    def covariate_dim(self) -> int:
        if not self.trajectories:
            raise ValueError("empty panel has no covariate dimension")
        return self.trajectories[0].covariate_dim

    def lengths(self) -> np.ndarray:
        return np.array([tr.length for tr in self.trajectories], dtype=int)

    def dense(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Stack all trajectories into (X, A, Y) arrays of shape (n, T, d) / (n, T).

        Only valid when every trajectory has the same length.
        """
        lengths = self.lengths()
        if lengths.size == 0:
            raise ValueError("empty panel")
        if not np.all(lengths == lengths[0]):
            raise ValueError("dense() requires equal-length trajectories")
        X = np.stack([tr.covariates for tr in self.trajectories])
        A = np.stack([tr.treatments for tr in self.trajectories])
        Y = np.stack([tr.outcomes for tr in self.trajectories])
        return X, A, Y

    def dense_blocks(self) -> Iterable[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
        """Yield (indices, X, A, Y) per distinct trajectory length.

        Groups trajectories by length so vectorized kernels can run on
        rectangular blocks even when the panel is ragged.  Indices refer to
        positions in ``self.trajectories``; groups are yielded in increasing
        length order.
        """
        lengths = self.lengths()
        for T in np.unique(lengths):
            idx = np.flatnonzero(lengths == T)
            X = np.stack([self.trajectories[i].covariates for i in idx])
            A = np.stack([self.trajectories[i].treatments for i in idx])
            Y = np.stack([self.trajectories[i].outcomes for i in idx])
            yield idx, X, A, Y

    def subset(self, indices) -> "Panel":
        """Panel restricted to the given trajectory positions."""
        indices = np.asarray(indices, dtype=int)
        return Panel(tuple(self.trajectories[i] for i in indices), self.treatment_arity)


@dataclass(frozen=True)
class HistoryView:
    """Reference to the history H_t of one trajectory (t is 1-based)."""

    trajectory: Trajectory
    t: int

    def __post_init__(self):
        if not 1 <= self.t <= self.trajectory.length:
            raise ValueError(f"history time {self.t} outside trajectory of "
                             f"length {self.trajectory.length}")

    @property
    def x_prefix(self) -> np.ndarray:
        return self.trajectory.covariates[: self.t]

    @property
    def a_prefix(self) -> np.ndarray:
        return self.trajectory.treatments[: self.t - 1]

    @property
    def y_prefix(self) -> np.ndarray:
        return self.trajectory.outcomes[: self.t - 1]


@dataclass(frozen=True)
class InterventionPair:
    """Two intervention sequences (a_seq, b_seq) of length tau+1.

    a_seq == b_seq is allowed (degenerate CAPO-style pair with zero effect);
    downstream CATE learners that require distinct first-period arms enforce
    their own constraints.
    """

    a_seq: tuple[int, ...]
    b_seq: tuple[int, ...]

    def __post_init__(self):
        a = tuple(int(v) for v in self.a_seq)
        b = tuple(int(v) for v in self.b_seq)
        if len(a) != len(b):
            raise ValueError("intervention sequences must share length tau+1")
        if len(a) == 0:
            raise ValueError("intervention sequences must have length >= 1")
        if any(v < 0 for v in a + b):
            raise ValueError("treatment indices must be non-negative")
        object.__setattr__(self, "a_seq", a)
        object.__setattr__(self, "b_seq", b)

    @property
    def tau(self) -> int:
        return len(self.a_seq) - 1


@dataclass(frozen=True)
class FeatureCodec:
    """Deterministic flat encoding of histories into fixed-width vectors.

    Layout (``flat-padded`` scheme, slot-major):

        [covariate slots | past-treatment one-hot slots | past-outcome slots
         | 0/1 mask slots | scaled time index]

    A history of length t fills the first t covariate slots and the first
    t-1 treatment/outcome slots; remaining slots are exactly zero and the
    mask marks which covariate slots hold real data.  Treatments are encoded
    as reduced one-hots (category 0 = all zeros) so the layout supports any
    arity.  The ``windowed:k`` scheme keeps only the most recent k steps
    (not injective; meant for long-history experiments).
    """

    max_len: int
    cov_dim: int = 1
    treatment_arity: int = 2
    scheme: str = "flat-padded"
    include_time_index: bool = True
    time_scale: float = 1.0

    def __post_init__(self):
        if self.max_len < 1:
            raise ValueError("max_len must be >= 1")
        if self.scheme != "flat-padded":
            if not self.scheme.startswith("windowed:"):
                raise ValueError(f"unknown encoding scheme {self.scheme!r}")
            if self._window() < 1:
                raise ValueError("window must be >= 1")

    def _window(self) -> int:
        if self.scheme == "flat-padded":
            return self.max_len
        return int(self.scheme.split(":", 1)[1])

    @property
    def slots(self) -> int:
        return min(self._window(), self.max_len)

    @property
    def width(self) -> int:
        L, d, m = self.slots, self.cov_dim, self.treatment_arity
        return L * d + (L - 1) * (m - 1) + (L - 1) + L + (1 if self.include_time_index else 0)


def validate_panel(panel: Panel) -> list[str]:
    """Check panel invariants; returns a list of violation messages (empty = valid)."""
    report = []
    if panel.n == 0:
        report.append("panel has no trajectories")
        return report
    d = panel.trajectories[0].covariate_dim
    for i, tr in enumerate(panel.trajectories):
        T = tr.length
        if tr.treatments.shape[0] != T or tr.outcomes.shape[0] != T:
            report.append(f"trajectory {i}: length mismatch between covariates, "
                          f"treatments, and outcomes")
        if tr.covariate_dim != d:
            report.append(f"trajectory {i}: covariate dimension {tr.covariate_dim} != {d}")
        if T < 1:
            report.append(f"trajectory {i}: empty trajectory")
        if not np.all(np.isfinite(tr.covariates)):
            report.append(f"trajectory {i}: non-finite covariate")
        if not np.all(np.isfinite(tr.outcomes)):
            report.append(f"trajectory {i}: non-finite outcome")
        if np.any(tr.treatments < 0) or np.any(tr.treatments >= panel.treatment_arity):
            report.append(f"trajectory {i}: treatment out of range "
                          f"[0, {panel.treatment_arity})")
    return report


def encode_block(X: np.ndarray, A: np.ndarray, Y: np.ndarray, t: int,
                 codec: FeatureCodec) -> np.ndarray:
    """Encode the histories H_t of a rectangular trajectory block.

    Parameters
    ----------
    X, A, Y : ndarray
        Dense arrays of shape (n, T, d), (n, T), (n, T) with T >= t.
    t : int
        1-based history time; all n histories are encoded at this time.

    Returns
    -------
    ndarray of shape (n, codec.width)
    """
    if t < 1:
        raise ValueError("history time must be >= 1")
    if t > codec.max_len:
        raise ValueError("history exceeds codec capacity")
    n, T, d = X.shape
    if t > T:
        raise ValueError(f"history time {t} exceeds trajectory length {T}")
    if d != codec.cov_dim:
        raise ValueError(f"covariate dim {d} does not match codec ({codec.cov_dim})")
    L = codec.slots
    m = codec.treatment_arity
    w = min(t, L)          # steps retained (flat-padded keeps all t)
    start = t - w          # 0-based index of the first retained step
    out = np.zeros((n, codec.width))

    out[:, : w * d] = X[:, start:t, :].reshape(n, w * d)
    off = L * d
    if w > 1 and m > 1:
        a_sub = A[:, start: t - 1]                       # (n, w-1)
        one_hot = np.zeros((n, L - 1, m - 1))
        for c in range(1, m):
            one_hot[:, : w - 1, c - 1] = (a_sub == c)
        out[:, off: off + (L - 1) * (m - 1)] = one_hot.reshape(n, -1)
    off += (L - 1) * (m - 1)
    if w > 1:
        out[:, off: off + (w - 1)] = Y[:, start: t - 1]
    off += L - 1
    out[:, off: off + w] = 1.0
    if codec.include_time_index:
        out[:, -1] = t * codec.time_scale
    return out


def encode_history(h: HistoryView, codec: FeatureCodec) -> np.ndarray:
    """Encode a single history into a fixed-width vector (see FeatureCodec)."""
    tr = h.trajectory
    X = tr.covariates[None, :, :]
    A = tr.treatments[None, :]
    Y = tr.outcomes[None, :]
    return encode_block(X, A, Y, h.t, codec)[0]


def decode_history(vec: np.ndarray, codec: FeatureCodec):
    """Invert a flat-padded encoding back to (X (t,d), A (t-1,), Y (t-1,), t).

    Exists so the encoding can be tested for losslessness; windowed schemes
    drop data and cannot be decoded.
    """
    if codec.scheme != "flat-padded":
        raise ValueError("only the flat-padded scheme is decodable")
    vec = np.asarray(vec, dtype=float)
    if vec.shape[0] != codec.width:
        raise ValueError("vector width does not match codec")
    L, d, m = codec.slots, codec.cov_dim, codec.treatment_arity
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


def panel_from_arrays(X, A, Y, treatment_arity: int = 2) -> Panel:
    """Build a Panel from dense arrays X (n,T,d) or (n,T), A (n,T), Y (n,T)."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 2:
        X = X[:, :, None]
    A = np.asarray(A, dtype=int)
    Y = np.asarray(Y, dtype=float)
    trajs = tuple(Trajectory(X[i], A[i], Y[i]) for i in range(X.shape[0]))
    return Panel(trajs, treatment_arity)


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def panel_to_csv(panel: Panel, path) -> None:
    """Write a panel as CSV rows (traj_id, t, x_1..x_d, a, y).

    Reals are written with 17 significant digits so parsing the file
    reproduces the original float64 values bit-exactly.
    """
    d = panel.covariate_dim
    header = "traj_id,t," + ",".join(f"x_{j + 1}" for j in range(d)) + ",a,y"
    lines = [header]
    for i, tr in enumerate(panel.trajectories):
        for s in range(tr.length):
            xs = ",".join(_fmt(v) for v in tr.covariates[s])
            lines.append(f"{i},{s + 1},{xs},{tr.treatments[s]},{_fmt(tr.outcomes[s])}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def panel_from_csv(path, treatment_arity: int = 2) -> Panel:
    """Read a panel written by :func:`panel_to_csv`.

    Rejects, naming the line or the traj_id and t, a row with the wrong field
    count, an arm outside [0, treatment_arity), a ``nan`` or infinite covariate
    or outcome, and times other than 1..T once each.
    """
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if header[:2] != ["traj_id", "t"] or header[-2:] != ["a", "y"]:
            raise ValueError(f"unrecognized panel CSV header: {header}")
        d = len(header) - 4
        rows = {}
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != len(header):
                raise ValueError(f"line {lineno}: {len(parts)} fields, the header "
                                 f"has {len(header)}")
            tid, t = int(parts[0]), int(parts[1])
            x = [float(v) for v in parts[2:2 + d]]
            a, y = int(parts[2 + d]), float(parts[3 + d])
            if not 0 <= a < treatment_arity:
                raise ValueError(f"traj_id {tid}, t {t}: arm {a} outside "
                                 f"[0, {treatment_arity})")
            if not (math.isfinite(y) and all(map(math.isfinite, x))):
                raise ValueError(f"traj_id {tid}, t {t}: non-finite covariate or "
                                 f"outcome on line {lineno}")
            recs = rows.setdefault(tid, {})
            if t in recs:
                raise ValueError(f"traj_id {tid}, t {t}: repeated on line {lineno}")
            recs[t] = (x, a, y)
    trajs = []
    for tid in sorted(rows):
        times = sorted(rows[tid])
        if times[0] != 1:
            raise ValueError(f"traj_id {tid}: times start at t {times[0]}, not 1")
        missing = sorted(set(range(1, times[-1] + 1)).difference(times))
        if missing:
            raise ValueError(f"traj_id {tid}, t {missing[0]}: missing")
        recs = [rows[tid][t] for t in times]
        X = np.array([r[0] for r in recs])
        A = np.array([r[1] for r in recs], dtype=int)
        Y = np.array([r[2] for r in recs])
        trajs.append(Trajectory(X, A, Y))
    return Panel(tuple(trajs), treatment_arity)
