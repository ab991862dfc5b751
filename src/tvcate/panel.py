"""Trajectory data model, history views, and deterministic history encoding.

Observational data are trajectories of covariates, discrete treatments, and
scalar outcomes observed over T time steps.  The history at time t collects
the covariates up to t and the treatments/outcomes up to t-1,

    H_t = {X_1..X_t, A_1..A_{t-1}, Y_1..Y_{t-1}},

so covariates lead the treatment/outcome prefixes by one step.  Histories are
encoded into fixed-width real vectors by a :class:`FeatureCodec` so generic
regressors and classifiers can consume them.

A :class:`Panel` is stored flat: read-only arrays ``X (R, d)``, ``A (R,)``
and ``Y (R,)`` hold the rows of all trajectories end to end, and
``offsets (n+1,)`` bounds them (trajectory i is rows
``offsets[i]:offsets[i+1]``); row ``offsets[i] + s - 1`` is position (i, s),
whose H_s :meth:`Panel.encoded` holds.  ``Panel.trajectories`` builds n read-only
:class:`Trajectory` views on every access: O(n) objects, meant for tests,
not hot paths.

``Panel(X, A, Y, offsets, treatment_arity)`` is the one constructor, so a
panel is valid once it exists.  It rejects, naming the first trajectory and
t where it can: arms outside [0, treatment_arity) or of a non-integer dtype,
a non-finite covariate or outcome, columns of other row counts, offsets that
do not run from 0 to the row count or hold an empty trajectory, no
trajectory and an arity that is not an integer >= 1.  The readers build
through it; :func:`panel_from_csv` also names the line of a wrong field
count, a non-integral traj_id, t or arm, and times other than 1..T once each.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import FrozenInstanceError, dataclass
from typing import Iterable

import numpy as np

from ._blocks import _table_blocks

__all__ = [
    "Trajectory",
    "Panel",
    "HistoryView",
    "InterventionPair",
    "FeatureCodec",
    "encode_history",
    "encode_block",
    "panel_from_arrays",
    "panel_to_csv",
    "panel_from_csv",
]


def _validate_count(value, name, least=1) -> int:
    # bool is an int subclass: reject it along with floats and strings
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}")
    return int(value)


def _validate_real(value, name, least=None, strict=False) -> float:
    """``value`` as a float: a finite real (not a bool), >= ``least`` (>
    when ``strict``) when given; else ValueError naming ``name``."""
    bound = "" if least is None else f" {'>' if strict else '>='} {least}"
    real = (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)      # no NaN, inf or int beyond a float
    if not real or (bound and not (value > least if strict else value >= least)):
        raise ValueError(f"{name} must be a finite real{bound}, got {value!r}")
    return float(value)


def _arm_dtype(treatment_arity: int) -> np.dtype:
    """The narrowest unsigned integer type that holds every arm."""
    return np.min_scalar_type(_validate_count(treatment_arity, "treatment_arity") - 1)


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
        Treatment category indices A_t (small non-negative integers); an
        array of a non-integer dtype is refused, not truncated.
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
        a = np.asarray(self.treatments)
        if a.dtype.kind not in "iu":
            raise ValueError(f"treatments must hold integer arms, got dtype {a.dtype}")
        object.__setattr__(self, "covariates", _frozen_array(x, float))
        object.__setattr__(self, "treatments", _frozen_array(a, int))
        object.__setattr__(self, "outcomes", _frozen_array(self.outcomes, float))

    @classmethod
    def _view(cls, x, a, y) -> "Trajectory":
        """Wrap read-only panel slices without copying them."""
        tr = object.__new__(cls)
        tr.__dict__.update(covariates=x, treatments=a, outcomes=y)
        return tr

    @property
    def length(self) -> int:
        return self.covariates.shape[0]

    @property
    def covariate_dim(self) -> int:
        return self.covariates.shape[1]


class Panel:
    """Immutable trajectories in private read-only copies of the flat columns
    ``X``, ``A``, ``Y`` and ``offsets`` (module docstring), checked and copied
    in row blocks (:mod:`tvcate._blocks`).  ``A`` is the narrowest unsigned
    type that holds every arm (uint8 up to 256 arms), so arithmetic on arms
    casts them or takes an int64 left operand (``1 - A`` wraps)."""

    def __init__(self, X, A, Y, offsets, treatment_arity: int = 2):
        X, A, Y = np.asarray(X, dtype=float), np.asarray(A), np.asarray(Y, dtype=float)
        offsets, arms = np.asarray(offsets), _arm_dtype(treatment_arity)
        if A.dtype.kind not in "iu":
            raise ValueError(f"A must hold integer arms, got dtype {A.dtype}")
        R = X.shape[0] if X.ndim == 2 else -1
        if A.shape != (R,) or Y.shape != (R,):
            raise ValueError(f"X {X.shape}, A {A.shape}, Y {Y.shape} are not (R, d), (R,), (R,)")
        if offsets.dtype.kind not in "iu" or offsets.ndim != 1:
            raise ValueError(f"offsets must be 1-D integers, got {offsets.dtype} {offsets.shape}")
        if offsets.size < 2:
            raise ValueError("panel has no trajectories")
        offsets = offsets.astype(np.int64)
        if offsets[0] != 0 or offsets[-1] != R:
            raise ValueError(f"offsets run from {offsets[0]} to {offsets[-1]}, not 0 to {R} rows")
        for i in np.flatnonzero(np.diff(offsets) < 1)[:1]:
            raise ValueError(f"trajectory {i} is empty")
        out = np.empty(X.shape), np.empty(R, dtype=arms), np.empty(R)

        def copy(rows):
            """Check and copy ``rows``; the first bad row among them, if any."""
            bad_arm, bad_val = _bad_rows(X[rows], A[rows], Y[rows], treatment_arity)
            for dst, src in zip(out, (X, A, Y)):
                dst[rows] = src[rows]
            return rows.start + np.flatnonzero(bad_arm | bad_val)[:1]
        for r in np.concatenate(_table_blocks(R, copy))[:1]:
            i = np.searchsorted(offsets, r, "right") - 1
            why = (f"arm {A[r]} outside [0, {treatment_arity})" if not 0 <= A[r] < treatment_arity
                   else "non-finite covariate or outcome")
            raise ValueError(f"trajectory {i}, t {r - offsets[i] + 1}: {why}")
        for arr in (*out, offsets):
            arr.flags.writeable = False
        self.__dict__.update(X=out[0], A=out[1], Y=out[2], offsets=offsets,
                             treatment_arity=int(treatment_arity), _encoded={})

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    @property
    def n(self) -> int:
        return self.offsets.size - 1

    @property
    def covariate_dim(self) -> int:
        return self.X.shape[1]

    @property
    def trajectories(self) -> tuple[Trajectory, ...]:
        """Read-only views, one per trajectory, built anew on every access."""
        X, A, Y, o = self.X, self.A, self.Y, self.offsets.tolist()
        return tuple(Trajectory._view(X[s:e], A[s:e], Y[s:e]) for s, e in zip(o, o[1:]))

    def lengths(self) -> np.ndarray:
        return np.diff(self.offsets)

    def dense(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only (X, A, Y) reshaped to (n, T, d) / (n, T) / (n, T); equal lengths only."""
        blocks = list(self.dense_blocks())
        if len(blocks) != 1:
            raise ValueError("dense() requires equal-length trajectories")
        return blocks[0][1:]

    def dense_blocks(self) -> Iterable[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
        """Yield (indices, X, A, Y) per distinct trajectory length.

        Groups trajectories by length so vectorized kernels can run on
        rectangular blocks even when the panel is ragged.  Indices refer to
        trajectory positions; groups come in increasing length order.  An
        equal-length panel is one reshape; a ragged group is one gather.
        """
        lengths = self.lengths()
        for T in np.unique(lengths):
            idx = np.flatnonzero(lengths == T)
            if idx.size == self.n:
                shape = (self.n, int(T))
                yield (idx, self.X.reshape(shape + self.X.shape[1:]), self.A.reshape(shape),
                       self.Y.reshape(shape))
            else:
                rows = self.offsets[idx][:, None] + np.arange(T)
                yield idx, self.X[rows], self.A[rows], self.Y[rows]

    def encoded(self, codec: "FeatureCodec") -> np.ndarray:
        """Read-only H_s of trajectory i at row ``offsets[i] + s - 1`` (NaN past
        ``codec.max_len``), encoded on the first call per codec and kept."""
        if codec not in self._encoded:
            out = np.full((self.X.shape[0], codec.width), np.nan)
            for idx, X, A, Y in self.dense_blocks():
                for s in range(1, min(X.shape[1], codec.max_len) + 1):
                    out[self.offsets[idx] + s - 1] = encode_block(X, A, Y, s, codec)
            out.flags.writeable = False
            self._encoded[codec] = out
        return self._encoded[codec]


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
        a, b = tuple(self.a_seq), tuple(self.b_seq)
        for name, seq in (("a_seq", a), ("b_seq", b)):    # no bool, float or string arm
            for k, v in enumerate(seq):
                if isinstance(v, (bool, np.bool_)) or not isinstance(v, (int, np.integer)):
                    raise ValueError(f"{name}[{k}] must be an integer arm, got {v!r}")
        a, b = tuple(map(int, a)), tuple(map(int, b))
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
    arity.  ``flat-padded`` is the only scheme.
    """

    max_len: int
    cov_dim: int = 1
    treatment_arity: int = 2
    scheme: str = "flat-padded"
    include_time_index: bool = True
    time_scale: float = 1.0

    def __post_init__(self):
        for name in ("max_len", "cov_dim", "treatment_arity"):     # ints for JSON
            object.__setattr__(self, name, _validate_count(getattr(self, name), name))
        if not isinstance(self.include_time_index, bool):
            raise ValueError(f"include_time_index must be a bool, got {self.include_time_index!r}")
        _validate_real(self.time_scale, "time_scale")
        if self.scheme != "flat-padded":
            raise ValueError(f"unknown encoding scheme {self.scheme!r}")

    @property
    def width(self) -> int:
        L, d, m = self.max_len, self.cov_dim, self.treatment_arity
        return L * d + (L - 1) * (m - 1) + (L - 1) + L + (1 if self.include_time_index else 0)

    def check_width(self, in_dim: int, name: str) -> None:
        """ValueError naming ``name`` and every field unless ``in_dim`` is :attr:`width`."""
        if in_dim != self.width:
            raise ValueError(f"{name}: in_dim {in_dim} is not the width {self.width} of {self}")


def _bad_rows(X, A, Y, treatment_arity):
    """Row masks: arm outside [0, treatment_arity); non-finite covariate or outcome."""
    return ((A < 0) | (A >= treatment_arity),
            ~(np.isfinite(Y) & np.isfinite(X).all(axis=1)))


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
    L = codec.max_len
    m = codec.treatment_arity
    out = np.zeros((n, codec.width))

    out[:, : t * d] = X[:, :t, :].reshape(n, t * d)
    off = L * d
    if t > 1 and m > 1:
        one_hot = np.zeros((n, L - 1, m - 1))
        for c in range(1, m):
            one_hot[:, : t - 1, c - 1] = (A[:, : t - 1] == c)
        out[:, off: off + (L - 1) * (m - 1)] = one_hot.reshape(n, -1)
    off += (L - 1) * (m - 1)
    out[:, off: off + (t - 1)] = Y[:, : t - 1]
    off += L - 1
    out[:, off: off + t] = 1.0
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


def panel_from_arrays(X, A, Y, treatment_arity: int = 2) -> Panel:
    """A :class:`Panel` of n trajectories of length T from X (n, T, d) or
    (n, T), A (n, T) and Y (n, T), which must share (n, T)."""
    X, A, Y = np.asarray(X, dtype=float), np.asarray(A), np.asarray(Y, dtype=float)
    if X.ndim == 2:
        X = X[:, :, None]
    if X.ndim != 3 or A.shape != X.shape[:2] or Y.shape != X.shape[:2]:
        raise ValueError(f"X {X.shape}, A {A.shape} and Y {Y.shape} do not share (n, T)")
    n, T, d = X.shape
    return Panel(X.reshape(n * T, d), A.reshape(-1), Y.reshape(-1), np.arange(n + 1) * T,
                 treatment_arity)


def panel_to_csv(panel: Panel, path) -> None:
    """Write a panel as CSV rows (traj_id, t, x_1..x_d, a, y).

    Reals are written with 17 significant digits so parsing the file
    reproduces the original float64 values bit-exactly.
    """
    tid = np.repeat(np.arange(panel.n), panel.lengths())
    t = np.arange(tid.size) - panel.offsets[tid] + 1
    d = panel.covariate_dim
    header = "traj_id,t," + ",".join(f"x_{j + 1}" for j in range(d)) + ",a,y"
    # one % per row (no covariate: one empty field)
    row = "%d,%d," + ",".join(["%.17g"] * d) + ",%d,%.17g"
    rows = zip(tid.tolist(), t.tolist(), *panel.X.T.tolist(), panel.A.tolist(),
               panel.Y.tolist())
    with open(path, "w") as fh:
        fh.write("\n".join([header, *map(row.__mod__, rows)]) + "\n")


def _parse_csv_rows(lines, d):
    """(tid, t, x, a, y) records of the non-empty lines in one NumPy pass;
    tid, t and a must be integers."""
    dtype = [("tid", int), ("t", int), ("x", float, (d,)), ("a", int), ("y", float)]
    if not any(line.strip() for line in lines):
        return np.empty(0, dtype)
    return np.loadtxt(lines, delimiter=",", dtype=dtype, comments=None, ndmin=1)


def _numbered(lines):
    """The stripped non-blank body lines and their line numbers in the file."""
    keep = [k for k, line in enumerate(lines) if line.strip()]
    return [lines[k].strip() for k in keep], np.array(keep, dtype=int) + 2


def _first_malformed(rows, lineno, width):
    """(index, error) of the first row with a wrong field count or a field
    int()/float() reject; (len(rows), None) if there is none."""
    for k, row in enumerate(rows):
        f = row.split(",")
        try:
            if len(f) != width:
                raise ValueError(f"line {lineno[k]}: {len(f)} fields, the header has {width}")
            int(f[0]), int(f[1]), [float(v) for v in f[2:-2]], int(f[-2]), float(f[-1])
        except ValueError as exc:
            return k, exc
    return len(rows), None


def panel_from_csv(path, treatment_arity: int = 2) -> Panel:
    """Read a panel written by :func:`panel_to_csv`.

    Rejects, naming the line or the traj_id and t, a row with the wrong field
    count, a non-integral traj_id, t or arm, an arm outside [0, arity), a
    ``nan`` or infinite covariate or outcome, times other than 1..T once each
    and a file without rows.  Faults of one line report the earliest such
    line; a missing time or a first time other than 1 the smallest traj_id.
    """
    _validate_count(treatment_arity, "treatment_arity")
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if header[:2] != ["traj_id", "t"] or header[-2:] != ["a", "y"]:
            raise ValueError(f"unrecognized panel CSV header: {header}")
        lines = fh.read().split("\n")
    fault = None
    try:
        body = _parse_csv_rows(lines, len(header) - 4)
    except ValueError:      # parse up to the first malformed line, check those first
        rows, lineno = _numbered(lines)
        stop, fault = _first_malformed(rows, lineno, len(header))
        body = _parse_csv_rows(rows[:stop], len(header) - 4)
    tid, t, a = body["tid"], body["t"], body["a"]
    order = np.lexsort((t, tid))         # stable: a repeat sorts after its first line
    repeated = np.zeros(tid.size, dtype=bool)
    repeated[order[1:][(np.diff(tid[order]) == 0) & (np.diff(t[order]) == 0)]] = True
    bad_arm, bad_val = _bad_rows(body["x"], a, body["y"], treatment_arity)
    for k in np.flatnonzero(bad_arm | bad_val | repeated)[:1]:
        lineno = _numbered(lines)[1]
        why = (f"arm {a[k]} outside [0, {treatment_arity})" if bad_arm[k] else
               f"non-finite covariate or outcome on line {lineno[k]}" if bad_val[k] else
               f"repeated on line {lineno[k]}")
        raise ValueError(f"traj_id {tid[k]}, t {t[k]}: {why}")
    if fault is not None:
        raise fault
    tid, t = tid[order], t[order]
    first = np.append(True, tid[1:] != tid[:-1])[: tid.size]
    for k in np.flatnonzero(np.where(first, t != 1, t != np.append(0, t[:-1]) + 1))[:1]:
        raise ValueError(f"traj_id {tid[k]}: times start at t {t[k]}, not 1" if first[k]
                         else f"traj_id {tid[k]}, t {t[k - 1] + 1}: missing")
    x, a, y = body["x"][order], a[order], body["y"][order]
    del body, lines             # freed before the constructor copies the columns once more
    return Panel(x, a, y, np.append(np.flatnonzero(first), tid.size), treatment_arity)
