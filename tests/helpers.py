"""Helpers the tests share that the package does not need."""

import numpy as np

from tvcate.panel import FeatureCodec


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

