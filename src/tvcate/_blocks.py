"""Row blocks and the threads that run them, for every module of the package.

Work is split over the usable CPUs by sizes alone, in three ways:

* a cosine map's elementwise part (shift, ``cos``, scale) runs in one row
  chunk per CPU from 2^19 elements (``learners._map_chunks``);
* tables and simulations of at least 1.5 * 2^16 rows (a simulation's rows
  are its trajectories) run their row-wise arithmetic in 2^16-row blocks
  (:func:`_table_blocks`); a pseudo-outcome makes one pass of the blocks,
  each block querying the nuisances at its own rows for both arms, so only
  the contrast is table-sized;
* BLAS products over rows, the classifier's design, Newton pass and
  predictions and the ridge grams, right-hand sides and predictions, run
  in 4096-row blocks (:func:`_block_edges`) over the CPUs (:func:`_shares`):
  a prediction block is mapped, centered and multiplied on its share, and
  a map's (time, arm) groups are dealt whole to the shares (:func:`_deal`).

While a public fit or prediction runs, it holds every loaded OpenBLAS at
one thread, for the process's other threads too (:func:`_one_blas_thread`),
so the user's BLAS setting picks no path and no bit.  A BLAS whose count
cannot be set runs the one-CPU layout: the same blocks, on one share.

Smaller work is one span in the calling thread.  No edge depends on the
CPU count, an elementwise operation gives each element the same bits in
any span, each span writes only its own rows of an output the caller made,
and block sums are added in block order (:func:`_in_order`), so no
result, bundle or verify statistic depends on the number of CPUs.  Random
draws, LAPACK and the BLAS products outside these passes run in the
calling thread only, and no thread outlives the call that starts it.
"""

import contextlib
import ctypes
import functools
import os
import threading

import numpy as np

#: rows of a table block (:func:`_table_blocks`), and the fewest rows of a
#: table split into blocks: on two CPUs, smaller tables run slower split
_TABLE_BLOCK_ROWS, _TABLE_MIN_ROWS = 1 << 16, 3 << 15
#: rows of a BLAS block (:func:`_block_edges`): fits and predictions read,
#: make and center a map a block at a time, holding a block or two, not N x F
_PREDICT_BLOCK_ROWS = 4096
#: rows of a centering sub-block and the fewest of the last: on one thread
#: OpenBLAS 0.3.31's ``gemv`` gives a sub-block of 2 rows or more the bits of
#: its whole block's product (a lone row takes another path)
_SUB_BLOCK_ROWS, _SUB_BLOCK_LEAST = 128, 8


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):      # not on every platform
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


#: OpenBLAS's thread-count getters, as threadpoolctl looks them up: NumPy's
#: bundled ``scipy_openblas64_``, SciPy's ``scipy_openblas``, plain builds
_OPENBLAS_GETS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                  "openblas_get_num_threads64_", "openblas_get_num_threads")


@functools.cache
def _openblas() -> tuple:
    """The (get, set) thread-count calls of each OpenBLAS loaded in this process,
    none where none is found (another BLAS, or no ``/proc/self/maps``)."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split(maxsplit=5)[-1].rstrip("\n")
                            for line in maps if "openblas" in line})
        libs = [ctypes.CDLL(path) for path in paths]
    except OSError:
        return ()
    names = [next((name for name in _OPENBLAS_GETS if hasattr(lib, name)), None) for lib in libs]
    calls = tuple((getattr(lib, name), getattr(lib, name.replace("_get_", "_set_")))
                  for lib, name in zip(libs, names) if name)
    for get, put in calls:
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
    return calls


_LIMIT_LOCK = threading.Lock()
#: calls now under :func:`_one_blas_thread`, and each library's (set, count) before
_limit_depth, _limit_saved = 0, []


@contextlib.contextmanager
def _one_blas_thread():
    """Every loaded OpenBLAS (:func:`_openblas`) held at one thread, for every
    thread of the process, as a context or a decorator: the first of nested
    or concurrent entries sets each count to 1, the last exit restores it."""
    global _limit_depth, _limit_saved
    with _LIMIT_LOCK:
        if _limit_depth == 0:
            _limit_saved = [(put, get()) for get, put in _openblas()]
            for put, _ in _limit_saved:
                put(1)
        _limit_depth += 1
    try:
        yield
    finally:
        with _LIMIT_LOCK:
            _limit_depth -= 1
            if _limit_depth == 0:
                for put, count in _limit_saved:
                    put(count)


def _limit_in_force() -> bool:
    """Whether a package call holds OpenBLAS at one thread; :func:`_shares` asks."""
    return _limit_depth > 0 and bool(_openblas())


def _run_spans(edges, shares: int, work) -> list:
    """``work(span, j)`` for each slice between consecutive ``edges``, in order,
    in P = min(``shares``, spans) shares: share j takes every P-th span from
    the j-th, share 0 in the calling thread and each other on a thread
    started and joined here.  An error in any span is raised in the caller."""
    spans = [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]
    shares = max(min(shares, len(spans)), 1)
    results, errors = [None] * len(spans), []

    def share(j):
        try:
            for k in range(j, len(spans), shares):
                results[k] = work(spans[k], j)
        except BaseException as exc:          # raised again in the caller
            errors.append(exc)

    threads = [threading.Thread(target=share, args=(j,), name="tvcate-block")
               for j in range(1, shares)]
    for thread in threads:
        thread.start()
    share(0)
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return results


def _table_blocks(n_rows: int, work) -> list:
    """``work(rows)`` over the ``_TABLE_BLOCK_ROWS``-row blocks of a table of
    at least ``_TABLE_MIN_ROWS`` rows on every usable CPU (:func:`_run_spans`);
    a smaller table is one span."""
    step = _TABLE_BLOCK_ROWS if n_rows >= _TABLE_MIN_ROWS else n_rows + 1
    return _run_spans(list(range(0, n_rows, step)) + [n_rows], _usable_cpus(),
                      lambda rows, j: work(rows))


def _table_array(n_rows: int, work) -> np.ndarray:
    """The float array whose values at rows ``work(rows)`` returns, copied
    block by block (:func:`_table_blocks`); a table of one span returns
    ``work``'s own, with the memory of one whole evaluation."""
    if n_rows < _TABLE_MIN_ROWS:
        return work(slice(0, n_rows))
    out = np.empty(n_rows)
    _table_blocks(n_rows, lambda rows: np.copyto(out[rows], work(rows)))
    return out


def _block_edges(n: int, rows: int = 0, least: int = 2) -> list:
    """Edges of the row blocks of ``n`` rows: blocks start at multiples of
    ``rows`` (``_PREDICT_BLOCK_ROWS`` when 0) and the last holds at least
    ``least`` rows (all ``n`` when fewer), so on one BLAS thread block
    products carry the bits of one product."""
    return list(range(0, max(n - least + 1, 1), rows or _PREDICT_BLOCK_ROWS)) + [n]


def _shares(blocks: int) -> int:
    """Shares of a pass over ``blocks`` row blocks: one per usable CPU, at
    most one per block, while the limit is in force (:func:`_limit_in_force`);
    else one, in the calling thread, over the same blocks."""
    return max(min(_usable_cpus(), blocks), 1) if _limit_in_force() else 1


def _share_blocks(shares: int, n: int, width: int, rows: int = 0, least: int = 2) -> np.ndarray:
    """One ``(shares, rows, width)`` buffer: per share, room for the largest
    :func:`_block_edges` block of ``n`` rows."""
    return np.empty((shares, min(n, (rows or _PREDICT_BLOCK_ROWS) + least - 1), width))


def _deal(sizes, shares: int) -> list:
    """Per share, the indices of ``sizes`` it takes: largest first, each to
    the least-loaded share (the first of equals), so loads differ by at
    most the largest size."""
    loads, dealt = [0] * shares, [[] for _ in range(shares)]
    for i in sorted(range(len(sizes)), key=lambda i: -sizes[i]):
        j = loads.index(min(loads))
        dealt[j].append(i)
        loads[j] += sizes[i]
    return dealt


def _in_order(total, parts):
    """``total`` with each of ``parts`` added into it, one after another."""
    for part in parts:
        total += part
    return total


def _block_pass(edges, shares: int, work, sums) -> None:
    """``work(span, j)`` for every block ``span`` between ``edges``, in rounds
    of ``shares`` blocks (:func:`_run_spans`), block j of a round on share j
    writing its part of each sum of ``sums``, (total, slots) pairs, into
    ``slots[j]``; after each round the parts are added to ``total`` in block
    order.  Every buffer is the caller's: a share writes through ``out=``."""
    for first in range(0, len(edges) - 1, shares):
        part = edges[first:first + shares + 1]
        _run_spans(part, shares, work)
        for total, slots in sums:
            _in_order(total, slots[:len(part) - 1])
