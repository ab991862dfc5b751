"""The block runners of ``tvcate._blocks``: which share runs which span,
where errors go, and the order block sums are added in."""

import sys
import threading

import numpy as np
import pytest

from tvcate import _blocks

from helpers import set_blocks


class TestRunSpans:
    @pytest.mark.parametrize("shares", [1, 2, 3, 8])
    def test_share_j_runs_every_pth_span_from_the_jth(self, shares):
        edges = [0, 3, 4, 9, 10, 12]
        ran = []
        got = _blocks._run_spans(edges, shares,
                                 lambda span, j: ran.append((span.start, j)) or span.stop)
        assert got == edges[1:]
        p = min(shares, 5)
        assert sorted(ran) == [(lo, k % p) for k, lo in enumerate(edges[:-1])]

    def test_error_is_raised_in_the_caller_and_no_thread_outlives_a_call(self):
        threads = threading.active_count()

        def work(span, j):
            if j == 1:
                raise ArithmeticError(f"in share {j}")
        with pytest.raises(ArithmeticError, match="in share 1"):
            _blocks._run_spans([0, 1, 2, 3], 3, work)
        assert threading.active_count() == threads


class TestDeal:
    @pytest.mark.parametrize("shares", [1, 2, 3, 8])
    def test_loads_differ_by_at_most_the_largest_size(self, shares):
        rng = np.random.default_rng(shares)
        for sizes in ([24_212 // 5, 788 // 5] * 5, rng.integers(1, 5000, 17).tolist(), [7]):
            dealt = _blocks._deal(sizes, shares)
            loads = [sum(sizes[i] for i in share) for share in dealt]
            assert len(dealt) == shares
            assert sorted(sum(dealt, [])) == list(range(len(sizes)))
            assert max(loads) - min(loads) <= max(sizes)

    def test_largest_first_to_the_least_loaded_share(self):
        assert _blocks._deal([5, 1, 5, 1, 5, 1], 2) == [[0, 4], [2, 1, 3, 5]]


class TestTableBlocks:
    def test_blocks_start_at_the_minimum_row_count(self):
        spans = []
        for n in (_blocks._TABLE_MIN_ROWS - 1, _blocks._TABLE_MIN_ROWS):
            spans.append(_blocks._table_blocks(n, lambda rows: (rows.start, rows.stop)))
        assert spans[0] == [(0, _blocks._TABLE_MIN_ROWS - 1)]
        assert spans[1] == [(0, 1 << 16), (1 << 16, _blocks._TABLE_MIN_ROWS)]


class TestBlockPassOrder:
    @pytest.mark.parametrize("cpus", [1, 2, 3, 8])
    def test_parts_are_added_in_block_order(self, cpus, monkeypatch):
        # parts whose sum depends on the order of the additions
        set_blocks(monkeypatch, cpus, blas=1)
        parts = np.array([[1.0], [1e16], [-1e16], [3.0], [1e16], [-1e16], [2.0]])
        want, backward = np.zeros(1), np.zeros(1)
        for part, trap in zip(parts, parts[::-1]):
            want += part
            backward += trap
        assert want != backward
        shares = _blocks._shares(len(parts))
        slots, total = np.empty((shares, 1)), np.zeros(1)

        def work(span, j):
            slots[j] = parts[span.start]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            _blocks._block_pass(list(range(len(parts) + 1)), shares, work, [(total, slots)])
        finally:
            sys.setswitchinterval(interval)
        assert shares == min(cpus, len(parts))
        assert total.tobytes() == want.tobytes()
