"""Golden end-to-end values: runs, a sweep, a CLI pipeline and the verify
suites, recomputed and compared with ``tests/data/golden/golden.json``.

Criterion 9 compares two runs of the same code, so a change that moves every
number the same way passes it; this test compares with values written
earlier.  A relative tolerance of 1e-12 lets a last-bit difference of
another BLAS build pass, but no change of arithmetic.  Values below 1e-14
in size are rounding noise of exact identities (the verify suites' exact
checks), compared at that absolute size.  A change that moves numbers on
purpose re-runs ``tests/data/golden/make_golden.py`` and lists what moved.
"""

import importlib.util
import json
import math
import pathlib

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden"
RTOL, NOISE = 1e-12, 1e-14


def _writer():
    spec = importlib.util.spec_from_file_location("make_golden", GOLDEN / "make_golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_values_equal_the_recorded_ones():
    want = json.loads((GOLDEN / "golden.json").read_text())
    got = _writer().golden_values()
    assert sorted(got) == sorted(want), "the golden value names changed"
    moved = [f"{name}: {want[name]!r} -> {got[name]!r} "
             f"(relative {abs(got[name] - want[name]) / max(abs(want[name]), NOISE):.2e})"
             for name in want
             if not math.isclose(got[name], want[name], rel_tol=RTOL, abs_tol=NOISE)]
    assert not moved, f"{len(moved)} of {len(want)} golden values moved:\n" + "\n".join(moved)
