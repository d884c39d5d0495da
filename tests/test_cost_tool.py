"""``tests/tools/cost.py``: what its hook counts, and how two saved counts compare.

The whole run takes seconds under the hook, so it is not run here; CI prints
its base-against-head comparison.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent / "tools"))
import cost  # noqa: E402


def _leaf(x):
    return x + 1


def _twice():
    return _leaf(1) + _leaf(2)


def test_counted_sees_every_python_frame_and_repeats_exactly():
    first = cost.counted(_twice)
    assert first["calls"] == 3
    assert first["opcodes"] > 0
    assert cost.counted(_twice) == first
    # C code runs no traced frame
    assert cost.counted(lambda: sorted(range(100)))["calls"] == 1


def test_compare_names_changed_entries_and_totals_each_group():
    def run(carnot, scenario):
        return {"python": "3.11.7", "entries": {
            "verify/carnot": {"opcodes": carnot, "calls": 10},
            "000": {"opcodes": scenario, "calls": 4},
            "001": {"opcodes": 100, "calls": 4},
        }}

    lines = cost.compare(run(1000, 200), run(1000, 150))
    assert lines == [
        "000: opcodes 200 -> 150 (-25.00%), calls 4 -> 4 (+0.00%)",
        "1 of 3 entry points changed",
        "verify/carnot: opcodes 1000 -> 1000 (+0.00%), calls 10 -> 10 (+0.00%)",
        "scenarios: opcodes 300 -> 250 (-16.67%), calls 8 -> 8 (+0.00%)",
        "total: opcodes 1300 -> 1250 (-3.85%), calls 18 -> 18 (+0.00%)",
    ]


def test_compare_refuses_counts_of_two_interpreter_versions():
    base = {"python": "3.11.7", "entries": {}}
    with pytest.raises(SystemExit, match="do not compare"):
        cost.compare(base, {**base, "python": "3.12.1"})
