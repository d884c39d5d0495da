"""Self time on nested spans, the hooks, and import-time parsing."""

import json
import sys
import types

import pytest

import spans
from run import import_times


def test_self_time_of_nested_spans():
    # root [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 7]; d [11, 12] is a second root
    names = ["root", "a", "b", "c"]
    name = [0, 1, 2, 3, 0]
    start = [0.0, 1.0, 5.0, 6.0, 11.0]
    end = [10.0, 4.0, 9.0, 7.0, 12.0]
    parent = [-1, 0, 0, 2, -1]
    totals = spans.span_totals(names, name, start, end, parent)
    assert totals["root"] == {"calls": 2, "ms": pytest.approx(11e3), "self_ms": pytest.approx(4e3)}
    assert totals["a"]["self_ms"] == pytest.approx(3e3)
    assert totals["b"] == {"calls": 1, "ms": pytest.approx(4e3), "self_ms": pytest.approx(3e3)}
    assert totals["c"]["self_ms"] == pytest.approx(1e3)


def test_tracer_folds_each_item_and_keeps_the_first_ones(tmp_path, monkeypatch):
    monkeypatch.setattr(spans, "KEEP_ITEMS", 1)
    t = spans.Tracer()
    inner = t.span("inner", lambda x: x + 1)
    outer = t.span("outer", lambda x: inner(inner(x)))
    for item in range(2):
        t.item_id = item
        assert outer(1) == 3
        t.fold()
    assert t.totals["outer"]["calls"] == 2 and t.totals["inner"]["calls"] == 4
    row = t.totals["outer"]
    assert 0 <= row["self_ms"] <= row["ms"]
    assert len(t.name) == 0
    t.dump(str(tmp_path / "trace.json"))
    dumped = json.loads((tmp_path / "trace.json").read_text())
    (kept,) = dumped["items"]
    assert kept["item"] == 0
    assert [dumped["names"][s[0]] for s in kept["spans"]] == ["outer", "inner", "inner"]
    assert [s[3] for s in kept["spans"]] == [-1, 0, 0]


@pytest.fixture
def fake_module():
    mod = types.ModuleType("thermokernel._spans_test")

    def f(x):
        return 2 * x

    mod.f = f
    mod.alias = f
    mod.table = {"k": f}
    sys.modules[mod.__name__] = mod
    yield mod
    del sys.modules[mod.__name__]


def test_hooks_replace_every_reference_and_undo(fake_module):
    t = spans.Tracer()
    hooks = spans.Hooks()
    orig = fake_module.f
    hooks.wrap("thermokernel._spans_test:f", lambda fn: t.span("f", fn))
    hooks.wrap("thermokernel._spans_test:gone", lambda fn: fn)
    hooks.wrap("thermokernel._no_such_module:f", lambda fn: fn)
    assert hooks.missing == ["thermokernel._spans_test:gone", "thermokernel._no_such_module:f"]
    assert fake_module.f(1) + fake_module.alias(1) + fake_module.table["k"](1) == 6
    t.fold()
    assert t.totals["f"]["calls"] == 3
    hooks.uninstall()
    assert fake_module.f is orig and fake_module.alias is orig and fake_module.table["k"] is orig


def test_install_finds_every_hook_in_thermokernel():
    import thermokernel.processes as processes
    import thermokernel.quasistatic as quasistatic

    before = processes.concatenate
    t = spans.Tracer()
    hooks = spans.install(t)
    try:
        assert hooks.missing == []
        assert quasistatic.make_process is processes.make_process
        assert processes.concatenate is not before
    finally:
        hooks.uninstall()
    assert processes.concatenate is before


def test_import_times_counts_each_package_once():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.core",
        "import time:       200 |        300 |   numpy",
        "import time:        50 |         50 |       numpy.linalg",
        "import time:       400 |        450 |     scipy.optimize",
        "import time:        10 |        460 |   scipy",
        "import time:        40 |        800 | thermokernel",
    ])
    # numpy and scipy are both children of thermokernel; numpy.linalg counts
    # under scipy, which imported it.
    assert import_times(stderr) == {"thermokernel": 0.8, "scipy": 0.46, "numpy": 0.3}
