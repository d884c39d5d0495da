"""Generated scenarios validate, sit on their isotherms, and are checked."""

import contextlib
import io
import json

import pytest

import scenarios
from thermokernel import cli
from thermokernel.scenario import Scenario


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_generated_scenarios_validate(seed):
    sc = scenarios.generate(seed)
    assert sc == scenarios.generate(seed)
    Scenario.parse(json.dumps(sc)).validate()
    ops = [cmd["op"] for cmd in sc["script"]]
    assert set(ops) == {"entropy-table", "connect", "segments", "polyline", "carnot",
                        "max-entropy-report", "concavity-report"}


@pytest.mark.parametrize("seed", range(20))
def test_type3_legs_start_on_their_isotherm(seed):
    sc = scenarios.generate(seed)
    (seg,) = [c for c in sc["script"] if c["op"] == "segments"]
    gas = scenarios.gas_of(next(a for a in sc["atoms"] if a["name"] == seg["gas"]))
    state = seg["from"]
    assert any(leg["type"] == "type3" for leg in seg["segments"])
    for leg in seg["segments"]:
        if leg["type"] == "type3":
            c = gas.n * gas.R * leg["theta"]
            assert abs(state[0] * state[1] - c) <= 1e-12 * c
        state, _ = scenarios.segment_legs(gas, state, [leg])


def test_expect_values_come_from_the_oracles():
    sc = scenarios.generate(7)
    by_op = {c["op"]: c for c in sc["script"]}
    gases = {a["name"]: scenarios.gas_of(a) for a in sc["atoms"] if a["kind"] == "gas"}
    conn = by_op["connect"]
    g1 = gases[conn["gas"]]
    assert conn["expect"]["delta_u"] == g1.U(*conn["to"]) - g1.U(*conn["from"])
    seg = by_op["segments"]
    assert seg["expect"]["w"] == scenarios.segment_legs(gases["g0"], seg["from"], seg["segments"])[1]
    thetas = {a["name"]: a.get("theta") for a in sc["atoms"]}
    assert by_op["carnot"]["expect"]["ratio"] == thetas["hot"] / thetas["cold"]


def _run(sc, tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(sc))
    out = tmp_path / "out"
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["run", str(path), "--out", str(out)])
    return code, buf.getvalue(), str(out)


def test_a_correct_run_has_no_problems(tmp_path):
    sc = scenarios.generate(11)
    code, stdout, out = _run(sc, tmp_path)
    assert scenarios.check(sc, code, stdout, out) == []


def test_check_finds_a_wrong_artifact_and_a_nan(tmp_path):
    sc = scenarios.generate(12)
    code, stdout, out = _run(sc, tmp_path)
    table = tmp_path / "out" / "table.csv"
    rows = table.read_text().splitlines()
    p, v, u, s, t = rows[3].split(",")
    rows[3] = ",".join((p, v, repr(float(u) * (1 + 1e-6)), s, t))
    table.write_text("\n".join(rows) + "\n")
    problems = scenarios.check(sc, code, stdout, out)
    assert len(problems) == 1 and "entropy-table row 2 U" in problems[0]
    assert scenarios.check(sc, 0, stdout.replace("ratio=", "ratio=nan ", 1), out)
    assert scenarios.check(sc, 1, stdout, out)
