import contextlib
import copy
import io
import json
import math
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermokernel.cli import main
from thermokernel.scenario import Scenario, fmt, run_scenario
from thermokernel.errors import ValidationError

GOOD = {
    "version": 1,
    "seed": 42,
    "atoms": [
        {"name": "g", "kind": "gas"},
        {"name": "hot", "kind": "reservoir", "theta": 2.0},
        {"name": "cold", "kind": "reservoir", "theta": 1.0},
    ],
    "script": [
        {
            "op": "carnot",
            "hot": "hot",
            "cold": "cold",
            "q_hot": -2.0,
            "expect": {"ratio": 2.0, "tol": 1e-6},
            "save": "carnot.json",
        },
        {
            "op": "connect",
            "gas": "g",
            "from": [1, 1],
            "to": [2, 3],
            "expect": {"delta_u": 7.5, "tol": 1e-6},
        },
        {
            "op": "entropy-table",
            "gas": "g",
            "p": [0.5, 2.0, 3],
            "V": [0.5, 2.0, 3],
            "save": "table.csv",
        },
    ],
}


def write_scenario(tmp_path, payload, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_carnot_scenario_passes(tmp_path):
    path = write_scenario(tmp_path, GOOD)
    result = run_scenario(path, out_dir=str(tmp_path / "out"))
    assert result.exit_code == 0
    blob = json.loads((tmp_path / "out" / "carnot.json").read_text())
    assert blob["q1"] == pytest.approx(-2.0, abs=1e-9)
    table = (tmp_path / "out" / "table.csv").read_text().splitlines()
    assert table[0] == "p,V,U,S,T_gas"
    assert len(table) == 10


def test_malformed_file_exits_2(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{ not json")
    assert run_scenario(str(path)).exit_code == 2


def test_integer_too_long_to_read_exits_2(tmp_path):
    # valid JSON, but Python reads no integer of more than 4300 digits
    path = tmp_path / "huge.json"
    path.write_text('{"version": 1, "seed": 1' + "0" * 5000 + "}")
    assert run_scenario(str(path)).exit_code == 2


def test_missing_file_exits_2(tmp_path):
    assert run_scenario(str(tmp_path / "absent.json")).exit_code == 2


def test_unknown_atom_exits_3(tmp_path):
    bad = dict(GOOD, script=[{"op": "connect", "gas": "nope", "from": [1, 1], "to": [2, 2]}])
    path = write_scenario(tmp_path, bad)
    assert run_scenario(path).exit_code == 3


def test_unknown_op_exits_3(tmp_path):
    bad = dict(GOOD, script=[{"op": "frobnicate"}])
    path = write_scenario(tmp_path, bad)
    assert run_scenario(path).exit_code == 3


def test_bad_version_exits_3(tmp_path):
    bad = dict(GOOD, version=99)
    path = write_scenario(tmp_path, bad)
    assert run_scenario(path).exit_code == 3


def test_failed_assertion_exits_1(tmp_path):
    bad = json.loads(json.dumps(GOOD))
    bad["script"][0]["expect"]["ratio"] = 3.0
    path = write_scenario(tmp_path, bad)
    result = run_scenario(path)
    assert result.exit_code == 1
    assert any("ASSERTION FAILED" in m for m in result.messages)


def test_determinism_byte_identical(tmp_path):
    path = write_scenario(tmp_path, GOOD)
    run_scenario(path, out_dir=str(tmp_path / "a"), seed=7)
    run_scenario(path, out_dir=str(tmp_path / "b"), seed=7)
    for name in ("carnot.json", "table.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_connect_and_segments_artifacts_do_not_depend_on_earlier_runs(tmp_path, capsys):
    payload = dict(GOOD, script=[
        {"op": "connect", "gas": "g", "from": [1, 1], "to": [2, 3], "save": "connect.json"},
        {"op": "segments", "gas": "g", "from": [1, 1], "save": "segments.json",
         "segments": [{"type": "type2", "V2": 2.0}, {"type": "type1", "p2": 3.0},
                      {"type": "type3", "theta": 6.0, "V2": 1.0}]},
    ])
    path = write_scenario(tmp_path, payload)
    for out in ("a", "b"):
        assert main(["run", path, "--out", str(tmp_path / out)]) == 0
    for name in ("connect.json", "segments.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_segments_and_polyline_ops(tmp_path):
    payload = {
        "version": 1,
        "atoms": [{"name": "g", "kind": "gas"}],
        "script": [
            {
                "op": "segments",
                "gas": "g",
                "from": [1, 1],
                "segments": [{"type": "type2", "V2": 2.0}, {"type": "type1", "p2": 1.0}],
                "save": "segs.json",
            },
            {
                "op": "polyline",
                "gas": "g",
                "segment": {"type": "type2", "from": [1, 1], "V2": 2.0},
                "samples": 4,
                "save": "poly.csv",
            },
        ],
    }
    path = write_scenario(tmp_path, payload)
    result = run_scenario(path, out_dir=str(tmp_path / "out"))
    assert result.exit_code == 0
    poly = (tmp_path / "out" / "poly.csv").read_text().splitlines()
    assert poly[0] == "lambda,p,V,W_cum,Q_cum"
    assert len(poly) == 6


def test_verify_op_runs_suite(tmp_path):
    payload = {
        "version": 1,
        "atoms": [],
        "script": [{"op": "verify", "suite": "clausius", "cycles": 10}],
    }
    path = write_scenario(tmp_path, payload)
    result = run_scenario(path, out_dir=str(tmp_path / "out"))
    assert result.exit_code == 0
    assert any("clausius" in m for m in result.messages)


def test_expect_on_nan_fails(tmp_path):
    zero_heat = {
        "version": 1,
        "atoms": [
            {"name": "hot", "kind": "reservoir", "theta": 2.0},
            {"name": "cold", "kind": "reservoir", "theta": 1.0},
        ],
        "script": [
            {"op": "carnot", "hot": "hot", "cold": "cold", "q_hot": 0,
             "expect": {"ratio": 2.0, "tol": 1e-6}}
        ],
    }
    result = run_scenario(write_scenario(tmp_path, zero_heat))
    assert result.exit_code == 1
    assert "ratio=nan" in result.messages[0]


def test_connect_reports_forward_from_lower_invariant(tmp_path):
    payload = {
        "version": 1,
        "atoms": [{"name": "g", "kind": "gas"}],
        "script": [
            {"op": "connect", "gas": "g", "from": [0.7, 1.3], "to": [1.1, 1.9],
             "expect": {"delta_u": 1.77, "tol": 1e-6}}
        ],
    }
    result = run_scenario(write_scenario(tmp_path, payload))
    assert result.exit_code == 0
    assert result.messages == ["connect g: dU=1.77 (forward)"]


GAS = {"name": "g", "kind": "gas"}
HOT = {"name": "hot", "kind": "reservoir", "theta": 2.0}
CARNOT = {"op": "carnot", "hot": "hot", "cold": "hot"}
CONNECT = {"op": "connect", "gas": "g", "from": [1, 1], "to": [2, 3]}
SEGMENTS = {"op": "segments", "gas": "g", "from": [1.0, 1.0]}
POLYLINE = {"op": "polyline", "gas": "g", "save": "poly.csv",
            "segment": {"type": "type2", "from": [1, 1], "V2": 2.0}}


@pytest.mark.parametrize(
    "atoms, cmd",
    [
        pytest.param([{"name": "hot", "kind": "reservoir"}], CARNOT, id="no-theta"),
        pytest.param([dict(HOT, theta="x")], CARNOT, id="theta-text"),
        pytest.param([dict(HOT, theta=-1)], CARNOT, id="theta-negative"),
        pytest.param([GAS], {"op": "entropy-table", "gas": "g"}, id="table-no-save"),
        pytest.param([GAS], dict(POLYLINE, samples=0), id="samples-0"),
        pytest.param([GAS], dict(CONNECT, **{"from": [-1, 1]}), id="state-off-domain"),
        pytest.param([GAS], dict(CONNECT, **{"from": [1e300, 1e300]}), id="overflow"),
        pytest.param([GAS], {k: v for k, v in CONNECT.items() if k != "to"}, id="connect-no-to"),
        pytest.param([GAS], dict(SEGMENTS, segments=[{"type": "type9", "V2": 2.0}]), id="type9"),
        pytest.param([HOT], CARNOT, id="hot-is-cold"),
        pytest.param([], {"op": "verify", "suite": "clausius", "cycles": "x"}, id="cycles-text"),
        pytest.param([HOT, dict(HOT, name="cold", theta=1.0)],
                     dict(CARNOT, cold="cold", expect={"ratio": "abc"}), id="expect-text"),
        pytest.param([GAS], dict(SEGMENTS, segments=[{"type": "type3", "theta": 2.0, "V2": 2.0}]),
                     id="off-isotherm"),
        pytest.param([GAS], dict(POLYLINE, segment={"type": "type1", "from": [2, 1], "p2": 1}),
                     id="pressure-drop"),
        pytest.param([dict(GAS, S0=math.inf)], {"op": "entropy-table", "gas": "g", "save": "t.csv"},
                     id="S0-inf"),
        pytest.param([dict(GAS, U0=math.nan)], {"op": "entropy-table", "gas": "g", "save": "t.csv"},
                     id="U0-nan"),
        pytest.param([dict(GAS, n=math.inf)], CONNECT, id="n-inf"),
        pytest.param([dict(HOT, theta=math.inf)], CARNOT, id="theta-inf"),
    ],
)
def test_bad_scenario_exits_3_without_traceback(tmp_path, capsys, atoms, cmd):
    path = write_scenario(tmp_path, {"version": 1, "atoms": atoms, "script": [cmd]})
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 3
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 1 and "Traceback" not in out


@pytest.mark.parametrize(
    "atoms, cmd, named",
    [
        pytest.param([GAS], dict(CONNECT, **{"from": [10**400, 1]}),
                     "op 'connect': 'from' must be", id="from"),
        pytest.param([dict(GAS, n=10**400)], CONNECT, "atom 'g': 'n' must be", id="n"),
        pytest.param([GAS], dict(SEGMENTS, segments=[{"type": "type1", "p2": -10**400}]),
                     "op 'segments': 'segments' must be", id="p2"),
    ],
)
def test_integer_past_float_range_fails_validation(tmp_path, capsys, atoms, cmd, named):
    # a 400-digit JSON integer is valid JSON but no float holds it
    path = write_scenario(tmp_path, {"version": 1, "atoms": atoms, "script": [cmd]})
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 3
    (line,) = capsys.readouterr().out.splitlines()
    assert line.startswith(named)


@pytest.mark.parametrize(
    "cmd, named",
    [
        pytest.param(dict(POLYLINE, segment={"type": "type1", "from": [1, 1], "p2": math.inf}),
                     "DomainError: type1 leg: target p2=inf is not finite", id="p2-inf"),
        pytest.param(dict(SEGMENTS, segments=[{"type": "type2", "V2": math.nan}]),
                     "DomainError: type2 leg: target V2=nan is not finite", id="V2-nan"),
        pytest.param(dict(SEGMENTS, segments=[{"type": "type3", "theta": 1.0, "V2": math.inf}]),
                     "DomainError: type3 leg: target V2=inf is not finite", id="type3-V2-inf"),
        pytest.param(dict(CONNECT, **{"from": [math.inf, 1]}),
                     "DomainError: gas state (inf, 1.0) is not finite", id="from-inf"),
    ],
)
def test_non_finite_input_is_named_where_it_enters(tmp_path, capsys, cmd, named):
    path = write_scenario(tmp_path, {"version": 1, "atoms": [GAS], "script": [cmd]})
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().out.splitlines() == [f"ENGINE ERROR: {named}"]


@pytest.mark.parametrize(
    "save, code",
    [
        pytest.param("ABSOLUTE", 3, id="absolute"),
        pytest.param("../escaped.csv", 3, id="dotdot"),
        pytest.param("sub/x.csv", 0, id="nested"),
    ],
)
def test_save_stays_inside_out(tmp_path, capsys, save, code):
    if save == "ABSOLUTE":
        save = str(tmp_path / "escaped.csv")
    cmd = {"op": "entropy-table", "gas": "g", "save": save}
    path = write_scenario(tmp_path, {"version": 1, "atoms": [GAS], "script": [cmd]})
    assert main(["run", path, "--out", str(tmp_path / "out")]) == code
    out = capsys.readouterr().out
    assert "Traceback" not in out
    outside = [p for p in tmp_path.rglob("*")
               if p != tmp_path / "scenario.json" and tmp_path / "out" not in (p, *p.parents)]
    assert outside == []
    if code == 0:
        assert (tmp_path / "out" / "sub" / "x.csv").is_file()


@pytest.mark.parametrize("out", [None, "same", "symlinked-out", "hard-link"])
def test_save_may_not_overwrite_the_scenario(tmp_path, capsys, out):
    save = "alias.json" if out == "hard-link" else "scenario.json"
    cmd = {"op": "entropy-table", "gas": "g", "save": save}
    path = write_scenario(tmp_path, {"version": 1, "atoms": [GAS], "script": [cmd]})
    before = (tmp_path / "scenario.json").read_bytes()
    argv = ["run", path]
    if out == "same":
        argv += ["--out", str(tmp_path)]
    elif out == "symlinked-out":
        (tmp_path / "link").symlink_to(tmp_path, target_is_directory=True)
        argv += ["--out", str(tmp_path / "link")]
    elif out == "hard-link":
        (tmp_path / "alias.json").hardlink_to(tmp_path / "scenario.json")
    assert main(argv) == 3
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and "would overwrite the scenario file" in lines[0]
    assert (tmp_path / "scenario.json").read_bytes() == before


def test_failed_write_exits_2(tmp_path, capsys):
    table = {"op": "entropy-table", "gas": "g", "p": [0.5, 2.0, 2], "V": [0.5, 2.0, 2]}
    script = [dict(table, save="a.json"), dict(table, save="a.json/b.json")]
    path = write_scenario(tmp_path, {"version": 1, "atoms": [GAS], "script": script})
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2].startswith(f"cannot write {tmp_path / 'out' / 'a.json' / 'b.json'}: ")
    assert lines[-1] == f"wrote {tmp_path / 'out' / 'a.json'}"


def test_entropy_table_just_off_a_small_reference_adiabat(tmp_path):
    """A state 1e-5 off the adiabat of a reference with invariant 1e-8 has its own U."""
    scenario = {
        "version": 1,
        "atoms": [{"name": "g", "kind": "gas", "sigma0": [0.001, 0.001]}],
        "script": [{"op": "entropy-table", "gas": "g", "p": [0.001, 0.00100001, 2],
                    "V": [0.001, 0.001, 1], "save": "t.csv"}],
    }
    result = run_scenario(write_scenario(tmp_path, scenario), out_dir=str(tmp_path / "out"))
    assert result.exit_code == 0
    rows = (tmp_path / "out" / "t.csv").read_text().splitlines()
    assert rows[2].split(",")[:3] == ["0.00100001", "0.001", "1.500015e-06"]

def test_scenario_parse_validates_types():
    with pytest.raises(ValidationError):
        Scenario.parse(json.dumps({"version": 1, "atoms": {}, "script": []})).validate()


def test_fmt_nine_significant_digits():
    assert fmt(math_pi := 3.14159265358979) == "3.14159265"
    assert fmt(2.0) == "2"


class TestCli:
    def test_run_exit_code(self, tmp_path, capsys):
        path = write_scenario(tmp_path, GOOD)
        code = main(["run", path, "--out", str(tmp_path / "out")])
        assert code == 0
        out = capsys.readouterr().out
        assert "carnot" in out and "wrote" in out

    def test_verify_suite(self, capsys):
        code = main(["verify", "scaling", "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "[scaling]" in out and "PASS" in out

    def test_verify_all_matches_the_committed_golden_output(self, capsys):
        """The suite verdicts and their numbers must not change unnoticed."""
        golden = Path(__file__).parent / "data" / "verify_all_seed42.txt"
        assert main(["verify", "all", "--seed", "42"]) == 0
        assert capsys.readouterr().out == golden.read_text(encoding="utf-8")

    def test_run_all_ops_matches_the_committed_golden_output(self, tmp_path, capsys):
        """Every op once: stdout and every saved artifact must not change unnoticed.

        ``connect`` saves nothing here, since its full-precision footprint
        may move by rounding while its printed ``dU`` may not.
        """
        data = Path(__file__).parent / "data"
        golden = data / "run_all_ops"
        out = tmp_path / "out"
        assert main(["run", str(data / "run_all_ops.json"), "--out", str(out)]) == 0
        stdout = capsys.readouterr().out.replace(str(out), "<out>")
        assert stdout == (golden / "stdout.txt").read_text(encoding="utf-8")
        names = sorted(p.name for p in golden.iterdir() if p.name != "stdout.txt")
        assert sorted(os.listdir(out)) == names
        for name in names:
            assert (out / name).read_bytes() == (golden / name).read_bytes(), name

    def test_unknown_selector_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "nonsense"])
        assert exc.value.code == 2


# --- fuzzed scenarios -----------------------------------------------------------

# What a mutation may put in place of a value: non-finite, huge, zero and
# negative numbers, other types, and references to missing or wrong-kind atoms.
MUTANT_VALUES = [math.nan, math.inf, -math.inf, 1e308, -1e308, 0, 0.0, -1, -0.5, 7,
                 "x", "nope", "g", "hot", None, True, [], {}, [1, 1], [0.5, 2.0, 3]]
# Optional keys a mutation may add to an object, with one of those values.
MUTANT_KEYS = ["n", "R", "gamma", "U0", "S0", "sigma0", "energy", "q_hot", "volume_ratio"]
# The op lines of the GOOD script and the artifact lines; any other line is a failure.
PROGRESS = ("carnot ", "connect ", "entropy-table ", "wrote ")


def _value_paths(tree, prefix=()):
    """The key paths of every value below the root of a JSON tree."""
    if isinstance(tree, dict):
        items = tree.items()
    elif isinstance(tree, list):
        items = enumerate(tree)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from _value_paths(value, prefix + (key,))


def _at(tree, path):
    for key in path:
        tree = tree[key]
    return tree


@st.composite
def mutated_scenarios(draw):
    """GOOD with one to three values dropped, replaced or added."""
    tree = copy.deepcopy(GOOD)
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_value_paths(tree))
        how = draw(st.sampled_from(["drop", "replace", "add"]))
        if how == "add":
            objects = [p for p in [(), *paths] if isinstance(_at(tree, p), dict)]
            owner, key = _at(tree, draw(st.sampled_from(objects))), draw(
                st.sampled_from(MUTANT_KEYS))
        elif paths:
            *parents, key = draw(st.sampled_from(paths))
            owner = _at(tree, parents)
        else:
            break
        if how == "drop":
            del owner[key]
        else:
            owner[key] = copy.deepcopy(draw(st.sampled_from(MUTANT_VALUES)))
    return tree


def _run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(mutated_scenarios())
def test_mutated_scenarios_exit_cleanly_and_repeatably(scenario):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scenario.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(scenario, fh)
        argv = ["run", path, "--out", os.path.join(tmp, "out")]
        code, out = _run_cli(argv)
        assert code in (0, 1, 2, 3)
        assert _run_cli(argv) == (code, out)
    if code in (2, 3):
        failures = [line for line in out.splitlines() if not line.startswith(PROGRESS)]
        assert len(failures) == 1, out
