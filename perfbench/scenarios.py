"""Seeded scenario files for the ``scenario-files`` workload, and their checks.

``generate(seed)`` makes one version-1 scenario: two gases with random
constants, two reservoirs, and a script of ``entropy-table``, ``connect``,
``segments`` (with ``type3`` legs), ``polyline``, ``carnot``,
``max-entropy-report`` and ``concavity-report`` ops.  Every ``type3`` leg
takes its theta from the state the leg starts in, so it sits on its
isotherm, and every ``expect`` value comes from ``oracles``.

``check(scenario, exit_code, stdout, out_dir)`` compares what ``thermokernel
run`` printed and wrote with the same oracles and returns a list of problems
(empty when the run is correct).
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
import re

from oracles import IdealGas, carnot_heats, carnot_ratio, close, proportional_split

TABLE_N = 8            # entropy-table grid points per axis
POLY_SAMPLES = 32      # polyline samples (33 rows)
ME_DRAWS = 1           # max-entropy-report draws
CONC_SAMPLES = 10      # concavity-report pairs (30 checks)

# Tolerances on values read back from nine-digit output: 5e-9 rounding plus
# the engine's own quadrature error (quad_tol 1e-10, absolute).
RTOL = 1e-8
ATOL = 1e-8


def gas_of(spec: dict) -> IdealGas:
    p0, v0 = spec.get("sigma0", (1.0, 1.0))
    return IdealGas(
        n=spec.get("n", 1.0), R=spec.get("R", 1.0), gamma=spec.get("gamma", 5.0 / 3.0),
        p0=p0, V0=v0, U0=spec.get("U0", 0.0), S0=spec.get("S0", 0.0),
    )


def _state(rng: random.Random, lo: float = 0.5, hi: float = 2.0) -> list[float]:
    span = math.log(hi / lo)
    return [lo * math.exp(rng.random() * span), lo * math.exp(rng.random() * span)]


def _gas_spec(rng: random.Random, name: str) -> dict:
    return {
        "name": name, "kind": "gas",
        "n": rng.uniform(0.5, 2.0), "R": rng.uniform(0.8, 1.25),
        "gamma": rng.choice((5.0 / 3.0, 7.0 / 5.0)),
        "sigma0": [math.exp(rng.uniform(-0.3, 0.3)), math.exp(rng.uniform(-0.3, 0.3))],
        "U0": rng.uniform(-1.0, 1.0), "S0": rng.uniform(-1.0, 1.0),
    }


def _tol(value: float) -> float:
    return 1e-7 * max(1.0, abs(value))


def segment_legs(gas: IdealGas, start: list[float], legs: list[dict]):
    """Oracle walk over segment specs: (final state, total work on the gas)."""
    p, v = start
    work = 0.0
    for leg in legs:
        if leg["type"] == "type1":
            work += gas.friction_work(p, v, leg["p2"])
            p = leg["p2"]
        elif leg["type"] == "type2":
            work += gas.adiabat_work(p, v, leg["V2"])
            p, v = gas.adiabat_end(p, v, leg["V2"])
        else:
            work += gas.isotherm_work(leg["theta"], v, leg["V2"])
            p, v = gas.n * gas.R * leg["theta"] / leg["V2"], leg["V2"]
    return (p, v), work


def _random_legs(rng: random.Random, gas: IdealGas, start: list[float]) -> list[dict]:
    kinds = ["type1", "type2", "type3"] + [rng.choice(("type2", "type3"))]
    rng.shuffle(kinds)
    legs: list[dict] = []
    p, v = start
    for kind in kinds:
        if kind == "type1":
            leg = {"type": "type1", "p2": p * (1.0 + rng.uniform(0.1, 0.8))}
        elif kind == "type2":
            leg = {"type": "type2", "V2": v * math.exp(rng.uniform(-0.5, 0.5))}
        else:
            leg = {"type": "type3", "theta": gas.T(p, v),
                   "V2": v * math.exp(rng.uniform(-0.5, 0.5))}
        legs.append(leg)
        (p, v), _ = segment_legs(gas, [p, v], [leg])
    return legs


def generate(seed: int) -> dict:
    """One scenario, a pure function of ``seed``."""
    rng = random.Random(seed)
    g0, g1 = _gas_spec(rng, "g0"), _gas_spec(rng, "g1")
    gas0, gas1 = gas_of(g0), gas_of(g1)
    th_hot, th_cold = rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0)
    atoms = [
        g0, g1,
        {"name": "hot", "kind": "reservoir", "theta": th_hot},
        {"name": "cold", "kind": "reservoir", "theta": th_cold},
    ]
    p_lo, v_lo = rng.uniform(0.4, 0.9), rng.uniform(0.4, 0.9)
    table = {"op": "entropy-table", "gas": "g0",
             "p": [p_lo, p_lo * rng.uniform(2.0, 4.0), TABLE_N],
             "V": [v_lo, v_lo * rng.uniform(2.0, 4.0), TABLE_N],
             "save": "table.csv"}

    # From the higher adiabat invariant p V^gamma to the lower one: the other
    # orientation can report dU with the wrong sign (see CHANGES.md, FOUND).
    s1, s2 = sorted((_state(rng), _state(rng)),
                    key=lambda s: -s[0] * s[1] ** gas1.gamma)
    du = gas1.U(*s2) - gas1.U(*s1)
    connect = {"op": "connect", "gas": "g1", "from": s1, "to": s2,
               "expect": {"delta_u": du, "tol": _tol(du)}}

    start = _state(rng)
    legs = _random_legs(rng, gas0, start)
    _, w = segment_legs(gas0, start, legs)
    segments = {"op": "segments", "gas": "g0", "from": start, "segments": legs,
                "expect": {"w": w, "tol": _tol(w)}}

    p_start = _state(rng)
    if rng.random() < 0.5:
        seg = {"type": "type1", "from": p_start, "p2": p_start[0] * rng.uniform(1.2, 2.5)}
    else:
        seg = {"type": "type2", "from": p_start,
               "V2": p_start[1] * math.exp(rng.uniform(-0.7, 0.7))}
    polyline = {"op": "polyline", "gas": "g1", "segment": seg,
                "samples": POLY_SAMPLES, "save": "polyline.csv"}

    ratio = carnot_ratio(th_hot, th_cold)
    carnot = {"op": "carnot", "hot": "hot", "cold": "cold",
              "q_hot": -rng.uniform(0.5, 2.0), "volume_ratio": rng.uniform(1.5, 3.0),
              "expect": {"ratio": ratio, "tol": _tol(ratio)}, "save": "carnot.json"}

    script = [table, connect, segments, polyline, carnot,
              {"op": "max-entropy-report", "draws": ME_DRAWS, "save": "max_entropy.csv"},
              {"op": "concavity-report", "samples": CONC_SAMPLES, "save": "concavity.csv"}]
    return {"version": 1, "seed": rng.randrange(2**31), "atoms": atoms, "script": script}


# --- checks -------------------------------------------------------------------

NUMBER = r"([-+]?(?:\d+\.?\d*(?:[eE][-+]?\d+)?|nan|inf))"  # as printed, NaN included


def _rows(path: str) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _near(problems: list[str], label: str, got: float, want: float,
          rtol: float = RTOL, atol: float = ATOL) -> None:
    if not close(got, want, rtol, atol):
        problems.append(f"{label}: got {got!r}, oracle {want!r}")


def _near_state(problems, label, got, want) -> None:
    _near(problems, f"{label} p", got[0], want[0])
    _near(problems, f"{label} V", got[1], want[1])


def _line(problems: list[str], lines: list[str], pattern: str) -> list[float] | None:
    for text in lines:
        m = re.fullmatch(pattern, text)
        if m:
            return [float(x) for x in m.groups()]
    problems.append(f"no output line matches {pattern!r}")
    return None


def _check_table(problems, cmd, gas, lines, out_dir) -> None:
    rows = _rows(os.path.join(out_dir, cmd["save"]))
    (p_lo, p_hi, p_n), (v_lo, v_hi, v_n) = cmd["p"], cmd["V"]
    if len(rows) != p_n * v_n:
        problems.append(f"entropy-table: {len(rows)} rows, want {p_n * v_n}")
        return
    _line(problems, lines, rf"entropy-table {cmd['gas']}: {p_n * v_n} rows")
    for k, row in enumerate(rows):
        p = p_lo * (p_hi / p_lo) ** ((k // v_n) / (p_n - 1))
        v = v_lo * (v_hi / v_lo) ** ((k % v_n) / (v_n - 1))
        label = f"entropy-table row {k}"
        _near(problems, f"{label} p", float(row["p"]), p)
        _near(problems, f"{label} V", float(row["V"]), v)
        _near(problems, f"{label} U", float(row["U"]), gas.U(p, v))
        _near(problems, f"{label} S", float(row["S"]), gas.S(p, v))
        _near(problems, f"{label} T_gas", float(row["T_gas"]), gas.T(p, v))


def _check_connect(problems, cmd, gas, lines, out_dir) -> None:
    got = _line(problems, lines, rf"connect {cmd['gas']}: dU={NUMBER} \((?:forward|reversed)\)")
    if got:
        _near(problems, "connect dU", got[0], gas.U(*cmd["to"]) - gas.U(*cmd["from"]))


def _check_segments(problems, cmd, gas, lines, out_dir) -> None:
    got = _line(problems, lines, rf"segments {cmd['gas']}: W={NUMBER}")
    if got:
        _near(problems, "segments W", got[0], segment_legs(gas, cmd["from"], cmd["segments"])[1])


def _check_polyline(problems, cmd, gas, lines, out_dir) -> None:
    seg, n = cmd["segment"], cmd["samples"]
    rows = _rows(os.path.join(out_dir, cmd["save"]))
    _line(problems, lines, rf"polyline {cmd['gas']}: {n + 1} samples")
    if len(rows) != n + 1:
        problems.append(f"polyline: {len(rows)} rows, want {n + 1}")
        return
    p1, v1 = seg["from"]
    for i, row in enumerate(rows):
        lam = i / n
        if seg["type"] == "type1":
            p, v = p1 + lam * (seg["p2"] - p1), v1
            w = gas.friction_work(p1, v1, p)
        else:
            v = v1 * math.exp(lam * math.log(seg["V2"] / v1))
            p, _ = gas.adiabat_end(p1, v1, v)
            w = gas.adiabat_work(p1, v1, v)
        label = f"polyline row {i}"
        _near(problems, f"{label} lambda", float(row["lambda"]), lam)
        _near_state(problems, label, (float(row["p"]), float(row["V"])), (p, v))
        _near(problems, f"{label} W_cum", float(row["W_cum"]), w)
        _near(problems, f"{label} Q_cum", float(row["Q_cum"]), 0.0)


def _check_carnot(problems, cmd, thetas, lines, out_dir) -> None:
    th1, th2 = thetas[cmd["hot"]], thetas[cmd["cold"]]
    q1, q2, w = carnot_heats(th1, th2, cmd["q_hot"])
    ratio = carnot_ratio(th1, th2)
    got = _line(problems, lines, rf"carnot {cmd['hot']}/{cmd['cold']}: "
                rf"q1={NUMBER} q2={NUMBER} w={NUMBER} ratio={NUMBER}")
    if got:
        for label, g, want in zip(("q1", "q2", "w", "ratio"), got, (q1, q2, w, ratio)):
            _near(problems, f"carnot {label}", g, want)
    with open(os.path.join(out_dir, cmd["save"]), encoding="utf-8") as fh:
        run = json.load(fh)
    for key, want in (("theta1", th1), ("theta2", th2), ("q1", q1), ("q2", q2), ("w", w)):
        _near(problems, f"carnot.json {key}", run[key], want)
    if run["reversible"] is not True:
        problems.append("carnot.json: cycle not reversible")


def _check_max_entropy(problems, cmd, lines, out_dir) -> None:
    rows = _rows(os.path.join(out_dir, cmd["save"]))
    _line(problems, lines, rf"max-entropy-report: {cmd['draws']} rows")
    if len(rows) != cmd["draws"]:
        problems.append(f"max-entropy-report: {len(rows)} rows, want {cmd['draws']}")
    base = IdealGas()
    for i, row in enumerate(rows):
        lam, U, V = float(row["lambda"]), float(row["U"]), float(row["V"])
        u1, v1 = proportional_split(lam, U, V)
        span = max(abs(U), V)
        _near(problems, f"max-entropy row {i} U1", float(row["U1"]), u1, 0.0, 1e-6 * span)
        _near(problems, f"max-entropy row {i} V1", float(row["V1"]), v1, 0.0, 1e-6 * span)
        s = base.S_uv(U, V)
        _near(problems, f"max-entropy row {i} S_max", float(row["S_max"]), s)
        _near(problems, f"max-entropy row {i} S_unconstrained",
              float(row["S_unconstrained"]), s)


def _check_concavity(problems, cmd, lines, out_dir) -> None:
    rows = _rows(os.path.join(out_dir, cmd["save"]))
    want = 3 * cmd["samples"]
    _line(problems, lines, rf"concavity-report: checked={want} violations=0")
    if len(rows) != 1:
        problems.append(f"concavity-report: {len(rows)} rows, want 1")
        return
    row = rows[0]
    if float(row["checked"]) != want or float(row["violations"]) != 0:
        problems.append(f"concavity-report: {row}")
    slack = float(row["min_slack"])
    if not (math.isfinite(slack) and slack >= -1e-10):
        problems.append(f"concavity-report: min_slack={slack!r}")


def check(scenario: dict, exit_code: int, stdout: str, out_dir: str) -> list[str]:
    """Problems with one ``thermokernel run`` of ``scenario``; empty when correct."""
    if exit_code != 0:
        return [f"exit code {exit_code}: {stdout.strip()[-300:]}"]
    lines = stdout.splitlines()
    for text in lines:
        if re.search(r"\b(nan|inf)\b", text):
            return [f"non-finite value printed: {text!r}"]
    gases = {a["name"]: gas_of(a) for a in scenario["atoms"] if a["kind"] == "gas"}
    thetas = {a["name"]: a["theta"] for a in scenario["atoms"] if a["kind"] == "reservoir"}
    problems: list[str] = []
    for cmd in scenario["script"]:
        op = cmd["op"]
        try:
            if op == "entropy-table":
                _check_table(problems, cmd, gases[cmd["gas"]], lines, out_dir)
            elif op == "connect":
                _check_connect(problems, cmd, gases[cmd["gas"]], lines, out_dir)
            elif op == "segments":
                _check_segments(problems, cmd, gases[cmd["gas"]], lines, out_dir)
            elif op == "polyline":
                _check_polyline(problems, cmd, gases[cmd["gas"]], lines, out_dir)
            elif op == "carnot":
                _check_carnot(problems, cmd, thetas, lines, out_dir)
            elif op == "max-entropy-report":
                _check_max_entropy(problems, cmd, lines, out_dir)
            elif op == "concavity-report":
                _check_concavity(problems, cmd, lines, out_dir)
            else:
                problems.append(f"no check for op {op!r}")
        except (OSError, KeyError, ValueError, TypeError) as exc:
            problems.append(f"{op}: cannot read its output: {exc!r}")
    want_written = {os.path.join(out_dir, c["save"]) for c in scenario["script"] if "save" in c}
    written = {t[len("wrote "):] for t in lines if t.startswith("wrote ")}
    if written != want_written:
        problems.append(f"artifacts {sorted(written)} != {sorted(want_written)}")
    return problems
