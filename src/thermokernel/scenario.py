"""Declarative scenario runner: JSON in, CSV/JSON reports out.

A scenario declares a world (atoms with their model parameters) and an
ordered script of commands over those atoms, run one after another.
Commands may embed assertions (``expect`` blocks) and request artifacts
(``save``), each a relative path inside the output directory.  Numeric CSV
output is fixed at nine significant digits and, together with the seeded
suites, is byte-identical across runs of the same scenario and seed.

``ATOM_KINDS`` and ``OPS`` are the schema.  ``Scenario.validate`` checks a
file against them before anything runs; each op ``name`` runs as
``_Runner.op_<name>`` with dashes as underscores.

Exit codes: 0 all assertions pass; 1 an assertion failed, a NaN included;
2 the file cannot be read or parsed, or an artifact cannot be written; 3 the
scenario is invalid (an absolute ``save``, one with a ``..`` part, or one
that would overwrite the scenario file included), or the engine rejected
it: a ``ThermoError``, a model's ``ValueError``, or float arithmetic that
overflowed.
"""

from __future__ import annotations

import inspect
import json
import math
import os
import random
from dataclasses import dataclass, field
from pathlib import PurePath
from typing import Any, Callable

from .carnot import build_carnot
from .energy import EnergyLedger, internal_energy
from .entropy import EntropyLedger, entropy
from .errors import (
    ArtifactWriteError, ParseError, ScenarioAssertionFailed, ThermoError, ValidationError,
)
from .gas import (
    SEGMENT_KINDS, GasAtom, GasModel, GasState, add_ideal_gas, connect, connect_forward, gas_T,
    run_segments, segment_family,
)
from .processes import AtomState, joint, work_of
from .reservoirs import Reservoir, add_reservoir
from .scaling import UVState, check_concavity, entropy_uv, max_entropy_split
from .suites import SUITES
from .systems import World

SCENARIO_VERSION = 1


def fmt(x: float) -> str:
    """Nine significant digits, the fixed numeric CSV format."""
    return f"{x:.9g}"


def _csv_row(*values: float) -> str:
    return ",".join(fmt(x) for x in values)


# --- schema -------------------------------------------------------------------

def _number(v: Any) -> bool:
    """A JSON number that a float can hold: an int past about 1.8e308 is not one."""
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        return False
    try:
        float(v)
    except OverflowError:
        return False
    return True


def _count(v: Any) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and v >= 1


def _state(v: Any) -> bool:
    return isinstance(v, list) and len(v) == 2 and all(map(_number, v))


def _grid(v: Any) -> bool:
    return isinstance(v, list) and len(v) == 3 and _state(v[:2]) and min(v[:2]) > 0 and _count(v[2])


def _save_path(v: Any) -> bool:
    """A non-empty relative path with no ``..`` part: it stays inside ``--out``."""
    path = PurePath(v) if isinstance(v, str) and v else None
    return path is not None and not path.anchor and ".." not in path.parts


def _segment(v: Any, gas_only: bool = False) -> bool:
    if not isinstance(v, dict) or not isinstance(v.get("type"), str):
        return False
    kind = SEGMENT_KINDS.get(v["type"])
    ok_kind = kind is not None and (kind.gas_only or not gas_only)
    return ok_kind and all(_number(v.get(k)) for k in kind.keys)


# A key type: what an error message calls it, and its test.
_Key = tuple[str, Callable[[Any], bool]]

NUMBER: _Key = ("a number", _number)
COUNT: _Key = ("an integer >= 1", _count)
SAVE: _Key = ("a relative path inside --out, without '..'", _save_path)
STATE: _Key = ("a [p, V] pair of numbers", _state)
GRID: _Key = ("[lo, hi, count] with lo, hi > 0", _grid)
EXPECT: _Key = (
    "an object of numbers", lambda v: isinstance(v, dict) and all(map(_number, v.values()))
)
SEGMENTS: _Key = (
    f"a list of segments of type {', '.join(SEGMENT_KINDS)} with their numeric keys",
    lambda v: isinstance(v, list) and all(map(_segment, v)),
)
GAS_SEGMENT: _Key = (
    f"a segment of type {', '.join(k for k, s in SEGMENT_KINDS.items() if s.gas_only)} "
    "with its numeric keys and a [p, V] 'from'",
    lambda v: _segment(v, gas_only=True) and _state(v.get("from")),
)
SUITE: _Key = (f"one of {', '.join(SUITES)}", lambda v: isinstance(v, str) and v in SUITES)


@dataclass(frozen=True)
class _Schema:
    """The keys of one atom kind or script op, with their types.

    ``refs`` maps each key that names an atom to the kind that atom must
    have.  Keys the schema does not name are ignored, unless ``sizes`` is
    set: it lists the count keys a command may add (a ``verify`` suite's
    sizes), and any other key is refused.
    """

    required: dict[str, _Key] = field(default_factory=dict)
    optional: dict[str, _Key] = field(default_factory=dict)
    refs: dict[str, str] = field(default_factory=dict)
    sizes: Callable[[dict], list[str]] | None = None

    def check(self, where: str, obj: dict, kinds: dict[str, str]) -> None:
        for key, kind in self.refs.items():
            ref = obj.get(key)
            if not isinstance(ref, str) or ref not in kinds:
                raise ValidationError(f"{where} references unknown atom {ref!r}")
            if kinds[ref] != kind:
                raise ValidationError(f"{where}: {key!r} must name a {kind} atom, not {ref!r}")
        for key in self.required:
            if key not in obj:
                raise ValidationError(f"{where} is missing key {key!r}")
        keys = {**self.required, **self.optional}
        _check_types(where, obj, keys)
        if self.sizes is not None:
            sizes = dict.fromkeys(self.sizes(obj), COUNT)
            for key in obj.keys() - keys.keys() - sizes.keys() - {"op"}:
                raise ValidationError(f"{where} takes no key {key!r}")
            _check_types(where, obj, sizes)


def _check_types(where: str, obj: dict, keys: dict[str, _Key]) -> None:
    for key, (kind, ok) in keys.items():
        if key in obj and not ok(obj[key]):
            raise ValidationError(f"{where}: {key!r} must be {kind}, got {obj[key]!r}")


def _gas_state(values) -> GasState:
    return GasState(float(values[0]), float(values[1]))


_GAS_NUMBERS = ("n", "R", "gamma", "U0", "S0")


def _add_gas(world: World, spec: dict) -> GasAtom:
    """A gas atom; keys the spec leaves out take the ``GasModel`` defaults."""
    model = {k: float(spec[k]) for k in _GAS_NUMBERS if k in spec}
    if "sigma0" in spec:
        model["sigma0"] = _gas_state(spec["sigma0"])
    return add_ideal_gas(world, GasModel(**model))


def _add_reservoir(world: World, spec: dict) -> Reservoir:
    return add_reservoir(world, float(spec["theta"]), float(spec.get("energy", 0.0)))


ATOM_KINDS: dict[str, tuple[Callable[[World, dict], Any], _Schema]] = {
    "gas": (_add_gas, _Schema({}, {**dict.fromkeys(_GAS_NUMBERS, NUMBER), "sigma0": STATE})),
    "reservoir": (_add_reservoir, _Schema({"theta": NUMBER}, {"energy": NUMBER})),
}


def _suite_sizes(cmd: dict) -> list[str]:
    """The size parameters of the suite a ``verify`` command names."""
    return [k for k in inspect.signature(SUITES[cmd["suite"]]).parameters if k != "seed"]


_SAVE_EXPECT: dict[str, _Key] = {"save": SAVE, "expect": EXPECT}
_SAVE: dict[str, _Key] = {"save": SAVE}
_GAS = {"gas": "gas"}

OPS: dict[str, _Schema] = {
    "carnot": _Schema(
        optional={**_SAVE_EXPECT, "q_hot": NUMBER, "volume_ratio": NUMBER},
        refs={"hot": "reservoir", "cold": "reservoir"},
    ),
    "connect": _Schema({"from": STATE, "to": STATE}, _SAVE_EXPECT, _GAS),
    "segments": _Schema({"from": STATE}, {**_SAVE_EXPECT, "segments": SEGMENTS}, _GAS),
    "entropy-table": _Schema(_SAVE, {"p": GRID, "V": GRID}, _GAS),
    "polyline": _Schema({**_SAVE, "segment": GAS_SEGMENT}, {"samples": COUNT}, _GAS),
    "verify": _Schema({"suite": SUITE}, _SAVE_EXPECT, sizes=_suite_sizes),
    "max-entropy-report": _Schema(_SAVE, {"draws": COUNT}),
    "concavity-report": _Schema(_SAVE, {"samples": COUNT}),
}


@dataclass
class Scenario:
    version: int
    seed: int
    atoms: list[dict]
    script: list[dict]

    @classmethod
    def parse(cls, text: str) -> "Scenario":
        try:
            raw = json.loads(text)
        except ValueError as exc:  # a JSONDecodeError, or an int too long to convert
            raise ParseError(f"scenario is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ValidationError("scenario top level must be an object")
        if raw.get("version") != SCENARIO_VERSION:
            raise ValidationError(f"unsupported scenario version {raw.get('version')!r}")
        atoms = raw.get("atoms", [])
        script = raw.get("script", [])
        if not isinstance(atoms, list) or not isinstance(script, list):
            raise ValidationError("'atoms' and 'script' must be arrays")
        seed = raw.get("seed", 42)
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise ValidationError(f"'seed' must be an integer, got {seed!r}")
        return cls(version=SCENARIO_VERSION, seed=seed, atoms=atoms, script=script)

    def validate(self) -> None:
        kinds: dict[str, str] = {}
        for spec in self.atoms:
            if not isinstance(spec, dict):
                raise ValidationError(f"atom must be an object: {spec!r}")
            name = spec.get("name")
            if not isinstance(name, str) or not name:
                raise ValidationError(f"atom is missing a name: {spec!r}")
            if name in kinds:
                raise ValidationError(f"duplicate atom name {name!r}")
            kind = spec.get("kind")
            if not isinstance(kind, str) or kind not in ATOM_KINDS:
                raise ValidationError(f"unknown atom kind in {spec!r}")
            ATOM_KINDS[kind][1].check(f"atom {name!r}", spec, kinds)
            kinds[name] = kind
        for cmd in self.script:
            if not isinstance(cmd, dict):
                raise ValidationError(f"script command must be an object: {cmd!r}")
            op = cmd.get("op")
            if not isinstance(op, str) or op not in OPS:
                raise ValidationError(f"unknown op {op!r}")
            OPS[op].check(f"op {op!r}", cmd, kinds)


@dataclass
class ScenarioResult:
    exit_code: int
    messages: list[str] = field(default_factory=list)
    artifacts: list[str] = field(default_factory=list)


def _build_atoms(world: World, specs: list[dict]) -> dict[str, Any]:
    return {spec["name"]: ATOM_KINDS[spec["kind"]][0](world, spec) for spec in specs}


def _expect(cmd: dict, label: str, got: float, key: str) -> None:
    exp = cmd.get("expect", {})
    if key not in exp:
        return
    want = float(exp[key])
    tol = float(exp.get("tol", 1e-9))
    if not abs(got - want) <= tol:
        raise ScenarioAssertionFailed(
            f"{label}: expected {key}={fmt(want)} +/- {tol}, got {fmt(got)}"
        )


def _write(out_dir: str, name: str, text: str, artifacts: list[str]) -> None:
    path = os.path.join(out_dir, name)
    try:
        os.makedirs(os.path.dirname(path) or out_dir, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ArtifactWriteError(f"cannot write {path}: {exc}") from exc
    artifacts.append(path)


class _Runner:
    def __init__(self, scenario: Scenario, out_dir: str, seed: int | None):
        self.scenario = scenario
        self.out_dir = out_dir
        self.seed = scenario.seed if seed is None else seed
        self.world = World()
        self.handles: dict[str, Any] = {}
        self.artifacts: list[str] = []
        self.messages: list[str] = []

    def run(self) -> None:
        self.handles = _build_atoms(self.world, self.scenario.atoms)
        for cmd in self.scenario.script:
            self.dispatch(cmd)

    def dispatch(self, cmd: dict) -> None:
        getattr(self, "op_" + cmd["op"].replace("-", "_"))(cmd)

    def save_json(self, cmd: dict, to_json: Callable[[], Any]) -> None:
        """Write ``to_json()`` to the command's ``save`` path, if it has one."""
        if "save" in cmd:
            text = json.dumps(to_json(), indent=2, sort_keys=True) + "\n"
            _write(self.out_dir, cmd["save"], text, self.artifacts)

    def save_csv(self, cmd: dict, rows: list[str]) -> None:
        _write(self.out_dir, cmd["save"], "\n".join(rows) + "\n", self.artifacts)

    # --- ops ---

    def op_carnot(self, cmd: dict) -> None:
        run = build_carnot(
            self.handles[cmd["hot"]],
            self.handles[cmd["cold"]],
            q_target=float(cmd.get("q_hot", -1.0)),
            volume_ratio=float(cmd.get("volume_ratio", 2.0)),
        )
        ratio = -run.q1 / run.q2 if run.q2 else math.nan
        self.messages.append(
            f"carnot {cmd['hot']}/{cmd['cold']}: q1={fmt(run.q1)} q2={fmt(run.q2)} "
            f"w={fmt(run.w)} ratio={fmt(ratio)}"
        )
        _expect(cmd, "carnot", ratio, "ratio")
        _expect(cmd, "carnot", run.w, "w")
        self.save_json(cmd, run.to_json)

    def op_connect(self, cmd: dict) -> None:
        gas = self.handles[cmd["gas"]]
        s1, s2 = _gas_state(cmd["from"]), _gas_state(cmd["to"])
        p = connect(gas, s1, s2)
        w = work_of(gas.system, p)
        forward = connect_forward(gas.model, s1, s2)
        delta_u = w if forward else -w
        self.messages.append(
            f"connect {cmd['gas']}: dU={fmt(delta_u)} ({'forward' if forward else 'reversed'})"
        )
        _expect(cmd, "connect", delta_u, "delta_u")
        self.save_json(cmd, p.to_json)

    def op_segments(self, cmd: dict) -> None:
        gas = self.handles[cmd["gas"]]
        p = run_segments(gas, _gas_state(cmd["from"]), cmd.get("segments", []))
        w = work_of(gas.system, p)
        self.messages.append(f"segments {cmd['gas']}: W={fmt(w)}")
        _expect(cmd, "segments", w, "w")
        self.save_json(cmd, p.to_json)

    def op_entropy_table(self, cmd: dict) -> None:
        gas = self.handles[cmd["gas"]]
        p_lo, p_hi, p_n = cmd.get("p", (0.5, 2.0, 5))
        v_lo, v_hi, v_n = cmd.get("V", (0.5, 2.0, 5))
        uledger = EnergyLedger(self.world)
        sledger = EntropyLedger(self.world)
        rows = ["p,V,U,S,T_gas"]
        for i in range(p_n):
            p = p_lo * (p_hi / p_lo) ** (i / max(1, p_n - 1))
            for j in range(v_n):
                v = v_lo * (v_hi / v_lo) ** (j / max(1, v_n - 1))
                s = GasState(p, v)
                sigma = joint(AtomState(gas.atom, s))
                u = internal_energy(uledger, gas.system, sigma)
                s_val = entropy(sledger, gas.system, sigma)
                rows.append(_csv_row(p, v, u, s_val, gas_T(gas.model, s)))
        self.save_csv(cmd, rows)
        self.messages.append(f"entropy-table {cmd['gas']}: {len(rows) - 1} rows")

    def op_polyline(self, cmd: dict) -> None:
        gas = self.handles[cmd["gas"]]
        seg = cmd["segment"]
        fam = segment_family(gas, _gas_state(seg["from"]), seg)
        n = cmd.get("samples", 33)
        rows = ["lambda,p,V,W_cum,Q_cum"]
        for i in range(n + 1):
            lam = i / n
            state = fam.state_at(lam)[gas.atom]
            w = fam.work_between(gas.atom, 0.0, lam)
            q = fam.heat_between(gas.atom, 0.0, lam)
            rows.append(_csv_row(lam, state.p, state.V, w, q))
        self.save_csv(cmd, rows)
        self.messages.append(f"polyline {cmd['gas']}: {n + 1} samples")

    def op_verify(self, cmd: dict) -> None:
        sizes = {k: cmd[k] for k in _suite_sizes(cmd) if k in cmd}
        report = SUITES[cmd["suite"]](seed=self.seed, **sizes)
        self.messages.extend(report.lines())
        self.save_json(cmd, report.to_json)
        if not report.passed:
            raise ScenarioAssertionFailed(f"suite {cmd['suite']} failed")

    def op_max_entropy_report(self, cmd: dict) -> None:
        rng = random.Random(self.seed)
        base = GasModel()
        rows = ["lambda,U,V,U1,V1,S_max,S_unconstrained"]
        for _ in range(cmd.get("draws", 20)):
            lam = rng.uniform(0.1, 0.9)
            total = UVState(rng.uniform(1.0, 5.0), rng.uniform(1.0, 5.0))
            res = max_entropy_split(base, lam, total)
            u1, v1 = res.split[0].as_tuple()
            s_free = entropy_uv(base, total.U, total.V)
            rows.append(_csv_row(lam, total.U, total.V, u1, v1, res.s_max, s_free))
        self.save_csv(cmd, rows)
        self.messages.append(f"max-entropy-report: {len(rows) - 1} rows")

    def op_concavity_report(self, cmd: dict) -> None:
        rng = random.Random(self.seed)
        base = GasModel()
        pairs = [
            (
                UVState(rng.uniform(0.5, 5.0), rng.uniform(0.5, 5.0)),
                UVState(rng.uniform(0.5, 5.0), rng.uniform(0.5, 5.0)),
            )
            for _ in range(cmd.get("samples", 200))
        ]
        rep = check_concavity(base, pairs)
        row = _csv_row(rep.checked, rep.min_slack, len(rep.violations))
        self.save_csv(cmd, ["checked,min_slack,violations", row])
        self.messages.append(
            f"concavity-report: checked={rep.checked} violations={len(rep.violations)}"
        )
        if not rep.passed:
            raise ScenarioAssertionFailed("concavity violated")


def _same_file(source: os.stat_result, path: str) -> bool:
    """Whether ``path`` names the file ``source`` describes, by any link."""
    try:
        return os.path.samestat(source, os.stat(path))
    except OSError:
        return False


def run_scenario(path: str, out_dir: str | None = None, seed: int | None = None) -> ScenarioResult:
    """Load, validate and execute a scenario file; see the module for exit codes."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
            source = os.fstat(fh.fileno())
    except OSError as exc:
        return ScenarioResult(exit_code=2, messages=[f"cannot read {path}: {exc}"])
    try:
        scenario = Scenario.parse(text)
        scenario.validate()
    except ParseError as exc:
        return ScenarioResult(exit_code=2, messages=[str(exc)])
    except ValidationError as exc:
        return ScenarioResult(exit_code=3, messages=[str(exc)])
    out_dir = out_dir or os.path.dirname(os.path.abspath(path)) or "."
    for cmd in scenario.script:
        if "save" in cmd and _same_file(source, os.path.join(out_dir, cmd["save"])):
            return ScenarioResult(exit_code=3, messages=[
                f"op {cmd['op']!r}: save {cmd['save']!r} would overwrite the scenario file"
            ])
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        return ScenarioResult(exit_code=2, messages=[f"cannot write {out_dir}: {exc}"])
    runner = _Runner(scenario, out_dir, seed)
    try:
        runner.run()
    except ScenarioAssertionFailed as exc:
        runner.messages.append(f"ASSERTION FAILED: {exc}")
        return ScenarioResult(1, runner.messages, runner.artifacts)
    except ArtifactWriteError as exc:
        runner.messages.append(str(exc))
        return ScenarioResult(2, runner.messages, runner.artifacts)
    except (ThermoError, ValueError, ArithmeticError) as exc:
        runner.messages.append(f"ENGINE ERROR: {type(exc).__name__}: {exc}")
        return ScenarioResult(3, runner.messages, runner.artifacts)
    return ScenarioResult(0, runner.messages, runner.artifacts)
