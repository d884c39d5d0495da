"""Spans and counters around calls into thermokernel's layers.

The traced run wraps public functions of the engine from the benchmark's own
code; nothing inside the program changes.  Hooks are found by name, and every
reference a ``thermokernel.*`` module holds to a hooked function (a module
attribute or a value of a module-level dict) is replaced.  A hook whose target
no longer exists is reported as missing and the run goes on.

A span has a name, a start, an end, a parent span and an item id.  Spans are
kept in memory (compact arrays) and written out when the run ends; self time
is a span's duration minus the durations of its child spans.  The spans of
the first ``KEEP_ITEMS`` items are kept; the totals cover every span.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
from array import array
from collections import defaultdict
from time import perf_counter


KEEP_ITEMS = 20


class Tracer:
    """Spans of the items run so far, folded into per-name totals.

    ``fold`` runs after each item: it adds the item's spans to ``totals``
    and keeps them for ``dump`` while fewer than ``KEEP_ITEMS`` items are
    kept, so memory stays bounded however long the run is.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._reset()
        self.kept: list[tuple] = []
        self.totals: dict[str, dict] = {}
        self.stack: list[int] = []
        self.item_id = -1
        self.counters: dict[str, float] = defaultdict(float)
        self.peaks: dict[str, float] = defaultdict(float)
        self.depth: dict[str, int] = defaultdict(int)  # open spans per tag

    def _reset(self) -> None:
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")

    def fold(self) -> None:
        """Add the current item's spans to ``totals``; call with no span open."""
        if self.stack:
            raise RuntimeError("fold with open spans")
        for key, row in span_totals(self.names, self.name, self.start, self.end,
                                    self.parent).items():
            acc = self.totals.setdefault(key, {"calls": 0, "ms": 0.0, "self_ms": 0.0})
            for field in acc:
                acc[field] += row[field]
        if len(self.kept) < KEEP_ITEMS:
            self.kept.append((self.item_id, self.name, self.start, self.end, self.parent))
        self._reset()

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(math.nan)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()

    def span(self, name: str, fn, tag: str | None = None):
        """``fn`` wrapped in a span; ``tag`` also counts how deep it is open."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tag:
                self.depth[tag] += 1
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
                if tag:
                    self.depth[tag] -= 1

        return wrapper

    def dump(self, path: str) -> None:
        """Write the kept spans, one ``[name, start, end, parent]`` row each, by item."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "names": self.names,
                "columns": ["name", "start", "end", "parent"],
                "items": [{"item": item, "spans": list(zip(*cols))}
                          for item, *cols in self.kept],
            }, fh, separators=(",", ":"))


def span_totals(names, name, start, end, parent) -> dict[str, dict]:
    """Per span name: ``calls``, inclusive ``ms`` and ``self_ms``.

    Self time is the span's duration minus its children's durations; spans
    on one thread nest, so children never overlap each other.
    """
    child = [0.0] * len(name)
    for i, p in enumerate(parent):
        if p >= 0:
            child[p] += end[i] - start[i]
    out: dict[str, dict] = {}
    for i, nid in enumerate(name):
        dur = end[i] - start[i]
        row = out.setdefault(names[nid], {"calls": 0, "ms": 0.0, "self_ms": 0.0})
        row["calls"] += 1
        row["ms"] += 1e3 * dur
        row["self_ms"] += 1e3 * (dur - child[i])
    return out


# --- hooks --------------------------------------------------------------------

def _modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "thermokernel" or n.startswith("thermokernel."))]


def _replace_function(orig, new) -> int:
    """Point every reference thermokernel modules hold to ``orig`` at ``new``."""
    done = 0
    for mod in _modules():
        for key, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, key, new)
                done += 1
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if v is orig:
                        value[k] = new
                        done += 1
    return done


class Hooks:
    """Installs wrappers by dotted name; ``missing`` lists targets not found."""

    def __init__(self) -> None:
        self.missing: list[str] = []
        self._undo: list = []

    def wrap(self, target: str, make) -> None:
        """``target`` is ``module:function`` or ``module:Class.method``."""
        modname, _, attr = target.partition(":")
        owner_name, _, meth = attr.rpartition(".")
        try:
            mod = importlib.import_module(modname)
            if owner_name:
                owner = getattr(mod, owner_name)
                raw = owner.__dict__[meth]
            else:
                raw = getattr(mod, attr)
        except (ImportError, AttributeError, KeyError):
            self.missing.append(target)
            return
        if owner_name:
            fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
            new = make(fn)
            setattr(owner, meth, type(raw)(new) if fn is not raw else new)
            self._undo.append(lambda: setattr(owner, meth, raw))
        else:
            new = make(raw)
            if _replace_function(raw, new) == 0:
                self.missing.append(target)
            self._undo.append(lambda: _replace_function(new, raw))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()


SCENARIO_OPS = ("carnot", "connect", "segments", "entropy-table", "polyline",
                "max-entropy-report", "concavity-report")
SUITE_FUNCS = {"first-law": "suite_first_law", "second-law": "suite_second_law",
               "carnot": "suite_carnot", "clausius": "suite_clausius",
               "entropy-theorem": "suite_entropy_theorem", "scaling": "suite_scaling"}


def install(tracer: Tracer) -> Hooks:
    """Wrap every traced layer of an imported thermokernel."""
    t = tracer
    c = t.counters
    hooks = Hooks()

    def quadrature(fn):
        def wrapper(f, *args, **kwargs):
            def counted(x):
                c["quadrature.evals"] += 1
                return f(x)
            return fn(counted, *args, **kwargs)
        return t.span("quadrature", functools.wraps(fn)(wrapper))

    def ledger(prefix):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(self, *args, **kwargs):
                memo = getattr(self, "memo", None)
                before = len(memo) if memo is not None else None
                out = fn(self, *args, **kwargs)
                if before is not None:
                    after = len(memo)
                    c[f"{prefix}.memo_hits" if after == before else f"{prefix}.memo_misses"] += 1
                    t.peaks[f"{prefix}.memo_entries"] = max(
                        t.peaks[f"{prefix}.memo_entries"], after)
                return out
            return t.span(f"{prefix}.atom_{prefix}", wrapper, tag="query")
        return make

    def new_atom(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            c["systems.atoms_minted"] += 1
            if t.depth["query"]:
                c["systems.atoms_minted_by_queries"] += 1
            return fn(*args, **kwargs)
        return wrapper

    def entropy_uv(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if t.depth["split"]:
                c["scaling.objective_evals"] += 1
            return fn(*args, **kwargs)
        return wrapper

    def write(fn):
        @functools.wraps(fn)
        def wrapper(out_dir, name, text, *args, **kwargs):
            c["scenario.artifact_bytes"] += len(text.encode("utf-8"))
            return fn(out_dir, name, text, *args, **kwargs)
        return wrapper

    def spans(name, tag=None):
        return lambda fn: t.span(name, fn, tag)

    tk = "thermokernel."
    hooks.wrap(tk + "quadrature:adaptive_simpson", quadrature)
    hooks.wrap(tk + "quasistatic:QuasistaticFamily.slice", spans("quasistatic.slice"))
    for meth in ("work_between", "heat_between"):
        hooks.wrap(tk + f"quasistatic:QuasistaticFamily.{meth}", spans("quasistatic.integral"))
    for fn in ("concatenate", "make_process"):
        hooks.wrap(tk + f"processes:{fn}", spans(f"processes.{fn}"))
    hooks.wrap(tk + "systems:World.new_atom", new_atom)
    hooks.wrap(tk + "gas:connect_reversible", spans("gas.connect_reversible"))
    hooks.wrap(tk + "gas:GasPlanner.routes", spans("gas.planner_routes"))
    hooks.wrap(tk + "energy:EnergyLedger.atom_energy", ledger("energy"))
    hooks.wrap(tk + "entropy:EntropyLedger.atom_entropy", ledger("entropy"))
    hooks.wrap(tk + "entropy:clausius_sum", spans("entropy.clausius_sum"))
    hooks.wrap(tk + "carnot:build_carnot", spans("carnot.build_carnot"))
    hooks.wrap(tk + "carnot:temperature_ratio", spans("carnot.temperature_ratio", "query"))
    hooks.wrap(tk + "scaling:max_entropy_split", spans("scaling.max_entropy_split", "split"))
    hooks.wrap(tk + "scaling:entropy_uv", entropy_uv)
    hooks.wrap(tk + "scaling:check_concavity", spans("scaling.check_concavity"))
    for meth in ("parse", "validate"):
        hooks.wrap(tk + f"scenario:Scenario.{meth}", spans("scenario.parse_validate"))
    for op in SCENARIO_OPS:
        hooks.wrap(tk + f"scenario:_Runner.op_{op.replace('-', '_')}", spans(f"scenario.op.{op}"))
    hooks.wrap(tk + "scenario:_write", write)
    for suite, fn in SUITE_FUNCS.items():
        hooks.wrap(tk + f"suites:{fn}", spans(f"suites.{suite}"))
    return hooks


def layer_metrics(tracer: Tracer, items: int, missing: list[str]) -> dict[str, tuple[float, str]]:
    """Per-item layer figures from the spans and counters of a traced run."""
    totals = tracer.totals
    c = tracer.counters
    per = 1.0 / max(1, items)
    zero = {"calls": 0, "ms": 0.0, "self_ms": 0.0}

    def row(name):
        return totals.get(name, zero)

    def ratio(a, b):
        return a / b if b else 0.0

    out: dict[str, tuple[float, str]] = {}
    quad = row("quadrature")
    out["quadrature.calls"] = (quad["calls"] * per, "count/item")
    out["quadrature.evals"] = (c["quadrature.evals"] * per, "count/item")
    out["quadrature.evals_per_call"] = (ratio(c["quadrature.evals"], quad["calls"]), "count/call")
    out["quadrature.ms"] = (quad["ms"] * per, "ms/item")
    for name in ("quasistatic.slice", "quasistatic.integral", "processes.concatenate",
                 "processes.make_process", "gas.connect_reversible", "gas.planner_routes",
                 "entropy.clausius_sum"):
        out[f"{name}.calls"] = (row(name)["calls"] * per, "count/item")
        out[f"{name}.self_ms"] = (row(name)["self_ms"] * per, "ms/item")
    out["systems.atoms_minted"] = (c["systems.atoms_minted"] * per, "count/item")
    out["systems.atoms_minted_by_queries"] = (
        c["systems.atoms_minted_by_queries"] * per, "count/item")
    for prefix in ("energy", "entropy"):
        r = row(f"{prefix}.atom_{prefix}")
        hits, misses = c[f"{prefix}.memo_hits"], c[f"{prefix}.memo_misses"]
        out[f"{prefix}.atom_{prefix}.calls"] = (r["calls"] * per, "count/item")
        out[f"{prefix}.atom_{prefix}.ms"] = (r["ms"] * per, "ms/item")
        out[f"{prefix}.memo_hit_ratio"] = (ratio(hits, hits + misses), "ratio")
        out[f"{prefix}.memo_entries"] = (tracer.peaks[f"{prefix}.memo_entries"], "count")
    out["carnot.build_carnot.calls"] = (row("carnot.build_carnot")["calls"] * per, "count/item")
    out["carnot.build_carnot.ms"] = (row("carnot.build_carnot")["ms"] * per, "ms/item")
    out["carnot.temperature_ratio.calls"] = (
        row("carnot.temperature_ratio")["calls"] * per, "count/item")
    split = row("scaling.max_entropy_split")
    out["scaling.max_entropy_split.calls"] = (split["calls"] * per, "count/item")
    out["scaling.max_entropy_split.ms"] = (split["ms"] * per, "ms/item")
    out["scaling.objective_evals"] = (ratio(c["scaling.objective_evals"], split["calls"]),
                                      "count/call")
    out["scaling.check_concavity.ms"] = (row("scaling.check_concavity")["ms"] * per, "ms/item")
    out["scenario.parse_validate.ms"] = (row("scenario.parse_validate")["ms"] * per, "ms/item")
    for op in SCENARIO_OPS:
        out[f"scenario.op.{op}.ms"] = (row(f"scenario.op.{op}")["ms"] * per, "ms/item")
    out["scenario.artifact_bytes"] = (c["scenario.artifact_bytes"] * per, "bytes/item")
    for suite in SUITE_FUNCS:
        out[f"suites.{suite}.ms"] = (row(f"suites.{suite}")["ms"] * per, "ms/item")
    out["trace.hooks_missing"] = (len(missing), "count")
    out["trace.spans"] = (sum(r["calls"] for r in totals.values()) * per, "count/item")
    return out
