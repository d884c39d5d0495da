"""Count the opcodes and Python calls that each entry point of one checkout executes.

    python tests/tools/cost.py CHECKOUT > cost.json
    python tests/tools/cost.py --compare BASE.json HEAD.json

Starts one interpreter on ``CHECKOUT/src``, with ``THERMOKERNEL_TOL`` unset
and ``PYTHONHASHSEED=0``, that imports ``thermokernel.cli`` and then runs each
entry point of ``outputs.entry_points`` through ``cli.main`` in process, as
``reach_census.py`` does, except that ``verify all --seed 42`` is split into
one ``verify SUITE --seed 42`` per suite of the checkout's ``SUITES``.  The
inputs always come from the checkout that holds this script.  A
``sys.settrace`` hook with ``f_trace_opcodes`` counts, per entry point, every
opcode and every ``call`` event (a Python frame entered, or a generator
resumed) in any Python code, the standard library's included; C code is not
seen.  The first form prints one JSON object: the interpreter version and,
per entry point in run order, ``{"opcodes": N, "calls": M}``.  The counts
do not depend on the host's speed or load, so two checkouts compare by their
difference alone; counts compare only within one interpreter version.  The
second form prints each entry point whose counts differ, then the totals of
each group (each suite, ``all-ops``, the seeded ``scenarios``, ``edges`` and
``faults``) and of everything.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile

TOOLS = os.path.dirname(os.path.realpath(__file__))
ROOT = os.path.dirname(os.path.dirname(TOOLS))
METRICS = ("opcodes", "calls")


def counted(fn) -> dict[str, int]:
    """Opcodes and ``call`` events of ``fn()``, counted by a ``sys.settrace`` hook."""
    opcodes = calls = 0

    def local(frame, event, arg):
        nonlocal opcodes
        if event == "opcode":
            opcodes += 1
        return local

    def on_call(frame, event, arg):
        nonlocal calls
        calls += 1
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return local

    outer = sys.gettrace()
    sys.settrace(on_call)
    try:
        fn()
    finally:
        sys.settrace(outer)
    return {"opcodes": opcodes, "calls": calls}


def count(src: str) -> None:
    """The child: every entry point, counted, as one JSON object on stdout."""
    from outputs import entry_points
    from thermokernel import cli
    from thermokernel.suites import SUITES

    if not os.path.realpath(cli.__file__).startswith(os.path.realpath(src) + os.sep):
        sys.exit(f"thermokernel was imported from {cli.__file__}, not from {src}")
    entries: dict[str, dict[str, int]] = {}
    with tempfile.TemporaryDirectory() as tmp:
        runs = []
        for name, argv in entry_points(tmp):
            if argv[:2] == ["verify", "all"]:
                runs += [(f"verify/{suite}", ["verify", suite] + argv[2:]) for suite in SUITES]
            else:
                runs.append((name, argv))
        for name, argv in runs:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                entries[name] = counted(lambda: cli.main(argv))
    json.dump({"python": sys.version.split()[0], "entries": entries}, sys.stdout, indent=1)
    sys.stdout.write("\n")


def _group(name: str) -> str:
    head = name.split("/")[0]
    if head == "verify":
        return name
    return "scenarios" if head.isdigit() else head


def _delta(base: int, head: int) -> str:
    pct = f" ({(head - base) / base:+.2%})" if base else ""
    return f"{base} -> {head}{pct}"


def compare(base: dict, head: dict) -> list[str]:
    """Lines naming each entry point whose counts differ, then the group totals."""
    if base["python"] != head["python"]:
        raise SystemExit(f"counts of Python {base['python']} and {head['python']} do not compare")
    b, h = base["entries"], head["entries"]
    if list(b) != list(h):
        raise SystemExit("the two runs have different entry points")
    lines = [f"{name}: " + ", ".join(f"{m} {_delta(b[name][m], h[name][m])}" for m in METRICS)
             for name in b if b[name] != h[name]]
    lines.append(f"{len(lines)} of {len(b)} entry points changed")
    totals = {key: (dict.fromkeys(METRICS, 0), dict.fromkeys(METRICS, 0))
              for key in [*dict.fromkeys(map(_group, b)), "total"]}
    for name in b:
        for key in (_group(name), "total"):
            for side, runs in zip(totals[key], (b, h)):
                for m in METRICS:
                    side[m] += runs[name][m]
    lines += [f"{key}: " + ", ".join(f"{m} {_delta(pb[m], ph[m])}" for m in METRICS)
              for key, (pb, ph) in totals.items()]
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", nargs="?", help="root of the checkout whose src/ is counted")
    parser.add_argument("--compare", nargs=2, metavar=("BASE_JSON", "HEAD_JSON"),
                        help="print the differences of two saved counts instead")
    args = parser.parse_args(argv)
    if args.compare:
        if args.checkout:
            parser.error("give a checkout or --compare, not both")
        runs = []
        for path in args.compare:
            with open(path, encoding="utf-8") as fh:
                runs.append(json.load(fh))
        print("\n".join(compare(*runs)))
        return 0
    if not args.checkout:
        parser.error("give a checkout or --compare")
    src = os.path.join(os.path.abspath(args.checkout), "src")
    if not os.path.isdir(os.path.join(src, "thermokernel")):
        parser.error(f"{src} holds no thermokernel package")
    env = {k: v for k, v in os.environ.items() if k != "THERMOKERNEL_TOL"}
    # ``workloads`` imports ``scenarios`` and ``oracles`` from its own directory
    env["PYTHONPATH"] = os.pathsep.join([src, os.path.join(ROOT, "perfbench"), TOOLS])
    env["PYTHONHASHSEED"] = "0"
    child = "import sys, cost; cost.count(sys.argv[1])"
    return subprocess.run([sys.executable, "-c", child, src], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
