"""thermokernel benchmark: one workload, end-to-end or traced.

    python3 perfbench/run.py --workload theorem-suites --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Every interpreter it starts runs
``worker.py`` on the checkout's ``src`` with ``THERMOKERNEL_TOL`` unset and
one BLAS thread, one at a time.  With ``--trace 0`` it starts
``SETUP_PROBES`` interpreters that only set up, then the measured one, and
reports the end-to-end metrics; with ``--trace 1`` it reads import times
from ``python -X importtime`` and runs the workload with spans around every
traced layer (see ``spans.py``).  The last line of output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import calib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("theorem-suites", "max-entropy", "scenario-files")
SETUP_PROBES = 4
IMPORT_PROBES = 3
DEADLINE_S = 170.0  # the whole command, set-up probes included


def _env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if k not in ("THERMOKERNEL_TOL", "PYTHONPATH", "PYTHONSTARTUP")}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Failed(Exception):
    pass


def _run(cmd: list[str], deadline: float) -> tuple[float, str, str]:
    """Run ``cmd`` to its end; return (start on the monotonic clock, stdout, stderr)."""
    start = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise Failed(f"{cmd[1:3]} did not end in time")
    if proc.returncode != 0:
        raise Failed(f"{cmd[1:3]} exited {proc.returncode}:\n{err[-2000:]}")
    return start, out, err


def _worker(args, work_dir: str, deadline: float, *extra: str) -> tuple[float, dict | None]:
    """(set-up seconds, the worker's JSON or None for a set-up probe)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--work-dir", work_dir, *extra]
    start, out, _ = _run(cmd, deadline)
    lines = out.splitlines()
    ready = [float(t.split()[1]) for t in lines if t.startswith("READY ")]
    if not ready:
        raise Failed("worker never became ready")
    result = json.loads(lines[-1]) if "--setup-only" not in extra else None
    return ready[0] - start, result


def import_times(stderr: str) -> dict[str, float]:
    """Cumulative import ms of thermokernel, scipy and numpy from ``-X importtime``.

    A scipy (numpy) module counts when its importer is not itself a scipy
    (scipy or numpy) module, so each package's cost is counted once.
    """
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        indent = len(name) - len(name.lstrip())
        rows.append((indent, name.strip(), int(cumulative) / 1e3))
    totals = {"thermokernel": 0.0, "scipy": 0.0, "numpy": 0.0}
    stack: list[tuple[int, str]] = []  # parents come after children: walk backwards
    for indent, name, ms in reversed(rows):
        while stack and stack[-1][0] >= indent:
            stack.pop()
        parent = stack[-1][1].split(".")[0] if stack else ""
        top = name.split(".")[0]
        if name == "thermokernel":
            totals["thermokernel"] += ms
        elif top == "scipy" and parent != "scipy":
            totals["scipy"] += ms
        elif top == "numpy" and parent not in ("numpy", "scipy"):
            totals["numpy"] += ms
        stack.append((indent, name))
    return totals


def measure(args, work_dir: str, deadline: float) -> tuple[dict, dict[str, tuple[float, str]]]:
    if args.trace:
        probes = []
        for _ in range(IMPORT_PROBES):
            cmd = [sys.executable, "-X", "importtime", "-c", "import thermokernel"]
            probes.append(import_times(_run(cmd, deadline)[2]))
        trace_path = os.path.join(HERE, "results", f"trace-{args.workload}-s{args.seed}.json")
        os.makedirs(os.path.dirname(trace_path), exist_ok=True)
        _, res = _worker(args, work_dir, deadline, "--trace-out", trace_path)
        for name in res["missing_hooks"]:
            print(f"trace: hook missing: {name}")
        med = {k: statistics.median(p[k] for p in probes) for k in probes[0]}
        metrics = {
            "setup.import_ms": (med["thermokernel"], "ms"),
            "setup.import_scipy_ms": (med["scipy"], "ms"),
            "setup.import_numpy_ms": (med["numpy"], "ms"),
            **{k: tuple(v) for k, v in res["layers"].items()},
            "trace.latency_p50_ms": (res["latency_p50_ms"], "ms"),
        }
        return res, metrics
    setups = []
    for probe in range(SETUP_PROBES + 1):
        before = [calib.sample() for _ in range(calib.WINDOW // 2)]
        extra = ("--setup-only",) if probe < SETUP_PROBES else ()
        setup, res = _worker(args, work_dir, deadline, *extra)
        if extra:
            samples = before + [calib.sample() for _ in range(calib.WINDOW // 2)]
        else:
            samples = before
        setups.append(setup * calib.factor_of(samples))
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "items_per_s": (res["items_per_s"], "1/s"),
        "latency_p50_ms": (res["latency_p50_ms"], "ms"),
    }
    if "latency_p90_ms" in res:
        metrics["latency_p90_ms"] = (res["latency_p90_ms"], "ms")
    metrics["peak_rss_mb"] = (res["peak_rss_mb"], "MB")
    for name, value in res["unscaled"].items():
        print(f"unscaled {name} = {value:.6g}")
    return res, metrics


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "thermokernel", "__init__.py")):
        print(f"no thermokernel sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    work_dir = os.path.join(HERE, ".work", f"{args.workload}-s{args.seed}-{os.getpid()}")
    try:
        res, metrics = measure(args, work_dir, deadline)
    except Failed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for problem in res["problems"]:
        print(f"problem: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
