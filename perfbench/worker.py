"""One workload in a fresh interpreter; started by ``run.py``.

It imports thermokernel from the checkout's ``src``, makes the workload's
inputs, prints ``READY <monotonic clock>`` and, unless ``--setup-only``,
runs whole rounds of the batch until ``--seconds`` have passed.  Each item
is timed alone, scaled by the host-speed factor of ``calib.py`` and
checked after its timer stops.  The last line of output is one JSON object
with the run's figures.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

from calib import HostSpeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def figures(times: list[list[float]]) -> dict[str, float]:
    """End-to-end figures from each item's wall times over the rounds.

    An item's time is the median of its rounds; the percentiles and the
    throughput are taken over the batch's items.
    """
    per_item = [statistics.median(t) for t in times]
    out = {"items_per_s": len(per_item) / sum(per_item),
           "latency_p50_ms": 1e3 * statistics.median(per_item)}
    if len(per_item) >= 100:
        out["latency_p90_ms"] = 1e3 * statistics.quantiles(per_item, n=10)[8]
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-out", default=None, help="trace the run, write spans here")
    args = ap.parse_args(argv)

    import thermokernel

    src = os.path.join(ROOT, "src")
    if os.path.commonpath([os.path.abspath(thermokernel.__file__), src]) != src:
        print(f"thermokernel imported from {thermokernel.__file__}, not {src}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.work_dir)
    print(f"READY {time.monotonic()!r}", flush=True)
    if args.setup_only:
        return 0

    tracer = hooks = None
    if args.trace_out:
        import spans

        tracer = spans.Tracer()
        hooks = spans.install(tracer)
    raw: list[list[float]] = [[] for _ in workload.items]
    scaled: list[list[float]] = [[] for _ in workload.items]
    speed = HostSpeed()
    attempted = 0
    failed = 0
    problems: list[str] = []
    deadline = time.perf_counter() + args.seconds
    while True:
        for k, item in enumerate(workload.items):
            workload.prepare(item)
            if tracer:
                tracer.item_id = attempted
            attempted += 1
            t0 = time.perf_counter()
            try:
                result = workload.run(item)
                error = None
            except Exception as exc:  # an item that raises counts as failed
                error = exc
            dt = time.perf_counter() - t0
            raw[k].append(dt)
            scaled[k].append(dt * speed.factor(dt))
            if tracer:
                tracer.fold()
            bad = [f"{type(error).__name__}: {error}"] if error else workload.check(item, result)
            if bad:
                failed += 1
                problems.extend(bad[: max(0, 10 - len(problems))])
        if time.perf_counter() >= deadline:
            break

    out = {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **figures(scaled),
        "unscaled": figures(raw),
    }
    if tracer:
        hooks.uninstall()
        from spans import layer_metrics

        out["layers"] = layer_metrics(tracer, attempted, hooks.missing)
        out["missing_hooks"] = hooks.missing
        tracer.dump(args.trace_out)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
