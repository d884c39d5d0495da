"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload max-entropy --runs 10 --seconds 30

Runs ``run.py`` once per seed (``--first-seed`` upwards), one run at a time,
and prints for each metric the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and their distance as a share of the
median.  With ``--out`` it also writes every run's result as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def summary(values: list[float]) -> dict[str, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / med}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)
    runs = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
        out = subprocess.run(cmd, cwd=os.path.dirname(HERE), capture_output=True,
                             text=True, check=True).stdout
        result = json.loads(out.splitlines()[-1])
        runs.append({"seed": seed, **result})
        shown = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: attempted={result['attempted']} failed={result['failed']} "
              f"correct={result['correct']} {shown}", flush=True)
    table = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
        if len(values) == len(runs):
            table[name] = summary(values)
            s = table[name]
            print(f"{args.workload} {name}: median {s['median']:.4g} "
                  f"q1 {s['q1']:.4g} q3 {s['q3']:.4g} iqr/median {s['iqr_share']:.3f}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seconds": args.seconds,
                       "runs": runs, "summary": table}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
