"""Run the benchmark's seeded scenario files through ``thermokernel run`` on one checkout.

    python tests/tools/scenario_outputs.py CHECKOUT OUT_DIR

Writes the 128 scenario files of ``perfbench/run.py --workload scenario-files
--seed 1`` to ``OUT_DIR/scenarios``, taking them from the workload itself
(``workloads.ScenarioFiles`` of the checkout that holds this script), then
runs each one as ``python -m thermokernel.cli run FILE --out
OUT_DIR/NNN/artifacts`` on ``CHECKOUT/src``, in a fresh interpreter with
``THERMOKERNEL_TOL`` unset and ``PYTHONHASHSEED=0``.  Next to each
``artifacts`` directory it keeps ``stdout.txt`` (stderr included, with
``OUT_DIR`` replaced by ``OUT`` and ``CHECKOUT/src`` by ``SRC``) and
``exit_code.txt``.  The failing entropy-table grids of
``tests/data/entropy_table_edges`` run after them the same way, each into
``OUT_DIR/edges/NAME``.  The trees of two checkouts compare with ``diff -r``:

    python tests/tools/scenario_outputs.py BASE out-base
    python tests/tools/scenario_outputs.py . out-head
    diff -r out-base out-head
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..")
# ``workloads`` imports ``scenarios`` and ``oracles`` from its own directory,
# and ``ScenarioFiles`` imports ``thermokernel.cli`` (unused here).
sys.path[:0] = [os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "src")]

import workloads  # noqa: E402

SEED = 1
EDGES = os.path.join(ROOT, "tests", "data", "entropy_table_edges")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", help="root of the checkout whose src/ runs the scenarios")
    parser.add_argument("out_dir", help="directory for the scenario files and their outputs")
    args = parser.parse_args(argv)
    out_root = os.path.abspath(args.out_dir)
    src = os.path.join(os.path.abspath(args.checkout), "src")
    if not os.path.isdir(os.path.join(src, "thermokernel")):
        parser.error(f"{src} holds no thermokernel package")
    env = {k: v for k, v in os.environ.items() if k != "THERMOKERNEL_TOL"}
    env["PYTHONPATH"] = src
    env["PYTHONHASHSEED"] = "0"
    items = workloads.ScenarioFiles(SEED, os.path.join(out_root, "scenarios")).items
    runs = [(path, os.path.join(out_root, f"{k:03d}")) for k, (path, _, _) in enumerate(items)]
    runs += [(os.path.join(EDGES, name), os.path.join(out_root, "edges", name[:-5]))
             for name in sorted(os.listdir(EDGES)) if name.endswith(".json")]
    codes: dict[int, int] = {}
    for path, item in runs:
        os.makedirs(item, exist_ok=True)
        proc = subprocess.run(
            [sys.executable, "-m", "thermokernel.cli", "run", path,
             "--out", os.path.join(item, "artifacts")],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        with open(os.path.join(item, "stdout.txt"), "w", encoding="utf-8") as fh:
            fh.write(proc.stdout.replace(out_root, "OUT").replace(src, "SRC"))
        with open(os.path.join(item, "exit_code.txt"), "w", encoding="utf-8") as fh:
            fh.write(f"{proc.returncode}\n")
        codes[proc.returncode] = codes.get(proc.returncode, 0) + 1
    print(f"{len(items)} scenarios and {len(runs) - len(items)} failing grids on {src}: "
          f"exit codes {dict(sorted(codes.items()))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
