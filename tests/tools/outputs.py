"""Run the output corpus and the footprint digest of one checkout into one tree.

    python tests/tools/outputs.py CHECKOUT OUT_DIR

Starts one interpreter on ``CHECKOUT/src``, with ``THERMOKERNEL_TOL`` unset
and ``PYTHONHASHSEED=0``, that runs each command line of ``entry_points``
through ``thermokernel.cli.main`` in process: ``verify all --seed 42``,
``tests/data/run_all_ops.json``, the 128 seeded scenario files of
``perfbench/run.py --workload scenario-files --seed 1`` (written to
``OUT_DIR/scenarios`` by ``workloads.ScenarioFiles``), the failing
entropy-table grids of ``tests/data/entropy_table_edges`` and the
``perfbench/faults`` files.  The inputs always come from the checkout that
holds this script.  Each run has its own directory (``verify``, ``all-ops``,
``NNN``, ``edges/NAME`` or ``faults/NAME``) that holds its ``artifacts``,
its ``exit_code.txt`` and its ``stdout.txt`` (stderr included, with
``OUT_DIR`` replaced by ``OUT`` and ``CHECKOUT/src`` by ``SRC``).  An
exception that escapes ``main`` is written as its last traceback line, with
the exit code ``traceback``, and the next run goes on.  Last,
``OUT_DIR/digest.txt`` holds the lines of ``footprint_digest.emit``.  The
trees of two checkouts compare with ``diff -r``:

    python tests/tools/outputs.py BASE out-base
    python tests/tools/outputs.py . out-head
    diff -r out-base out-head
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import io
import os
import subprocess
import sys
import traceback

TOOLS = os.path.dirname(os.path.realpath(__file__))
ROOT = os.path.dirname(os.path.dirname(TOOLS))
DATA = os.path.join(ROOT, "tests", "data")
EDGES = os.path.join(DATA, "entropy_table_edges")
FAULTS = os.path.join(ROOT, "perfbench", "faults")
SEED = 1


def entry_points(out_root: str) -> list[tuple[str, list[str]]]:
    """``(run directory, thermokernel command line)`` of every run, in order.

    The directories are relative to ``out_root``; a ``run`` writes its
    artifacts to ``DIR/artifacts`` and the scenario files go to
    ``out_root/scenarios``.  ``perfbench`` must be on ``sys.path``.
    """
    import workloads

    def run(path: str, name: str) -> tuple[str, list[str]]:
        return name, ["run", path, "--out", os.path.join(out_root, name, "artifacts")]

    items = workloads.ScenarioFiles(SEED, os.path.join(out_root, "scenarios")).items
    edges = sorted(name for name in os.listdir(EDGES) if name.endswith(".json"))
    return (
        [("verify", ["verify", "all", "--seed", "42"]),
         run(os.path.join(DATA, "run_all_ops.json"), "all-ops")]
        + [run(path, f"{k:03d}") for k, (path, _, _) in enumerate(items)]
        + [run(os.path.join(EDGES, name), os.path.join("edges", name[:-5])) for name in edges]
        + [run(path, os.path.join("faults", os.path.basename(path)[:-5]))
           for path in sorted(glob.glob(os.path.join(FAULTS, "*.json")))]
    )


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def write(out_root: str, src: str) -> None:
    """The child: every entry point, then the digest, into ``out_root``."""
    import footprint_digest
    from thermokernel import cli

    if not os.path.realpath(cli.__file__).startswith(os.path.realpath(src) + os.sep):
        sys.exit(f"thermokernel was imported from {cli.__file__}, not from {src}")
    codes: dict[int | str, int] = {}
    for name, argv in entry_points(out_root):
        item = os.path.join(out_root, name)
        os.makedirs(item, exist_ok=True)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            try:
                code: int | str = cli.main(argv)
            except Exception as exc:  # a traceback is itself a finding: record it
                buf.write("".join(traceback.format_exception_only(type(exc), exc)))
                code = "traceback"
        _write(os.path.join(item, "stdout.txt"),
               buf.getvalue().replace(out_root, "OUT").replace(src, "SRC"))
        _write(os.path.join(item, "exit_code.txt"), f"{code}\n")
        codes[code] = codes.get(code, 0) + 1
    digest = io.StringIO()
    footprint_digest.emit(digest)
    _write(os.path.join(out_root, "digest.txt"), digest.getvalue())
    lines = digest.getvalue().count("\n")
    print(f"{sum(codes.values())} runs on {src}: exit codes "
          f"{dict(sorted(codes.items(), key=lambda kv: str(kv[0])))}; {lines} digest lines")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", help="root of the checkout whose src/ runs the corpus")
    parser.add_argument("out_dir", help="directory for the scenario files and every output")
    args = parser.parse_args(argv)
    src = os.path.join(os.path.abspath(args.checkout), "src")
    if not os.path.isdir(os.path.join(src, "thermokernel")):
        parser.error(f"{src} holds no thermokernel package")
    env = {k: v for k, v in os.environ.items() if k != "THERMOKERNEL_TOL"}
    # ``workloads`` imports ``scenarios`` and ``oracles`` from its own directory
    env["PYTHONPATH"] = os.pathsep.join([src, os.path.join(ROOT, "perfbench"), TOOLS])
    env["PYTHONHASHSEED"] = "0"
    child = "import sys, outputs; outputs.write(*sys.argv[1:])"
    return subprocess.run([sys.executable, "-c", child, os.path.abspath(args.out_dir), src],
                          env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
