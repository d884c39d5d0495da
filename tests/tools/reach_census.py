"""Print each function in ``src/thermokernel`` that no entry point calls.

    python tests/tools/reach_census.py [CHECKOUT]

Runs every entry point of ``outputs.entry_points`` through
``thermokernel.cli.main`` of ``CHECKOUT/src`` (by default the checkout that
holds this script), in this interpreter, with ``THERMOKERNEL_TOL`` unset and
a ``sys.setprofile`` hook that records each code object called: ``verify all
--seed 42``, ``tests/data/run_all_ops.json``, the 128 seeded scenario files
of ``perfbench/run.py --workload scenario-files --seed 1``, the failing
entropy-table grids of ``tests/data/entropy_table_edges`` and the
``perfbench/faults`` files.  It then prints each function or method defined
in ``CHECKOUT/src/thermokernel`` that none of them called, with its line
count, and a total.  The inputs always come from the checkout that holds
this script, so two checkouts are censused on the same runs:

    python tests/tools/reach_census.py BASE
    python tests/tools/reach_census.py
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import glob
import io
import os
import sys
import tempfile

from outputs import ROOT, entry_points


def definitions(package: str) -> dict[tuple[str, int, str], tuple[str, int]]:
    """Every ``def`` in the package, keyed as its code object names it.

    The key is ``(file, first line, name)``, the first line being the first
    decorator's when there is one; the value is the dotted name and the
    line count, decorators included.
    """
    defs = {}

    def walk(node: ast.AST, path: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                defs[(path, first, child.name)] = (
                    prefix + child.name, child.end_lineno - first + 1)
                walk(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, f"{prefix}{child.name}.")
            else:
                walk(child, path, prefix)

    for path in sorted(glob.glob(os.path.join(package, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            walk(ast.parse(fh.read(), path), path, "")
    return defs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", nargs="?", default=ROOT,
                        help="root of the checkout whose src/ is censused (default: this one)")
    args = parser.parse_args(argv)
    src = os.path.realpath(os.path.join(args.checkout, "src"))
    package = os.path.join(src, "thermokernel")
    if not os.path.isdir(package):
        parser.error(f"{src} holds no thermokernel package")
    os.environ.pop("THERMOKERNEL_TOL", None)
    # ``workloads`` imports ``scenarios`` and ``oracles`` from its own directory
    sys.path[:0] = [src, os.path.join(ROOT, "perfbench")]

    called = set()

    def hook(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    codes: dict[int, int] = {}
    with tempfile.TemporaryDirectory() as tmp:
        sys.setprofile(hook)  # before the import, so module-level calls count
        try:
            from thermokernel import cli

            for _, argv_ in entry_points(tmp):
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(argv_)
                codes[code] = codes.get(code, 0) + 1
        finally:
            sys.setprofile(None)
    if not os.path.realpath(cli.__file__).startswith(package + os.sep):
        parser.error(f"thermokernel was imported from {cli.__file__}, not from {package}")

    defs = definitions(package)
    reached = {(c.co_filename, c.co_firstlineno, c.co_name) for c in called}
    unreached = sorted(key for key in defs if key not in reached)
    print(f"{sum(codes.values())} runs on {src}: exit codes {dict(sorted(codes.items()))}")
    for key in unreached:
        name, lines = defs[key]
        print(f"{os.path.basename(key[0])}:{key[1]} {name} ({lines} lines)")
    print(f"unreached: {len(unreached)} of {len(defs)} functions "
          f"({sum(defs[key][1] for key in unreached)} lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
