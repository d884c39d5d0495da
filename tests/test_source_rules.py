"""Rules that hold over the whole package source, not over one module's behaviour."""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
from pathlib import Path

import thermokernel
from thermokernel.gas import GasPlanner

PACKAGE_DIR = Path(thermokernel.__file__).parent
MODULES = sorted(m.name for m in pkgutil.iter_modules([str(PACKAGE_DIR)]))

# Every numeric threshold comes from a tolerance tier or a literal at its one
# point of use; only the comparison primitive and the quadrature kernel take
# their threshold as a parameter.
THRESHOLD_PARAMS = {"tol", "atol", "rtol", "max_depth"}
TAKES_THRESHOLD = {"processes.values_close", "quadrature.adaptive_simpson"}

# name -> why a module imports it without using it
UNUSED_IMPORTS_ALLOWED = {
    ("quasistatic", "make_process"):
        "the benchmark's span hooks assert that quasistatic holds processes.make_process",
}


def _public_callables():
    """``(qualified name, callable)`` for the public functions, classes and methods."""
    for modname in MODULES:
        module = importlib.import_module(f"thermokernel.{modname}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{modname}.{name}", obj
            elif inspect.isclass(obj):
                for meth_name, meth in vars(obj).items():
                    if isinstance(meth, (classmethod, staticmethod)):
                        meth = meth.__func__
                    if inspect.isfunction(meth) and (meth_name == "__init__"
                                                     or not meth_name.startswith("_")):
                        yield f"{modname}.{name}.{meth_name}", meth


def test_only_the_primitives_take_a_threshold():
    takers = {qual for qual, fn in _public_callables()
              if THRESHOLD_PARAMS & set(inspect.signature(fn).parameters)}
    assert takers == TAKES_THRESHOLD


def test_gas_planner_holds_only_its_gas():
    assert [f.name for f in dataclasses.fields(GasPlanner)] == ["gas"]


def _unused_imports(tree: ast.Module) -> set[str]:
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # names inside string annotations, such as ``"Process"``
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return imported - used


def test_every_import_is_used():
    unused = set()
    for modname in MODULES:
        if modname == "__init__":
            continue
        tree = ast.parse((PACKAGE_DIR / f"{modname}.py").read_text(encoding="utf-8"))
        unused |= {(modname, name) for name in _unused_imports(tree)}
    assert unused == set(UNUSED_IMPORTS_ALLOWED)
