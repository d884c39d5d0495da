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

# (module, function, parameter) -> why the body never reads it: each is a
# protocol method whose callers pass what other implementations need
UNREAD_PARAMETERS_ALLOWED = {
    ("quasistatic", "ConstantRate.__call__", "lam"): "a constant rate does not vary along a leg",
    ("quasistatic", "QuasistaticFamily.work_rate", "atom"): "the base family does no work",
    ("quasistatic", "QuasistaticFamily.heat_rate", "atom"): "the base family takes up no heat",
    ("quasistatic", "_Identity.evaluate", "lam"): "an identity family is constant",
}

# (module, function) -> why it imports inside its body
LOCAL_IMPORTS_ALLOWED = {
    ("quadrature", "adaptive_simpson"): "heapq loads only for an integral that refines, "
                                        "which keeps it out of resident memory otherwise",
}

# name -> why a module imports it without using it
UNUSED_IMPORTS_ALLOWED = {
    ("quasistatic", "make_process"):
        "the benchmark's span hooks assert that quasistatic holds processes.make_process",
}

# qualified name -> what reaches a public function, class or method that no
# source line names: an acceptance test, a benchmark span hook, or a test that
# observes the engine through it.  The paper constructions here reach no
# ``verify`` suite yet.
UNNAMED_IN_SOURCE_ALLOWED = {
    "carnot.CarnotRun.trivial": "acceptance 07",
    "carnot.absolute_temperature": "paper construction; test_reservoirs_carnot only",
    "energy.internal_energy": "acceptance 01",
    "entropy.EntropyLedger.atom_entropy": "perfbench hook",
    "entropy.TemperatureInterval.is_singleton": "test observation",
    "entropy.assign_heat_temperature": "acceptance 08",
    "gas.check_qs_postulates": "paper construction; test_quasistatic only",
    "gas.conduct": "acceptance 08",
    "gas.gas_U_sv": "acceptance 11",
    "gas.gas_handle": "acceptance 10",
    "processes.Process.same_footprint": "test observation",
    "processes.eliminate_catalyst": "paper construction; test_processes and "
                                    "test_reservoirs_carnot only",
    "processes.reverse_of": "acceptance 10",
    "reservoirs.reservoir_handle": "acceptance 10",
    "reservoirs.stir": "paper construction; test_processes and test_reservoirs_carnot only",
    "scaling.remove_constraint": "paper construction; test_scaling only",
    "systems.World.registry": "test observation",
    "systems.clone_system": "acceptance 10",
    "systems.intersect": "paper construction; test_systems only",
    "systems.is_subsystem": "paper construction; test_systems only",
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
        tree = ast.parse((PACKAGE_DIR / f"{modname}.py").read_text(encoding="utf-8"))
        unused |= {(modname, name) for name in _unused_imports(tree)}
    assert unused == set(UNUSED_IMPORTS_ALLOWED)


def test_the_package_exports_nothing():
    """Each name is imported from its own module: the package ``__init__`` imports nothing."""
    tree = ast.parse((PACKAGE_DIR / "__init__.py").read_text(encoding="utf-8"))
    assert not [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]


def _functions(tree: ast.Module):
    """``(qualified name, node)`` for every function and method, nested ones included."""
    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield prefix + child.name, child
                yield from visit(child, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                yield from visit(child, prefix + child.name + ".")
            else:
                yield from visit(child, prefix)
    yield from visit(tree, "")


def _module_trees():
    for modname in MODULES:
        yield modname, ast.parse((PACKAGE_DIR / f"{modname}.py").read_text(encoding="utf-8"))


def _is_abstract(fn: ast.FunctionDef) -> bool:
    """A body that is at most a docstring and ``raise NotImplementedError``."""
    body = fn.body[1:] if ast.get_docstring(fn) is not None else fn.body
    return (len(body) == 1 and isinstance(body[0], ast.Raise)
            and "NotImplementedError" in ast.unparse(body[0]))


def test_every_parameter_is_read():
    """A parameter no body reads is a setting that changes nothing; receivers and stubs are exempt."""
    unread = set()
    for modname, tree in _module_trees():
        for qual, fn in _functions(tree):
            if _is_abstract(fn):
                continue
            a = fn.args
            params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
            params += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
            if params and params[0] in ("self", "cls"):
                params = params[1:]
            read = {n.id for stmt in fn.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread |= {(modname, qual, p) for p in params if p not in read}
    assert unread == set(UNREAD_PARAMETERS_ALLOWED)


def test_no_function_local_imports():
    """Imports sit at the top of a module unless one breaks a cycle or saves resident memory."""
    local = {(modname, qual) for modname, tree in _module_trees() for qual, fn in _functions(tree)
             if any(isinstance(n, (ast.Import, ast.ImportFrom))
                    for stmt in fn.body for n in ast.walk(stmt))}
    assert local == set(LOCAL_IMPORTS_ALLOWED)


def test_every_public_name_is_named_in_the_source():
    """A public top-level function or class, or a public method, that no source line names
    is reached only from outside the package; each such name says what reaches it."""
    named = set()
    defined = []
    for modname, tree in _module_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            defined.append((f"{modname}.{node.name}", node.name))
            if isinstance(node, ast.ClassDef):
                defined += [(f"{modname}.{node.name}.{m.name}", m.name) for m in node.body
                            if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")]
    assert {qual for qual, name in defined if name not in named} == set(UNNAMED_IN_SOURCE_ALLOWED)
