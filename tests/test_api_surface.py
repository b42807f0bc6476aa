"""Every public name and method has a caller, and every defaulted parameter a setter.

A name exported in ``gausstube.__all__``, and every public module-level
function or class of ``src/``, must be used by the library itself (outside
its own definition and the package ``__init__``), by the benchmark in
``perfbench/`` (code, or a target of its span tracer), or be one of the
few documented entry points listed below.  Every public method of an
exported class must be used there too.  A parameter with a default must be
passed by some call in the library or the benchmark, or be on its own
short allowlist.  A new option or function lands with the code that
calls it.  The estimators take their curvature from one oracle, so only the
projection solver reads a functional's dense ``hessians``.
"""

import ast
import importlib.util
import sys
from pathlib import Path

import gausstube

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "gausstube"

# Documented entry points that nothing inside the repository needs to call.
ENTRY_POINTS = {
    "run",  # the harness's one call per experiment config (README, CLI)
    "report",  # CSV tables and summary for saved results (README, CLI)
    "ExperimentConfig",  # the validated config that `run` takes
    "RunResult",  # what `run` returns and `report` reads
    "GausstubeError",  # base class of every library error, for callers to catch
}


def _names_used(tree: ast.AST) -> set:
    """Identifiers a syntax tree reads, imports or reaches as attributes."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update((node.module or "").split("."))
            used.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                used.update(alias.name.split("."))
    return used


def _used_names() -> set:
    """Names used by src/gausstube (outside __init__.py) and perfbench/; a
    top-level function or class does not count as a user of its own name."""
    files = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    files += sorted((ROOT / "perfbench").glob("*.py"))
    used = set()
    for path in files:
        for stmt in ast.parse(path.read_text()).body:
            used |= _names_used(stmt) - {getattr(stmt, "name", None)}
    return used


def _traced_names() -> set:
    """The names in the attribute paths of ``perfbench/tracing.py`` ``TARGETS``."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = tracing  # its dataclasses look their module up
    try:
        spec.loader.exec_module(tracing)
    finally:
        del sys.modules[spec.name]
    return {part for _, attr_path, _, _ in tracing.TARGETS for part in attr_path.split(".")}


def _module_level_public_names() -> set:
    """Public functions and classes defined at the top level of src/gausstube."""
    return {
        stmt.name
        for path in sorted(SRC.glob("*.py"))
        for stmt in ast.parse(path.read_text()).body
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("_")
    }


def test_every_public_name_has_a_caller():
    used = _used_names() | _traced_names() | ENTRY_POINTS
    public = set(gausstube.__all__) | _module_level_public_names()
    unused = [name for name in sorted(public) if name not in used]
    assert not unused, f"public names with no caller in src/ or perfbench/: {unused}"


def test_every_public_method_has_a_caller():
    """A public method, property or classmethod of an exported class is
    reached by name somewhere in src/ or perfbench/; names match across
    classes, as attribute access does not say which class it reaches."""
    used = _used_names()
    unused = [
        f"{cls.name}.{node.name}"
        for path in sorted(SRC.glob("*.py"))
        for cls in ast.parse(path.read_text()).body
        if isinstance(cls, ast.ClassDef) and cls.name in gausstube.__all__
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
        and node.name not in used
    ]
    assert not unused, f"public methods with no caller in src/ or perfbench/: {unused}"


# Defaulted parameters that no call in src/ or perfbench/ passes, each with the
# reason it stays settable.
UNSET_DEFAULTS = {
    ("main", "argv"),  # the CLI entry point; the console script calls main()
    ("_halfspace", "dim"),  # a region spec key: _from_spec calls build(**spec)
    ("_two_sided", "dim"),  # a region spec key: _from_spec calls build(**spec)
}


def _defaulted_parameters(tree: ast.AST):
    """(function, parameter, positional index or None) for every parameter
    with a default in every ``def`` of ``tree``.  A method's index skips
    ``self``/``cls``, as a call through an attribute does."""
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
        if isinstance(parents.get(node), ast.ClassDef) and not static:
            positional = positional[1:]
        for index in range(len(positional) - len(args.defaults), len(positional)):
            yield node.name, positional[index].arg, index
        for param, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield node.name, param.arg, None


def _calls(tree: ast.AST):
    """(called name, positional count, keyword names, splats) for every call
    in ``tree`` through a name or an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            splats = any(isinstance(a, ast.Starred) for a in node.args) or any(
                k.arg is None for k in node.keywords
            )
            yield name, len(node.args), {k.arg for k in node.keywords}, splats


def test_every_defaulted_parameter_has_a_setter():
    """A parameter with a default is passed, by keyword or position, by some
    call in src/ or the benchmark code in perfbench/; a call with ``*args``
    or ``**kwargs`` passes everything.  Calls match functions by name.
    Tests do not count: a value only a test sets is a module constant the
    test monkeypatches, or a helper in tests/."""
    src = [ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))]
    bench = [
        ast.parse(p.read_text())
        for p in sorted((ROOT / "perfbench").glob("*.py"))
        if not p.name.startswith(("test_", "conftest"))
    ]
    calls = {}
    for tree in src + bench:
        for name, count, keywords, splats in _calls(tree):
            calls.setdefault(name, []).append((count, keywords, splats))
    unset = {
        (func, param)
        for tree in src
        for func, param, index in _defaulted_parameters(tree)
        if not any(
            splats or param in keywords or (index is not None and index < count)
            for count, keywords, splats in calls.get(func, [])
        )
    }
    assert unset == UNSET_DEFAULTS, (
        f"defaulted parameters no call sets: {sorted(unset - UNSET_DEFAULTS)}; "
        f"allowlisted but now set or gone: {sorted(UNSET_DEFAULTS - unset)}"
    )


def test_only_the_projection_solver_reads_hessians():
    """The co-area estimator and the Jacobian series read curvature moments
    through ``moments_batch`` alone; a dense Hessian oracle reaches them as
    ``dense_moments(hessians)``, so no module but ``tube.py`` (the projection
    solver's convexity check) reads the ``hessians`` attribute."""
    readers = {
        path.name
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr == "hessians"
    }
    assert readers <= {"tube.py"}, f"modules reading .hessians: {sorted(readers)}"
