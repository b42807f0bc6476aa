"""Every public name has a caller.

A name exported in ``gausstube.__all__`` must be used by the library itself
(outside its own definition and the package ``__init__``), by the
benchmark in ``perfbench/``, or be one of the few documented entry points
listed below.  A new option or function lands with the code that calls it.
"""

import ast
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
    "det2_series",  # the det2 coefficients that acceptance criterion 5 checks
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


def test_every_public_name_has_a_caller():
    used = _used_names() | ENTRY_POINTS
    unused = [name for name in sorted(gausstube.__all__) if name not in used]
    assert not unused, f"public names with no caller in src/ or perfbench/: {unused}"
