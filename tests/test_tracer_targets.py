"""The benchmark's span tracer must still find every function it wraps.

``perfbench/tracing.py`` wraps library functions by module and name, so a
rename or a move in ``src/`` would otherwise surface only in a traced
benchmark run.  This resolves each target without running a workload.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import gausstube  # noqa: F401  (imports every module the tracer looks in)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_every_target_resolves(tracing):
    assert tracing.TARGETS
    for module_name, attr_path, name, _ in tracing.TARGETS:
        original, sites = tracing._lookup_sites(module_name, attr_path)
        assert callable(original), name
        assert sites, name
        for owner, attr in sites:
            assert vars(owner)[attr] is original, (name, owner, attr)
