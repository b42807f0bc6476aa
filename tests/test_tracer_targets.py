"""The benchmark's span tracer must still find every function it wraps.

``perfbench/tracing.py`` wraps library functions by module and name, and its
counters read the wrapped calls' arguments by name, so a rename or a move in
``src/`` would otherwise surface only in a traced benchmark run.  This
resolves each target, and the names its counter reads, without running a
workload.
"""

import dataclasses
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

import gausstube  # noqa: F401  (imports every module the tracer looks in)
from gausstube.tube import DistanceOracle

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


# The call arguments each counter reads, by parameter name.
COUNTER_ARGUMENTS = {
    "_rows": {"y"},
    "_hess_counts": {"y"},
    "_basis_counts": set(),  # reads only the result
    "_jacobian_counts": {"x"},
    "_gmf_counts": {"n_samples"},
    "_distance_counts": {"oracle", "x"},
    "_save_counts": {"path"},
}


def test_every_counter_finds_its_arguments(tracing):
    for module_name, attr_path, name, counter in tracing.TARGETS:
        if counter is None:
            continue
        original, _ = tracing._lookup_sites(module_name, attr_path)
        params = set(inspect.signature(original).parameters)
        assert COUNTER_ARGUMENTS[counter.__name__] <= params, (name, sorted(params))
    # the distance counter also reads these fields of the oracle
    fields = {f.name for f in dataclasses.fields(DistanceOracle)}
    assert {"method", "region"} <= fields
