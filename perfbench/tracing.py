"""Span tracing of gausstube's layers, installed from outside the package.

``traced(tracer)`` replaces, for the duration of a ``with`` block, every
attribute through which gausstube code reaches a layer's public function
(``gausstube.gmf.jacobian_coeffs_batch``, ``gausstube.fields.simulate_field``,
``CylFunctional.hess_batch``, ...) by a wrapper that records a span, and puts
the originals back on exit, also when the run raises.  No file of the package
changes.  Spans are kept in memory until the run ends.

A span is (id, name, start, end, parent, thread, run id) plus the work counts
its wrapper read from the call's inputs and outputs.  Pool threads do not
inherit the caller's span stack, so the ``run_blocks`` wrapper hands its own
span to every block as the block's parent.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    thread: int
    run_id: str
    counts: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Collects spans from any thread.

    ``list.append`` and ``next`` on an ``itertools.count`` are single
    operations under the interpreter lock, so concurrent blocks need no
    further locking; each thread keeps its own stack of open spans.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, parent: Optional[int] = None):
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        rec = Span(next(self._ids), name, 0.0, 0.0, parent, threading.get_ident(), self.run_id)
        stack.append(rec.sid)
        rec.start = time.perf_counter()
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            stack.pop()
            self.spans.append(rec)


# --- what gets wrapped -------------------------------------------------------
#
# Each target is (module, attribute path, span name, counter).  A counter
# receives the call's bound arguments and its result and returns work counts.


def _rows(a, r):
    return {"rows": int(np.shape(a["y"])[0])}


def _hess_counts(a, r):
    rows, n = np.shape(a["y"])
    return {"rows": int(rows), "bytes": int(rows) * int(n) * int(n) * 8}


def _basis_counts(a, r):
    return {"bytes": int(r.nbytes)}  # G x 2K float64


def _jacobian_counts(a, r):
    return {"rows": int(np.shape(a["x"])[0])}


def _gmf_counts(a, r):
    meta = r.meta or {}
    return {
        "samples": int(a["n_samples"]),
        "n_window": int(meta.get("n_window", 0)),
        "n_degenerate": int(meta.get("n_degenerate", 0)),
    }


def _distance_counts(a, r):
    oracle, x = a["oracle"], np.asarray(a["x"], dtype=float)
    if oracle.method == "closed-form":
        exterior = 0
    else:
        region = oracle.region
        exterior = int(np.count_nonzero(~region.contains_values(region.functional.values(x))))
    return {"solves": exterior, "failures": int(r[1])}


def _save_counts(a, r):
    return {"bytes": Path(a["path"]).stat().st_size}


TARGETS = (
    ("gausstube.harness", "run", "harness.run", None),
    ("gausstube.harness", "report", "harness.report", None),
    ("gausstube.harness", "RunResult.save", "harness.save", _save_counts),
    ("gausstube.fields", "validate_assumptions", "fields.validate_assumptions", None),
    ("gausstube.fields", "ec_mc_levels", "fields.ec_mc_levels", None),
    ("gausstube.fields", "simulate_field", "fields.simulate_field", None),
    ("gausstube.fields", "SpatialCov.basis", "fields.basis", _basis_counts),
    ("gausstube.fields", "euler_char", "fields.euler_char", None),
    ("gausstube.cylinder", "convergence_study", "cylinder.convergence_study", None),
    ("gausstube.cylinder", "CylFunctional.value_batch", "cylinder.value_batch", _rows),
    ("gausstube.cylinder", "CylFunctional.grad_batch", "cylinder.grad_batch", _rows),
    ("gausstube.cylinder", "CylFunctional.hess_batch", "cylinder.hess_batch", _hess_counts),
    ("gausstube.malliavin", "jacobian_coeffs_batch", "malliavin.jacobian_coeffs_batch",
     _jacobian_counts),
    ("gausstube.gmf", "gmf_surface_mc", "gmf.gmf_surface_mc", _gmf_counts),
    ("gausstube.tube", "validate_tube_series", "tube.validate_tube_series", None),
    ("gausstube.tube", "distances", "tube.distances", _distance_counts),
    ("gausstube._mc", "run_blocks", "mc.run_blocks", None),
    ("gausstube._mc", "fsum_arrays", "mc.fsum_arrays", None),
)


def _wrap(tracer: Tracer, original: Callable, name: str, counter) -> Callable:
    if name == "mc.run_blocks":

        @functools.wraps(original)
        def run_blocks(fn, n_blocks, workers=1):
            with tracer.span(name) as rec:

                def block(i):
                    with tracer.span("mc.block", parent=rec.sid):
                        return fn(i)

                result = original(block, n_blocks, workers)
            rec.counts = {"blocks": int(n_blocks), "workers": int(workers)}
            return result

        return run_blocks

    signature = inspect.signature(original)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as rec:
            result = original(*args, **kwargs)
        if counter is not None:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            rec.counts = counter(bound.arguments, result)
        return result

    return wrapper


def _lookup_sites(module_name: str, attr_path: str):
    """Every (owner, attribute) pair through which callers reach the target.

    A class attribute has one site.  A module function is also reached
    through each gausstube module that imported it by name.
    """
    owner = importlib.import_module(module_name)
    *cls_path, attr = attr_path.split(".")
    for part in cls_path:
        owner = getattr(owner, part)
    original = owner.__dict__[attr]
    if cls_path:
        return original, [(owner, attr)]
    sites = []
    for mod_name, mod in sorted(sys.modules.items()):
        if mod_name == "gausstube" or mod_name.startswith("gausstube."):
            for key, value in vars(mod).items():
                if value is original:
                    sites.append((mod, key))
    return original, sites


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Install the wrappers for the ``with`` block; always restore them."""
    patched = []
    try:
        for module_name, attr_path, name, counter in TARGETS:
            original, sites = _lookup_sites(module_name, attr_path)
            wrapper = _wrap(tracer, original, name, counter)
            for owner, attr in sites:
                patched.append((owner, attr, original))
                setattr(owner, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)


# --- analysis ----------------------------------------------------------------


def self_times(spans: list[Span]) -> dict[int, float]:
    """Wall-clock self time of each span.

    A span is innermost while none of its child spans, on any thread, is
    open.  Each interval between span boundaries is split evenly among the
    spans innermost during it.  On one thread this is the span's duration
    minus the time its children cover; with threads running side by side it
    divides their overlap, so the self times of all spans add up to the
    wall time that spans cover and never more.
    """
    events = []
    for s in spans:
        events.append((s.start, 1, s.sid, s))
        events.append((s.end, 0, s.sid, s))
    events.sort(key=lambda e: (e[0], e[1], e[2]))
    open_children: dict[int, int] = defaultdict(int)
    active: set[int] = set()
    innermost: set[int] = set()
    out: dict[int, float] = defaultdict(float)
    last = None
    for t, is_start, sid, s in events:
        if innermost:
            share = (t - last) / len(innermost)
            for i in innermost:
                out[i] += share
        last = t
        if is_start:
            active.add(sid)
            innermost.add(sid)
            if s.parent in active:
                open_children[s.parent] += 1
                innermost.discard(s.parent)
        else:
            active.discard(sid)
            innermost.discard(sid)
            if s.parent in active:
                open_children[s.parent] -= 1
                if open_children[s.parent] == 0:
                    innermost.add(s.parent)
    return dict(out)


def owners(spans: list[Span]) -> dict[int, Span]:
    """The span whose code a span's self time belongs to.

    A block runs its caller's code (the ``fn`` passed to ``run_blocks``), so a
    block's self time goes to the nearest ancestor outside the ``mc`` layer;
    every other span owns its own self time.
    """
    by_id = {s.sid: s for s in spans}
    out = {}
    for s in spans:
        owner = s
        if s.name == "mc.block":
            while owner.layer == "mc" and owner.parent in by_id:
                owner = by_id[owner.parent]
        out[s.sid] = owner
    return out


LAYERS = ("fields", "cylinder", "malliavin", "gmf", "tube", "mc", "harness")


def layer_metrics(spans: list[Span]) -> tuple[dict, dict]:
    """Per-layer metrics ``{name: (value, unit)}`` and percentile sample counts."""
    selfs = self_times(spans)
    owner = owners(spans)
    calls: dict[str, int] = defaultdict(int)
    busy: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    counts: dict[str, dict] = defaultdict(lambda: defaultdict(int))
    durations: dict[str, list] = defaultdict(list)
    layer_self: dict[str, float] = {layer: 0.0 for layer in LAYERS}
    run_walls: list[tuple] = []
    for s in spans:
        dur = s.end - s.start
        calls[s.name] += 1
        busy[s.name] += dur
        durations[s.name].append(dur)
        for k, v in s.counts.items():
            counts[s.name][k] += v
        o = owner[s.sid]
        own[o.name] += selfs.get(s.sid, 0.0)
        layer_self[o.layer] += selfs.get(s.sid, 0.0)
        if s.name == "mc.run_blocks":
            run_walls.append((dur, s.counts.get("workers", 1)))

    def pct(name, q):
        d = durations.get(name)
        return float(np.percentile(d, q)) * 1e6 if d else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    gmf = counts["gmf.gmf_surface_mc"]
    tube = counts["tube.distances"]
    jac = "malliavin.jacobian_coeffs_batch"
    m = {
        "fields.basis.calls": (calls["fields.basis"], "count"),
        "fields.basis.busy_s": (busy["fields.basis"], "s"),
        "fields.basis.bytes_computed": (counts["fields.basis"]["bytes"], "B"),
        "fields.simulate_field.calls": (calls["fields.simulate_field"], "count"),
        "fields.simulate_field.self_s": (own["fields.simulate_field"], "s"),
        "fields.simulate_field.us_p50": (pct("fields.simulate_field", 50), "us"),
        "fields.simulate_field.us_p90": (pct("fields.simulate_field", 90), "us"),
        "fields.euler_char.calls": (calls["fields.euler_char"], "count"),
        "fields.euler_char.busy_s": (busy["fields.euler_char"], "s"),
        "fields.ec_mc_levels.busy_s": (busy["fields.ec_mc_levels"], "s"),
        "fields.validate_assumptions.busy_s": (busy["fields.validate_assumptions"], "s"),
        "cylinder.value_batch.rows": (counts["cylinder.value_batch"]["rows"], "count"),
        "cylinder.value_batch.busy_s": (busy["cylinder.value_batch"], "s"),
        "cylinder.grad_batch.rows": (counts["cylinder.grad_batch"]["rows"], "count"),
        "cylinder.grad_batch.busy_s": (busy["cylinder.grad_batch"], "s"),
        "cylinder.hess_batch.rows": (counts["cylinder.hess_batch"]["rows"], "count"),
        "cylinder.hess_batch.busy_s": (busy["cylinder.hess_batch"], "s"),
        "cylinder.hess_batch.bytes_computed": (counts["cylinder.hess_batch"]["bytes"], "B"),
        f"{jac}.rows": (counts[jac]["rows"], "count"),
        f"{jac}.busy_s": (busy[jac], "s"),
        f"{jac}.us_per_row": (ratio(busy[jac], counts[jac]["rows"]) * 1e6, "us"),
        "gmf.gmf_surface_mc.calls": (calls["gmf.gmf_surface_mc"], "count"),
        "gmf.gmf_surface_mc.self_s": (own["gmf.gmf_surface_mc"], "s"),
        "gmf.samples": (gmf["samples"], "count"),
        "gmf.window_frac": (ratio(gmf["n_window"], gmf["samples"]), "ratio"),
        "gmf.skip_frac": (ratio(gmf["n_degenerate"], gmf["n_window"]), "ratio"),
        "tube.distances.calls": (calls["tube.distances"], "count"),
        "tube.distances.busy_s": (busy["tube.distances"], "s"),
        "tube.solves": (tube["solves"], "count"),
        "tube.us_per_solve": (ratio(busy["tube.distances"], tube["solves"]) * 1e6, "us"),
        "tube.solver_failures": (tube["failures"], "count"),
        "mc.run_blocks.calls": (calls["mc.run_blocks"], "count"),
        "mc.run_blocks.busy_s": (busy["mc.run_blocks"], "s"),
        "mc.blocks": (calls["mc.block"], "count"),
        "mc.pool_util": (
            ratio(busy["mc.block"], sum(dur * w for dur, w in run_walls)), "ratio"
        ),
        "mc.fsum_arrays.busy_s": (busy["mc.fsum_arrays"], "s"),
        "harness.run.self_s": (own["harness.run"], "s"),
        "harness.report.busy_s": (busy["harness.report"], "s"),
        "harness.save.bytes": (counts["harness.save"]["bytes"], "B"),
        "harness.save.busy_s": (busy["harness.save"], "s"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (layer_self[layer], "s")
    samples = {
        "fields.simulate_field.us_p50": calls["fields.simulate_field"],
        "fields.simulate_field.us_p90": calls["fields.simulate_field"],
    }
    return m, samples
