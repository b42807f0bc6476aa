"""Experiment orchestration: configs, deterministic runs, result persistence.

A run is fully determined by (config, seed, workers): all randomness flows
from one root ``SeedSequence`` through fixed spawn trees, and Monte Carlo
accumulation is block-deterministic, so repeating a run reproduces every
estimate bit-exactly.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import inspect
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import __version__
from ._mc import as_seed_sequence
from .cylinder import _PRESETS, CylFunctional, PotentialV, check_time_grid, convergence_study
from .errors import ConfigError
from .fields import (
    ParamSpace,
    SpatialCov,
    check_reps,
    check_resolution,
    ec_mc_levels,
    excursion_volumes_mc,
    kinematic_weights,
    lkc,
    validate_assumptions,
)
from .gmf import (
    MIN_SURFACE_SAMPLES,
    gmf_ball,
    gmf_halfspace,
    gmf_surface_mc,
    gmf_surface_mc_levels,
    gmf_two_sided,
)
from .tube import (
    ball_oracle,
    halfspace_oracle,
    projection_oracle,
    two_sided_oracle,
    validate_tube_series,
)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _non_empty_list_of(test: Callable) -> Callable:
    return lambda value: isinstance(value, (list, tuple)) and bool(value) and all(map(test, value))


# Config keys that must be integers (booleans rejected) wherever they appear.
_INT_KEYS = ("seed", "workers", "J", "N", "n", "reps", "index")
# The other checked keys, each with its test and what the test asks for.
_NON_NEGATIVE = (lambda v: _is_int(v) and v >= 0, "a non-negative integer")
_VALUE_KEYS = {
    "seed": _NON_NEGATIVE,
    "J": _NON_NEGATIVE,
    "eps": (lambda v: v is None or (_is_number(v) and v > 0), "a positive number"),
    "method": (
        lambda v: v in (None, "closed-form", "projection"),
        "a distance method, 'closed-form' or 'projection'",
    ),
    "potential": (lambda v: isinstance(v, str) and v in _PRESETS, f"one of {sorted(_PRESETS)}"),
    "u": (_is_number, "a number"),
    "u_levels": (_non_empty_list_of(_is_number), "a non-empty list of numbers"),
    "rho_grid": (
        _non_empty_list_of(lambda v: _is_number(v) and v >= 0),
        "a non-empty list of non-negative numbers",
    ),
    "n_grid": (
        lambda v: _non_empty_list_of(_is_int)(v) and all(a < b for a, b in zip(v, v[1:])),
        "a non-empty, strictly increasing list of integers",
    ),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated, JSON-round-trippable experiment description."""

    experiment: str
    seed: int
    workers: int = 1
    region: Optional[dict] = None
    space: Optional[dict] = None
    cov: Optional[dict] = None
    potential: Optional[str] = None
    J: Optional[int] = None
    N: Optional[int] = None
    eps: Optional[float] = None
    reps: Optional[int] = None
    n: Optional[int] = None
    n_grid: Optional[list] = None
    rho_grid: Optional[list] = None
    u: Optional[float] = None
    u_levels: Optional[list] = None
    index: Optional[int] = None
    method: Optional[str] = None

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ConfigError(f"config must be a JSON object, got {type(data).__name__}")
        experiment = data.get("experiment")
        names = tuple(EXPERIMENTS)
        if experiment not in names:
            raise ConfigError(f"experiment must be one of {names}, got {experiment!r}")
        entry = EXPERIMENTS[experiment]
        unknown = set(data) - {"experiment", "seed", "workers"} - entry.required - entry.optional
        if unknown:
            raise ConfigError(f"unknown config keys for {experiment!r}: {sorted(unknown)}")
        missing = (entry.required | {"seed"}) - set(data)
        if missing:
            raise ConfigError(f"missing config keys for {experiment!r}: {sorted(missing)}")
        for key in _INT_KEYS:
            value = data.get(key, 1)
            if not _is_int(value):
                raise ConfigError(f"{key} must be an integer, got {value!r}")
        if data.get("workers", 1) < 1:
            raise ConfigError(f"workers must be an integer >= 1, got {data['workers']!r}")
        if data.get("N", entry.min_N) < entry.min_N:
            raise ConfigError(f"N must be >= {entry.min_N} for {experiment!r}, got {data['N']}")
        for key, (test, wanted) in _VALUE_KEYS.items():
            if key in data and not test(data[key]):
                raise ConfigError(f"{key} must be {wanted}, got {data[key]!r}")
        return cls(**data)

    def to_dict(self) -> dict:
        return {
            k: v for k, v in dataclasses.asdict(self).items() if v is not None
        }

    def hash(self) -> str:
        canon = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()


# What each field of a saved RunResult holds, with the test and what it asks for.
_RESULT_FIELDS = {
    "config_hash": (lambda v: isinstance(v, str), "a string"),
    "experiment": (lambda v: isinstance(v, str), "a string"),
    "rows": (
        lambda v: isinstance(v, list) and all(isinstance(r, dict) for r in v),
        "a list of objects",
    ),
    "counters": (lambda v: isinstance(v, dict), "an object"),
    "wall_clock": (_is_number, "a number"),
    "version": (lambda v: isinstance(v, str), "a string"),
}


@dataclass
class RunResult:
    """Estimates, counters, and provenance for one experiment run."""

    config_hash: str
    experiment: str
    rows: list
    counters: dict
    wall_clock: float
    version: str

    def payload(self) -> dict:
        """Everything that must reproduce bit-exactly (wall clock excluded)."""
        return {
            "config_hash": self.config_hash,
            "experiment": self.experiment,
            "rows": self.rows,
            "counters": self.counters,
            "version": self.version,
        }

    def to_dict(self) -> dict:
        out = self.payload()
        out["wall_clock"] = self.wall_clock
        return out

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True))

    @classmethod
    def load(cls, path) -> "RunResult":
        data = json.loads(Path(path).read_text())
        missing = [k for k in _RESULT_FIELDS if not isinstance(data, dict) or k not in data]
        if missing:
            raise ConfigError(f"{path} is not a saved RunResult: missing keys {missing}")
        for key, (test, wanted) in _RESULT_FIELDS.items():
            if not test(data[key]):
                raise ConfigError(
                    f"{path} is not a saved RunResult: {key!r} must be {wanted}, "
                    f"got {data[key]!r}"
                )
        return cls(**{key: data[key] for key in _RESULT_FIELDS})


def _from_spec(what: str, spec, table: dict, tag: str = "kind"):
    """Build a nested config object with the builder ``table[spec[tag]]``.

    A builder's parameters are the keys its spec may carry; those without a
    default are required.  Anything else about the spec that is wrong (not a
    dict, an unknown kind or key, a missing key, a value the builder rejects)
    raises ConfigError before any sampling.
    """
    if not isinstance(spec, dict) or tag not in spec:
        raise ConfigError(f"{what} must be a dict with a {tag!r}, got {spec!r}")
    kind = spec[tag]
    build = table.get(kind) if isinstance(kind, str) else None
    if build is None:
        raise ConfigError(f"unknown {what} {tag} {kind!r}")
    args = {k: v for k, v in spec.items() if k != tag}
    params = inspect.signature(build).parameters
    unknown = set(args) - set(params)
    if unknown:
        raise ConfigError(f"unknown keys for {what} {kind!r}: {sorted(unknown)}")
    missing = [k for k, p in params.items() if p.default is p.empty and k not in args]
    if missing:
        raise ConfigError(f"{what} {kind!r} is missing key {missing[0]!r}")
    try:
        return build(**args)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {what} spec {spec!r}: {exc}") from None


def _integer(name: str, value) -> int:
    """A nested spec's integer value; anything else (a bool, 200.7, 8.0) is rejected."""
    if not _is_int(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def _number(name: str, value) -> float:
    """A nested spec's finite number; a bool, a string, NaN or ±inf is rejected."""
    if not _is_number(value):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def _numbers(name: str, values) -> list:
    """A nested spec's list (of lists) of finite numbers, each checked by :func:`_number`."""
    if isinstance(values, (list, tuple)):
        return [_numbers(name, v) for v in values]
    return _number(name, values)


# A region is its closed-form distance oracle, whose ``.region`` is the
# RegionSpec the samplers use, plus its closed-form GMF vector per order J.
def _halfspace(u, dim=1):
    u = _number("u", u)
    return halfspace_oracle(u, _integer("dim", dim)), lambda J: gmf_halfspace(u, J)


def _ball(radius, dim):
    radius, dim = _number("radius", radius), _integer("dim", dim)
    return ball_oracle(radius, dim), lambda J: gmf_ball(radius, dim, J)


def _two_sided(a, dim=1):
    a = _number("a", a)
    return two_sided_oracle(a, _integer("dim", dim)), lambda J: gmf_two_sided(a, J)


_REGIONS = {"halfspace": _halfspace, "ball": _ball, "two-sided": _two_sided}
_SPACES = {
    "interval": lambda length, grid: ParamSpace.interval(
        _number("length", length), _integer("grid", grid)
    ),
    "circle": lambda length, grid: ParamSpace.circle(
        _number("length", length), _integer("grid", grid)
    ),
    "torus": lambda lengths, grid: ParamSpace(
        "torus", tuple(_number("lengths", l) for l in lengths), _integer("grid", grid)
    ),
}
_COVS = {
    "cosine": lambda frequency: SpatialCov.cosine(_number("frequency", frequency)),
    "torus-pair": lambda frequency: SpatialCov.torus_pair(_number("frequency", frequency)),
    "wave-sum": lambda frequencies, weights=None: SpatialCov.wave_sum(
        _numbers("frequencies", frequencies),
        None if weights is None else _numbers("weights", weights),
    ),
    "squared-exponential": lambda lambda2, n_waves=64, seed=0: SpatialCov.squared_exponential(
        _number("lambda2", lambda2), _integer("n_waves", n_waves), rng=_integer("seed", seed)
    ),
}


# Each runner maps (config, root SeedSequence) to (rows, counters).


def _run_gmf(config: ExperimentConfig, root):
    oracle, closed_factory = _from_spec("region", config.region, _REGIONS)
    target = closed_factory(config.J)
    est = gmf_surface_mc(
        oracle.region, config.J, config.N, eps=config.eps, rng=root, workers=config.workers
    )
    rows = [
        {
            "quantity": f"M_{j}",
            "j": j,
            "estimate": est.values[j],
            "stderr": est.stderr[j],
            "target": target.values[j],
        }
        for j in range(config.J + 1)
    ]
    return rows, dict(est.meta)


def _run_tube(config: ExperimentConfig, root):
    oracle, closed_factory = _from_spec("region", config.region, _REGIONS)
    if config.method == "projection":
        oracle = projection_oracle(oracle.region)
    report_obj = validate_tube_series(
        oracle, closed_factory(config.J), config.rho_grid, config.N, rng=root,
        workers=config.workers,
    )
    counters = {
        "max_abs_residual": report_obj.max_abs_residual,
        "slope": report_obj.slope,
        "noise_floor": report_obj.noise_floor,
    }
    return report_obj.rows(), counters


def _run_converge(config: ExperimentConfig, root):
    try:
        for n in config.n_grid:
            check_time_grid(n)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    study = convergence_study(
        PotentialV.preset(config.potential),
        config.u,
        config.J,
        config.n_grid,
        config.N,
        rng=root,
        eps=config.eps,
        workers=config.workers,
    )
    metas = [{"n": n, **g.meta} for n, g in zip(study.n_grid, study.estimates)]
    return study.rows(), {"gmf_meta": metas}


def _run_kinematic(config: ExperimentConfig, root):
    """``gkf`` (index 0, against the EC Monte Carlo) and ``crofton`` at ``index``."""
    space = _from_spec("space", config.space, _SPACES)
    cov = _from_spec("cov", config.cov, _COVS, tag="preset")
    potential = PotentialV.preset(config.potential)
    index = 0 if config.experiment == "gkf" else config.index
    try:
        cov.compatible_with(space)
        check_time_grid(config.n)
        if config.J < space.dim:
            raise ConfigError(f"J={config.J} must be >= space dimension {space.dim}")
        weights = kinematic_weights(index, space, cov, config.J)
        if index in (0, space.dim):
            # these indices simulate fields: reject a coarse grid before any sampling
            check_resolution(space, cov)
        if index == 0:
            # the EC side runs reps replications; index dim runs max(100, reps // 4)
            check_reps(config.reps)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    validate_assumptions(cov, potential, rng=root.spawn(1)[0])
    lhs_seed, rhs_seed, vol_seed = root.spawn(3)
    if index == 0:
        # only the Euler-characteristic index has an EC Monte Carlo side
        ec_means, ec_ses = ec_mc_levels(
            space, cov, potential, config.u_levels, config.n, config.reps,
            rng=lhs_seed, workers=config.workers,
        )
    # one sample set for every level, drawn from rhs_seed's first child
    gmf_levels = gmf_surface_mc_levels(
        CylFunctional(config.n, potential).sampled(), "excursion",
        [float(u) for u in config.u_levels], config.J, config.N, eps=config.eps,
        rng=rhs_seed.spawn(1)[0], workers=config.workers,
    )
    if index == space.dim:
        # one field set for every level, drawn from vol_seed's first child
        vols, vol_ses = excursion_volumes_mc(
            space, cov, potential, config.u_levels, config.n, max(100, config.reps // 4),
            rng=vol_seed.spawn(1)[0], workers=config.workers,
        )
    rows, gmf_meta = [], []
    for i, (u, gmfs) in enumerate(zip(config.u_levels, gmf_levels)):
        gmf_meta.append({"u": float(u), **gmfs.meta})
        value, stderr = gmfs.dot(weights)
        row = {
            "u": float(u),
            "index": index,
            "rhs": value,
            "rhs_stderr": stderr,
        }
        if index == 0:
            combined = float(np.hypot(ec_ses[i], stderr))
            row.update(
                {
                    "ec_mean": ec_means[i],
                    "ec_stderr": ec_ses[i],
                    "z": (ec_means[i] - value) / combined if combined > 0 else 0.0,
                }
            )
        if index == space.dim:
            row.update({"volume_mc": vols[i], "volume_stderr": vol_ses[i]})
        rows.append(row)
    return rows, {"lkc": [float(v) for v in lkc(space, cov)], "gmf_meta": gmf_meta}


class Experiment(NamedTuple):
    """One experiment kind: config keys beyond experiment/seed/workers, plot columns,
    runner, and the fewest samples ``N`` it accepts."""

    required: set
    optional: set
    plot_columns: tuple
    run: Callable
    min_N: int = MIN_SURFACE_SAMPLES


_FIELD_KEYS = {"space", "cov", "potential", "u_levels", "n", "J", "N", "reps"}

#: The experiment registry; the CLI has one subcommand per entry.
EXPERIMENTS = {
    "gmf": Experiment(
        {"region", "J", "N"}, {"eps"}, ("j", "estimate", "stderr", "target"), _run_gmf
    ),
    "tube": Experiment(
        {"region", "J", "N", "rho_grid"}, {"method"}, ("rho", "residual", "stderr"), _run_tube,
        min_N=1,
    ),
    "converge": Experiment(
        {"potential", "u", "J", "N", "n_grid"}, {"eps"},
        ("n", "j", "estimate", "stderr", "target"), _run_converge,
    ),
    "gkf": Experiment(
        _FIELD_KEYS, {"eps"}, ("u", "ec_mean", "ec_stderr", "rhs", "rhs_stderr", "z"),
        _run_kinematic,
    ),
    "crofton": Experiment(
        _FIELD_KEYS | {"index"}, {"eps"}, ("u", "index", "rhs", "rhs_stderr"), _run_kinematic
    ),
}


def run(config: ExperimentConfig) -> RunResult:
    """Dispatch an experiment to its registered runner."""
    t0 = time.perf_counter()
    rows, counters = EXPERIMENTS[config.experiment].run(config, as_seed_sequence(config.seed))
    return RunResult(
        config_hash=config.hash(),
        experiment=config.experiment,
        rows=_plain(rows),
        counters=_plain(counters),
        wall_clock=time.perf_counter() - t0,
        version=__version__,
    )


def _plain(obj):
    """Map numpy scalars/arrays to built-in types for exact JSON round-trips."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    return obj


def report(results: list[RunResult], out_dir) -> list[Path]:
    """Write CSV tables, plot-data CSVs, and a summary; returns written paths.

    An empty result list writes nothing and returns an empty list.
    """
    if not results:
        return []
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    summary_lines = []
    for res in results:
        tag = f"{res.experiment}_{res.config_hash[:8]}"
        rows_path = out / f"{tag}_rows.csv"
        _write_csv(rows_path, res.rows)
        written.append(rows_path)
        entry = EXPERIMENTS.get(res.experiment)
        if entry and res.rows:
            present = [c for c in entry.plot_columns if any(c in r for r in res.rows)]
            plot_rows = [{c: row.get(c, "") for c in present} for row in res.rows]
            plot_path = out / f"{tag}_plot.csv"
            _write_csv(plot_path, plot_rows)
            written.append(plot_path)
        summary_lines.append(
            f"{res.experiment} config={res.config_hash[:12]} rows={len(res.rows)} "
            f"wall={res.wall_clock:.2f}s counters={json.dumps(res.counters, sort_keys=True)}"
        )
    summary = out / "summary.txt"
    summary.write_text("\n".join(summary_lines) + "\n")
    written.append(summary)
    return written


def _write_csv(path: Path, rows: list[dict]) -> None:
    if not rows:
        path.write_text("")
        return
    columns: list[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns, restval="")
        writer.writeheader()
        writer.writerows(rows)
