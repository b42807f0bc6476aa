"""Experiment orchestration: configs, deterministic runs, result persistence.

A run is fully determined by (config, seed, workers): all randomness flows
from one root ``SeedSequence`` through fixed spawn trees, and Monte Carlo
accumulation is block-deterministic, so repeating a run reproduces every
estimate bit-exactly.
"""

from __future__ import annotations

import csv
import hashlib
import inspect
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from ._mc import as_seed_sequence
from .cylinder import (
    _PRESETS,
    CylFunctional,
    PotentialV,
    check_time_grid,
    convergence_study,
    convergence_target,
)
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
)
from .gmf import (
    MAX_ORDER,
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
    """An int or float, not a bool, with a finite float value (not NaN, ±inf or 10**400)."""
    return (_is_int(value) or isinstance(value, float)) and abs(value) <= sys.float_info.max


def _non_empty_list_of(test: Callable) -> Callable:
    return lambda value: isinstance(value, (list, tuple)) and bool(value) and all(map(test, value))


def _is_array(value) -> bool:
    """A finite number, or a non-empty list of such arrays nested to any depth."""
    if isinstance(value, (list, tuple)):
        return bool(value) and all(map(_is_array, value))
    return _is_number(value)


# A region is its closed-form distance oracle, whose ``.region`` is the
# RegionSpec the samplers use, plus its closed-form GMF vector per order J.
def _halfspace(u, dim=1):
    return halfspace_oracle(u, dim), lambda J: gmf_halfspace(u, J)


def _ball(radius, dim):
    return ball_oracle(radius, dim), lambda J: gmf_ball(radius, dim, J)


def _two_sided(a, dim=1):
    return two_sided_oracle(a, dim), lambda J: gmf_two_sided(a, J)


# Each nested spec's builders, keyed by its tag; a builder's parameters are its keys.
_REGIONS = {"halfspace": _halfspace, "ball": _ball, "two-sided": _two_sided}
_SPACES = {
    "interval": ParamSpace.interval,
    "circle": ParamSpace.circle,
    "torus": lambda lengths, grid: ParamSpace.torus(*lengths, grid),
}
_COVS = {
    "cosine": SpatialCov.cosine,
    "torus-pair": SpatialCov.torus_pair,
    "wave-sum": lambda frequencies, weights=None: SpatialCov.wave_sum(frequencies, weights),
    "squared-exponential": lambda lambda2, n_waves=64, seed=0: SpatialCov.squared_exponential(
        lambda2, n_waves, rng=seed
    ),
}


def _check(what: str, data, table: dict, tag: str) -> tuple:
    """Check a config, or a nested spec, against the builder ``table[data[tag]]``.

    The builder's parameters are the keys ``data`` may carry; a parameter
    with no default, and not in ``_DEFAULTS``, is required.  Every value
    must pass its ``_KEYS`` test.  Builds nothing: returns the builder and
    its keyword arguments, with ``_DEFAULTS`` filled in.
    """
    if not isinstance(data, dict) or tag not in data:
        raise ConfigError(f"{what} must be a dict with key {tag!r}, got {data!r}")
    kind = data[tag]
    build = table.get(kind) if isinstance(kind, str) else None
    if build is None:
        raise ConfigError(f"unknown {what} {tag} {kind!r}, not one of {sorted(table)}")
    params = inspect.signature(build).parameters
    args = {k: v for k, v in data.items() if k != tag}
    unknown = sorted(set(args) - set(params))
    if unknown:
        raise ConfigError(f"unknown {what} keys for {kind!r}: {unknown}")
    missing = [
        k for k, p in params.items()
        if p.default is p.empty and k not in args and k not in _DEFAULTS
    ]
    if missing:
        raise ConfigError(f"missing {what} keys for {kind!r}: {missing}")
    for key, value in args.items():
        test, wanted = _KEYS[key]
        if not test(value):
            raise ConfigError(f"bad {what}: {key} must be {wanted}, got {value!r}")
    return build, {**{k: _DEFAULTS[k] for k in params if k in _DEFAULTS}, **args}


def _from_spec(what: str, spec, table: dict, tag: str = "kind"):
    """Check and build a nested spec; a value its builder rejects is a ConfigError."""
    build, args = _check(what, spec, table, tag)
    try:
        return build(**args)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {what} spec {spec!r}: {exc}") from None


_INT = (_is_int, "an integer")
_NON_NEGATIVE = (lambda v: _is_int(v) and v >= 0, "an integer >= 0")
_NUMBER = (_is_number, "a finite number")
# Every config key, top-level or nested, with its test and what the test asks for.
_KEYS = {
    "seed": _NON_NEGATIVE,
    "workers": (lambda v: _is_int(v) and v >= 1, "an integer >= 1"),
    "J": (lambda v: _is_int(v) and 0 <= v <= MAX_ORDER, f"an integer in [0, {MAX_ORDER}]"),
    "N": _INT,
    "n": _INT,
    "reps": _INT,
    "index": _INT,
    "eps": (lambda v: v is None or (_is_number(v) and v > 0), "a positive number"),
    "method": (
        lambda v: v in (None, "closed-form", "projection"),
        "a distance method, 'closed-form' or 'projection'",
    ),
    "potential": (lambda v: isinstance(v, str) and v in _PRESETS, f"one of {sorted(_PRESETS)}"),
    "u": _NUMBER,
    "u_levels": (_non_empty_list_of(_is_number), "a non-empty list of numbers"),
    "rho_grid": (
        _non_empty_list_of(lambda v: _is_number(v) and v >= 0),
        "a non-empty list of non-negative numbers",
    ),
    "n_grid": (
        lambda v: _non_empty_list_of(_is_int)(v) and all(a < b for a, b in zip(v, v[1:])),
        "a non-empty, strictly increasing list of integers",
    ),
    # a nested spec's test is _check, which raises its own error on a bad spec
    "region": (lambda v: bool(_check("region", v, _REGIONS, "kind")), "a region spec"),
    "space": (lambda v: bool(_check("space", v, _SPACES, "kind")), "a space spec"),
    "cov": (lambda v: bool(_check("cov", v, _COVS, "preset")), "a cov spec"),
    "dim": _INT,
    "radius": _NUMBER,
    "a": _NUMBER,
    "length": _NUMBER,
    "lengths": (
        lambda v: isinstance(v, (list, tuple)) and len(v) == 2 and all(map(_is_number, v)),
        "a list of two finite numbers",
    ),
    "grid": _INT,
    "frequency": _NUMBER,
    "frequencies": (_is_array, "a finite number or a non-empty list (of lists) of them"),
    "weights": (
        lambda v: v is None or _non_empty_list_of(_is_number)(v), "a non-empty list of numbers"
    ),
    "lambda2": _NUMBER,
    "n_waves": _INT,
}
# The keys a config may omit, with the value the runner then gets.
_DEFAULTS = {"workers": 1, "eps": None, "method": None}


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated experiment config: ``keys`` are its runner's keyword arguments."""

    experiment: str
    keys: dict

    @classmethod
    def from_dict(cls, data) -> "ExperimentConfig":
        """Check every key, top-level and nested, and build nothing.

        Works on a deep copy of ``data``, so later changes to the caller's
        dict cannot reach the checked keys, the hash or what ``run`` builds.
        """
        from copy import deepcopy

        data = deepcopy(data)
        runners = {name: entry.run for name, entry in EXPERIMENTS.items()}
        _, keys = _check("config", data, runners, "experiment")
        experiment = data["experiment"]
        min_N = EXPERIMENTS[experiment].min_N
        if keys["N"] < min_N:
            raise ConfigError(f"N must be >= {min_N} for {experiment!r}, got {keys['N']}")
        return cls(experiment, keys)

    def to_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            **{k: v for k, v in self.keys.items() if v is not None},
        }

    def hash(self) -> str:
        canon = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def read_json(path, what: str):
    """The JSON value in the file at ``path``; a file that is missing,
    unreadable, not UTF-8 or not JSON is a ConfigError naming ``what``."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read {path} as {what}: {exc}") from None


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
        data = read_json(path, "a saved RunResult")
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


# A runner's parameters are its experiment's config keys; it gets them, with
# ``seed`` as the root SeedSequence, and returns (rows, counters).


def _run_gmf(seed, workers, region, J, N, eps):
    oracle, closed_factory = _from_spec("region", region, _REGIONS)
    target = closed_factory(J)
    est = gmf_surface_mc(oracle.region, J, N, eps=eps, rng=seed, workers=workers)
    rows = [
        {
            "quantity": f"M_{j}",
            "j": j,
            "estimate": est.values[j],
            "stderr": est.stderr[j],
            "target": target.values[j],
        }
        for j in range(J + 1)
    ]
    return rows, dict(est.meta)


def _run_tube(seed, workers, region, J, N, rho_grid, method):
    oracle, closed_factory = _from_spec("region", region, _REGIONS)
    if method == "projection":
        oracle = projection_oracle(oracle.region)
    report_obj = validate_tube_series(
        oracle, closed_factory(J), rho_grid, N, rng=seed, workers=workers
    )
    counters = {
        "max_abs_residual": report_obj.max_abs_residual,
        "slope": report_obj.slope,
        "noise_floor": report_obj.noise_floor,
    }
    return report_obj.rows(), counters


def _run_converge(seed, workers, potential, u, J, N, n_grid, eps):
    potential = PotentialV.preset(potential)
    try:
        for n in n_grid:
            check_time_grid(n)
        convergence_target(potential, u, J)  # rejects a level outside its domain
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    study = convergence_study(potential, u, J, n_grid, N, rng=seed, eps=eps, workers=workers)
    metas = [{"n": n, **g.meta} for n, g in zip(study.n_grid, study.estimates)]
    return study.rows(), {"gmf_meta": metas}


def _run_crofton(seed, workers, space, cov, potential, u_levels, n, J, N, reps, index, eps):
    """The kinematic identity at ``index``; index 0 also runs the EC Monte Carlo."""
    space = _from_spec("space", space, _SPACES)
    cov = _from_spec("cov", cov, _COVS, "preset")
    potential = PotentialV.preset(potential)
    try:
        cov.compatible_with(space)
        check_time_grid(n)
        weights = kinematic_weights(index, space, cov, J)
        if index in (0, space.dim):
            # these indices simulate fields: reject a coarse grid before any sampling
            check_resolution(space, cov)
        if index == 0:
            # the EC side runs reps replications; index dim runs max(100, reps // 4)
            check_reps(reps)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    # child 0 stays unused, so each side keeps the seed its saved results were drawn from
    _, lhs_seed, rhs_seed, vol_seed = seed.spawn(4)
    if index == 0:
        # only the Euler-characteristic index has an EC Monte Carlo side
        ec_means, ec_ses = ec_mc_levels(
            space, cov, potential, u_levels, n, reps, rng=lhs_seed, workers=workers
        )
    # one sample set for every level, drawn from rhs_seed's first child
    gmf_levels = gmf_surface_mc_levels(
        CylFunctional(n, potential).sampled(), "excursion", [float(u) for u in u_levels], J, N,
        eps=eps, rng=rhs_seed.spawn(1)[0], workers=workers,
    )
    if index == space.dim:
        # one field set for every level, drawn from vol_seed's first child
        vols, vol_ses = excursion_volumes_mc(
            space, cov, potential, u_levels, n, max(100, reps // 4),
            rng=vol_seed.spawn(1)[0], workers=workers,
        )
    rows, gmf_meta = [], []
    for i, (u, gmfs) in enumerate(zip(u_levels, gmf_levels)):
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


def _run_gkf(seed, workers, space, cov, potential, u_levels, n, J, N, reps, eps):
    """The expected Euler characteristic: ``crofton`` at index 0."""
    return _run_crofton(seed, workers, space, cov, potential, u_levels, n, J, N, reps, 0, eps)


class Experiment(NamedTuple):
    """One experiment kind: plot columns, runner, and the fewest samples ``N`` it accepts."""

    plot_columns: tuple
    run: Callable
    min_N: int = MIN_SURFACE_SAMPLES


#: The experiment registry; the CLI has one subcommand per entry.
EXPERIMENTS = {
    "gmf": Experiment(("j", "estimate", "stderr", "target"), _run_gmf),
    "tube": Experiment(("rho", "residual", "stderr"), _run_tube, min_N=1),
    "converge": Experiment(("n", "j", "estimate", "stderr", "target"), _run_converge),
    "gkf": Experiment(("u", "ec_mean", "ec_stderr", "rhs", "rhs_stderr", "z"), _run_gkf),
    "crofton": Experiment(("u", "index", "rhs", "rhs_stderr"), _run_crofton),
}


def run(config: ExperimentConfig) -> RunResult:
    """Dispatch an experiment to its registered runner."""
    t0 = time.perf_counter()
    keys = {**config.keys, "seed": as_seed_sequence(config.keys["seed"])}
    rows, counters = EXPERIMENTS[config.experiment].run(**keys)
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
