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
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from ._mc import as_seed_sequence
from .cylinder import CylFunctional, PotentialV, check_time_grid, convergence_study
from .errors import ConfigError
from .fields import (
    ParamSpace,
    SpatialCov,
    check_reps,
    check_resolution,
    ec_mc_levels,
    excursion_volume_mc,
    kinematic_weights,
    lkc,
    validate_assumptions,
)
from .functionals import coordinate, norm
from .gmf import (
    RegionSpec,
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

_EXPERIMENTS = ("gmf", "tube", "converge", "gkf", "crofton")

# Keys every experiment accepts, and per-experiment required/optional keys.
_COMMON_KEYS = {"experiment", "seed", "workers"}
_SCHEMA = {
    "gmf": ({"region", "J", "N"}, {"eps"}),
    "tube": ({"region", "J", "N", "rho_grid"}, {"method"}),
    "converge": ({"potential", "u", "J", "N", "n_grid"}, {"eps"}),
    "gkf": ({"space", "cov", "potential", "u_levels", "n", "J", "N", "reps"}, {"eps"}),
    "crofton": (
        {"space", "cov", "potential", "u_levels", "n", "J", "N", "reps", "index"},
        {"eps"},
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
        if experiment not in _EXPERIMENTS:
            raise ConfigError(
                f"experiment must be one of {_EXPERIMENTS}, got {experiment!r}"
            )
        required, optional = _SCHEMA[experiment]
        allowed = _COMMON_KEYS | required | optional
        unknown = set(data) - allowed
        if unknown:
            raise ConfigError(f"unknown config keys for {experiment!r}: {sorted(unknown)}")
        missing = (required | {"seed"}) - set(data)
        if missing:
            raise ConfigError(f"missing config keys for {experiment!r}: {sorted(missing)}")
        seed, workers = data["seed"], data.get("workers", 1)
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise ConfigError(f"seed must be an integer, got {seed!r}")
        if isinstance(workers, bool) or not isinstance(workers, int) or workers < 1:
            raise ConfigError(f"workers must be an integer >= 1, got {workers!r}")
        known_fields = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known_fields})

    def to_dict(self) -> dict:
        return {
            k: v for k, v in dataclasses.asdict(self).items() if v is not None
        }

    def hash(self) -> str:
        canon = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()


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
        return cls(
            config_hash=data["config_hash"],
            experiment=data["experiment"],
            rows=data["rows"],
            counters=data["counters"],
            wall_clock=data["wall_clock"],
            version=data["version"],
        )


def _build_region(spec: dict):
    """RegionSpec plus closed-form Minkowski target from a config dict."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError(f"region must be a dict with a 'kind', got {spec!r}")
    kind = spec["kind"]
    try:
        if kind == "halfspace":
            dim = int(spec.get("dim", 1))
            u = float(spec["u"])
            return RegionSpec(coordinate(dim), u, "excursion"), lambda J: gmf_halfspace(u, J)
        if kind == "ball":
            dim = int(spec["dim"])
            radius = float(spec["radius"])
            return RegionSpec(norm(dim), radius, "sub-level"), lambda J: gmf_ball(radius, dim, J)
        if kind == "two-sided":
            dim = int(spec.get("dim", 1))
            a = float(spec["a"])
            oracle = two_sided_oracle(a, dim)
            return oracle.region, lambda J: gmf_two_sided(a, J)
    except KeyError as exc:
        raise ConfigError(f"region {kind!r} is missing key {exc}") from None
    raise ConfigError(f"unknown region kind {kind!r}")


def _build_oracle(spec: dict, method: Optional[str]):
    kind = spec.get("kind")
    if method in (None, "closed-form"):
        try:
            if kind == "halfspace":
                return halfspace_oracle(float(spec["u"]), int(spec.get("dim", 1)))
            if kind == "ball":
                return ball_oracle(float(spec["radius"]), int(spec["dim"]))
            if kind == "two-sided":
                return two_sided_oracle(float(spec["a"]), int(spec.get("dim", 1)))
        except KeyError as exc:
            raise ConfigError(f"region {kind!r} is missing key {exc}") from None
        raise ConfigError(f"no closed-form distance for region kind {kind!r}")
    if method == "projection":
        region, _ = _build_region(spec)
        return projection_oracle(region)
    raise ConfigError(f"unknown distance method {method!r}")


def _build_space(spec: dict) -> ParamSpace:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError(f"space must be a dict with a 'kind', got {spec!r}")
    kind = spec["kind"]
    try:
        grid = int(spec["grid"])
        if kind == "interval":
            return ParamSpace.interval(float(spec["length"]), grid)
        if kind == "circle":
            return ParamSpace.circle(float(spec["length"]), grid)
        if kind == "torus":
            l1, l2 = spec["lengths"]
            return ParamSpace.torus(float(l1), float(l2), grid)
    except KeyError as exc:
        raise ConfigError(f"space {kind!r} is missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad space spec {spec!r}: {exc}") from None
    raise ConfigError(f"unknown space kind {kind!r}")


def _build_cov(spec: dict) -> SpatialCov:
    if not isinstance(spec, dict) or "preset" not in spec:
        raise ConfigError(f"cov must be a dict with a 'preset', got {spec!r}")
    preset = spec["preset"]
    try:
        if preset == "cosine":
            return SpatialCov.cosine(float(spec["frequency"]))
        if preset == "torus-pair":
            return SpatialCov.torus_pair(float(spec["frequency"]))
        if preset == "wave-sum":
            return SpatialCov.wave_sum(spec["frequencies"], spec.get("weights"))
        if preset == "squared-exponential":
            return SpatialCov.squared_exponential(
                float(spec["lambda2"]),
                int(spec.get("n_waves", 64)),
                int(spec.get("dim", 1)),
                rng=int(spec.get("seed", 0)),
            )
    except KeyError as exc:
        raise ConfigError(f"cov {preset!r} is missing key {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"bad covariance spec: {exc}") from None
    raise ConfigError(f"unknown covariance preset {preset!r}")


def _potential(config: ExperimentConfig) -> PotentialV:
    try:
        return PotentialV.preset(config.potential)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def run(config: ExperimentConfig) -> RunResult:
    """Dispatch an experiment and collect plot-ready rows."""
    t0 = time.perf_counter()
    root = as_seed_sequence(config.seed)
    rows: list = []
    counters: dict = {}

    if config.experiment == "gmf":
        region, closed_factory = _build_region(config.region)
        target = closed_factory(config.J)
        est = gmf_surface_mc(
            region, config.J, config.N, eps=config.eps, rng=root, workers=config.workers
        )
        for j in range(config.J + 1):
            rows.append(
                {
                    "quantity": f"M_{j}",
                    "j": j,
                    "estimate": est.values[j],
                    "stderr": est.stderr[j],
                    "target": target.values[j],
                }
            )
        counters.update(est.meta)

    elif config.experiment == "tube":
        oracle = _build_oracle(config.region, config.method)
        _, closed_factory = _build_region(config.region)
        gmfs = closed_factory(config.J)
        report_obj = validate_tube_series(
            oracle, gmfs, config.rho_grid, config.N, rng=root, workers=config.workers
        )
        rows.extend(report_obj.rows())
        counters["max_abs_residual"] = report_obj.max_abs_residual
        counters["slope"] = report_obj.slope
        counters["noise_floor"] = report_obj.noise_floor

    elif config.experiment == "converge":
        try:
            for n in config.n_grid:
                check_time_grid(n)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        study = convergence_study(
            _potential(config),
            config.u,
            config.J,
            config.n_grid,
            config.N,
            rng=root,
            eps=config.eps,
            workers=config.workers,
        )
        rows.extend(study.rows())
        counters["gmf_meta"] = [
            {"n": n, **g.meta} for n, g in zip(study.n_grid, study.estimates)
        ]

    elif config.experiment in ("gkf", "crofton"):
        space = _build_space(config.space)
        cov = _build_cov(config.cov)
        potential = _potential(config)
        try:
            cov.compatible_with(space)
            check_time_grid(config.n)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if config.J < space.dim:
            raise ConfigError(f"J={config.J} must be >= space dimension {space.dim}")
        index = 0 if config.experiment == "gkf" else config.index
        if isinstance(index, bool) or not isinstance(index, int):
            raise ConfigError(f"index must be an integer, got {index!r}")
        try:
            weights = kinematic_weights(index, space, cov, config.J)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if index in (0, space.dim):
            # these indices simulate fields: reject a coarse grid before any sampling
            try:
                check_resolution(space, cov)
                if index == 0:
                    # the EC side runs reps replications; index dim runs max(100, reps // 4)
                    check_reps(config.reps)
            except ValueError as exc:
                raise ConfigError(str(exc)) from None
        validate_assumptions(cov, potential, rng=root.spawn(1)[0])
        lhs_seed, rhs_seed, vol_seed = root.spawn(3)
        ec = None
        if index == 0:
            # only the Euler-characteristic index has an EC Monte Carlo side
            ec = ec_mc_levels(
                space, cov, potential, config.u_levels, config.n, config.reps,
                rng=lhs_seed, workers=config.workers,
            )
        # one sample set for every level, drawn from rhs_seed's first child
        gmf_levels = gmf_surface_mc_levels(
            CylFunctional(config.n, potential).functional(), "excursion",
            [float(u) for u in config.u_levels], config.J, config.N, eps=config.eps,
            rng=rhs_seed.spawn(1)[0], workers=config.workers,
        )
        gmf_meta = []
        for i, (u, gmfs) in enumerate(zip(config.u_levels, gmf_levels)):
            gmf_meta.append({"u": float(u), **gmfs.meta})
            value, stderr = gmfs.dot(weights)
            row = {
                "u": float(u),
                "index": index,
                "rhs": value,
                "rhs_stderr": stderr,
            }
            if ec is not None:
                combined = float(np.hypot(ec[i].stderr, stderr))
                row.update(
                    {
                        "ec_mean": ec[i].mean,
                        "ec_stderr": ec[i].stderr,
                        "z": (ec[i].mean - value) / combined if combined > 0 else 0.0,
                    }
                )
            if config.experiment == "crofton" and index == space.dim:
                vol, vol_se = excursion_volume_mc(
                    space, cov, potential, float(u), config.n,
                    max(100, config.reps // 4), rng=vol_seed.spawn(1)[0],
                    workers=config.workers,
                )
                row.update({"volume_mc": vol, "volume_stderr": vol_se})
            rows.append(row)
        counters["lkc"] = [float(v) for v in lkc(space, cov)]
        counters["gmf_meta"] = gmf_meta

    else:  # pragma: no cover - from_dict already validated
        raise ConfigError(f"unknown experiment {config.experiment!r}")

    rows = _plain(rows)
    counters = _plain(counters)
    return RunResult(
        config_hash=config.hash(),
        experiment=config.experiment,
        rows=rows,
        counters=counters,
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


_PLOT_COLUMNS = {
    "tube": ("rho", "residual", "stderr"),
    "converge": ("n", "j", "estimate", "stderr", "target"),
    "gkf": ("u", "ec_mean", "ec_stderr", "rhs", "rhs_stderr", "z"),
    "crofton": ("u", "index", "rhs", "rhs_stderr"),
    "gmf": ("j", "estimate", "stderr", "target"),
}


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
        plot_cols = _PLOT_COLUMNS.get(res.experiment)
        if plot_cols and res.rows:
            present = [c for c in plot_cols if any(c in r for r in res.rows)]
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
