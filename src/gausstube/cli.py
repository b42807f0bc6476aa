"""Command-line front end for the experiment harness.

Subcommands mirror the experiment kinds (``gmf``, ``tube``, ``converge``,
``gkf``, ``crofton``) plus ``report`` for post-processing saved results.
Exit codes: 0 on success, 2 on configuration, validation and input errors
(an unreadable config or saved result, an unusable output directory), 3 on
numerical failures.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .errors import ConfigError, GausstubeError
from .harness import EXPERIMENTS, ExperimentConfig, RunResult, read_json, report, run

#: Environment variable naming the default output directory.
OUT_DIR_ENV = "GAUSSTUBE_OUT"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gausstube",
        description="Gaussian tube formulas, Minkowski functionals, and "
        "excursion-set Euler characteristic experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name, help=f"run a '{name}' experiment from a config file")
        p.add_argument("--config", required=True, help="path to a JSON config")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--workers", type=int, default=None, help="override worker count")
        p.add_argument("--out", default=None, help=f"output directory (default ${OUT_DIR_ENV} or '.')")
    p = sub.add_parser("report", help="summarize saved result JSON files")
    p.add_argument("results", nargs="+", help="result JSON paths")
    p.add_argument("--out", default=None, help=f"output directory (default ${OUT_DIR_ENV} or '.')")
    return parser


def _out_dir(arg) -> Path:
    """The output directory, created if missing; a path that cannot be one
    (an existing file, say) is an input error."""
    out = Path(arg or os.environ.get(OUT_DIR_ENV) or ".")
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot use {str(out)!r} as the output directory: {exc}") from None
    return out


def _load_config(path: str, command: str, seed, workers) -> ExperimentConfig:
    raw = read_json(path, "a config")
    if isinstance(raw, dict):  # from_dict rejects any other JSON value
        if seed is not None:
            raw["seed"] = seed
        if workers is not None:
            raw["workers"] = workers
    config = ExperimentConfig.from_dict(raw)
    if config.experiment != command:
        raise ConfigError(
            f"config experiment {config.experiment!r} does not match subcommand {command!r}"
        )
    return config


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "report":
            results = [RunResult.load(p) for p in args.results]
            written = report(results, _out_dir(args.out))
            for path in written:
                print(path)
            return 0
        config = _load_config(args.config, args.command, args.seed, args.workers)
        out = _out_dir(args.out)
        result = run(config)
        result_path = out / f"{result.experiment}_{result.config_hash[:8]}.json"
        result.save(result_path)
        written = report([result], out)
        print(result_path)
        for path in written:
            print(path)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (GausstubeError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
