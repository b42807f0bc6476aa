"""Benchmark entry point: run one workload and print its metrics.

    python3 perfbench/run.py --workload torus-ec --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory, never from an installed copy.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0`` and the
per-layer metrics of a traced run with ``--trace 1``.  The full record of
the run (provenance, checks, every replication, spans) is written under
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def bootstrap() -> None:
    """Pin BLAS/OpenMP to one thread and put the checkout's ``src/`` first.

    Must run before numpy is imported: OpenBLAS reads its thread count when
    it loads.
    """
    src = ROOT / "src"
    if not (src / "gausstube" / "__init__.py").is_file():
        raise SystemExit(f"error: no gausstube sources under {src}; run from a source checkout")
    if "numpy" in sys.modules:
        raise RuntimeError("bootstrap() must run before numpy is imported")
    os.environ.update(THREAD_ENV)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p
    )
    sys.path.insert(0, str(src))


def _nonneg_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=_nonneg_int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bootstrap()
    import bench

    w = WORKLOADS[args.workload]
    result, record = bench.measure(
        w, args.seed, args.seconds, bool(args.trace), ROOT / ".bench_out"
    )
    print(f"workload {w.name} seed {args.seed} trace {args.trace}: {w.why}")
    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    print("samples " + json.dumps(record["samples"], sort_keys=True))
    for name, m in result["metrics"].items():
        print(f"  {name:42s} {m['value']!s:>24} {m['unit']}")
    for c in record["checks"]:
        print(f"  check {'ok  ' if c['ok'] else 'FAIL'} {c['name']}: {c['detail']}")
    print(f"  check_fail_frac {record['check_fail_frac']:g} "
          f"({result['failed']} of {result['attempted']})")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
