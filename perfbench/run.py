"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sweep_small --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the package is imported from its src/.
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``, per-layer
metrics with ``--trace 1``). Earlier lines give the machine record, each
failure, and every metric by its name with its unit.
"""
import _env  # must precede numpy

THREAD_ENV = _env.pin_threads()

import argparse  # noqa: E402


def parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, help="a name from BENCHMARK.json")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p


def main() -> int:
    p = parser()
    args = p.parse_args()
    _env.use_checkout_source()
    import bench  # imports numpy, scipy and the package

    if args.workload not in bench.workloads.WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; choose from {sorted(bench.workloads.WORKLOADS)}")
    return bench.main(args, THREAD_ENV)


if __name__ == "__main__":
    raise SystemExit(main())
