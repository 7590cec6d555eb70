"""Set up one workload in a fresh process, then exit.

    python3 perfbench/setup_probe.py <workload> <seed> <workdir>

Does what a benchmark run does before its first timed operation: the
thread pin, imports, input generation, config files and warm-up.
``bench.setup_workload`` times several of these processes, start to exit.
"""
import _env  # must precede numpy

_env.pin_threads()

import sys  # noqa: E402


def main() -> int:
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    _env.use_checkout_source()
    import workloads

    workloads.WORKLOADS[name](seed).setup(workdir)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
