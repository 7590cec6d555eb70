"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

1. Smoke: every workload at a tiny size, untraced and traced, in this
   process. Each must pass all its gates with no failed operation, and
   ``sanov``'s untimed defect probe must report the known underflow point
   and nothing else; each result must carry
   exactly the metric names BENCHMARK.json lists.
2. Gates: each correctness gate is fed a real output and then deliberately
   corrupted copies of it, and must accept the first and reject the others.
3. Stripped checkout: run.py, copied with BENCHMARK.json but without src/,
   must exit non-zero without printing a result.

Prints one line per check and exits 1 if any check fails.
"""
import _env  # must precede numpy

_env.pin_threads()
_env.use_checkout_source()

import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import bench  # noqa: E402
import gates  # noqa: E402
import workloads as W  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = json.load(open(os.path.join(_env.ROOT, "BENCHMARK.json"), encoding="utf-8"))

TINY = {
    "sweep_small": lambda: W.Sweep("sweep_small", 5, (2, 3, 4, 8), trace_ops=8),
    "sweep_large": lambda: W.Sweep("sweep_large", 5, (32,), trace_ops=2),
    "flow_scan": lambda: W.FlowScan("flow_scan", 5, dims=(2, 4), points=5, trace_ops=2),
    "sanov": lambda: W.Sanov("sanov", 5, trace_ops=4),
}

results: list[tuple[str, bool]] = []


def report(name: str, ok: bool, detail: str = "") -> None:
    results.append((name, ok))
    print(f"{'PASS' if ok else 'FAIL'} {name}" + (f" ({detail})" if detail else ""))


def smoke(workdir: str) -> None:
    e2e_names = {m["name"] for m in SPEC["end_to_end"]}
    layer_names = {m["name"] for m in SPEC["per_layer"]}
    for name, make in TINY.items():
        _, setup_times = bench.setup_workload(name, 5, workdir)
        report(f"setup {name} in fresh processes", len(setup_times) == bench.SETUP_PROCESSES
               and all(t > 0 for t in setup_times), ", ".join(f"{t:.3f}" for t in setup_times))
        wl = make()
        wl.setup(workdir)
        probe = bench.defect_probe(wl)
        expect_known = 1 if name == "sanov" else 0
        report(f"defect probe {name}", not probe.failures and len(probe.known) == expect_known,
               f"{probe.failures} {probe.known}")
        metrics, tally, _ = bench.end_to_end(wl, 0.2, setup_times)
        ok = tally.failed == 0 and tally.attempted > 0
        report(f"smoke {name} untraced", ok and set(metrics) == e2e_names,
               f"{tally.attempted} attempted, {tally.failed} failed")
        spans = os.path.join(workdir, f"spans-{name}.npz")
        metrics, tally, _ = bench.traced(wl, wl.trace_ops, spans, probe)
        ok = (tally.failed == 0 and set(metrics) == layer_names and os.path.isfile(spans)
              and metrics["ldp.underflow_points"]["value"] == expect_known)
        calls = sum(v["value"] for k, v in metrics.items() if k.endswith(".calls"))
        report(f"smoke {name} traced", ok and calls > 0,
               f"{calls} traced calls, overhead {metrics['trace.overhead_pct']['value']:.1f}%")


def rejects(name: str, verdict: gates.Verdict, expect_fail: bool) -> None:
    ok = bool(verdict.failures) == expect_fail
    detail = verdict.failures[0] if verdict.failures else "accepted"
    report(f"gate {name}", ok, detail)


def gate_checks(workdir: str) -> None:
    sweep = W.Sweep("sweep_small", 7, (3,), trace_ops=1)
    sweep.setup(workdir)
    r, s = W.ginibre_states(np.random.default_rng(7), 3, 2)
    d_u, d_bs, d_unr, max_f = sweep._pair_op(r, s)
    ref = gates.pair_reference(r, s)
    rejects("pair: real output", gates.check_pair(d_u, d_bs, d_unr, max_f, ref), False)
    rejects("pair: unr off by 1e-6", gates.check_pair(d_u, d_bs, d_unr + 1e-6, max_f, ref), True)
    rejects("pair: umegaki above bs", gates.check_pair(d_bs + 1e-6, d_bs, d_unr, max_f, ref), True)
    bad_f = [max_f[0], (max_f[1][0] + 1e-6, max_f[1][1]), max_f[2]]
    rejects("pair: max_f off by 1e-6", gates.check_pair(d_u, d_bs, d_unr, bad_f, ref), True)
    scaled = [(1.5 * a, 1.5 * b) for a, b in max_f]
    rejects("pair: every value x1.5", gates.check_pair(1.5 * d_u, 1.5 * d_bs, 1.5 * d_unr, scaled, ref), True)
    rejects("pair: bs and unr both x1.001",
            gates.check_pair(d_u, 1.001 * d_bs, 1.001 * d_unr, max_f, ref), True)
    both_f = [max_f[0], (max_f[1][0] * 1.001, max_f[1][1] * 1.001), max_f[2]]
    rejects("pair: max_f and basis f both x1.001", gates.check_pair(d_u, d_bs, d_unr, both_f, ref), True)
    rejects("pair: nan", gates.check_pair(math.nan, d_bs, d_unr, max_f, ref), True)

    scan = W.FlowScan("flow_scan", 7, dims=(3,), points=6)
    scan.setup(workdir)
    op = next(scan.ops())
    series, ref = op.call(), op.reference()
    rejects("scan: real output", op.check(series, ref), False)
    bumped = series[:3] + [(series[3][0], series[2][1] + 1e-6)] + series[4:]
    rejects("scan: a step rises by 1e-6", op.check(bumped, ref), True)
    lowered = series[:-1] + [(series[-1][0], series[-1][1] - 1e-6)]
    rejects("scan: last point lowered by 1e-6", op.check(lowered, ref), True)
    frozen = [(t, series[0][1]) for t, _ in series]
    rejects("scan: propagator left the states unchanged", op.check(frozen, ref), True)
    rejects("scan: a point missing", op.check(series[:-1], ref), True)

    sanov = W.Sanov("sanov", 7)
    sanov.setup(workdir)
    crit10 = sanov.write_case(*sanov.fixed[0], tag="gate")
    kind, r, s, eps, _, known = sanov.probe
    underflow = sanov.write_case(kind, r, s, eps, (50, 100, 200, 400), known, tag="gate")
    budget = W.Q.ldp.tolerance_budget

    def cli_rows(case):
        report(f"rate: cli exits 0 on the {case.kind} config", sanov._run(case.path) == 0)
        with open(sanov.csv, encoding="utf-8") as fh:
            return [(int(f[0]), float(f[2])) for f in (ln.split(",") for ln in fh.read().split()[1:])]

    def check(case, rows):
        brackets = gates.rate_reference(case.ref, case.sizes)
        return gates.check_rates(case.ref, rows, case.sizes, budget, brackets, case.known_underflow)

    rows = cli_rows(crit10)
    rejects("rate: real output", check(crit10, rows), False)
    off = [(n, rate + 1.0 if n == 200 else rate) for n, rate in rows]
    rejects("rate: one rate off by 1", check(crit10, off), True)
    nudged = [(n, rate * (1 + 1e-6) if n == 400 else rate) for n, rate in rows]
    rejects("rate: one rate x(1 + 1e-6), inside the budget", check(crit10, nudged), True)
    rejects("rate: a row missing", check(crit10, rows[:-1]), True)
    lost = [(n, math.inf) for n, _ in rows]
    rejects("rate: crit10 every rate inf", check(crit10, lost), True)
    crit10_inf = check(crit10, rows[:3] + lost[3:])
    rejects("rate: crit10 inf at n=400 is not the known defect", crit10_inf, True)
    report("rate: no count vector strictly inside the ball at n=50",
           underflow.ref.rate_bracket(50)[1] == math.inf)
    report("rate: enumeration finds the n=400 event non-empty",
           math.isfinite(underflow.ref.rate_bracket(400)[1]))

    rows = cli_rows(underflow)
    real = check(underflow, rows)
    report("rate: underflow pair fails only at its known n=400 point",
           not real.failures and len(real.known) == 1 and real.known[0].startswith("n=400"),
           f"{real.failures} {real.known}")
    early = [(n, math.inf if n == 200 else rate) for n, rate in rows]
    rejects("rate: underflow pair inf at n=200 is not the known defect", check(underflow, early), True)

    timed = sanov.write_case(*sanov.fixed[1], tag="timed")
    rejects("rate: timed underflow config has no known point",
            check(timed, [(n, math.inf) for n in timed.sizes]), True)

    # tally: every failed operation counts in failed
    tally = bench.Tally()
    op = W.Op("x", 1, 1, lambda: None, lambda: None, lambda out, ref: gates.Verdict(1))
    tally.add(op, 1.0, 1.0, real)
    tally.add(op, 1.0, 1.0, crit10_inf)
    report("tally: counts a failure, not a known-defect line", tally.failed == 1)


def stripped_checkout(workdir: str) -> None:
    root = os.path.join(workdir, "stripped")
    shutil.copytree(HERE, os.path.join(root, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(_env.ROOT, "BENCHMARK.json"), root)
    cmd = SPEC["command"] + ["--workload", "sweep_small", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=180)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    report("stripped checkout exits non-zero without a result",
           proc.returncode != 0 and '"correct"' not in last[0],
           f"exit {proc.returncode}: {proc.stderr.strip()[-80:]}")


def main() -> int:
    started = time.perf_counter()
    os.makedirs(bench.OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=bench.OUT_DIR)
    try:
        smoke(workdir)
        gate_checks(workdir)
        stripped_checkout(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = [name for name, ok in results if not ok]
    print(f"{len(results) - len(failed)} of {len(results)} checks passed"
          f" in {time.perf_counter() - started:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
