"""Measurement loop, metrics and the result line.

Untraced run (``--trace 0``): set up here, time the median of several
set-ups in fresh processes, then run operations back to back for
``--seconds`` and report the end-to-end metrics. Each operation's package
call is timed, then its numpy reference, right after it; ``op_over_ref`` is
the median of their ratio per input kind, so a slowdown of the shared host
that lasts longer than one operation and its reference cancels out.

Traced run (``--trace 1``): run one fixed list of operations three times,
untraced, under ``tracing.instrument``, and untraced again, and report
per-layer metrics from the spans of the traced pass plus the tracing overhead
(traced minus mean untraced time of the same work). Fixed work makes ``calls``,
``errors`` and the derived counts exact and comparable between commits.

Every timed operation must pass its gates. A known program defect is checked
apart from them, once per run and untimed (``defect_probe``): it is printed,
counted in ``ldp.underflow_points``, and left out of ``attempted`` and
``failed``; any other wrong answer from the probe makes the run incorrect.

There is no wait-time metric: the package is single-threaded and
synchronous, and the benchmark drives it from one closed-loop caller, so no
operation ever queues.
"""
from __future__ import annotations

import collections
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from array import array
from time import perf_counter

import numpy as np
import scipy

import gates
import tracing
import workloads

SETUP_PROCESSES = 5
TAIL_PERCENTILES = (99.9, 99.5, 99.0, 95.0, 90.0, 75.0, 50.0)
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def _blas_threads() -> dict[str, int]:
    """Threads each loaded OpenBLAS reports, keyed by library file name."""
    found = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return found
    for path in sorted(libs):
        if not path.endswith(".so") and ".so." not in path:
            continue
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                found[os.path.basename(path)] = int(fn())
                break
    return found


def machine_record(thread_vars: dict[str, str]) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_env": thread_vars,
        "wait_time": "none: single-threaded synchronous package, one closed-loop caller",
    }


def _tail(latencies) -> tuple[float, float, int]:
    """Highest listed percentile with at least 10 samples beyond it."""
    n = len(latencies)
    for p in TAIL_PERCENTILES:
        beyond = int(n * (1.0 - p / 100.0))
        if beyond >= 10:
            return float(np.percentile(latencies, p)), p, beyond
    return float("nan"), float("nan"), 0


class Tally:
    """Running totals of one pass; its size does not grow with the op count
    beyond one float per operation."""

    def __init__(self):
        self.latency: dict[str, array] = {}
        self.over_ref: dict[str, array] = {}  # per kind, call time / its reference's
        self.items = 0
        self.busy_s = 0.0
        self.attempted = 0
        self.failures: collections.Counter[str] = collections.Counter()

    def add(self, op: workloads.Op, lat: float, ref_lat: float | None, verdict: gates.Verdict) -> None:
        self.latency.setdefault(op.kind, array("d")).append(lat)
        if ref_lat is not None:
            self.over_ref.setdefault(op.kind, array("d")).append(lat / ref_lat)
        self.items += op.items
        self.busy_s += lat
        self.attempted += verdict.attempted
        self.failures.update(verdict.failures)

    def merge(self, other: "Tally") -> None:
        for kind, lat in other.latency.items():
            self.latency.setdefault(kind, array("d")).extend(lat)
        for kind, ratio in other.over_ref.items():
            self.over_ref.setdefault(kind, array("d")).extend(ratio)
        self.items += other.items
        self.busy_s += other.busy_s
        self.attempted += other.attempted
        self.failures.update(other.failures)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def run_ops(ops, rec: tracing.SpanRecorder | None = None, keep: list | None = None) -> Tally:
    """Time each call, then its reference; check the output after both."""
    tally = Tally()
    for i, op in enumerate(ops):
        if rec is not None:
            rec.op = i
        t0 = perf_counter()
        try:
            out = op.call()
        except Exception as exc:  # an operation that raised counts as failed
            lat = perf_counter() - t0
            ref_lat = None
            verdict = gates.raised(op.attempted, exc)
        else:
            lat = perf_counter() - t0
            t0 = perf_counter()
            ref = op.reference()
            ref_lat = perf_counter() - t0
            verdict = op.check(out, ref)
        tally.add(op, lat, ref_lat, verdict)
        if keep is not None:
            keep.append((op, verdict))
    return tally


def _timed_ops(ops, seconds: float):
    """Operations until ``seconds`` have passed, and at least one."""
    end = perf_counter() + seconds
    while True:
        yield next(ops)
        if perf_counter() >= end:
            return


def setup_workload(name: str, seed: int, workdir: str):
    """Set up here, untimed, then time SETUP_PROCESSES set-ups, each in a
    fresh process from its start to its exit right after set-up."""
    wl = workloads.WORKLOADS[name](seed)
    wl.setup(workdir)
    probe = os.path.join(os.path.dirname(os.path.abspath(__file__)), "setup_probe.py")
    times = []
    for _ in range(SETUP_PROCESSES):
        child_dir = tempfile.mkdtemp(prefix="setup-", dir=workdir)
        t0 = perf_counter()
        subprocess.run([sys.executable, probe, name, str(seed), child_dir],
                       capture_output=True, timeout=120, check=True)
        times.append(perf_counter() - t0)
    return wl, times


def end_to_end(wl, seconds: float, setup_times: list[float]):
    tally = run_ops(_timed_ops(wl.ops(), seconds))
    per_kind = [np.frombuffer(v) for v in tally.latency.values()]
    best = statistics.fmean(float(v.min()) for v in per_kind)
    over_ref = (statistics.fmean(float(np.median(v)) for v in tally.over_ref.values())
                if tally.over_ref else float("nan"))  # nan: every call raised
    p50 = statistics.fmean(float(np.median(v)) for v in per_kind)
    pooled = np.concatenate(per_kind)
    tail, tail_p, beyond = _tail(pooled)
    fail_frac = tally.failed / tally.attempted if tally.attempted else float("nan")
    setup_s = statistics.median(setup_times)
    metrics = {
        "op_over_ref": {"value": over_ref, "unit": "ratio"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        "setup_s": {"value": setup_s, "unit": "s"},
    }
    kinds = f"{len(per_kind)} input kinds"
    named = [
        ("op_over_ref", over_ref, f"(mean over {kinds} of each kind's median call time / its numpy reference's)"),
        ("op_min_us", best * 1e6, f"us (mean over {kinds} of each kind's fastest call)"),
        (wl.rate_name, tally.items / tally.busy_s, f"1/s ({wl.unit} per second)"),
        ("op_p50_us", p50 * 1e6, f"us (mean over {kinds} of each kind's median)"),
        ("op_tail_us", tail * 1e6, f"us (p{tail_p:g}, {beyond} of {len(pooled)} samples beyond)"
         if beyond else f"us (n/a: {len(pooled)} samples, a tail needs 10 beyond it)"),
        ("fail_frac", fail_frac, f"({tally.failed} of {tally.attempted})"),
        ("setup_s", setup_s, f"s (median of {len(setup_times)} set-ups: "
         + ", ".join(f"{t:.3f}" for t in setup_times) + ")"),
        ("peak_rss_mb", metrics["peak_rss_mb"]["value"], "MB"),
    ]
    return metrics, tally, named


def defect_probe(wl) -> gates.Verdict:
    """A workload's untimed known-defect check; empty for most workloads."""
    probe = getattr(wl, "defect_probe", None)
    return probe() if probe is not None else gates.Verdict(0)


def traced(wl, n_ops: int, spans_path: str, probe: gates.Verdict):
    """Fixed work: untraced, traced, untraced; spans come from the middle pass.
    ``probe`` is the workload's known-defect check, run outside the spans."""
    ops = [op for op, _ in zip(wl.ops(), range(n_ops))]
    before = run_ops(ops)
    rec = tracing.SpanRecorder()
    rows: list[tuple[workloads.Op, gates.Verdict]] = []
    with tracing.instrument(rec):
        tally = run_ops(ops, rec, rows)
    after = run_ops(ops)
    rec.save(spans_path)

    spans = rec.summary()
    metrics = {}
    for qualname, s in spans.items():
        metrics[f"{qualname}.calls"] = {"value": s["calls"], "unit": "count"}
        metrics[f"{qualname}.self_s"] = {"value": s["self_s"], "unit": "s"}
        metrics[f"{qualname}.errors"] = {"value": s["errors"], "unit": "count"}

    def total(key: str) -> int:
        return sum((op.extra or {}).get(key, 0) for op, _ in rows)

    def worst(key: str) -> float:
        vals = [v.headroom[key] for _, v in rows if key in v.headroom]
        return max(vals) if vals else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    pairs, points, vectors = total("pairs"), total("scan_points"), total("count_vectors")
    untraced_s = 0.5 * (before.busy_s + after.busy_s)
    derived = {
        "matcore.herm_eig.per_pair": (ratio(spans["matcore.herm_eig"]["calls"], pairs), "count"),
        "entropy.bs_unr_headroom": (worst("bs_unr"), "ratio"),
        "entropy.maxf_headroom": (worst("maxf"), "ratio"),
        "dynamics.lindblad_superop.per_point": (ratio(spans["dynamics.lindblad_superop"]["calls"], points), "count"),
        "dynamics.scan_increase_headroom": (worst("step_increase"), "ratio"),
        "ldp.count_vectors": (vectors, "count"),
        "ldp.ns_per_count_vector": (ratio(spans["ldp.ball_probability_exact"]["total_s"] * 1e9, vectors), "ns"),
        "ldp.underflow_points": (len(probe.known), "count"),
        "trace.untraced_s": (untraced_s, "s"),
        "trace.traced_s": (tally.busy_s, "s"),
        "trace.overhead_pct": (100.0 * (tally.busy_s - untraced_s) / untraced_s, "%"),
        "trace.spans": (len(rec), "count"),
    }
    for key, (value, unit) in derived.items():
        metrics[key] = {"value": value, "unit": unit}
    named = [(k, m["value"], m["unit"]) for k, m in metrics.items()]
    for other in (before, after):
        tally.merge(other)
    return metrics, tally, named


def main(args, thread_vars: dict[str, str]) -> int:
    print(json.dumps({"machine": machine_record(thread_vars)}))
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT_DIR)
    try:
        wl, setup_times = setup_workload(args.workload, args.seed, workdir)
        probe = defect_probe(wl)
        if args.trace:
            spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.npz")
            metrics, tally, named = traced(wl, wl.trace_ops, spans_path, probe)
        else:
            metrics, tally, named = end_to_end(wl, args.seconds, setup_times)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for fail, count in sorted(tally.failures.items()):
        print(f"failed x{count}: {fail}")
    for fail in probe.failures:
        print(f"defect probe failed: {fail}")
    for fail in probe.known:
        print(f"known defect (untimed probe, not in attempted/failed): {fail}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}:")
    for key, value, unit in named:
        print(f"  {key} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not tally.failures and not probe.failures,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0
