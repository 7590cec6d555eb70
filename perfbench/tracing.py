"""Span recording around the package's public functions, from outside it.

``instrument`` replaces each listed function with a wrapper that records one
span per call: which function, the enclosing span, the benchmark operation
it served, start, end, and whether it raised. The replacement is made in the
defining module and under every other name a ``qunravel`` module imported it
as (``qunravel.entropy.herm_eig``, ``qunravel.cli.ball_probability_exact``,
the package namespace), and undone on exit. A class is traced through its
``__init__``. No file of the package is touched.

Spans stay in memory until the run ends. ``summary`` derives calls, errors,
inclusive and self time per function from them; self time is a span's
duration minus the durations of its direct children.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import sys
from array import array
from time import perf_counter

import numpy as np

# layer (package module) -> public functions traced in it
TARGETS = {
    "matcore": ("herm_eig", "spectral_fn"),
    "states": ("validate_density", "canonical_phase"),
    "commonbasis": ("common_basis", "cb_measures"),
    "ensembles": ("DiscreteEnsemble", "kl_divergence", "f_divergence"),
    "entropy": ("umegaki", "bs_entropy", "unr_entropy", "max_f_divergence"),
    "dynamics": ("lindblad_superop", "lindblad_evolve", "contraction_scan"),
    "ldp": ("make_experiment", "ball_probability_exact"),
    "cli": ("main",),
}
SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in TARGETS.items() for fn in fns)


class SpanRecorder:
    """Column store of spans; ``op`` is set by the caller per operation."""

    def __init__(self):
        self.fn = array("i")
        self.parent = array("i")
        self.op_ids = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.err = array("b")
        self.op = -1
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self.fn)

    def wrap(self, idx: int, fn):
        rec = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            sid = len(rec.fn)
            rec.fn.append(idx)
            rec.parent.append(rec._stack[-1] if rec._stack else -1)
            rec.op_ids.append(rec.op)
            rec.t0.append(0.0)
            rec.t1.append(0.0)
            rec.err.append(0)
            rec._stack.append(sid)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                rec.err[sid] = 1
                raise
            finally:
                rec.t1[sid] = perf_counter()
                rec.t0[sid] = start
                rec._stack.pop()

        return span

    def summary(self) -> dict[str, dict[str, float]]:
        """Per traced function: calls, errors, total_s (inclusive), self_s."""
        n_fn = len(SPAN_NAMES)
        fn = np.frombuffer(self.fn, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.t1) - np.frombuffer(self.t0)
        err = np.frombuffer(self.err, dtype=np.int8)
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(fn))
        self_time = dur - children
        calls = np.bincount(fn, minlength=n_fn)
        errors = np.bincount(fn, weights=err, minlength=n_fn)
        total = np.bincount(fn, weights=dur, minlength=n_fn)
        selfs = np.bincount(fn, weights=self_time, minlength=n_fn)
        return {
            name: {
                "calls": int(calls[i]),
                "errors": int(errors[i]),
                "total_s": float(total[i]),
                "self_s": float(selfs[i]),
            }
            for i, name in enumerate(SPAN_NAMES)
        }

    def save(self, path: str) -> None:
        np.savez_compressed(
            path,
            names=np.array(SPAN_NAMES),
            fn=np.frombuffer(self.fn, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op_ids, dtype=np.int32),
            t0=np.frombuffer(self.t0),
            t1=np.frombuffer(self.t1),
            err=np.frombuffer(self.err, dtype=np.int8),
        )


@contextlib.contextmanager
def instrument(rec: SpanRecorder):
    """Route every traced function, under all its names, through ``rec``."""
    modules = [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == "qunravel" or name.startswith("qunravel."))
    ]
    undo = []
    try:
        for idx, qualname in enumerate(SPAN_NAMES):
            layer, name = qualname.split(".")
            orig = getattr(importlib.import_module(f"qunravel.{layer}"), name)
            if isinstance(orig, type):
                undo.append((orig, "__init__", orig.__init__))
                orig.__init__ = rec.wrap(idx, orig.__init__)
                continue
            wrapped = rec.wrap(idx, orig)
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        undo.append((m, attr, val))
                        setattr(m, attr, wrapped)
        yield rec
    finally:
        for obj, attr, val in reversed(undo):
            setattr(obj, attr, val)
