"""Command-line front end.

Five subcommands: ``entropy``, ``haar-experiment``, ``common-basis``,
``contraction``, and ``ldp``. Matrices travel as JSON with complex entries
encoded ``[re, im]``; tabular results are CSV with 15 significant digits.
Every run prints a JSON summary to stdout carrying its configuration (and
the seed of ``haar-experiment``, the one command that draws random numbers),
so reruns are reproducible byte for byte. The summary is strict JSON: the one
non-finite value a run can report, the inf rate of an empty ``ldp`` event, is
written as the string ``"inf"``, as in the CSV.

Input files take only the fields that the README lists for their kind: a
missing field, or any other one, exits 2 naming ``path:field``.

Exit codes: 0 success, 2 input validation (a bad flag or argument too),
3 property violation, 4 budget exceeded (an ``ldp`` enumeration, a
``contraction`` grid or generator, a ``haar-experiment`` dimension, or an
allocation the system refuses). Every failure prints one JSON line on stderr.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys

import numpy as np

from .commonbasis import common_basis, dual_consistency
from .dynamics import MAX_SCAN_ENTRIES, LindbladModel, check_scan_budget, contraction_scan
from .entropy import bs_entropy, umegaki, unr_entropy
from .errors import BudgetExceeded, ContractionViolation, QunravelError, ValidationError
from .ldp import ball_log_probabilities, make_experiment
from .matcore import Tolerances, _hermitized
from .states import RngStream, sample_faithful, trace_distance, validate_density

__all__ = ["main", "entry"]

LN2 = math.log(2.0)
CONTRACTION_SLACK = 1e-7


def _fmt(x: float) -> str:
    return f"{x:.15g}"


def _tols_from_args(args) -> tuple[Tolerances, dict]:
    overrides = {
        f.name: getattr(args, f.name)
        for f in dataclasses.fields(Tolerances)
        if getattr(args, f.name) is not None
    }
    return Tolerances(**overrides), overrides


def _metadata(args, inputs, base: str = "nats", **params) -> dict:
    """Everything needed to reproduce the run, for its JSON summary."""
    meta = {"command": args.command, "inputs": list(inputs), "base": base}
    if args.out:
        meta["out"] = args.out
    if args.overrides:
        meta["tolerance_overrides"] = args.overrides
    meta.update(params)
    return meta


def _number(value, kind, what: str):
    """``kind(value)`` for a JSON number field (``kind`` is int or float).

    Only a JSON number passes: a string or boolean is an input error, not a
    number, and an int field needs an integral value rather than truncating.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} must be a number, got {value!r}")
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{what} must be an integer, got {value!r}")
    try:
        return kind(value)
    except OverflowError:
        raise ValueError(f"{what} is out of range, got {value!r}") from None


def _typed(value, kind: type, what: str):
    """``value`` itself when it has the type ``kind`` (list or dict)."""
    if not isinstance(value, kind):
        raise ValueError(f"{what} must be a {kind.__name__}, got {value!r}")
    return value


def _parse_entry(entry, what: str) -> complex:
    if isinstance(entry, (int, float)) and not isinstance(entry, bool):
        return complex(entry, 0.0)
    if isinstance(entry, (list, tuple)) and len(entry) == 2:
        return complex(_number(entry[0], float, what), _number(entry[1], float, what))
    raise ValueError(f"{what}: matrix entry {entry!r} is neither a number nor an [re, im] pair")


def _parse_matrix(rows, dim: int, what: str) -> np.ndarray:
    rows = [_typed(row, list, what) for row in _typed(rows, list, what)]
    mat = np.array([[_parse_entry(e, what) for e in row] for row in rows], dtype=complex)
    if mat.shape != (dim, dim):
        raise ValueError(f"{what} has shape {mat.shape}, expected ({dim}, {dim})")
    return mat


def _pairs(mat: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(mat)]


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _fields(obj, what: str, *required: str, **optional) -> list:
    """The values of the ``required`` fields of the JSON object ``obj``, then
    of the ``optional`` ones, each of these its default when absent. A field
    of neither kind, or a missing required one, is a ``ValueError`` naming
    ``what:field``."""
    obj = _typed(obj, dict, what)
    known = (*required, *optional)
    for key in obj:
        if key not in known:
            raise ValueError(f"{what}:{key} is not a field; the fields are {', '.join(known)}")
    for key in required:
        if key not in obj:
            raise ValueError(f"{what}:{key} is missing")
    return [obj[key] for key in required] + [obj.get(k, v) for k, v in optional.items()]


def _parse_density(obj, what: str, tols: Tolerances):
    dim, rows = _fields(obj, what, "dim", "matrix")
    dim = _number(dim, int, f"{what}:dim")
    try:
        return validate_density(_parse_matrix(rows, dim, what), tols)
    except QunravelError as exc:  # same class, so the same exit code
        raise type(exc)(f"{what}: {exc}") from None


def _load_density(path: str, tols: Tolerances):
    return _parse_density(_load_json(path), path, tols)


def _load_model(path: str, tols: Tolerances) -> LindbladModel:
    obj = _load_json(path)
    dim, h, jumps, rates = _fields(obj, path, "dim", "hamiltonian", jumps=[], rates=[])
    dim = _number(dim, int, f"{path}:dim")
    h = _parse_matrix(h, dim, f"{path}:hamiltonian")
    try:  # under the run's tol_herm; the model then gets an exactly Hermitian H
        h, _ = _hermitized(h, tols)
    except QunravelError as exc:
        raise type(exc)(f"{path}:hamiltonian: {exc}") from None
    jumps = tuple(
        _parse_matrix(rows, dim, f"{path}:jumps[{i}]")
        for i, rows in enumerate(_typed(jumps, list, f"{path}:jumps"))
    )
    rates = tuple(_number(g, float, f"{path}:rates") for g in _typed(rates, list, f"{path}:rates"))
    try:
        return LindbladModel(h, jumps, rates)
    except (QunravelError, ValueError) as exc:  # same class, so the same exit code
        raise type(exc)(f"{path}: {exc}") from None


def _write_text(path: str | None, text: str) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit_summary(summary: dict, path: str | None = None) -> None:
    """Write the summary to ``path``, if given, then print it, so a file that
    cannot be written fails the run before anything reaches stdout. The JSON
    is strict: a non-finite number raises instead of printing ``Infinity``."""
    text = json.dumps(summary, indent=2, allow_nan=False)
    _write_text(path, text + "\n")
    print(text)


def cmd_entropy(args) -> int:
    tols = args.tols
    rho = _load_density(args.rho, tols)
    sigma = _load_density(args.sigma, tols)

    d_u = umegaki(rho, sigma, tols)
    d_bs = bs_entropy(rho, sigma, tols)
    d_unr = unr_entropy(rho, sigma, tols)
    cb = common_basis(rho, sigma, tols)

    scale = LN2 if args.base == "bits" else 1.0
    values = {"umegaki": d_u / scale, "bs": d_bs / scale, "unr": d_unr / scale}
    if args.which != "all":
        values = {args.which: values[args.which]}
    report = {
        "metadata": _metadata(args, (args.rho, args.sigma), args.base, which=args.which),
        "values": values,
        "abs_bs_unr_gap": abs(d_bs - d_unr) / scale,
        "gram_condition_number": cb.gram_condition_number,
    }
    _emit_summary(report, args.out)
    return 0


def cmd_haar_experiment(args) -> int:
    tols = args.tols
    if args.dim < 1 or args.samples < 1:
        raise ValueError(
            f"--dim and --samples must be at least 1, got {args.dim} and {args.samples}"
        )
    if args.dim * args.dim > MAX_SCAN_ENTRIES:  # before a d x d state is drawn
        raise BudgetExceeded(f"--dim {args.dim} takes {args.dim * args.dim} matrix entries "
                             f"per state, over the budget of {MAX_SCAN_ENTRIES}")
    rng = RngStream(args.seed)
    lines = ["idx,d_u,d_bs,d_unr,abs_bs_unr_gap"]
    max_gap, below = 0.0, 0
    for idx in range(args.samples):
        rho = sample_faithful(args.dim, rng, tols)
        sigma = sample_faithful(args.dim, rng, tols)
        d_u = umegaki(rho, sigma, tols)
        d_bs = bs_entropy(rho, sigma, tols)
        d_unr = unr_entropy(rho, sigma, tols)
        gap = abs(d_bs - d_unr)
        max_gap = max(max_gap, gap)
        below += int(d_u < d_bs)
        lines.append(f"{idx},{_fmt(d_u)},{_fmt(d_bs)},{_fmt(d_unr)},{_fmt(gap)}")
    _write_text(args.out, "\n".join(lines) + "\n")
    summary = {
        "metadata": _metadata(args, (), seed=args.seed, dim=args.dim, samples=args.samples),
        "max_abs_bs_unr_gap": max_gap,
        "fraction_umegaki_below_bs": below / args.samples,
    }
    _emit_summary(summary, args.summary)
    return 0


def cmd_common_basis(args) -> int:
    tols = args.tols
    rho = _load_density(args.rho, tols)
    sigma = _load_density(args.sigma, tols)
    cb = common_basis(rho, sigma, tols)

    psis = cb.psis
    recon_rho = validate_density((psis * cb.rho_coeffs) @ psis.conj().T, tols)
    recon_sigma = validate_density((psis * cb.sigma_coeffs) @ psis.conj().T, tols)
    report = {
        "metadata": _metadata(args, (args.rho, args.sigma)),
        "dim": cb.dim,
        "basis": _pairs(psis.T),
        "dual": _pairs(cb.dual.T),
        "rho_coeffs": [float(x) for x in cb.rho_coeffs],
        "sigma_coeffs": [float(x) for x in cb.sigma_coeffs],
        "eigenvalues": [float(x) for x in cb.eigenvalues],
        "reconstruction_error_rho": trace_distance(recon_rho, rho),
        "reconstruction_error_sigma": trace_distance(recon_sigma, sigma),
        "dual_consistency_error": dual_consistency(cb, rho, tols),
        "gram_condition_number": cb.gram_condition_number,
    }
    _emit_summary(report, args.out)
    return 0


def cmd_contraction(args) -> int:
    tols = args.tols
    model = _load_model(args.model, tols)
    rho = _load_density(args.rho, tols)
    sigma = _load_density(args.sigma, tols)
    check_scan_budget(args.steps, 2, model.dim)  # before the grid is allocated
    times = np.linspace(0.0, args.t_max, args.steps)
    series = contraction_scan(model, rho, sigma, times, tols)

    lines = ["t,d_bs"] + [f"{_fmt(t)},{_fmt(d)}" for t, d in series]
    _write_text(args.out, "\n".join(lines) + "\n")

    worst = float(np.diff([d for _, d in series]).max(initial=0.0))
    monotone = worst <= CONTRACTION_SLACK
    inputs = (args.model, args.rho, args.sigma)
    summary = {
        "metadata": _metadata(args, inputs, t_max=args.t_max, steps=args.steps),
        "initial_d_bs": series[0][1],
        "final_d_bs": series[-1][1],
        "max_step_increase": worst,
        "monotone_within_slack": monotone,
    }
    _emit_summary(summary)
    if not monotone:
        raise ContractionViolation(
            f"d_bs increased by {worst:.3e} in one step (slack {CONTRACTION_SLACK:.1e})"
        )
    return 0


def cmd_ldp(args) -> int:
    tols = args.tols
    path = args.config
    rho, sigma, epsilon, sizes = _fields(
        _load_json(path), path, "rho", "sigma", "epsilon", "sample_sizes"
    )
    rho = _parse_density(rho, f"{path}:rho", tols)
    sigma = _parse_density(sigma, f"{path}:sigma", tols)
    epsilon = _number(epsilon, float, f"{path}:epsilon")
    sizes = [
        _number(n, int, f"{path}:sample_sizes")
        for n in _typed(sizes, list, f"{path}:sample_sizes")
    ]
    exp = make_experiment(rho, sigma, epsilon, sizes, tols)

    lines = ["n,prob,rate"]
    rates = []
    log_probs = ball_log_probabilities(exp, exp.sample_sizes)
    for n, log_prob in zip(exp.sample_sizes, log_probs):
        prob, rate = math.exp(log_prob), -log_prob / n
        # an empty event's rate is inf: written as the CSV writes it, not as bare Infinity
        json_rate = rate if math.isfinite(rate) else _fmt(rate)
        rates.append({"n": n, "prob": prob, "rate": json_rate})
        lines.append(f"{n},{_fmt(prob)},{_fmt(rate)}")
    _write_text(args.out, "\n".join(lines) + "\n")

    summary = {
        "metadata": _metadata(args, (args.config,)),
        "epsilon": exp.epsilon,
        "bs_entropy": bs_entropy(rho, sigma, tols),
        "rates": rates,
    }
    _emit_summary(summary)
    return 0


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tol-herm", dest="tol_herm", type=float, default=None,
                   help="override the Hermiticity tolerance")
    p.add_argument("--tol-recon", dest="tol_recon", type=float, default=None,
                   help="override the eigendecomposition round-trip tolerance")
    p.add_argument("--eps-faithful", dest="eps_faithful", type=float, default=None,
                   help="override the faithfulness eigenvalue floor")


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors (a bad value, an unknown flag, a missing
    argument) raise ``ValueError`` for ``main`` to report, instead of exiting;
    its subcommand parsers are of this class too."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qunravel",
        description="Quantum relative entropies via common-basis unravelings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("entropy", help="divergences of one state pair")
    p.add_argument("rho")
    p.add_argument("sigma")
    p.add_argument("--which", choices=["umegaki", "bs", "unr", "all"], default="all")
    p.add_argument("--base", choices=["nats", "bits"], default="nats")
    p.add_argument("--out", default=None, help="write the JSON report here")
    _add_common(p)
    p.set_defaults(func=cmd_entropy)

    p = sub.add_parser("haar-experiment", help="entropy sweep over random pairs")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--out", required=True, help="per-sample CSV path")
    p.add_argument("--summary", default=None, help="also write the summary JSON here")
    p.add_argument("--seed", type=int, default=0, help="random seed (default: 0)")
    _add_common(p)
    p.set_defaults(func=cmd_haar_experiment)

    p = sub.add_parser("common-basis", help="shared basis of one state pair")
    p.add_argument("rho")
    p.add_argument("sigma")
    p.add_argument("--out", default=None, help="write the JSON report here")
    _add_common(p)
    p.set_defaults(func=cmd_common_basis)

    p = sub.add_parser("contraction", help="BS entropy along a Lindblad flow")
    p.add_argument("model")
    p.add_argument("rho")
    p.add_argument("sigma")
    p.add_argument("--t-max", dest="t_max", type=float, default=2.0)
    p.add_argument("--steps", type=int, default=21)
    p.add_argument("--out", default=None, help="write the t,d_bs CSV here")
    _add_common(p)
    p.set_defaults(func=cmd_contraction)

    p = sub.add_parser(
        "ldp",
        help="finite-n Sanov rates toward the BS entropy",
        description="Finite-n Sanov rates toward the BS entropy. At a finite "
        "epsilon the rate tends to the ball's I-projection value, and to the BS "
        "entropy, printed beside it in the summary, as epsilon goes to 0.",
    )
    p.add_argument("config", help="experiment JSON (rho, sigma, epsilon, sample_sizes)")
    p.add_argument("--out", default=None, help="write the rate CSV here")
    _add_common(p)
    p.set_defaults(func=cmd_ldp)

    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser of ``main``, built once per process: parsing leaves it as
    it was, and building it costs more than a small run."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        args.tols, args.overrides = _tols_from_args(args)
        # non-finite results fail a check with a JSON error, not a warning
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except (BudgetExceeded, MemoryError) as exc:
        _report_error(exc)
        return 4
    except (ValidationError, ValueError, OSError) as exc:  # a JSONDecodeError is a ValueError
        _report_error(exc)
        return 2
    except QunravelError as exc:
        _report_error(exc)
        return 3


def _report_error(exc: Exception) -> None:
    payload = {"error": type(exc).__name__, "message": str(exc)}
    print(json.dumps(payload), file=sys.stderr)


def entry() -> None:  # console-script hook
    sys.exit(main())


if __name__ == "__main__":
    entry()
