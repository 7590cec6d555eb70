import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

import qunravel.cli as cli
import qunravel.ldp as ldp
from qunravel.cli import main

DOCS = Path(__file__).resolve().parent.parent / "docs" / "examples"
RHO_C = str(DOCS / "rho_commuting.json")
SIGMA_M = str(DOCS / "sigma_maxmixed.json")
RHO_X = str(DOCS / "rho_xpolarized.json")
SIGMA_Y = str(DOCS / "sigma_ypolarized.json")
DEPHASING = str(DOCS / "model_dephasing.json")
LDP_CFG = str(DOCS / "ldp_qubit.json")
# a valid faithful d = 4 pair whose smallest eigenvalues lie at 1e-10
RHO_E = str(DOCS / "rho_edge.json")
SIGMA_E = str(DOCS / "sigma_edge.json")

KL_34_12 = 0.13081203594113697


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_density(tmp_path, name, matrix):
    path = tmp_path / name
    path.write_text(json.dumps({"dim": len(matrix), "matrix": matrix}))
    return str(path)


def test_entropy_commuting_pair(capsys):
    code, out, _ = run(capsys, "entropy", RHO_C, SIGMA_M)
    assert code == 0
    report = json.loads(out)
    for key in ("umegaki", "bs", "unr"):
        assert abs(report["values"][key] - KL_34_12) < 1e-9
    assert report["abs_bs_unr_gap"] < 1e-10
    assert abs(report["gram_condition_number"] - 1.0) < 1e-9
    assert report["metadata"]["command"] == "entropy"


def test_entropy_identical_pair_is_zero(capsys):
    code, out, _ = run(capsys, "entropy", RHO_C, RHO_C)
    assert code == 0
    report = json.loads(out)
    for value in report["values"].values():
        assert abs(value) < 1e-10


def test_entropy_bits_base(capsys):
    code, out, _ = run(capsys, "entropy", RHO_C, SIGMA_M, "--base", "bits")
    assert code == 0
    report = json.loads(out)
    assert abs(report["values"]["bs"] - KL_34_12 / math.log(2.0)) < 1e-9
    assert report["metadata"]["base"] == "bits"


def test_entropy_single_quantity(capsys):
    code, out, _ = run(capsys, "entropy", RHO_C, SIGMA_M, "--which", "bs")
    assert code == 0
    report = json.loads(out)
    assert set(report["values"]) == {"bs"}


def test_entropy_report_file_matches_stdout(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "entropy", RHO_C, SIGMA_M, "--out", str(out_path))
    assert code == 0
    assert json.loads(out_path.read_text()) == json.loads(out)


def test_entropy_rejects_rank_deficient_state(capsys, tmp_path):
    pure = write_density(tmp_path, "pure.json", [[1.0, 0.0], [0.0, 0.0]])
    code, _, err = run(capsys, "entropy", pure, SIGMA_M)
    assert code == 2
    assert json.loads(err)["error"] == "NotFaithful"


def test_entropy_rejects_bad_trace(capsys, tmp_path):
    heavy = write_density(tmp_path, "heavy.json", [[0.6, 0.0], [0.0, 0.5]])
    code, _, err = run(capsys, "entropy", heavy, SIGMA_M)
    assert code == 2
    assert "NotTraceOne" in json.loads(err)["error"]


def test_missing_input_file(capsys, tmp_path):
    code, _, err = run(capsys, "entropy", str(tmp_path / "nope.json"), SIGMA_M)
    assert code == 2
    assert json.loads(err)["message"]


def test_malformed_json(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("this is not json")
    code, _, err = run(capsys, "entropy", str(bad), SIGMA_M)
    assert code == 2


def test_missing_required_key(capsys, tmp_path):
    incomplete = tmp_path / "incomplete.json"
    incomplete.write_text(json.dumps({"dim": 2}))
    code, _, _ = run(capsys, "entropy", str(incomplete), SIGMA_M)
    assert code == 2


def test_faithfulness_floor_override(capsys):
    # lift the floor above the smallest eigenvalue (1/4) and the same pair
    # that passed by default gets rejected
    code, _, _ = run(capsys, "entropy", RHO_C, SIGMA_M)
    assert code == 0
    code, _, err = run(capsys, "entropy", RHO_C, SIGMA_M, "--eps-faithful", "0.3")
    assert code == 2
    assert json.loads(err)["error"] == "NotFaithful"


def test_common_basis_report(capsys):
    code, out, _ = run(capsys, "common-basis", RHO_C, SIGMA_M)
    assert code == 0
    report = json.loads(out)
    assert report["dim"] == 2
    assert report["rho_coeffs"] == pytest.approx([0.75, 0.25], abs=1e-12)
    assert report["sigma_coeffs"] == pytest.approx([0.5, 0.5], abs=1e-12)
    assert report["eigenvalues"] == pytest.approx([2.0 / 3.0, 2.0], abs=1e-12)
    assert report["reconstruction_error_rho"] < 1e-9
    assert report["reconstruction_error_sigma"] < 1e-9
    assert report["dual_consistency_error"] < 2e-8
    assert abs(report["gram_condition_number"] - 1.0) < 1e-9


def test_entropy_and_common_basis_finish_at_the_far_ill_conditioned_edge(capsys):
    code, out, err = run(capsys, "entropy", RHO_E, SIGMA_E)
    assert code == 0, err
    report = json.loads(out)
    assert report["abs_bs_unr_gap"] <= 1e-8
    code, out, err = run(capsys, "common-basis", RHO_E, SIGMA_E)
    assert code == 0, err
    assert json.loads(out)["gram_condition_number"] >= 1.0


def test_dual_consistency_error_is_relative_at_the_far_edge(capsys):
    # ||rho^-1||_F is about 1e10 here, so only a relative error reads at roundoff
    code, out, err = run(capsys, "common-basis", RHO_E, SIGMA_E)
    assert code == 0, err
    report = json.loads(out)
    assert report["dual_consistency_error"] <= 1e-12
    assert report["reconstruction_error_rho"] <= 1e-10
    assert report["reconstruction_error_sigma"] <= 1e-10


def test_contraction_dephasing_monotone(capsys, tmp_path):
    csv_path = tmp_path / "series.csv"
    code, out, _ = run(
        capsys, "contraction", DEPHASING, RHO_X, SIGMA_Y,
        "--steps", "11", "--out", str(csv_path),
    )
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "t,d_bs"
    assert len(lines) == 12
    values = [float(row.split(",")[1]) for row in lines[1:]]
    assert all(b < a for a, b in zip(values, values[1:]))
    summary = json.loads(out)
    assert summary["monotone_within_slack"] is True
    assert summary["initial_d_bs"] == pytest.approx(values[0])
    assert summary["final_d_bs"] == pytest.approx(values[-1])


def test_contraction_identical_pair_zero_series(capsys, tmp_path):
    csv_path = tmp_path / "series.csv"
    code, _, _ = run(
        capsys, "contraction", DEPHASING, RHO_X, RHO_X,
        "--steps", "5", "--out", str(csv_path),
    )
    assert code == 0
    values = [float(r.split(",")[1]) for r in csv_path.read_text().strip().splitlines()[1:]]
    assert max(abs(v) for v in values) < 1e-9


def test_contraction_unitary_flow_constant(capsys, tmp_path):
    model = tmp_path / "free.json"
    model.write_text(json.dumps({
        "dim": 2,
        "hamiltonian": [[1.0, 0.0], [0.0, -1.0]],
        "jumps": [],
        "rates": [],
    }))
    csv_path = tmp_path / "series.csv"
    code, _, _ = run(
        capsys, "contraction", str(model), RHO_X, SIGMA_Y,
        "--steps", "9", "--out", str(csv_path),
    )
    assert code == 0
    values = [float(r.split(",")[1]) for r in csv_path.read_text().strip().splitlines()[1:]]
    assert max(values) - min(values) < 1e-9


def write_model(tmp_path, defect):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({
        "dim": 2,
        "hamiltonian": [[1.0, defect], [0.0, -1.0]],
        "jumps": [[[0.0, 1.0], [0.0, 0.0]]],
        "rates": [1.0],
    }))
    return str(path)


def test_contraction_looser_tol_herm_accepts_model(capsys, tmp_path):
    model = write_model(tmp_path, 1e-8)
    code, _, err = run(capsys, "contraction", model, RHO_X, SIGMA_Y, "--steps", "3")
    assert code == 2
    assert json.loads(err)["error"] == "NotHermitian"
    code, out, _ = run(
        capsys, "contraction", model, RHO_X, SIGMA_Y, "--steps", "3", "--tol-herm", "1e-6"
    )
    assert code == 0
    assert json.loads(out)["metadata"]["tolerance_overrides"] == {"tol_herm": 1e-6}


OVERFLOW = "matrix norm overflows double precision once hermitized"
DEFECT = "max |M - M^dag| entry 1.000e-08 exceeds tol_herm=1.0e-10"


@pytest.mark.parametrize(
    "hamiltonian, flags, message",
    [
        ([[1e200, 0.0], [0.0, -1e200]], (), OVERFLOW),  # its sum of squares overflows
        ([[1.0, 1e-8], [0.0, -1.0]], ("--tol-herm", "1e-6"), None),
        ([[1.0, 1e-8], [0.0, -1.0]], (), DEFECT),
    ],
    ids=["norm-overflows", "defect-within-run-tol-herm", "defect-above-default-tol-herm"],
)
def test_contraction_checks_the_hamiltonian_as_herm_eig_does(
    capsys, tmp_path, hamiltonian, flags, message
):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"dim": 2, "hamiltonian": hamiltonian}))
    code, out, err = run(capsys, "contraction", str(path), RHO_X, SIGMA_Y, "--steps", "3", *flags)
    if message is None:
        assert code == 0
        assert json.loads(out)["monotone_within_slack"] is True
    else:
        assert (code, out) == (2, "")
        error = {"error": "NotHermitian", "message": f"{path}:hamiltonian: {message}"}
        assert json.loads(err) == error


def test_contraction_names_the_model_file_in_a_model_error(capsys, tmp_path):
    path = tmp_path / "counts.json"
    jump = [[0.0, 1.0], [0.0, 0.0]]
    path.write_text(json.dumps({"dim": 2, "hamiltonian": np.zeros((2, 2)).tolist(),
                                "jumps": [jump], "rates": []}))
    code, out, err = run(capsys, "contraction", str(path), RHO_X, SIGMA_Y)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "DimMismatch", "message": f"{path}: 1 jumps but 0 rates"}


def test_contraction_tighter_tol_herm_rejects_model(capsys, tmp_path):
    model = write_model(tmp_path, 1e-11)
    code, _, _ = run(capsys, "contraction", model, RHO_X, SIGMA_Y, "--steps", "3")
    assert code == 0
    code, _, err = run(
        capsys, "contraction", model, RHO_X, SIGMA_Y, "--steps", "3", "--tol-herm", "1e-12"
    )
    assert code == 2
    assert json.loads(err)["error"] == "NotHermitian"


def test_ldp_command(capsys, tmp_path):
    csv_path = tmp_path / "rates.csv"
    code, out, _ = run(capsys, "ldp", LDP_CFG, "--out", str(csv_path))
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "n,prob,rate"
    assert len(lines) == 5
    summary = json.loads(out)
    assert abs(summary["bs_entropy"] - KL_34_12) < 1e-9
    gaps = [abs(float(row["rate"]) - KL_34_12) for row in summary["rates"]]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 0.05
    for line, row in zip(lines[1:], summary["rates"]):
        n, prob, rate = line.split(",")
        assert list(row) == ["n", "prob", "rate"]
        assert int(n) == row["n"]
        assert float(prob) == pytest.approx(row["prob"])
        assert float(rate) == pytest.approx(float(row["rate"]))


def _reject_constant(name):
    raise ValueError(f"summary holds the non-JSON constant {name}")


def test_ldp_summary_is_strict_json(capsys, tmp_path):
    # n = 50 has an empty event: its inf rate is the CSV's string, not bare Infinity
    csv_path = tmp_path / "rates.csv"
    code, out, _ = run(capsys, "ldp", LDP_CFG, "--out", str(csv_path))
    assert code == 0
    rates = json.loads(out, parse_constant=_reject_constant)["rates"]
    csv_rates = [line.split(",")[2] for line in csv_path.read_text().splitlines()[1:]]
    assert rates[0]["rate"] == csv_rates[0] == "inf"
    assert all(isinstance(row["rate"], float) for row in rates[1:])


def test_a_non_finite_summary_value_fails_without_printing(capsys, monkeypatch):
    monkeypatch.setattr(cli, "umegaki", lambda rho, sigma, tols: math.nan)
    code, out, err = run(capsys, "entropy", RHO_C, SIGMA_M)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "ValueError"


@pytest.mark.parametrize("command", ["entropy", "common-basis", "haar-experiment"])
def test_an_unwritable_summary_file_fails_before_printing(capsys, tmp_path, command):
    missing = str(tmp_path / "no_such_dir" / "summary.json")
    if command == "haar-experiment":
        argv = [command, "--dim", "2", "--samples", "2",
                "--out", str(tmp_path / "sweep.csv"), "--summary", missing]
    else:
        argv = [command, RHO_C, SIGMA_M, "--out", missing]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == "FileNotFoundError"


def test_ldp_budget_exceeded(capsys, tmp_path):
    cfg = json.loads(Path(LDP_CFG).read_text())
    cfg["sample_sizes"] = [401]
    path = tmp_path / "big.json"
    path.write_text(json.dumps(cfg))
    code, _, err = run(capsys, "ldp", str(path))
    assert code == 4
    assert json.loads(err)["error"] == "BudgetExceeded"


def test_ldp_checks_the_whole_plan_before_enumerating(capsys, tmp_path, monkeypatch):
    # n = 401 is over budget: the call must fail before n = 50 is enumerated
    blocks = []
    mask = ldp._ball_mask
    monkeypatch.setattr(
        ldp, "_ball_mask", lambda exp, counts, n: blocks.append(len(counts)) or mask(exp, counts, n)
    )
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(_ldp_with(lambda o: o.update(sample_sizes=[50, 401]))))
    csv_path = tmp_path / "rates.csv"
    code, out, err = run(capsys, "ldp", str(path), "--out", str(csv_path))
    assert code == 4
    assert out == ""
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == "BudgetExceeded"
    assert blocks == []
    assert not csv_path.exists()


def test_contraction_grid_over_budget_exits_4_before_building_it(capsys, tmp_path, monkeypatch):
    grids = []
    monkeypatch.setattr(cli.np, "linspace", lambda *a: grids.append(a) or np.zeros(0))
    csv_path = tmp_path / "series.csv"
    code, out, err = run(
        capsys, "contraction", DEPHASING, RHO_X, SIGMA_Y,
        "--steps", "1000000000", "--out", str(csv_path),
    )
    assert code == 4
    assert out == ""
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == "BudgetExceeded"
    assert grids == []
    assert not csv_path.exists()


def test_an_allocation_the_system_refuses_exits_4_with_one_json_line(
    capsys, tmp_path, monkeypatch
):
    def refuse(*args):
        raise MemoryError("Unable to allocate 74.5 GiB")

    monkeypatch.setattr(cli, "sample_faithful", refuse)
    csv_path = tmp_path / "sweep.csv"
    code, out, err = run(
        capsys, "haar-experiment", "--dim", "2", "--samples", "1", "--out", str(csv_path)
    )
    assert code == 4
    assert out == ""
    assert len(err.splitlines()) == 1
    assert json.loads(err) == {"error": "MemoryError", "message": "Unable to allocate 74.5 GiB"}
    assert not csv_path.exists()


@pytest.mark.parametrize("dim, code", [(1581, 0), (1582, 4)])
def test_haar_experiment_dimension_budget_is_checked_before_sampling(
    capsys, tmp_path, monkeypatch, dim, code
):
    # d^2 <= MAX_SCAN_ENTRIES admits d = 1581; the stub keeps every state 2 x 2
    sampled = []
    sample = cli.sample_faithful
    monkeypatch.setattr(
        cli, "sample_faithful", lambda d, rng, tols: sampled.append(d) or sample(2, rng, tols)
    )
    csv_path = tmp_path / "sweep.csv"
    got, out, err = run(
        capsys, "haar-experiment", "--dim", str(dim), "--samples", "1", "--out", str(csv_path)
    )
    assert got == code
    if code == 4:
        assert out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "BudgetExceeded"
        assert sampled == []
        assert not csv_path.exists()
    else:
        assert sampled == [dim, dim]


def test_haar_experiment_csv(capsys, tmp_path):
    csv_path = tmp_path / "sweep.csv"
    code, out, _ = run(
        capsys, "haar-experiment", "--dim", "2", "--samples", "5",
        "--out", str(csv_path), "--seed", "7",
    )
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "idx,d_u,d_bs,d_unr,abs_bs_unr_gap"
    assert len(lines) == 6
    for row in lines[1:]:
        _, d_u, d_bs, _, gap = row.split(",")
        assert float(d_u) <= float(d_bs) + 1e-9
        assert float(gap) <= 1e-8 * max(1.0, float(d_bs))
    summary = json.loads(out)
    assert summary["max_abs_bs_unr_gap"] <= 1e-8
    assert summary["metadata"]["seed"] == 7


def test_haar_experiment_reproducible(capsys, tmp_path):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"]
    for path, seed in zip(paths, ("7", "7", "8")):
        code, _, _ = run(
            capsys, "haar-experiment", "--dim", "2", "--samples", "4",
            "--out", str(path), "--seed", seed,
        )
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert paths[0].read_bytes() != paths[2].read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        ("entropy", RHO_C, SIGMA_M),
        ("common-basis", RHO_C, SIGMA_M),
        ("contraction", DEPHASING, RHO_X, SIGMA_Y),
        ("ldp", LDP_CFG),
    ],
    ids=["entropy", "common-basis", "contraction", "ldp"],
)
def test_deterministic_commands_take_no_seed(capsys, argv):
    code, out, err = run(capsys, *argv, "--seed", "1")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert json.loads(err) == {
        "error": "ValueError", "message": "qunravel: unrecognized arguments: --seed 1"
    }


def test_the_environment_sets_no_seed(capsys, monkeypatch):
    monkeypatch.delenv("QUNRAVEL_SEED", raising=False)
    plain = run(capsys, "entropy", RHO_C, SIGMA_M)
    monkeypatch.setenv("QUNRAVEL_SEED", "abc")
    assert run(capsys, "entropy", RHO_C, SIGMA_M) == plain
    assert plain[0] == 0


@pytest.mark.parametrize("dim, samples", [("2", "0"), ("0", "2"), ("2", "-1")])
def test_haar_experiment_rejects_empty_sweep(capsys, tmp_path, dim, samples):
    csv_path = tmp_path / "sweep.csv"
    code, out, err = run(
        capsys, "haar-experiment", "--dim", dim, "--samples", samples,
        "--out", str(csv_path),
    )
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "ValueError"
    assert not csv_path.exists()


def test_contraction_rejects_non_finite_model_as_input_error(capsys, tmp_path):
    # json reads NaN; the model must fail validation, not the flow
    path = tmp_path / "nan_model.json"
    path.write_text(
        '{"dim": 2, "hamiltonian": [[NaN, 0.0], [0.0, 1.0]], "jumps": [], "rates": []}'
    )
    code, _, err = run(capsys, "contraction", str(path), RHO_X, SIGMA_Y)
    assert code == 2
    assert len(err.strip().splitlines()) == 1
    assert json.loads(err)["error"] == "NotHermitian"


def test_contraction_rejects_a_model_whose_drift_overflows_as_input_error(capsys, tmp_path):
    # finite entries whose S^dag S overflows: the model rejects its drift, so the
    # run stops as an input error (exit 2) before any flow is propagated
    path = tmp_path / "huge_model.json"
    path.write_text(
        '{"dim": 2, "hamiltonian": [[0.0, 0.0], [0.0, 0.0]],'
        ' "jumps": [[[0.0, 1e200], [0.0, 0.0]]], "rates": [1.0]}'
    )
    code, out, err = run(capsys, "contraction", str(path), RHO_X, SIGMA_Y)
    assert code == 2
    assert out == ""
    assert json.loads(err) == {
        "error": "ValueError", "message": f"{path}: jump 0 at rate 1.0 overflows the drift"
    }


def test_parser_is_built_once_and_parses_each_call_afresh(capsys, tmp_path):
    from qunravel import cli

    assert cli._parser() is cli._parser()
    argv = ["haar-experiment", "--dim", "2", "--samples", "1", "--out", str(tmp_path / "s.csv")]
    code, out, _ = run(capsys, *argv, "--seed", "5")
    assert code == 0
    assert json.loads(out)["metadata"]["seed"] == 5
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert json.loads(out)["metadata"]["seed"] == 0


def test_argparse_error_leaves_the_parser_usable(capsys, tmp_path):
    argv = ["haar-experiment", "--dim", "2", "--samples", "1", "--out", str(tmp_path / "s.csv")]
    code, out, err = run(capsys, *argv, "--seed", "not-a-number")
    assert code == 2 and out == ""
    assert json.loads(err)["message"] == (
        "qunravel haar-experiment: argument --seed: invalid int value: 'not-a-number'"
    )
    code, out, _ = run(capsys, *argv, "--seed", "3")
    assert code == 0
    assert json.loads(out)["metadata"]["seed"] == 3


PAIR = ("entropy", RHO_C, SIGMA_M)


@pytest.mark.parametrize(
    "argv, message",
    [
        ((*PAIR, "--bogus"), "qunravel: unrecognized arguments: --bogus"),
        (("entropy", RHO_C), "qunravel entropy: the following arguments are required: sigma"),
        ((*PAIR, "--tol-recon", "nan"), "tol_recon must be finite and >= 0, got nan"),
        ((*PAIR, "--tol-herm", "inf"), "tol_herm must be finite and >= 0, got inf"),
        ((*PAIR, "--eps-faithful", "-1"), "eps_faithful must be finite and >= 0, got -1.0"),
    ],
    ids=["unknown-flag", "missing-argument", "tol-recon-nan", "tol-herm-inf", "eps-faithful-minus"],
)
def test_malformed_invocations_exit_2_with_one_json_line(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    error = json.loads(err)
    assert error["error"] == "ValueError"
    assert error["message"].startswith(message)


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["entropy", "-h"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: qunravel entropy")


def _retyped(path, key, value):
    obj = json.loads(Path(path).read_text())
    obj[key] = value
    return obj


@pytest.mark.parametrize(
    "command, payload",
    [
        ("entropy", {"dim": 2, "matrix": 5}),
        ("entropy", {"dim": None, "matrix": [[0.5, 0.0], [0.0, 0.5]]}),
        ("entropy", [[0.5, 0.0], [0.0, 0.5]]),
        ("contraction", [[0.0, 0.0], [0.0, 0.0]]),
        ("ldp", _retyped(LDP_CFG, "sample_sizes", 5)),
        ("contraction", _retyped(DEPHASING, "rates", 0.5)),
    ],
    ids=[
        "matrix-number", "dim-null", "top-level-list", "top-level-list-model",
        "sample-sizes-number", "rates-number",
    ],
)
def test_badly_typed_json_is_an_input_error(capsys, tmp_path, command, payload):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    argv = {
        "entropy": ("entropy", str(path), SIGMA_M),
        "ldp": ("ldp", str(path)),
        "contraction": ("contraction", str(path), RHO_X, SIGMA_Y),
    }[command]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == "ValueError"


def _ldp_with(edit):
    obj = json.loads(Path(LDP_CFG).read_text())
    edit(obj)
    return obj


@pytest.mark.parametrize(
    "payload, field",
    [
        (_ldp_with(lambda o: o["rho"].update(dim=2.7)), "rho:dim"),
        (_ldp_with(lambda o: o["sigma"].update(dim=True)), "sigma:dim"),
        (_ldp_with(lambda o: o.update(sample_sizes=[50.9, 100])), "sample_sizes"),
        (_ldp_with(lambda o: o.update(sample_sizes=[50, True])), "sample_sizes"),
        (_ldp_with(lambda o: o.update(epsilon="0.05")), "epsilon"),
        (_ldp_with(lambda o: o.update(epsilon=False)), "epsilon"),
    ],
    ids=["dim-fraction", "dim-bool", "size-fraction", "size-bool", "eps-string", "eps-bool"],
)
def test_number_fields_take_only_json_numbers(capsys, tmp_path, payload, field):
    path = tmp_path / "ldp.json"
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, "ldp", str(path))
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    error = json.loads(err)
    assert error["error"] == "ValueError"
    assert f"{path}:{field} must be" in error["message"]


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda o: o.update(epsilon=10**400), "{path}:epsilon is out of range, got 1000"),
        (
            lambda o: o["rho"]["matrix"][0].__setitem__(0, [10**400, 0]),
            "{path}:rho is out of range",
        ),
        (lambda o: o["rho"].update(dim=3), "{path}:rho has shape (2, 2), expected (3, 3)"),
    ],
    ids=["number-overflow", "entry-overflow", "matrix-shape"],
)
def test_out_of_range_numbers_and_misshapen_matrices_are_input_errors(
    capsys, tmp_path, edit, message
):
    path = tmp_path / "ldp.json"
    path.write_text(json.dumps(_ldp_with(edit)))
    code, out, err = run(capsys, "ldp", str(path))
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    error = json.loads(err)
    assert error["error"] == "ValueError"
    assert error["message"].startswith(message.format(path=path))


def test_bad_matrix_entry_names_its_file_and_field(capsys, tmp_path):
    path = tmp_path / "ldp.json"
    path.write_text(json.dumps(_ldp_with(lambda o: o["rho"]["matrix"][0].__setitem__(0, True))))
    code, out, err = run(capsys, "ldp", str(path))
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    error = json.loads(err)
    assert error["error"] == "ValueError"
    assert error["message"] == (
        f"{path}:rho: matrix entry True is neither a number nor an [re, im] pair"
    )


def test_entropy_rejects_a_matrix_that_overflows_as_input_error(capsys, tmp_path):
    # finite entries whose hermitized sum overflows: NotHermitian, no warnings
    path = write_density(tmp_path, "huge.json", [[1e308, 1e308], [1e308, -1e308]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "entropy", path, SIGMA_M)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    error = json.loads(err)
    assert error["error"] == "NotHermitian"
    assert "matrix norm overflows" in error["message"]


@pytest.mark.parametrize("command", ["entropy", "haar-experiment", "common-basis", "contraction", "ldp"])
def test_metadata_is_the_run_configuration_in_order(capsys, tmp_path, command):
    out_path = str(tmp_path / "out")
    argv, expected = {
        "entropy": (
            ["entropy", RHO_X, SIGMA_Y, "--base", "bits", "--which", "bs",
             "--out", out_path, "--eps-faithful", "1e-13"],
            {"command": "entropy", "inputs": [RHO_X, SIGMA_Y], "base": "bits",
             "out": out_path, "tolerance_overrides": {"eps_faithful": 1e-13}, "which": "bs"},
        ),
        "haar-experiment": (
            ["haar-experiment", "--dim", "2", "--samples", "3", "--out", out_path,
             "--tol-recon", "1e-9", "--tol-herm", "1e-9", "--seed", "7"],
            {"command": "haar-experiment", "inputs": [], "base": "nats", "out": out_path,
             "tolerance_overrides": {"tol_herm": 1e-9, "tol_recon": 1e-9},
             "seed": 7, "dim": 2, "samples": 3},
        ),
        "common-basis": (
            ["common-basis", RHO_X, SIGMA_Y],
            {"command": "common-basis", "inputs": [RHO_X, SIGMA_Y], "base": "nats"},
        ),
        "contraction": (
            ["contraction", DEPHASING, RHO_X, SIGMA_Y, "--t-max", "1.0", "--steps", "5",
             "--out", out_path],
            {"command": "contraction", "inputs": [DEPHASING, RHO_X, SIGMA_Y], "base": "nats",
             "out": out_path, "t_max": 1.0, "steps": 5},
        ),
        "ldp": (
            ["ldp", LDP_CFG, "--out", out_path, "--tol-herm", "1e-9"],
            {"command": "ldp", "inputs": [LDP_CFG], "base": "nats",
             "out": out_path, "tolerance_overrides": {"tol_herm": 1e-9}},
        ),
    }[command]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    meta = json.loads(out)["metadata"]
    assert list(meta.items()) == list(expected.items())
    assert list(meta.get("tolerance_overrides", {})) == list(
        expected.get("tolerance_overrides", {})
    )


def test_density_validation_errors_name_their_file_or_field(capsys, tmp_path):
    heavy = write_density(tmp_path, "heavy.json", [[0.6, 0.0], [0.0, 0.5]])
    code, out, err = run(capsys, "entropy", heavy, SIGMA_M)
    assert (code, out) == (2, "")
    error = json.loads(err)
    assert error["error"] == "NotTraceOne"
    assert error["message"].startswith(f"{heavy}: trace 1.1")

    path = tmp_path / "ldp.json"
    path.write_text(json.dumps(_ldp_with(lambda o: o["rho"]["matrix"][0].__setitem__(0, 0.85))))
    code, out, err = run(capsys, "ldp", str(path))
    assert (code, out) == (2, "")
    error = json.loads(err)
    assert error["error"] == "NotTraceOne"
    assert error["message"].startswith(f"{path}:rho: trace 1.1")


def test_contraction_violation_exits_3_after_the_summary(capsys, monkeypatch):
    import qunravel.cli as cli

    monkeypatch.setattr(cli, "contraction_scan", lambda *a: [(0.0, 0.25), (1.0, 0.5)])
    code, out, err = run(capsys, "contraction", DEPHASING, RHO_X, SIGMA_Y, "--steps", "2")
    assert code == 3
    summary = json.loads(out)
    assert summary["max_step_increase"] == 0.25
    assert summary["monotone_within_slack"] is False
    assert err == (
        '{"error": "ContractionViolation", '
        '"message": "d_bs increased by 2.500e-01 in one step (slack 1.0e-07)"}\n'
    )


DAMPING = str(DOCS / "model_damping.json")
RHO_T = str(DOCS / "rho_tilted.json")
# each input file kind: an example file, the command that reads it, and its required fields
INPUT_KINDS = {
    "density": (RHO_C, lambda p: ("entropy", p, SIGMA_M), ("dim", "matrix")),
    "model": (DAMPING, lambda p: ("contraction", p, RHO_T, SIGMA_M), ("dim", "hamiltonian")),
    "ldp": (LDP_CFG, lambda p: ("ldp", p), ("rho", "sigma", "epsilon", "sample_sizes")),
}
MISSING = [(kind, field) for kind, (_, _, fields) in INPUT_KINDS.items() for field in fields]


def run_edited(capsys, tmp_path, kind, edit):
    """Run the command of ``kind`` on its example file after ``edit``; the
    exit code and the one-line JSON error on stderr."""
    example, argv, _ = INPUT_KINDS[kind]
    obj = json.loads(Path(example).read_text())
    edit(obj)
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, *argv(str(path)))
    assert out == ""
    assert len(err.splitlines()) == 1
    return code, json.loads(err), str(path)


@pytest.mark.parametrize("kind, field", MISSING, ids=[f"{k}-{f}" for k, f in MISSING])
def test_a_missing_field_names_its_file_and_field(capsys, tmp_path, kind, field):
    code, error, path = run_edited(capsys, tmp_path, kind, lambda o: o.pop(field))
    assert (code, error["error"]) == (2, "ValueError")
    assert f"{path}:{field} is missing" in error["message"]


@pytest.mark.parametrize("kind", INPUT_KINDS)
def test_an_unknown_field_is_an_input_error(capsys, tmp_path, kind):
    code, error, path = run_edited(capsys, tmp_path, kind, lambda o: o.update(note="x"))
    assert (code, error["error"]) == (2, "ValueError")
    assert f"{path}:note is not a field" in error["message"]


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda o: o["sigma"].pop("dim"), "sigma:dim is missing"),
        (lambda o: o["sigma"].pop("matrix"), "sigma:matrix is missing"),
        (lambda o: o["rho"].update(trace=1), "rho:trace is not a field"),
    ],
    ids=["no-dim", "no-matrix", "unknown"],
)
def test_an_ldp_density_field_names_the_config_and_the_density(capsys, tmp_path, edit, message):
    code, error, path = run_edited(capsys, tmp_path, "ldp", edit)
    assert (code, error["error"]) == (2, "ValueError")
    assert f"{path}:{message}" in error["message"]


def test_a_misspelt_jump_field_is_not_read_as_a_jump_free_flow(capsys, tmp_path):
    def misspell(obj):
        obj["jump"], obj["rate"] = obj.pop("jumps"), obj.pop("rates")

    code, error, path = run_edited(capsys, tmp_path, "model", misspell)
    assert code == 2
    assert f"{path}:jump is not a field" in error["message"]


def test_jumps_and_rates_are_optional(capsys, tmp_path):
    model = tmp_path / "free.json"
    model.write_text(json.dumps({"dim": 2, "hamiltonian": [[1.0, 0.0], [0.0, -1.0]]}))
    code, out, _ = run(capsys, "contraction", str(model), RHO_X, SIGMA_Y, "--steps", "3")
    assert code == 0
    summary = json.loads(out)
    assert abs(summary["final_d_bs"] - summary["initial_d_bs"]) < 1e-9
