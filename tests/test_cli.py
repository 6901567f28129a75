import argparse
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import gptsim
from gptsim import models as gm
from gptsim import rules as rl
from gptsim import signaling as sg
from gptsim.cli import main

QUBIT = gm.quantum(2)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_fresh_process(*argv):
    """``python -m gptsim.cli argv`` in a new interpreter that imports this
    gptsim, whether or not it is installed."""
    src = os.path.dirname(os.path.dirname(gptsim.__file__))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    return subprocess.run([sys.executable, "-m", "gptsim.cli", *argv],
                          capture_output=True, env=env)


# ---------------------------------------------------------------------------
# rule-check
# ---------------------------------------------------------------------------

def test_rule_check_power_fails_normalization(capsys):
    code, out, _ = run_cli(capsys, "rule-check", "--family", "power",
                           "--alpha", "1.5")
    assert code == 1
    assert "normalization: FAIL" in out


def test_rule_check_identity_passes(capsys):
    code, out, _ = run_cli(capsys, "rule-check", "--family", "identity")
    assert code == 0
    assert "overall:       PASS" in out
    assert "affine" in out


def test_rule_check_piecewise_reports_split(capsys):
    code, out, _ = run_cli(capsys, "rule-check", "--family",
                           "piecewise-quadratic")
    assert code == 0
    assert "convex" in out and "concave" in out


def test_rule_check_json_format(capsys):
    code, out, _ = run_cli(capsys, "rule-check", "--family", "identity",
                           "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True


def test_rule_check_rule_file(tmp_path, capsys):
    path = tmp_path / "rule.json"
    path.write_text(json.dumps({"family": "power", "alpha": 2.0}))
    code, out, _ = run_cli(capsys, "rule-check", "--rule-file", str(path))
    assert code == 1  # power rules fail normalization


def test_rule_check_malformed_rule_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "rule-check", "--rule-file", str(path))
    assert code == 2
    assert "error" in err


def test_rule_check_tabulated_from_flag(capsys):
    code, out, _ = run_cli(capsys, "rule-check", "--family", "tabulated",
                           "--rule-samples", "[[0,0],[0.5,0.5],[1,1]]")
    assert code == 0


# ---------------------------------------------------------------------------
# tau
# ---------------------------------------------------------------------------

def test_tau_presets(capsys):
    code, out, _ = run_cli(capsys, "tau", "--psi", "+", "--phi", "0",
                           "--format", "json")
    assert code == 0
    assert json.loads(out)["tau"] == pytest.approx(0.5, abs=1e-12)


def test_tau_lp_cross_check(capsys):
    code, out, _ = run_cli(capsys, "tau", "--psi", "+", "--phi", "0",
                           "--lp", "360", "--verbose", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["tau_lp"] == pytest.approx(data["tau"], abs=5e-3)
    assert data["lp_iterations"] >= 0
    assert data["lp_generators"] == 360


def test_tau_classical_model(capsys):
    code, out, _ = run_cli(capsys, "tau", "--model", "classical:3",
                           "--psi", "1", "--phi", "1", "--lp", "1",
                           "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["tau"] == 1.0
    assert data["tau_lp"] == 1.0


def test_tau_state_file(tmp_path, capsys):
    state = gm.ket_state(QUBIT, np.array([1, 1j]) / np.sqrt(2))
    path = tmp_path / "psi.json"
    path.write_text(json.dumps(state.to_dict()))
    code, out, _ = run_cli(capsys, "tau", "--psi", f"@{path}", "--phi", "0",
                           "--format", "json")
    assert code == 0
    assert json.loads(out)["tau"] == pytest.approx(0.5, abs=1e-12)


def test_tau_bad_state_token(capsys):
    code, _, err = run_cli(capsys, "tau", "--psi", "nope", "--phi", "0")
    assert code == 2


# ---------------------------------------------------------------------------
# steer
# ---------------------------------------------------------------------------

def test_steer_bell_z_basis(capsys):
    code, out, _ = run_cli(capsys, "steer", "--alice", "z",
                           "--format", "json")
    assert code == 0
    data = json.loads(out)
    weights = [m["weight"] for m in data["ensemble"]["members"]]
    assert weights == [0.5, 0.5]
    assert data["marginal_residual"] <= 1e-10


def test_steer_bell_x_basis_pretty(capsys):
    code, out, _ = run_cli(capsys, "steer", "--alice", "x")
    assert code == 0
    assert "outcomes: 2" in out
    assert "pure" in out


def test_steer_synthesize_target(tmp_path, capsys):
    ens = gm.ensemble([(0.5, gm.point_state(QUBIT, 0)),
                       (0.5, gm.point_state(QUBIT, 1))])
    path = tmp_path / "target.json"
    path.write_text(json.dumps(ens.to_dict()))
    code, out, _ = run_cli(capsys, "steer", "--target", f"@{path}",
                           "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert len(data["measurement"]["effects"]) == 2


def test_steer_requires_exactly_one_protocol_source(capsys):
    code, _, err = run_cli(capsys, "steer")
    assert code == 2
    code, _, err = run_cli(capsys, "steer", "--alice", "z", "--target", "@x")
    assert code == 2


# ---------------------------------------------------------------------------
# gap
# ---------------------------------------------------------------------------

def test_gap_power_example(capsys):
    code, out, _ = run_cli(capsys, "gap", "--family", "power", "--alpha", "1.5",
                           "--p1", "1", "--p2", "0", "--lambda", "0.5",
                           "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["gap"] == pytest.approx(0.14645, abs=1e-5)


def test_gap_identity_zero(capsys):
    code, out, _ = run_cli(capsys, "gap", "--family", "identity",
                           "--p1", "0.3", "--p2", "0.8", "--lambda", "0.4",
                           "--format", "json")
    assert code == 0
    assert abs(json.loads(out)["gap"]) <= 1e-12


def test_gap_piecewise_002(capsys):
    code, out, _ = run_cli(capsys, "gap", "--family", "piecewise-quadratic",
                           "--p1", "0.2", "--p2", "0.4", "--lambda", "0.5",
                           "--format", "json")
    assert code == 0
    assert json.loads(out)["gap"] == pytest.approx(0.02, abs=1e-9)


def test_gap_pretty_prints_seed(capsys):
    code, out, _ = run_cli(capsys, "gap", "--family", "identity",
                           "--p1", "0.1", "--p2", "0.9", "--lambda", "0.5",
                           "--seed", "7")
    assert code == 0
    assert "seed: 7" in out


def test_gap_invalid_flags(capsys):
    code, _, err = run_cli(capsys, "gap", "--family", "identity",
                           "--p1", "1.4", "--p2", "0", "--lambda", "0.5")
    assert code == 2


def test_gap_csv_format(capsys):
    code, out, _ = run_cli(capsys, "gap", "--family", "identity",
                           "--p1", "0.25", "--p2", "0.5", "--lambda", "0.5",
                           "--format", "csv")
    assert code == 0
    header, row = out.strip().split("\n")
    assert header == "p1,p2,lambda,P1,P2,gap"
    assert row.startswith("0.25,0.5,0.5,")


def test_gap_contract_failure_is_an_error_line(capsys):
    # power(0.5) has infinite slope at 0: round-off in a zero overlap takes
    # the prediction 7.7e-10 off the closed form, past the 1e-12 contract.
    code, out, err = run_cli(capsys, "gap", "--family", "power", "--alpha",
                             "0.5", "--p1", "0", "--p2", "0.5", "--lambda",
                             "0.5", "--seed", "3")
    assert code == 2
    assert out == ""
    assert err.startswith("error: Scenario 0 of the batch {")
    assert '"seed": 3' in err and '"alpha": 0.5' in err
    assert "closed form" in err and err.count("\n") == 1


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------

def test_scan_identity_small_grid(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    code, out, _ = run_cli(capsys, "scan", "--family", "identity",
                           "--grid", "5", "--refine", "5",
                           "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().strip().split("\n")
    assert lines[0].startswith("# gptsim scan seed=0")
    assert lines[1] == "p1,p2,lambda,P1,P2,gap"
    assert len(lines) == 2 + 5 ** 3 + 1  # header rows + grid + witness
    assert "witness:" in out


def test_scan_power_finds_large_witness(capsys):
    code, out, _ = run_cli(capsys, "scan", "--family", "power",
                           "--alpha", "1.5", "--grid", "21", "--refine", "30",
                           "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert abs(data["witness"]["gap"]) >= 0.146


def test_scan_byte_identical_reruns(tmp_path, capsys):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in paths:
        run_cli(capsys, "scan", "--family", "piecewise-quadratic",
                "--grid", "7", "--refine", "3", "--seed", "3",
                "--out", str(path))
    assert paths[0].read_bytes() == paths[1].read_bytes()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_scan_computes_the_gap_surface_once(capsys, monkeypatch, fmt):
    real, calls = sg.gap_surface, []

    def counting(rule, grid):
        calls.append(grid)
        return real(rule, grid)

    monkeypatch.setattr(sg, "gap_surface", counting)
    code, _, _ = run_cli(capsys, "scan", "--family", "power", "--alpha",
                         "1.5", "--grid", "9", "--refine", "3", "--format",
                         fmt)
    assert code == 0
    assert calls == [9]


def test_scan_io_failure(tmp_path, capsys):
    code, _, err = run_cli(capsys, "scan", "--family", "identity",
                           "--grid", "3", "--out",
                           str(tmp_path / "missing" / "x.csv"))
    assert code == 2


SCAN_RULES = {
    "identity": {},
    "power": {"alpha": 1.5},
    "piecewise-quadratic": {},
    "tabulated": {"samples": [[0.0, 0.0], [0.25, 0.05], [0.5, 0.5],
                              [0.75, 0.95], [1.0, 1.0]]},
}


@pytest.mark.parametrize("grid", [3, 41])
@pytest.mark.parametrize("family", sorted(SCAN_RULES))
def test_scan_csv_rows_match_cellwise_reference(tmp_path, capsys, family,
                                                grid):
    params = SCAN_RULES[family]
    flags = ["--family", family]
    if "alpha" in params:
        flags += ["--alpha", str(params["alpha"])]
    if "samples" in params:
        flags += ["--rule-samples", json.dumps(params["samples"])]
    path = tmp_path / "scan.csv"
    code, _, _ = run_cli(capsys, "scan", *flags, "--grid", str(grid),
                         "--refine", "1", "--format", "csv",
                         "--out", str(path))
    assert code == 0

    # Every cell formatted on its own, in (p1, p2, lambda) order.
    axis, prob_1, prob_2, gaps = sg.gap_surface(
        rl.rule_from_dict({"family": family, **params}), grid)
    axis, prob_1, prob_2, gaps = (a.tolist() for a in (axis, prob_1, prob_2,
                                                       gaps))
    expected = ["p1,p2,lambda,P1,P2,gap"] + [
        ",".join("%.17g" % x for x in (axis[i], axis[j], axis[k],
                                       prob_1[i][j][k], prob_2[i][j][k],
                                       gaps[i][j][k]))
        for i in range(grid) for j in range(grid) for k in range(grid)]
    rows = [line for line in path.read_text().split("\n")[:-1]
            if not line.startswith("#")]
    assert rows == expected


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

def test_certify_identity_passes(capsys):
    code, out, _ = run_cli(capsys, "certify", "--family", "identity",
                           "--samples", "50", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert data["max_abs_gap"] <= 1e-10


def test_certify_power_fails_with_witness(capsys):
    code, out, _ = run_cli(capsys, "certify", "--family", "power",
                           "--alpha", "1.5", "--samples", "50",
                           "--tol", "1e-3", "--seed", "4")
    assert code == 1
    assert "FAIL" in out
    assert "seed: 4" in out


@pytest.mark.parametrize("fmt", ["json", "csv", "pretty"])
@pytest.mark.parametrize("samples", ["0", "-3"])
def test_certify_rejects_empty_sample(capsys, fmt, samples):
    code, out, err = run_cli(capsys, "certify", "--family", "identity",
                             "--samples", samples, "--format", fmt)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "samples" in err


@pytest.mark.parametrize("argv, key", [
    (["gap", "--family", "power", "--p1", "1", "--p2", "0",
      "--lambda", "0.5"], "alpha"),
    (["rule-check", "--family", "tabulated"], "samples"),
])
def test_missing_rule_parameter_is_usage_error(capsys, argv, key):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and key in err


@pytest.mark.parametrize("tol", ["nan", "inf", "-1e-9"])
@pytest.mark.parametrize("argv", [
    ["certify", "--family", "identity", "--samples", "3"],
    ["rule-check", "--family", "identity"],
    ["reproduce"],
])
def test_bad_tolerance_is_usage_error(capsys, argv, tol):
    code, out, err = run_cli(capsys, *argv, f"--tol={tol}")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "tol" in err


def test_certify_rejects_zero_tolerance(capsys):
    code, out, err = run_cli(capsys, "certify", "--family", "identity",
                             "--samples", "3", "--tol", "0")
    assert code == 2
    assert out == "" and "tol" in err


# ---------------------------------------------------------------------------
# reproduce
# ---------------------------------------------------------------------------

def test_reproduce_all_rows_pass(capsys):
    code, out, _ = run_cli(capsys, "reproduce")
    assert code == 0
    assert out.count("PASS") == 6  # five rows + overall
    assert "example1.gap" in out


def test_reproduce_json(capsys):
    code, out, _ = run_cli(capsys, "reproduce", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert len(data["rows"]) == 5


def test_reproduce_tight_tolerance_regression_guard(capsys):
    code, out, _ = run_cli(capsys, "reproduce", "--tol", "1e-9")
    assert code == 0  # values are regenerated exactly, not merely rounded


def test_reproduce_csv(capsys):
    code, out, _ = run_cli(capsys, "reproduce", "--format", "csv")
    assert code == 0
    assert out.startswith("name,value,expected,tolerance,passed")


# ---------------------------------------------------------------------------
# harness
# ---------------------------------------------------------------------------

def test_console_entry_point_runs():
    proc = run_fresh_process("reproduce", "--format", "json")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["passed"] is True


def test_json_output_deterministic(capsys):
    outs = []
    for _ in range(2):
        _, out, _ = run_cli(capsys, "gap", "--family", "power", "--alpha",
                            "1.5", "--p1", "0.2", "--p2", "0.9",
                            "--lambda", "0.3", "--seed", "5",
                            "--format", "json")
        outs.append(out)
    assert outs[0] == outs[1]


def test_parser_reused_and_calls_share_nothing(capsys, monkeypatch):
    parsers = []
    parse_args = argparse.ArgumentParser.parse_args

    def recording_parse_args(self, *args, **kwargs):
        parsers.append(self)
        return parse_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args",
                        recording_parse_args)
    tau = ["tau", "--psi", "+", "--phi", "0", "--format", "json"]
    code, out, _ = run_cli(capsys, *tau, "--lp", "16", "--verbose")
    assert code == 0
    assert {"tau_lp", "lp_iterations", "lp_generators"} <= set(json.loads(out))
    code, out, _ = run_cli(capsys, *tau)
    assert code == 0
    assert set(json.loads(out)) == {"tau"}

    with pytest.raises(SystemExit) as exc:
        main(["gap", "--family", "identity", "--p2", "0.5", "--lambda", "0.5"])
    assert exc.value.code == 2
    assert "--p1" in capsys.readouterr().err

    gap = ["gap", "--family", "power", "--alpha", "1.5", "--p1", "0.2",
           "--p2", "0.9", "--lambda", "0.3", "--seed", "5", "--format", "json"]
    code, out, err = run_cli(capsys, *gap)
    fresh = run_fresh_process(*gap)
    assert (code, out.encode(), err.encode()) == (
        fresh.returncode, fresh.stdout, fresh.stderr)
    assert len(parsers) == 4
    assert all(parser is parsers[0] for parser in parsers)
