import argparse
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import gptsim
from gptsim import models as gm
from gptsim import rules as rl
from gptsim import signaling as sg
from gptsim.cli import _format_distinct, main

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


def test_steer_target_with_nan_weights_fails_its_weight_check(tmp_path,
                                                               capsys):
    data = gm.ensemble([(0.5, gm.point_state(QUBIT, 0)),
                        (0.5, gm.point_state(QUBIT, 1))]).to_dict()
    for member in data["members"]:
        member["weight"] = float("nan")
    path = tmp_path / "target.json"
    path.write_text(json.dumps(data))
    code, _, err = run_cli(capsys, "steer", "--target", f"@{path}")
    assert code == 2
    assert "Non-finite ensemble weight nan." in err
    assert "Negative" not in err


@pytest.mark.parametrize("model", [gm.quantum(3), gm.classical(2)])
def test_steer_target_on_another_model_names_both_models(tmp_path, capsys,
                                                         model):
    path = tmp_path / "target.json"
    path.write_text(json.dumps(gm.ensemble([
        (0.5, gm.point_state(model, k)) for k in range(2)]).to_dict()))
    code, _, err = run_cli(capsys, "steer", "--target", f"@{path}")
    assert code == 2
    assert (f"Target lives on {model}, not on side B's {gm.quantum(2)}."
            in err)


@pytest.mark.parametrize("flag, data", [
    ("--target", gm.ensemble([(0.5, gm.point_state(QUBIT, 0)),
                              (0.5, gm.point_state(QUBIT, 1))]).to_dict()),
    ("--bipartite", {"model_a": {"kind": "classical", "n": 2},
                     "model_b": {"kind": "classical", "n": 2},
                     "amplitudes": [[0.0, 0.0], [1.0, 0.0],
                                    [0.0, 0.0], [0.0, 0.0]]}),
])
def test_steer_json_argument_inline_reads_as_its_file(tmp_path, capsys, flag,
                                                      data):
    # --target inline used to fail with "File name too long".
    path = tmp_path / "arg.json"
    path.write_text(json.dumps(data))
    extra = ["--alice", "z"] if flag == "--bipartite" else []
    outputs = [run_cli(capsys, "steer", flag, token, *extra, "--format",
                       "json") for token in (f"@{path}", json.dumps(data))]
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 0


@pytest.mark.parametrize("argv, kind", [
    (["tau", "--phi", "0", "--psi"], "state"),
    (["tau", "--psi", "0", "--phi"], "state"),
    (["steer", "--alice"], "measurement"),
    (["steer", "--alice", "z", "--bipartite"], "joint state"),
    (["steer", "--target"], "ensemble")])
def test_json_argument_given_as_bare_path_is_usage_error(tmp_path, capsys,
                                                         argv, kind):
    # A bare path is neither @file nor inline JSON, even where it exists;
    # --bipartite and --target used to open it.
    path = tmp_path / "arg.json"
    path.write_text("{}")
    code, out, err = run_cli(capsys, *argv, str(path))
    assert (code, out, err) == (
        2, "", f"error: Cannot parse {kind} token {str(path)!r}.\n")


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


def test_gap_rejects_nan_rule(capsys):
    code, out, err = run_cli(capsys, "gap", "--family", "power",
                             "--alpha", "nan", "--p1", "0.2", "--p2", "0.5",
                             "--lambda", "0.5")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "nan" in err


@pytest.mark.parametrize("alpha", ["inf", "nan"])
@pytest.mark.parametrize("argv", [
    ["gap", "--p1", "0.2", "--p2", "0.7", "--lambda", "0.3"],
    ["certify", "--samples", "3"],
])
def test_non_finite_alpha_is_usage_error(capsys, argv, alpha):
    # An infinite alpha used to be accepted and written as JSON Infinity.
    code, out, err = run_cli(capsys, *argv, "--family", "power", "--alpha",
                             alpha, "--format", "json")
    assert (code, out) == (2, "")
    assert err == f"error: alpha must be positive and finite, got {alpha}.\n"


def test_gap_at_the_former_rank_cut_is_exact(capsys):
    # The members' overlaps differ by 1e-13, so the average's smaller
    # squared Schmidt value is about 2.5e-14. Cut at 1e-12, both members
    # were steered along the kept Schmidt vector, about 1.6e-7 from each,
    # and the run exited 2; the rotation keeps that value, and the run
    # meets the closed form exactly.
    code, out, err = run_cli(capsys, "gap", "--family", "identity", "--p1",
                             "1", "--p2", "0.9999999999999", "--lambda", "0.5")
    assert (code, err) == (0, "")
    assert out.splitlines()[2:] == ["P1  = 0.99999999999995004",
                                    "P2  = 0.99999999999995004",
                                    "gap = 0", "marginal residual: 3.74e-23"]
    # Equal qubit overlaps near 0 leave both members next to phi's
    # orthogonal state, about sqrt(p) apart: the same former limit, at an
    # input that test_steered_uniform_in_every_dimension once drew.
    rng = np.random.default_rng(0)
    ket = rng.normal(size=2) + 1j * rng.normal(size=2)
    phi = gm.ket_state(QUBIT, ket / np.linalg.norm(ket))
    report = sg.run_scenario(sg.Scenario(rl.identity_rule(), phi, 1e-15,
                                         1e-15, 0.5))
    assert (report.prob_1, report.prob_2) == (1.0000000012978453e-15,
                                              1.0000000006083803e-15)
    assert report.marginal_residual == 3.925231146709437e-17
    assert report.formula_residual == 1.297845202537508e-24
    assert (len(report.ensemble_1), len(report.ensemble_2)) == (2, 1)


@pytest.mark.parametrize("argv, message", [
    (["rule-check", "--rule-file", "{list}"],
     "Expected a JSON object with key 'family'."),
    (["tau", "--psi", "{}", "--phi", "0"],
     "Expected a JSON object with key 'model'."),
    (["tau", "--psi", '{"model": {"kind": "quantum"}}', "--phi", "0"],
     "Expected a JSON object with key 'd'."),
    (["steer", "--bipartite", "@{list}", "--alice", "z"],
     "Expected a JSON object with key 'model_a'."),
    (["steer", "--alice", "y"], "Cannot parse measurement token 'y'."),
])
def test_json_of_the_wrong_shape_is_usage_error(tmp_path, capsys, argv,
                                                message):
    listing = tmp_path / "list.json"
    listing.write_text("[1, 2]")
    argv = [arg.replace("{list}", str(listing)) for arg in argv]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("amplitudes, message", [
    ([0, 0, 0, 1], "Expected 6 amplitudes."),
    ([0.5, 0.5, 0, 0, 0, 0], "Classical joint states must be one-hot."),
    ([0] * 6, "Classical joint states must be one-hot."),
])
def test_classical_joint_state_not_one_point_is_usage_error(
        tmp_path, capsys, amplitudes, message):
    joint = tmp_path / "joint.json"
    joint.write_text(json.dumps({
        "model_a": {"kind": "classical", "n": 2},
        "model_b": {"kind": "classical", "n": 3},
        "amplitudes": [[a, 0.0] for a in amplitudes]}))
    code, out, err = run_cli(capsys, "steer", "--bipartite", f"@{joint}",
                             "--alice", "z")
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv", [
    ["scan", "--family", "identity", "--grid", "3"],
    ["gap", "--family", "identity", "--p1", "0", "--p2", "1",
     "--lambda", "0.5"],
    ["gap", "--family", "identity", "--p1", "0.3", "--p2", "0.6",
     "--lambda", "0.5"],
    ["certify", "--family", "identity", "--samples", "3"],
])
def test_negative_seed_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--seed", "-1")
    assert (code, out, err) == (
        2, "", "error: seed must be a non-negative integer, got -1.\n")


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
    # power(0.1) has infinite slope at 0: round-off in a zero overlap takes
    # the prediction 3.3e-4 off the closed form, past the 1e-12 contract.
    code, out, err = run_cli(capsys, "gap", "--family", "power", "--alpha",
                             "0.1", "--p1", "0", "--p2", "0.5", "--lambda",
                             "0.5", "--seed", "0")
    assert code == 2
    assert out == ""
    assert err.startswith("error: Scenario 0 of the batch {")
    assert '"seed": 0' in err and '"alpha": 0.1' in err
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


def test_negative_refine_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "scan", "--family", "identity",
                             "--grid", "3", "--refine", "-1")
    assert (code, out, err) == (
        2, "", "error: refine must be non-negative, got -1.\n")


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


def cellwise_csv_rows(family, grid):
    """The scan CSV's header and grid rows, every cell formatted on its own,
    in (p1, p2, lambda) order."""
    axis, prob_1, prob_2, gaps = sg.gap_surface(
        rl.rule_from_dict({"family": family, **SCAN_RULES[family]}), grid)
    axis, prob_1, prob_2, gaps = (a.tolist() for a in (axis, prob_1, prob_2,
                                                       gaps))
    return ["p1,p2,lambda,P1,P2,gap"] + [
        ",".join("%.17g" % x for x in (axis[i], axis[j], axis[k],
                                       prob_1[i][j][k], prob_2[i][j][k],
                                       gaps[i][j][k]))
        for i in range(grid) for j in range(grid) for k in range(grid)]


def scan_rule_flags(family):
    params = SCAN_RULES[family]
    flags = ["--family", family]
    if "alpha" in params:
        flags += ["--alpha", str(params["alpha"])]
    if "samples" in params:
        flags += ["--rule-samples", json.dumps(params["samples"])]
    return flags


def grid_rows(text):
    return [line for line in text.split("\n")[:-1]
            if not line.startswith("#")]


@pytest.mark.parametrize("grid", [3, 4, 41])
@pytest.mark.parametrize("family", sorted(SCAN_RULES))
def test_scan_csv_rows_match_cellwise_reference(tmp_path, capsys, family,
                                                grid):
    path = tmp_path / "scan.csv"
    code, _, _ = run_cli(capsys, "scan", *scan_rule_flags(family), "--grid",
                         str(grid), "--refine", "1", "--format", "csv",
                         "--out", str(path))
    assert code == 0
    assert grid_rows(path.read_text()) == cellwise_csv_rows(family, grid)


@pytest.mark.parametrize("family", sorted(SCAN_RULES))
def test_scan_csv_on_stdout_matches_cellwise_reference(capsys, family):
    code, out, _ = run_cli(capsys, "scan", *scan_rule_flags(family),
                           "--grid", "4", "--refine", "1", "--format", "csv")
    assert code == 0
    assert grid_rows(out) == cellwise_csv_rows(family, 4)
    assert out.count("\n# witness ") == 1 and out.endswith("\n")


def test_format_distinct_keeps_signed_zeros_apart():
    texts, codes = _format_distinct(np.array([0.0, -0.0, 0.5, 0.0]),
                                    np.array([-0.0, 0.25, 0.5, 0.0]))
    assert codes.shape == (4, 2)
    assert sorted(texts) == ["-0", "0", "0.25", "0.5"]
    assert [[texts[c] for c in row] for row in codes.tolist()] == [
        ["0", "-0"], ["-0", "0.25"], ["0.5", "0.5"], ["0", "0"]]


# The power(1.5) scan below traced a 10.8 MiB peak (10.79 MiB, run first in
# a fresh process), most of it the table of distinct texts: 96,698 of its
# 206,763 values differ, the most of the four benchmark families. The bound
# leaves about 30% for other numpy releases.
SCAN_PEAK_BOUND_MIB = 14


def test_scan_csv_memory_stays_bounded(tmp_path, capsys):
    argv = ["scan", "--family", "power", "--alpha", "1.5", "--grid", "41",
            "--format", "csv", "--out", str(tmp_path / "scan.csv")]
    tracemalloc.start()
    try:
        code, _, _ = run_cli(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak <= SCAN_PEAK_BOUND_MIB * 2 ** 20, f"{peak / 2 ** 20:.1f} MiB"


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


MISSING_RULE_FLAG = {
    "alpha": "error: --family power needs --alpha.\n",
    "samples": "error: --family tabulated needs --rule-samples.\n",
}


@pytest.mark.parametrize("argv, key", [
    (["gap", "--family", "power", "--p1", "1", "--p2", "0",
      "--lambda", "0.5"], "alpha"),
    (["rule-check", "--family", "tabulated"], "samples"),
    (["rule-check", "--family", "power"], "alpha"),
    (["scan", "--family", "power"], "alpha"),
    (["scan", "--family", "tabulated"], "samples"),
    (["certify", "--family", "power"], "alpha"),
    (["certify", "--family", "tabulated"], "samples"),
])
def test_missing_rule_parameter_is_usage_error(capsys, argv, key):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", MISSING_RULE_FLAG[key])


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
