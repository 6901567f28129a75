"""Command-line front end: rule audits, overlap computation, steering and
signaling experiments with machine-readable output.

Exit codes: 0 success (all checks passed), 1 a check failed, 2 usage or
input error. Output is deterministic for a fixed configuration and seed;
randomized subcommands echo their effective seed.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys

import numpy as np

from . import models as gm
from . import rules as rl
from . import signaling as sg
from . import steering as ss
from . import transition as tr
from .errors import GptError

_FMT = "%.17g"  # bit-faithful decimal round-trips


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (GptError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built on first use and reused: parse_args returns a fresh Namespace per
    # call and no default is mutable, so calls share nothing but the parser.
    parser = argparse.ArgumentParser(
        prog="gptsim",
        description="Probability-rule audits and steering-based signaling "
                    "experiments for generalized probabilistic models.")
    sub = parser.add_subparsers(dest="command", required=True)

    rule_check = sub.add_parser(
        "rule-check", help="audit a probability rule against the "
                           "boundary/monotonicity/normalization constraints")
    _add_rule_source(rule_check)
    rule_check.add_argument("--grid", type=int, default=4097,
                            help="audit grid size (default 4097)")
    rule_check.add_argument("--tol", type=float, default=1e-8,
                            help="constraint tolerance (default 1e-8)")
    _add_output(rule_check)
    rule_check.set_defaults(handler=_cmd_rule_check)

    tau_cmd = sub.add_parser(
        "tau", help="transition probability between two pure states")
    tau_cmd.add_argument("--model", default="quantum:2",
                         help="model descriptor, e.g. quantum:2 or classical:3")
    tau_cmd.add_argument("--psi", required=True,
                         help="state: preset (0, 1, +, -), index, @file or JSON")
    tau_cmd.add_argument("--phi", required=True,
                         help="reference state, same formats as --psi")
    tau_cmd.add_argument("--lp", type=int, default=0, metavar="N",
                         help="cross-check with an N-point generator grid")
    tau_cmd.add_argument("--verbose", action="store_true",
                         help="include LP iteration diagnostics")
    _add_output(tau_cmd)
    tau_cmd.set_defaults(handler=_cmd_tau)

    steer_cmd = sub.add_parser(
        "steer", help="steer one side of a joint pure state")
    steer_cmd.add_argument("--bipartite", default="bell",
                           help="joint state: 'bell' or @file")
    steer_cmd.add_argument("--alice", default=None,
                           help="purifier-side measurement: z, x or @file")
    steer_cmd.add_argument("--target", default=None,
                           help="@file with an ensemble to synthesize toward")
    _add_output(steer_cmd)
    steer_cmd.set_defaults(handler=_cmd_steer)

    gap_cmd = sub.add_parser(
        "gap", help="run one two-protocol signaling scenario")
    _add_rule_source(gap_cmd)
    gap_cmd.add_argument("--p1", type=float, required=True)
    gap_cmd.add_argument("--p2", type=float, required=True)
    gap_cmd.add_argument("--lambda", dest="lam", type=float, required=True,
                         help="weight of the first member")
    gap_cmd.add_argument("--mode", choices=[sg.TRIVIAL_AVERAGE, sg.STEERED_UNIFORM],
                         default=sg.TRIVIAL_AVERAGE)
    gap_cmd.add_argument("--seed", type=int, default=0)
    _add_output(gap_cmd)
    gap_cmd.set_defaults(handler=_cmd_gap)

    scan_cmd = sub.add_parser(
        "scan", help="sweep the gap surface and report the maximal witness")
    _add_rule_source(scan_cmd)
    scan_cmd.add_argument("--grid", type=int, default=41,
                          help="points per axis (default 41)")
    scan_cmd.add_argument("--refine", type=int, default=40,
                          help="coordinate-descent refinement steps")
    scan_cmd.add_argument("--seed", type=int, default=0)
    _add_output(scan_cmd)
    scan_cmd.set_defaults(handler=_cmd_scan)

    certify = sub.add_parser(
        "certify", help="randomized affinity certificate: pass iff every "
                        "sampled scenario's |gap| stays within tolerance")
    _add_rule_source(certify)
    certify.add_argument("--samples", type=int, default=10_000)
    certify.add_argument("--tol", type=float, default=1e-10)
    certify.add_argument("--seed", type=int, default=0)
    _add_output(certify)
    certify.set_defaults(handler=_cmd_certify)

    repro = sub.add_parser(
        "reproduce", help="recompute the built-in reference scenarios and "
                          "compare against their known values")
    repro.add_argument("--tol", type=float, default=None,
                       help="override every row's comparison tolerance")
    _add_output(repro)
    repro.set_defaults(handler=_cmd_reproduce)

    return parser


def _add_rule_source(cmd) -> None:
    group = cmd.add_mutually_exclusive_group(required=True)
    group.add_argument("--family", choices=list(rl.FAMILIES),
                       help="built-in rule family")
    group.add_argument("--rule-file", help="JSON rule definition file")
    cmd.add_argument("--alpha", type=float, default=None,
                     help="exponent for the power family")
    cmd.add_argument("--rule-samples", default=None,
                     help="JSON sample list for the tabulated family")


def _add_output(cmd) -> None:
    cmd.add_argument("--format", choices=["json", "csv", "pretty"],
                     default="pretty")
    cmd.add_argument("--out", default=None, help="output path (default stdout)")


def _load_rule(args) -> rl.ProbabilityRule:
    if args.rule_file:
        with open(args.rule_file) as fh:
            return rl.rule_from_dict(json.load(fh))
    data = {"family": args.family}
    if args.alpha is not None:
        data["alpha"] = args.alpha
    if args.rule_samples is not None:
        data["samples"] = json.loads(args.rule_samples)
    return rl.rule_from_dict(data)


def _emit(text: str, args) -> None:
    with _output(args) as fh:
        fh.write(text)


@contextlib.contextmanager
def _output(args):
    """The --out file opened for writing, or stdout."""
    if args.out:
        with open(args.out, "w") as fh:
            yield fh
    else:
        yield sys.stdout


def _parse_model(token: str) -> gm.SystemModel:
    kind, _, size = token.partition(":")
    if not size:
        raise ValueError(f"Model descriptor {token!r} must look like quantum:2.")
    return gm.model_from_dict(
        {"kind": kind, ("d" if kind == gm.QUANTUM else "n"): int(size)})


_QUBIT_PRESETS = {
    "0": np.array([1, 0], dtype=complex),
    "1": np.array([0, 1], dtype=complex),
    "+": np.array([1, 1], dtype=complex) / np.sqrt(2),
    "-": np.array([1, -1], dtype=complex) / np.sqrt(2),
}


def _parse_state(model: gm.SystemModel, token: str) -> gm.State:
    if token.startswith("@"):
        with open(token[1:]) as fh:
            return gm.state_from_dict(json.load(fh))
    if token.startswith("{"):
        return gm.state_from_dict(json.loads(token))
    if model.kind == gm.QUANTUM and model.size == 2 and token in _QUBIT_PRESETS:
        return gm.ket_state(model, _QUBIT_PRESETS[token])
    if token.isdigit():
        return gm.point_state(model, int(token))
    raise ValueError(f"Cannot parse state token {token!r}.")


# ---------------------------------------------------------------------------
# rule-check
# ---------------------------------------------------------------------------

def _cmd_rule_check(args) -> int:
    rule = _load_rule(args)
    report = rl.check_constraints(rule, grid_n=args.grid, tol=args.tol)
    if args.format == "json":
        _emit(json.dumps(report.to_dict(), sort_keys=True) + "\n", args)
    elif args.format == "csv":
        lines = ["check,passed,residual",
                 f"boundary,{report.boundary_ok},{_FMT % report.boundary_residual}",
                 f"monotonicity,{report.monotone},{report.monotonicity_violations}",
                 f"normalization,{report.normalization_ok},"
                 f"{_FMT % report.normalization_residual}",
                 f"midpoint,{report.midpoint_ok},{_FMT % report.midpoint_residual}"]
        _emit("\n".join(lines) + "\n", args)
    else:
        lines = [f"rule: {report.rule_label}",
                 f"grid: {report.grid_size}  tolerance: {report.tolerance:g}",
                 f"boundary:      {_flag(report.boundary_ok)} "
                 f"(residual {report.boundary_residual:.3g})",
                 f"monotonicity:  {_flag(report.monotone)} "
                 f"({report.monotonicity_violations} violations)",
                 f"normalization: {_flag(report.normalization_ok)} "
                 f"(residual {report.normalization_residual:.3g})",
                 f"midpoint:      {_flag(report.midpoint_ok)} "
                 f"(residual {report.midpoint_residual:.3g})",
                 "convexity:     " + "; ".join(
                     f"{label} on [{lo:.4g}, {hi:.4g}]"
                     for lo, hi, label in report.convexity_segments),
                 f"overall:       {_flag(report.passed)}"]
        _emit("\n".join(lines) + "\n", args)
    return 0 if report.passed else 1


def _flag(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


# ---------------------------------------------------------------------------
# tau
# ---------------------------------------------------------------------------

def _cmd_tau(args) -> int:
    model = _parse_model(args.model)
    psi = _parse_state(model, args.psi)
    phi = _parse_state(model, args.phi)
    result = {"tau": tr.tau(psi, phi)}
    if args.lp:
        if model.kind == gm.QUANTUM:
            generators = tr.great_circle_states(phi, args.lp, through=psi)
        else:
            generators = None
        report = tr.tau_lp_report(model, psi, phi, generators=generators)
        result["tau_lp"] = report.value
        if args.verbose:
            result["lp_iterations"] = report.iterations
            result["lp_phase1_iterations"] = report.phase1_iterations
            result["lp_generators"] = report.generators
    if args.format == "json":
        _emit(json.dumps(result, sort_keys=True) + "\n", args)
    elif args.format == "csv":
        keys = sorted(result)
        _emit(",".join(keys) + "\n" +
              ",".join(_format_cell(result[k]) for k in keys) + "\n", args)
    else:
        _emit("\n".join(f"{k}: {_format_cell(v)}"
                        for k, v in sorted(result.items())) + "\n", args)
    return 0


def _format_cell(value) -> str:
    return _FMT % value if isinstance(value, float) else str(value)


# ---------------------------------------------------------------------------
# steer
# ---------------------------------------------------------------------------

_BELL_AMPLITUDES = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)


def _cmd_steer(args) -> int:
    if args.bipartite == "bell":
        qubit = gm.quantum(2)
        psi = gm.bipartite_from_ket(qubit, qubit, _BELL_AMPLITUDES)
    else:
        with open(args.bipartite.lstrip("@")) as fh:
            psi = gm.bipartite_from_dict(json.load(fh))

    if (args.alice is None) == (args.target is None):
        raise ValueError("Provide exactly one of --alice or --target.")

    if args.target:
        with open(args.target.lstrip("@")) as fh:
            target = gm.ensemble_from_dict(json.load(fh))
        synthesized = ss.synthesize_steering_measurement(psi, target)
        alice, ens = synthesized.measurement, synthesized.ensemble
    else:
        alice = _parse_measurement(psi.model_a, args.alice)
        ens = ss.steer(psi, alice)

    trivial = ss.steer(psi, gm.measurement([gm.unit_effect(psi.model_a)]))
    residual = ss.marginal_residual(ens, trivial)
    payload = {"ensemble": ens.to_dict(),
               "measurement": alice.to_dict(),
               "marginal_residual": residual}
    if args.format == "json":
        _emit(json.dumps(payload, sort_keys=True) + "\n", args)
    elif args.format == "csv":
        lines = ["outcome,weight,pure"]
        for i, (w, s) in enumerate(ens):
            lines.append(f"{i},{_FMT % w},{s.pure}")
        _emit("\n".join(lines) + "\n", args)
    else:
        lines = [f"outcomes: {len(ens)}"]
        for i, (w, s) in enumerate(ens):
            lines.append(f"  outcome {i}: weight {_FMT % w} "
                         f"({'pure' if s.pure else 'mixed'})")
        lines.append(f"marginal residual vs trivial: {residual:.3g}")
        _emit("\n".join(lines) + "\n", args)
    return 0


def _parse_measurement(model: gm.SystemModel, token: str) -> gm.Measurement:
    if token == "z":
        return gm.measurement([gm.projector_effect(gm.point_state(model, i))
                               for i in range(model.size)])
    if token == "x" and model.size == 2:
        plus = gm.ket_state(model, np.array([1, 1]) / np.sqrt(2))
        minus = gm.ket_state(model, np.array([1, -1]) / np.sqrt(2))
        return gm.measurement([gm.projector_effect(plus),
                               gm.projector_effect(minus)])
    if token.startswith("@") or token.startswith("{"):
        if token.startswith("@"):
            with open(token[1:]) as fh:
                return gm.measurement_from_dict(json.load(fh))
        return gm.measurement_from_dict(json.loads(token))
    raise ValueError(f"Cannot parse measurement token {token!r}.")


# ---------------------------------------------------------------------------
# gap
# ---------------------------------------------------------------------------

def _cmd_gap(args) -> int:
    rule = _load_rule(args)
    phi = gm.point_state(gm.quantum(2), 0)
    scenario = sg.Scenario(rule, phi, args.p1, args.p2, args.lam,
                           mode=args.mode, seed=args.seed)
    report = sg.run_scenario(scenario)
    if args.format == "json":
        _emit(report.to_json() + "\n", args)
    elif args.format == "csv":
        _emit("p1,p2,lambda,P1,P2,gap\n" + _report_row(report) + "\n", args)
    else:
        s = report.scenario
        lines = [f"rule: {rule.label()}  mode: {s.mode}  seed: {s.seed}",
                 f"p1={_FMT % s.p1} p2={_FMT % s.p2} lambda={_FMT % s.lam}",
                 f"P1  = {_FMT % report.prob_1}",
                 f"P2  = {_FMT % report.prob_2}",
                 f"gap = {_FMT % report.gap}",
                 f"marginal residual: {report.marginal_residual:.3g}"]
        _emit("\n".join(lines) + "\n", args)
    return 0


def _report_row(report: sg.SignalingReport) -> str:
    s = report.scenario
    cells = (s.p1, s.p2, s.lam, report.prob_1, report.prob_2, report.gap)
    return ",".join(_FMT % c for c in cells)


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------

def _cmd_scan(args) -> int:
    rule = _load_rule(args)
    surface = sg.gap_surface(rule, args.grid)
    witness = sg._witness(rule, surface, args.refine, args.seed)
    axis, prob_1, prob_2, gaps = surface

    if args.format == "json":
        payload = {"seed": args.seed, "grid": args.grid,
                   "witness": witness.to_dict()}
        _emit(json.dumps(payload, sort_keys=True) + "\n", args)
        return 0

    # The axis takes few values: format them once, into row templates for
    # one p1 slab, so that each row formats only P1, P2 and gap. Each slab
    # is converted and written on its own, so that the CSV is never held
    # whole: converting all cells at once adds a third to peak memory.
    cells = [_FMT % v for v in axis.tolist()]
    rows = [f"{p2},{lam},{_FMT},{_FMT},{_FMT}\n"
            for p2 in cells for lam in cells]
    with _output(args) as fh:
        fh.write(f"# gptsim scan seed={args.seed} grid={args.grid} "
                 f"rule={rule.label()}\np1,p2,lambda,P1,P2,gap\n")
        for p1, *slab in zip(cells, prob_1, prob_2, gaps):
            values = np.stack(slab, axis=-1).ravel().tolist()
            fh.write("".join([f"{p1},{row}" for row in rows]) % tuple(values))
        fh.write("# witness " + _report_row(witness) + "\n")
    if args.out:
        # CSV went to the file; surface the witness on stdout as well.
        sys.stdout.write("witness: " + _report_row(witness) + "\n")
    return 0


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

def _cmd_certify(args) -> int:
    rule = _load_rule(args)
    cert = sg.affinity_certificate(rule, samples=args.samples, tol=args.tol,
                                   seed=args.seed)
    if args.format == "json":
        _emit(json.dumps(cert.to_dict(), sort_keys=True) + "\n", args)
    elif args.format == "csv":
        _emit("samples,tol,seed,max_abs_gap,passed\n"
              f"{cert.samples},{_FMT % cert.tolerance},{cert.seed},"
              f"{_FMT % cert.max_abs_gap},{cert.passed}\n", args)
    else:
        worst = cert.worst.scenario
        lines = [f"rule: {rule.label()}  samples: {cert.samples}  "
                 f"seed: {cert.seed}",
                 f"max |gap| = {_FMT % cert.max_abs_gap} "
                 f"(tolerance {cert.tolerance:g})",
                 f"worst witness: p1={_FMT % worst.p1} p2={_FMT % worst.p2} "
                 f"lambda={_FMT % worst.lam}",
                 f"result: {_flag(cert.passed)}"]
        _emit("\n".join(lines) + "\n", args)
    return 0 if cert.passed else 1


# ---------------------------------------------------------------------------
# reproduce
# ---------------------------------------------------------------------------

def _cmd_reproduce(args) -> int:
    rows = sg.reference_table(tol=args.tol)
    all_pass = all(r.passed for r in rows)
    if args.format == "json":
        payload = {"rows": [r.to_dict() for r in rows], "passed": all_pass}
        _emit(json.dumps(payload, sort_keys=True) + "\n", args)
    elif args.format == "csv":
        lines = ["name,value,expected,tolerance,passed"]
        for r in rows:
            lines.append(f"{r.name},{_FMT % r.value},{_FMT % r.expected},"
                         f"{_FMT % r.tolerance},{r.passed}")
        _emit("\n".join(lines) + "\n", args)
    else:
        width = max(len(r.name) for r in rows)
        lines = []
        for r in rows:
            lines.append(f"{r.name:<{width}}  {r.value: .9f}  "
                         f"expected {r.expected: .9f} +/- {r.tolerance:g}  "
                         f"{_flag(r.passed)}")
        lines.append(f"overall: {_flag(all_pass)}")
        _emit("\n".join(lines) + "\n", args)
    return 0 if all_pass else 1


if __name__ == "__main__":
    sys.exit(main())
