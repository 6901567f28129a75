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
                           help="joint state: 'bell', @file or JSON")
    steer_cmd.add_argument("--alice", default=None,
                           help="purifier-side measurement: z, x, @file or "
                                "JSON")
    steer_cmd.add_argument("--target", default=None,
                           help="ensemble to synthesize toward: @file or JSON")
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
    if args.family == "power" and args.alpha is None:
        raise ValueError("--family power needs --alpha.")
    if args.family == "tabulated" and args.rule_samples is None:
        raise ValueError("--family tabulated needs --rule-samples.")
    data = {"family": args.family}
    if args.alpha is not None:
        data["alpha"] = args.alpha
    if args.rule_samples is not None:
        data["samples"] = json.loads(args.rule_samples)
    return rl.rule_from_dict(data)


def _write(args, payload, csv=(), pretty=()) -> None:
    """Write ``payload`` as sorted JSON, or the ``csv`` or ``pretty`` lines,
    as ``--format`` asks."""
    if args.format == "json":
        text = json.dumps(payload, sort_keys=True)
    else:
        text = "\n".join(csv if args.format == "csv" else pretty)
    with _output(args) as fh:
        fh.write(text + "\n")


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


def _read_json(token: str, kind: str):
    """The JSON of an argument given as ``@file`` or inline; any other
    token is an error that names it as a ``kind`` token."""
    if token.startswith("@"):
        with open(token[1:]) as fh:
            return json.load(fh)
    if token.startswith("{"):
        return json.loads(token)
    raise ValueError(f"Cannot parse {kind} token {token!r}.")


def _parse_state(model: gm.SystemModel, token: str) -> gm.State:
    if model.kind == gm.QUANTUM and model.size == 2 and token in _QUBIT_PRESETS:
        return gm.ket_state(model, _QUBIT_PRESETS[token])
    if token.isdigit():
        return gm.point_state(model, int(token))
    return gm.state_from_dict(_read_json(token, "state"))


# ---------------------------------------------------------------------------
# rule-check
# ---------------------------------------------------------------------------

def _cmd_rule_check(args) -> int:
    rule = _load_rule(args)
    report = rl.check_constraints(rule, grid_n=args.grid, tol=args.tol)
    _write(args, report.to_dict(), csv=[
        "check,passed,residual",
        f"boundary,{report.boundary_ok},{_FMT % report.boundary_residual}",
        f"monotonicity,{report.monotone},{report.monotonicity_violations}",
        f"normalization,{report.normalization_ok},"
        f"{_FMT % report.normalization_residual}",
        f"midpoint,{report.midpoint_ok},{_FMT % report.midpoint_residual}",
    ], pretty=[
        f"rule: {report.rule_label}",
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
        f"overall:       {_flag(report.passed)}",
    ])
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
    cells = {k: _FMT % v if isinstance(v, float) else str(v)
             for k, v in sorted(result.items())}
    _write(args, result, csv=[",".join(cells), ",".join(cells.values())],
           pretty=[f"{k}: {v}" for k, v in cells.items()])
    return 0


# ---------------------------------------------------------------------------
# steer
# ---------------------------------------------------------------------------

_BELL_AMPLITUDES = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)


def _cmd_steer(args) -> int:
    if args.bipartite == "bell":
        qubit = gm.quantum(2)
        psi = gm.bipartite_from_ket(qubit, qubit, _BELL_AMPLITUDES)
    else:
        psi = gm.bipartite_from_dict(_read_json(args.bipartite, "joint state"))

    if (args.alice is None) == (args.target is None):
        raise ValueError("Provide exactly one of --alice or --target.")

    if args.target:
        target = gm.ensemble_from_dict(_read_json(args.target, "ensemble"))
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
    _write(args, payload, csv=["outcome,weight,pure"] + [
        f"{i},{_FMT % w},{s.pure}" for i, (w, s) in enumerate(ens)
    ], pretty=[f"outcomes: {len(ens)}"] + [
        f"  outcome {i}: weight {_FMT % w} ({'pure' if s.pure else 'mixed'})"
        for i, (w, s) in enumerate(ens)
    ] + [f"marginal residual vs trivial: {residual:.3g}"])
    return 0


def _parse_measurement(model: gm.SystemModel, token: str) -> gm.Measurement:
    if token == "z":
        return gm.measurement([tr.accept_effect(gm.point_state(model, i))
                               for i in range(model.size)])
    if token == "x" and model.size == 2:
        plus = gm.ket_state(model, np.array([1, 1]) / np.sqrt(2))
        minus = gm.ket_state(model, np.array([1, -1]) / np.sqrt(2))
        return gm.measurement([gm.projector_effect(plus),
                               gm.projector_effect(minus)])
    return gm.measurement_from_dict(_read_json(token, "measurement"))


# ---------------------------------------------------------------------------
# gap
# ---------------------------------------------------------------------------

def _cmd_gap(args) -> int:
    rule = _load_rule(args)
    phi = gm.point_state(gm.quantum(2), 0)
    scenario = sg.Scenario(rule, phi, args.p1, args.p2, args.lam,
                           mode=args.mode, seed=args.seed)
    report = sg.run_scenario(scenario)
    s = report.scenario
    _write(args, report.to_dict(), csv=[
        "p1,p2,lambda,P1,P2,gap", _report_row(report),
    ], pretty=[
        f"rule: {rule.label()}  mode: {s.mode}  seed: {s.seed}",
        f"p1={_FMT % s.p1} p2={_FMT % s.p2} lambda={_FMT % s.lam}",
        f"P1  = {_FMT % report.prob_1}",
        f"P2  = {_FMT % report.prob_2}",
        f"gap = {_FMT % report.gap}",
        f"marginal residual: {report.marginal_residual:.3g}",
    ])
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
        _write(args, {"seed": args.seed, "grid": args.grid,
                      "witness": witness.to_dict()})
        return 0

    # Each distinct value is formatted once: the axis values, and P1, P2 and
    # gap into a table of texts (P2 depends on a cell only through the
    # average overlap, so values repeat). A slab's rows are 8 pieces each in
    # one list: p1, ",p2,lambda,", P1, ",", P2, ",", gap, "\n". Only p1 and
    # the three texts change per slab; they are gathered by one indexing and
    # the slab is written as one join, so the CSV is never held whole. At
    # grid 41 the table holds up to 97k strings (about 6 MB), and the op's
    # traced peak is about 11 MiB.
    cells = [_FMT % v for v in axis.tolist()]
    count = len(cells) ** 2  # rows per slab
    pieces = [","] * (8 * count)
    pieces[1::8] = [f",{p2},{lam}," for p2 in cells for lam in cells]
    pieces[7::8] = ["\n"] * count
    texts, codes = _format_distinct(prob_1, prob_2, gaps)
    with _output(args) as fh:
        fh.write(f"# gptsim scan seed={args.seed} grid={args.grid} "
                 f"rule={rule.label()}\np1,p2,lambda,P1,P2,gap\n")
        for p1, slab in zip(cells, codes):
            pieces[0::8] = [p1] * count
            pieces[2::8], pieces[4::8], pieces[6::8] = (
                texts[slab.reshape(-1, 3).T].tolist())
            fh.write("".join(pieces))
        fh.write("# witness " + _report_row(witness) + "\n")
    if args.out:
        # CSV went to the file; surface the witness on stdout as well.
        sys.stdout.write("witness: " + _report_row(witness) + "\n")
    return 0


_FORMAT_CHUNK = 4096  # values per % call, bounding what one call holds


def _format_distinct(*arrays: np.ndarray):
    """``_FMT`` texts of the distinct float64 values of ``arrays``, told
    apart by their bits (so 0.0 and -0.0 stay apart), as an object array,
    and the index of each value's text, in the shape of the arrays stacked
    on a last axis."""
    # np.unique(return_inverse=True) finds the same table but holds twice
    # the memory at its peak; here each array is freed once used. int32
    # codes cover any grid that fits in memory (2**31 float64 are 16 GiB).
    values = np.stack(arrays, axis=-1)
    shape = values.shape
    bits = values.view(np.uint64).reshape(-1)
    order = bits.argsort()
    bits = bits[order]
    del values
    first = np.empty(len(bits), dtype=bool)
    first[:1] = True
    np.not_equal(bits[1:], bits[:-1], out=first[1:])
    distinct = bits[first].view(np.float64)
    del bits
    codes = np.empty(shape, dtype=np.int32)
    codes.reshape(-1)[order] = np.cumsum(first, dtype=np.int32) - 1
    del order, first
    texts = np.empty(len(distinct), dtype=object)
    for start in range(0, len(distinct), _FORMAT_CHUNK):
        chunk = distinct[start:start + _FORMAT_CHUNK].tolist()
        texts[start:start + _FORMAT_CHUNK] = (
            "\n".join([_FMT] * len(chunk)) % tuple(chunk)).split("\n")
    return texts, codes


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

def _cmd_certify(args) -> int:
    rule = _load_rule(args)
    cert = sg.affinity_certificate(rule, samples=args.samples, tol=args.tol,
                                   seed=args.seed)
    worst = cert.worst.scenario
    _write(args, cert.to_dict(), csv=[
        "samples,tol,seed,max_abs_gap,passed",
        f"{cert.samples},{_FMT % cert.tolerance},{cert.seed},"
        f"{_FMT % cert.max_abs_gap},{cert.passed}",
    ], pretty=[
        f"rule: {rule.label()}  samples: {cert.samples}  seed: {cert.seed}",
        f"max |gap| = {_FMT % cert.max_abs_gap} "
        f"(tolerance {cert.tolerance:g})",
        f"worst witness: p1={_FMT % worst.p1} p2={_FMT % worst.p2} "
        f"lambda={_FMT % worst.lam}",
        f"result: {_flag(cert.passed)}",
    ])
    return 0 if cert.passed else 1


# ---------------------------------------------------------------------------
# reproduce
# ---------------------------------------------------------------------------

def _cmd_reproduce(args) -> int:
    rows = sg.reference_table(tol=args.tol)
    all_pass = all(r.passed for r in rows)
    width = max(len(r.name) for r in rows)
    _write(args, {"rows": [r.to_dict() for r in rows], "passed": all_pass},
           csv=["name,value,expected,tolerance,passed"] + [
               f"{r.name},{_FMT % r.value},{_FMT % r.expected},"
               f"{_FMT % r.tolerance},{r.passed}" for r in rows
           ], pretty=[
               f"{r.name:<{width}}  {r.value: .9f}  expected "
               f"{r.expected: .9f} +/- {r.tolerance:g}  {_flag(r.passed)}"
               for r in rows
           ] + [f"overall: {_flag(all_pass)}"])
    return 0 if all_pass else 1


if __name__ == "__main__":
    sys.exit(main())
