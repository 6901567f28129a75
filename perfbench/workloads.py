"""The four benchmark workloads: input generation, the timed op and its check.

Every op goes through gptsim's public surface only: names exported from
``gptsim`` or in-process ``gptsim.cli.main(argv)``. Input ``key`` is drawn
from ``numpy.random.default_rng([seed, key])``, so it depends on the
workload seed and its key and on nothing else. Op i uses the i-th key,
cyclically over ``period`` keys, that is not a documented defect's input
(see ``Workload``). Checks compare the program's output with the benchmark's
own closed forms, never with values that depend on the program's internal
random stream.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os

import numpy as np

import gptsim as gs
from gptsim import cli, signaling

# tolerance of each residual the checks track, by check name
CHECK_TOLERANCES = {
    "marginal_residual": 1e-10,    # distant-marginal residual
    "formula_residual": 1e-12,     # |gap - closed form|
    "certify_max_abs_gap": 1e-10,  # identity-rule certificate max |gap|
    "lp_abs_err": 5e-3,            # |tau_lp - tau|, 720-point great circle
}

# A mixture whose lighter member weighs less than this has a near-pure
# average state. Steering synthesis then inherits round-off amplified by the
# inverse weight: with lambda = 1 - 1e-5 about 1 scenario in 400 raises
# OutsideConeError (an effect escapes [0, 1] by ~1e-9), with 1 - 1e-8 about
# half do, and with 1 - 1e-4 none of 1500 did. The documented pure-average
# defect at lambda in {0, 1} is the limit of the same condition.
NEAR_PURE_WEIGHT = 1e-3

# A tabulated rule with a segment steeper than this amplifies the round-off
# in a predicted probability past gptsim's own absolute 1e-12 closed-form
# check: a rule rising by 0.2 over [0, 1e-5] raised AssertionError on 28
# of 80 scenarios with p1 = 1, p2 = 0. The scenario workload's own
# tabulated rules have knots at least MIN_KNOT_GAP apart, so no segment of
# theirs is steeper than 1 / MIN_KNOT_GAP; the defect probe runs a steep one.
STEEP_SLOPE = 1e3
MIN_KNOT_GAP = 0.05
STEEP_SAMPLES = [[0.0, 0.0], [1e-5, 0.2], [0.5, 0.6], [1.0, 1.0]]

SCAN_GRID = 41
SCAN_CELLS = SCAN_GRID ** 3
SCAN_TABULATED = [[0.0, 0.0], [0.25, 0.05], [0.5, 0.5], [0.75, 0.95],
                  [1.0, 1.0]]
SCAN_RULES = (("identity", []),
              ("power", ["--alpha", "1.5"]),
              ("piecewise-quadratic", []),
              ("tabulated", ["--rule-samples", json.dumps(SCAN_TABULATED)]))
# sha256 of the CSV grid rows (every line not starting with '#') of
# `gptsim scan --grid 41 --format csv`, recorded when the benchmark was
# written. This is the CLI-bytes contract: formatting changes must keep it.
SCAN_DIGESTS = {
    "identity":
        "7da7944d45ca8bb75d88621ef2891793e8c8f9bd165d4b36002e0b09043f58e2",
    "power":
        "4529146db8ecd5e7e44c8ca94ad1b4ef3bb366b5ab6b45fc963fa23c58de7ea5",
    "piecewise-quadratic":
        "4c62e88f5068151ea99265a291d09ad49b8d9a24d965517b869d22b83571276e",
    "tabulated":
        "e9560b436c754cbe50b1304ba635197b5bd85baf77e078f4c0b2d5eac2630783",
}


class CheckFailure(Exception):
    """The op returned, but its output is wrong."""


# ---------------------------------------------------------------------------
# The benchmark's own rule formulas (independent of gptsim.rules)
# ---------------------------------------------------------------------------

def rule_formula(family: str, params: dict):
    if family == "identity":
        return lambda p: p
    if family == "power":
        alpha = params["alpha"]
        return lambda p: p ** alpha
    if family == "piecewise-quadratic":
        return lambda p: 2.0 * p * p if p <= 0.5 else 1.0 - 2.0 * (1.0 - p) ** 2
    if family == "tabulated":
        xs, ys = np.array(params["samples"], dtype=float).T
        return lambda p: min(max(float(np.interp(p, xs, ys)), 0.0), 1.0)
    raise ValueError(f"no closed form for rule family {family!r}")


def closed_form_gap(f, p1: float, p2: float, lam: float) -> float:
    """lambda f(p1) + (1 - lambda) f(p2) - f(p_bar)."""
    pbar = lam * p1 + (1.0 - lam) * p2
    return lam * f(p1) + (1.0 - lam) * f(p2) - f(pbar)


def near_pure_mixture(lam: float) -> bool:
    """The lighter of the two members weighs less than NEAR_PURE_WEIGHT, but
    is present."""
    return 0.0 < min(lam, 1.0 - lam) < NEAR_PURE_WEIGHT


def steep_rule(rule) -> bool:
    if rule.family != "tabulated":
        return False
    xs, ys = np.array(rule.params["samples"], dtype=float).T
    return bool(np.max(np.diff(ys) / np.diff(xs)) > STEEP_SLOPE)


def haar_ket(rng, d: int) -> np.ndarray:
    ket = rng.normal(size=d) + 1j * rng.normal(size=d)
    return ket / np.linalg.norm(ket)


class Workload:
    """One workload. ``input(i)`` builds (once per key, untimed) the input
    of op i; ``op(inp)`` is the timed call into gptsim; ``check(inp, out)``
    checks what it returned, untimed.

    Inputs of a documented defect (``defect_input``) are generated like
    every other, so that the seed sets them, but are not timed ops: the
    timed ops skip them, and the worker's defect probe runs each of them
    once per run, untimed, together with ``defect_examples()``. Every timed
    op is thus one that succeeds at this commit, while the defects stay in
    the inputs and their raises in the output.

    ``min_trace_ops`` is the op prefix over which the traced run's exact
    counts are taken; it always completes.
    """

    name = ""
    period = None      # number of distinct input keys; None: no end
    min_trace_ops = 1
    items = 1          # work items one successful op completes

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.residuals = {name: 0.0 for name in CHECK_TOLERANCES}
        self.bytes_out = 0   # bytes the last checked op wrote (CLI)
        self.pivots = 0      # simplex pivots the last checked op reported
        self.log = None      # file for the CLI's stdout, set by the worker
        self._inputs = {}
        self._timed = []     # keys of the timed inputs, in key order
        self._defects = []   # keys of the defect inputs, in key order
        self._sorted = 0     # keys sorted into the two lists so far

    def key(self, i: int) -> int:
        """Input key of timed op i: the i-th key, cyclically, whose input
        is not a defect input."""
        while len(self._timed) <= i and (self.period is None
                                         or self._sorted < self.period):
            self._sort_next_key()
        return self._timed[i % len(self._timed)]

    def input(self, i: int):
        return self._input(self.key(i))

    def defect_inputs(self) -> list:
        """Every defect input of the period, then ``defect_examples()``."""
        while self.period is not None and self._sorted < self.period:
            self._sort_next_key()
        return [self._input(k) for k in self._defects] + self.defect_examples()

    def _sort_next_key(self) -> None:
        key = self._sorted
        self._sorted += 1
        if self.defect_input(self._input(key)):
            self._defects.append(key)
        else:
            self._timed.append(key)

    def _input(self, key: int):
        if key not in self._inputs:
            self._inputs[key] = self.make(
                key, np.random.default_rng([self.seed, key]))
        return self._inputs[key]

    def defect_input(self, inp) -> bool:
        """Whether a generated input belongs to a documented defect's
        inputs, judged before it runs."""
        return False

    def defect_examples(self) -> list:
        """Fixed inputs known to hit a documented defect, for the probe."""
        return []

    def known_defect(self, inp) -> bool:
        """Whether an input that raised belongs to a documented defect."""
        return self.defect_input(inp)

    def track(self, name: str, value: float) -> None:
        value = abs(float(value))
        if not value <= CHECK_TOLERANCES[name]:  # also catches NaN
            raise CheckFailure(
                f"{name} {value:.3e} exceeds {CHECK_TOLERANCES[name]:g}")
        self.residuals[name] = max(self.residuals[name], value)

    def check_report(self, report, f) -> None:
        s = report.scenario
        self.track("formula_residual",
                   report.gap - closed_form_gap(f, s.p1, s.p2, s.lam))
        self.track("marginal_residual", report.marginal_residual)

    @staticmethod
    def run_cli(argv):
        """``gptsim.cli.main(argv)`` with its stdout captured."""
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            code = cli.main(argv)
        return code, captured.getvalue()

    def read_cli_output(self, output, path: str) -> bytes:
        code, stdout = output
        if code != 0:
            raise CheckFailure(f"exit code {code}")
        with open(path, "rb") as fh:
            raw = fh.read()
        os.remove(path)  # so that the next op must write it afresh
        self.bytes_out = len(raw) + len(stdout.encode())
        return raw


class Certify(Workload):
    """``affinity_certificate(rule, samples=1000, seed=k)``, alternating the
    identity and piecewise-quadratic rules.

    The certificate seeds are drawn, in an order set by the workload seed,
    from CERTIFICATE_SEEDS: the first 48 seeds drawn by
    ``numpy.random.default_rng(20261017).integers(2 ** 31)`` whose
    certificates passed under both rules at the commit that added this
    benchmark (none of those drawn failed). About one random seed in 700
    draws a near-pure mixture and raises (see NEAR_PURE_WEIGHT), and only
    running the certificate tells which; DEFECT_SEED is such a seed, and
    the defect probe runs it in every run.
    """

    name = "certify"
    min_trace_ops = 2
    samples = items = 1000
    CERTIFICATE_SEEDS = (
        1782061355, 1777182655, 1182486071, 1089764919, 1839193854, 2055687872,
        132244817, 1652644470, 1428616628, 1175328282, 1878381630, 1454109808,
        67574435, 780878252, 234744629, 828915159, 145206661, 582525683,
        968553900, 1082510942, 1520861810, 597858239, 1144717422, 1210283150,
        1763940889, 1857857341, 1354732057, 1526481975, 937412952, 129540828,
        163562541, 1095470429, 1376073844, 2015649350, 255206447, 287721923,
        582089183, 1782006703, 122608331, 742605304, 1058651235, 1384584641,
        1274064110, 543107350, 1782050501, 2088967090, 1079039170, 406824800)
    DEFECT_SEED = 1555123228  # raises at sample 609, lambda = 0.99994
    period = len(CERTIFICATE_SEEDS)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.rules = [(gs.identity_rule(), rule_formula("identity", {})),
                      (gs.piecewise_quadratic_rule(),
                       rule_formula("piecewise-quadratic", {}))]
        self.raised_on = {}  # certificate seed -> the scenario that raised
        self.order = np.random.default_rng([seed, self.period]).permutation(
            self.period)  # [seed, period] is no input's key

    def make(self, key, rng):
        rule, f = self.rules[key % 2]
        return rule, f, self.CERTIFICATE_SEEDS[self.order[key]]

    def defect_examples(self):
        rule, f = self.rules[0]
        return [(rule, f, self.DEFECT_SEED)]

    def describe(self, inp):
        rule, _, seed = inp
        out = {"rule": rule.family, "samples": self.samples, "seed": seed}
        if seed in self.raised_on:
            out["raised_on"] = self.raised_on[seed].to_dict()
        return out

    def known_defect(self, inp):
        """Whether the certificate raised on a scenario with a near-pure
        average state. The certificate is run again, untimed and after the
        op, with ``signaling.run_scenario`` wrapped to catch the scenario
        that raises; a certificate that does not raise again is not one."""
        rule, _, seed = inp
        real = signaling.run_scenario
        raised = []

        def catching(scenario):
            try:
                return real(scenario)
            except Exception:
                raised.append(scenario)
                raise

        signaling.run_scenario = catching
        try:
            gs.affinity_certificate(rule, samples=self.samples, seed=seed)
        except Exception:
            pass
        finally:
            signaling.run_scenario = real
        if not raised:
            return False
        self.raised_on[seed] = raised[0]
        return near_pure_mixture(raised[0].lam)

    def op(self, inp):
        rule, _, seed = inp
        return gs.affinity_certificate(rule, samples=self.samples, seed=seed)

    def check(self, inp, cert):
        rule, f, _ = inp
        worst = cert.worst
        if cert.samples != self.samples or cert.max_abs_gap != abs(worst.gap):
            raise CheckFailure("certificate does not report its worst witness")
        self.check_report(worst, f)
        if rule.family == "identity":
            if not cert.passed:
                raise CheckFailure("identity-rule certificate failed")
            self.track("certify_max_abs_gap", cert.max_abs_gap)


class Scenario(Workload):
    """One ``run_scenario`` per op over a fixed mix of inputs.

    Of every 40 inputs: 33 steered-uniform qubit, 1 each trivial qubit,
    d = 3 and d = 4, and 4 qubit boundary inputs (lambda in {0, 1} or p1,
    p2 in {0, 1}, once per mode). The steered share puts op_p50_ms near the
    middle of the steered-mode latency cluster (its 43rd percentile): the
    cluster's lower side is a long slope that, on a shared host, moves far
    more than the cluster's middle as the machine's speed drifts. Steered
    boundary inputs whose average state is pure (lambda in {0, 1}, or
    p1 = p2 in {0, 1}) hit a known defect in about a third of cases: the
    uniform decomposition inherits sqrt(round-off). They stay in the mix
    as defect inputs, with the rare near-pure mixtures of either mode (see
    NEAR_PURE_WEIGHT): the defect probe runs each of them once per run,
    and the timed ops skip them. The probe also runs a steep tabulated
    rule (see STEEP_SLOPE), which the workload's own rules never are.
    """

    name = "scenario"
    period = 1000
    min_trace_ops = 1000
    SLOTS = ([(gs.STEERED_UNIFORM, 2, None)] * 33
             + [(gs.TRIVIAL_AVERAGE, 2, None),
                (gs.TRIVIAL_AVERAGE, 3, None),
                (gs.TRIVIAL_AVERAGE, 4, None)]
             + [(gs.STEERED_UNIFORM, 2, "lambda"),
                (gs.TRIVIAL_AVERAGE, 2, "p"),
                (gs.STEERED_UNIFORM, 2, "p"),
                (gs.TRIVIAL_AVERAGE, 2, "lambda")])

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = np.random.default_rng([seed, self.period])  # no input's key
        alpha = float(1.2 + 1.8 * rng.random())
        gaps = MIN_KNOT_GAP + (1.0 - 4 * MIN_KNOT_GAP) * rng.dirichlet(
            np.ones(4))
        knots = zip(np.cumsum(gaps)[:3], np.sort(rng.random(3)))
        samples = ([[0.0, 0.0]] + [[float(x), float(y)] for x, y in knots]
                   + [[1.0, 1.0]])
        self.rules = [(rule, rule_formula(rule.family, rule.params))
                      for rule in (gs.power_rule(alpha),
                                   gs.piecewise_quadratic_rule(),
                                   gs.tabulated_rule(samples))]

    def make(self, key, rng):
        mode, d, boundary = self.SLOTS[key % len(self.SLOTS)]
        rule, f = self.rules[key % len(self.rules)]
        phi = gs.ket_state(gs.quantum(d), haar_ket(rng, d))
        p1, p2, lam = (float(x) for x in rng.random(3))
        if boundary == "lambda":
            lam = float(rng.integers(2))
        elif boundary == "p":
            p1, p2 = (float(x) for x in rng.integers(2, size=2))
        scenario = gs.Scenario(rule, phi, p1, p2, lam, mode=mode,
                               seed=int(rng.integers(2 ** 31)))
        return scenario, f

    def describe(self, inp):
        s = inp[0]
        return {"rule": s.rule.to_dict(), "d": s.phi.model.size,
                "mode": s.mode, "p1": s.p1, "p2": s.p2, "lambda": s.lam,
                "seed": s.seed, "phi": s.phi.to_dict()["matrix"]}

    def op(self, inp):
        return gs.run_scenario(inp[0])

    def check(self, inp, report):
        self.check_report(report, inp[1])

    def defect_input(self, inp):
        s = inp[0]
        pure_average = (s.lam in (0.0, 1.0)
                        or (s.p1 == s.p2 and s.p1 in (0.0, 1.0)))
        return ((s.mode == gs.STEERED_UNIFORM and pure_average)
                or near_pure_mixture(s.lam) or steep_rule(s.rule))

    def defect_examples(self):
        """A steep tabulated rule at p1 = 1, p2 = 0, in both modes; both
        raise at this commit."""
        rule = gs.tabulated_rule(STEEP_SAMPLES)
        f = rule_formula(rule.family, rule.params)
        phi = gs.ket_state(gs.quantum(2),
                           haar_ket(np.random.default_rng(35), 2))
        return [(gs.Scenario(rule, phi, 1.0, 0.0, 0.3, mode=mode, seed=35), f)
                for mode in (gs.TRIVIAL_AVERAGE, gs.STEERED_UNIFORM)]


class Lp(Workload):
    """``gptsim tau --lp 720 --verbose --format json`` on random qubit
    pairs; one input in eight is a classical:2-4 point pair."""

    name = "lp"
    period = 64
    min_trace_ops = 64
    generators = 720

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.out = os.path.join(workdir, "lp-out.json")

    def make(self, key, rng):
        """(argv, exact tau, whether the model is classical)."""
        if key % 8 == 7:
            n = int(rng.integers(2, 5))
            a, b = (int(x) for x in rng.integers(n, size=2))
            states = [{"model": {"kind": "classical", "n": n},
                       "coeffs": [float(j == index) for j in range(n)]}
                      for index in (a, b)]
            model, expected = f"classical:{n}", float(a == b)
        else:
            kets = [haar_ket(rng, 2), haar_ket(rng, 2)]
            states = [{"model": {"kind": "quantum", "d": 2},
                       "matrix": [[[float(c.real), float(c.imag)] for c in row]
                                  for row in np.outer(ket, ket.conj())]}
                      for ket in kets]
            model = "quantum:2"
            expected = float(abs(np.vdot(kets[1], kets[0])) ** 2)
        argv = ["tau", "--model", model, "--psi", json.dumps(states[0]),
                "--phi", json.dumps(states[1]), "--lp", str(self.generators),
                "--verbose", "--format", "json", "--out", self.out]
        return argv, expected, model.startswith("classical")

    def describe(self, inp):
        return {"argv": inp[0], "tau": inp[1]}

    def op(self, inp):
        return self.run_cli(inp[0])

    def check(self, inp, output):
        _, expected, classical = inp
        result = json.loads(self.read_cli_output(output, self.out))
        self.pivots = int(result["lp_iterations"])
        if classical:
            if result["tau"] != expected or result["tau_lp"] != expected:
                raise CheckFailure(f"classical tau {result['tau']} / tau_lp "
                                   f"{result['tau_lp']} != {expected}")
            return
        if result["lp_generators"] != self.generators:
            raise CheckFailure("LP did not use the requested generators")
        if not abs(result["tau"] - expected) <= CHECK_TOLERANCES[
                "formula_residual"]:
            raise CheckFailure(f"tau {result['tau']} != |<psi|phi>|^2 "
                               f"{expected}")
        self.track("lp_abs_err", result["tau_lp"] - result["tau"])


class Scan(Workload):
    """``gptsim scan --grid 41 --format csv --out FILE``, rotating the four
    rule families. The grid rows must match a recorded digest byte for
    byte; the witness row is checked against the closed form."""

    name = "scan"
    min_trace_ops = 4
    items = SCAN_CELLS

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.out = os.path.join(workdir, "scan-out.csv")
        self.formulas = {
            "identity": rule_formula("identity", {}),
            "power": rule_formula("power", {"alpha": 1.5}),
            "piecewise-quadratic": rule_formula("piecewise-quadratic", {}),
            "tabulated": rule_formula("tabulated",
                                      {"samples": SCAN_TABULATED}),
        }

    def make(self, key, rng):
        family, extra = SCAN_RULES[(self.seed + key) % len(SCAN_RULES)]
        return family, ["scan", "--family", family, *extra, "--grid",
                        str(SCAN_GRID), "--seed", str(rng.integers(2 ** 31)),
                        "--format", "csv", "--out", self.out]

    def describe(self, inp):
        return {"argv": inp[1]}

    def op(self, inp):
        return self.run_cli(inp[1])

    def check(self, inp, output):
        family = inp[0]
        stdout = output[1]
        if self.log is not None:
            self.log.write(stdout)
        lines = self.read_cli_output(output, self.out).split(b"\n")
        rows = b"\n".join(line for line in lines if not line.startswith(b"#"))
        if hashlib.sha256(rows).hexdigest() != SCAN_DIGESTS[family]:
            raise CheckFailure(f"{family} grid rows differ from the recorded "
                               f"digest")
        witness = [line for line in lines if line.startswith(b"# witness ")]
        if len(witness) != 1:
            raise CheckFailure("no witness row in the CSV")
        cells = witness[0][len(b"# witness "):].decode()
        if stdout != f"witness: {cells}\n":
            raise CheckFailure("stdout witness differs from the CSV witness")
        p1, p2, lam, prob_1, prob_2, gap = (float(c) for c in cells.split(","))
        if gap != prob_1 - prob_2:
            raise CheckFailure("witness gap is not P1 - P2")
        f = self.formulas[family]
        self.track("formula_residual", gap - closed_form_gap(f, p1, p2, lam))
        self.track("formula_residual",
                   prob_1 - (lam * f(p1) + (1.0 - lam) * f(p2)))


WORKLOADS = {cls.name: cls for cls in (Certify, Scenario, Lp, Scan)}
