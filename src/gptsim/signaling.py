"""Two-protocol signaling experiments over steered ensembles.

A scenario fixes a probability rule, a reference state phi, and a two-member
decomposition parameterized by overlaps (p1, p2) and weight lambda. Protocol
1 steers the shared purification to exactly that decomposition; protocol 2
delivers the same average state either as an unresolved mixture (trivial
measurement) or as a steered ensemble whose members all share the average
overlap. Nonlinear rules predict different outcome rates for the two
protocols even though the distant average state is identical; the signed
difference is the signaling gap.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from . import models as gm
from . import rules as rl
from . import steering as ss
from . import transition as tr
from .errors import UnsupportedModelError

TRIVIAL_AVERAGE = "trivial-average"
STEERED_UNIFORM = "steered-uniform"

_FORMULA_TOL = 1e-12
_MARGINAL_TOL = 1e-10


@dataclass(frozen=True)
class Scenario:
    """One signaling experiment: rule, reference state and decomposition."""

    rule: rl.ProbabilityRule
    phi: gm.State
    p1: float
    p2: float
    lam: float
    mode: str = TRIVIAL_AVERAGE
    seed: int = 0

    def __post_init__(self):
        for name in ("p1", "p2", "lam"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}.")
        if self.mode not in (TRIVIAL_AVERAGE, STEERED_UNIFORM):
            raise ValueError(f"Unknown protocol-2 mode {self.mode!r}.")

    def to_dict(self) -> dict:
        return {"rule": self.rule.to_dict(), "phi": self.phi.to_dict(),
                "p1": self.p1, "p2": self.p2, "lambda": self.lam,
                "mode": self.mode, "seed": self.seed}


@dataclass(frozen=True, eq=False)
class SignalingReport:
    """Outcome of a scenario run.

    ``prob_1``/``prob_2`` are the protocol predictions computed through the
    full steering pipeline; ``gap`` is their signed difference.
    ``formula_residual`` records the agreement with :func:`closed_form`;
    ``marginal_residual`` certifies both protocols left the same average
    state on the distant side.
    """

    scenario: Scenario
    prob_1: float
    prob_2: float
    gap: float
    ensemble_1: gm.Ensemble
    ensemble_2: gm.Ensemble
    marginal_residual: float
    formula_residual: float

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario.to_dict(),
            "P1": self.prob_1,
            "P2": self.prob_2,
            "gap": self.gap,
            "ensemble_1": self.ensemble_1.to_dict(),
            "ensemble_2": self.ensemble_2.to_dict(),
            "marginal_residual": self.marginal_residual,
            "formula_residual": self.formula_residual,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def closed_form(rule: rl.ProbabilityRule, p1, p2, lam):
    """Closed-form protocol predictions (P1, P2) of a decomposition.

    P1 = lam*rule(p1) + (1-lam)*rule(p2) is the resolved decomposition's
    rate and P2 = rule(lam*p1 + (1-lam)*p2) the average state's; the gap is
    P1 - P2. Scalars give floats; arrays broadcast against each other.
    """
    prob_1 = lam * rl.eval_rule(rule, p1) + (1 - lam) * rl.eval_rule(rule, p2)
    prob_2 = rl.eval_rule(rule, lam * p1 + (1 - lam) * p2)
    return prob_1, prob_2


def run_scenario(scenario: Scenario) -> SignalingReport:
    """Build the purification, synthesize both protocols and run them.

    The report's probabilities come from the steered ensembles; the run
    fails loudly if they disagree with the closed-form gap expression or if
    the two protocols do not share the distant average state.
    """
    phi = scenario.phi
    model = phi.model
    if model.kind != gm.QUANTUM:
        raise UnsupportedModelError("Signaling scenarios require a quantum model.")
    rng = np.random.default_rng(scenario.seed)

    psi_1 = tr.state_with_tau(model, phi, scenario.p1, rng)
    psi_2 = tr.state_with_tau(model, phi, scenario.p2, rng)
    members = [(scenario.lam, psi_1), (1.0 - scenario.lam, psi_2)]
    members = [(w, s) for w, s in members if w > 0.0]
    target = gm.ensemble(members)
    omega = gm.mix(target)
    joint = ss.purify(omega, purifier_dim=len(target))

    ensemble_1 = ss.synthesize_steering_measurement(joint, target).ensemble
    prob_1 = rl.predict_ensemble(scenario.rule, ensemble_1, phi)

    if scenario.mode == TRIVIAL_AVERAGE:
        protocol_2 = gm.measurement([gm.unit_effect(joint.model_a)])
        ensemble_2 = ss.steer(joint, protocol_2)
        # The trivial steer's only conditional is the B marginal itself.
        prob_2 = rl.predict_average(scenario.rule, ensemble_2.states[0], phi)
    else:
        uniform = uniform_overlap_decomposition(omega, phi)
        ensemble_2 = ss.synthesize_steering_measurement(joint, uniform).ensemble
        prob_2 = rl.predict_ensemble(scenario.rule, ensemble_2, phi)

    marginal_residual = ss.marginal_residual(ensemble_1, ensemble_2)
    if marginal_residual > _MARGINAL_TOL:
        raise AssertionError(
            f"Protocols disagree on the distant marginal by {marginal_residual}.")

    expected_1, expected_2 = closed_form(scenario.rule, scenario.p1,
                                         scenario.p2, scenario.lam)
    formula_residual = max(abs(prob_1 - expected_1), abs(prob_2 - expected_2))
    if formula_residual > _FORMULA_TOL:
        raise AssertionError(
            f"Pipeline deviates from the closed form by {formula_residual}.")

    return SignalingReport(
        scenario=scenario,
        prob_1=prob_1,
        prob_2=prob_2,
        gap=prob_1 - prob_2,
        ensemble_1=ensemble_1,
        ensemble_2=ensemble_2,
        marginal_residual=marginal_residual,
        formula_residual=formula_residual,
    )


def uniform_overlap_decomposition(omega: gm.State, phi: gm.State) -> gm.Ensemble:
    """Two-member pure decomposition of omega whose members share the same
    overlap with phi (equal to the mixed-state overlap).

    Geometrically: both Bloch vectors sit on the circle at phi's latitude
    through omega, symmetric about omega's in-plane offset. Defined for
    qubits; this is the steered-uniform protocol-2 construction.
    """
    model = omega.model
    if model.kind != gm.QUANTUM or model.size != 2:
        raise UnsupportedModelError(
            "The uniform-overlap construction is a qubit protocol; use the "
            "trivial-average mode for other models.")
    r = gm.bloch_vector(omega)
    m = gm.bloch_vector(phi)
    m = m / np.linalg.norm(m)
    height = float(r @ m)
    in_plane = r - height * m
    radial = float(np.linalg.norm(in_plane))
    if radial > 1e-12:
        w = np.cross(m, in_plane / radial)
    else:
        in_plane = np.zeros(3)
        w = tr._deterministic_orthogonal(m)
    spread = np.sqrt(max(1.0 - float(r @ r), 0.0))
    if (1.0 - np.linalg.norm(r)) / 2 <= ss.RANK_TOL:
        # omega is pure to purify's rank cut; a round-off spread (~1e-8)
        # would put the members outside the purification's support.
        spread = 0.0
    n_up = height * m + in_plane + spread * w
    n_dn = height * m + in_plane - spread * w
    return gm.ensemble([(0.5, gm.state_from_bloch(model, n_up)),
                        (0.5, gm.state_from_bloch(model, n_dn))])


# ---------------------------------------------------------------------------
# Search and certification
# ---------------------------------------------------------------------------

def gap_surface(rule: rl.ProbabilityRule, grid: int):
    """Closed-form gap on a uniform (p1, p2, lambda) grid.

    Returns (axis, P1, P2, gap) arrays of shape (grid, grid, grid); this is
    the scan surface behind the search and the CSV sweep. The full steering
    pipeline realizes the same numbers (enforced per-run in run_scenario).
    """
    if grid < 3:
        raise ValueError("grid must be at least 3 per axis.")
    axis = np.linspace(0.0, 1.0, grid)
    prob_1, prob_2 = closed_form(rule, axis[:, None, None],
                                 axis[None, :, None], axis[None, None, :])
    return axis, prob_1, prob_2, prob_1 - prob_2


def max_gap_search(rule: rl.ProbabilityRule, grid: int = 101,
                   refine: int = 40, seed: int = 0,
                   phi: gm.State | None = None) -> SignalingReport:
    """Largest |gap| witness over the parameter cube.

    Scans the closed-form surface on a grid (ties broken toward the
    lexicographically smallest (p1, p2, lambda)), refines by coordinate
    descent with shrinking steps, then runs the full steering scenario at
    the winning point. Deterministic for fixed grid and seed.
    """
    axis, _, _, gaps = gap_surface(rule, grid)
    magnitude = np.abs(gaps)
    best = float(magnitude.max())
    ties = np.argwhere(magnitude == best)
    i, j, k = min(map(tuple, ties))
    point = np.array([axis[i], axis[j], axis[k]])

    step = 1.0 / (grid - 1)
    value = best
    for _ in range(refine):
        moved = False
        for dim in range(3):
            for delta in (-step, step):
                cand = point.copy()
                cand[dim] = min(1.0, max(0.0, cand[dim] + delta))
                cand_1, cand_2 = closed_form(rule, *cand)
                cand_value = abs(cand_1 - cand_2)
                if cand_value > value + 1e-15:
                    point, value = cand, cand_value
                    moved = True
        if not moved:
            step *= 0.5
            if step < 1e-12:
                break

    if phi is None:
        phi = gm.point_state(gm.quantum(2), 0)
    scenario = Scenario(rule, phi, float(point[0]), float(point[1]),
                        float(point[2]), seed=seed)
    return run_scenario(scenario)


@dataclass(frozen=True, eq=False)
class CertificateResult:
    """Affinity certificate over randomized scenarios."""

    passed: bool
    samples: int
    tolerance: float
    seed: int
    max_abs_gap: float
    worst: SignalingReport

    def to_dict(self) -> dict:
        return {"passed": self.passed, "samples": self.samples,
                "tolerance": self.tolerance, "seed": self.seed,
                "max_abs_gap": self.max_abs_gap,
                "worst": self.worst.to_dict()}


def affinity_certificate(rule: rl.ProbabilityRule, samples: int = 10_000,
                         tol: float = 1e-10, seed: int = 0) -> CertificateResult:
    """Sample random scenarios through the full pipeline; pass iff every
    |gap| stays within tolerance. The worst witness is returned either way.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}.")
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}.")
    rng = np.random.default_rng(seed)
    model = gm.quantum(2)
    worst_report = None
    worst_value = -1.0
    for index in range(samples):
        ket = rng.normal(size=2) + 1j * rng.normal(size=2)
        phi = gm.ket_state(model, ket / np.linalg.norm(ket))
        p1, p2, lam = rng.random(3)
        scenario = Scenario(rule, phi, float(p1), float(p2), float(lam),
                            seed=int(rng.integers(2**31)))
        report = run_scenario(scenario)
        if abs(report.gap) > worst_value:
            worst_value = abs(report.gap)
            worst_report = report
    return CertificateResult(
        passed=worst_value <= tol,
        samples=samples,
        tolerance=tol,
        seed=seed,
        max_abs_gap=worst_value,
        worst=worst_report,
    )


# ---------------------------------------------------------------------------
# Statistical detectability
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DetectionStats:
    """Finite-run estimate of the gap from binomial sampling."""

    runs: int
    seed: int
    successes_1: int
    successes_2: int
    estimate_1: float
    estimate_2: float
    gap_estimate: float
    gap_true: float
    sigma: float

    @property
    def z_score(self) -> float:
        return (self.gap_estimate - self.gap_true) / self.sigma

    def to_dict(self) -> dict:
        return {"runs": self.runs, "seed": self.seed,
                "successes_1": self.successes_1,
                "successes_2": self.successes_2,
                "estimate_1": self.estimate_1, "estimate_2": self.estimate_2,
                "gap_estimate": self.gap_estimate, "gap_true": self.gap_true,
                "sigma": self.sigma, "z_score": self.z_score}


def simulate_runs(report: SignalingReport, runs: int = 10_000,
                  seed: int = 0) -> DetectionStats:
    """Simulate finite measurement statistics for both protocols.

    Each protocol is sampled ``runs`` times from a binomial with its
    predicted probability; the empirical gap concentrates around the true
    one with standard error sqrt(P1(1-P1)/N + P2(1-P2)/N).
    """
    rng = np.random.default_rng(seed)
    k1 = int(rng.binomial(runs, report.prob_1))
    k2 = int(rng.binomial(runs, report.prob_2))
    est_1 = k1 / runs
    est_2 = k2 / runs
    sigma = float(np.sqrt(report.prob_1 * (1 - report.prob_1) / runs
                          + report.prob_2 * (1 - report.prob_2) / runs))
    return DetectionStats(runs=runs, seed=seed, successes_1=k1,
                          successes_2=k2, estimate_1=est_1, estimate_2=est_2,
                          gap_estimate=est_1 - est_2, gap_true=report.gap,
                          sigma=sigma)


# ---------------------------------------------------------------------------
# Built-in reference scenarios
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReferenceRow:
    """One checked quantity of the built-in worked examples."""

    name: str
    value: float
    expected: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return abs(self.value - self.expected) <= self.tolerance

    def to_dict(self) -> dict:
        return {"name": self.name, "value": self.value,
                "expected": self.expected, "tolerance": self.tolerance,
                "passed": self.passed}


def reference_table(tol: float | None = None) -> list[ReferenceRow]:
    """Recompute the built-in worked examples and compare to their known values.

    Example 1: the power(1.5) rule on the maximally entangled state with
    exact/orthogonal versus uniform-overlap steering. Example 2: the
    piecewise-quadratic rule at a symmetric and an asymmetric decomposition.
    ``tol`` overrides every row's comparison tolerance (regression mode);
    it must be finite and non-negative.
    """
    if tol is not None and not 0 <= tol < np.inf:
        raise ValueError(f"tol must be finite and non-negative, got {tol}.")
    phi = gm.point_state(gm.quantum(2), 0)
    ex1 = run_scenario(Scenario(rl.power_rule(1.5), phi, 1.0, 0.0, 0.5,
                                mode=STEERED_UNIFORM))
    ex2_sym = run_scenario(Scenario(rl.piecewise_quadratic_rule(), phi,
                                    0.3, 0.7, 0.5))
    ex2_asym = run_scenario(Scenario(rl.piecewise_quadratic_rule(), phi,
                                     0.2, 0.4, 0.5))
    rows = [
        ReferenceRow("example1.P1", ex1.prob_1, 0.5, 1e-3),
        ReferenceRow("example1.P2", ex1.prob_2, 0.5 ** 1.5, 1e-3),
        ReferenceRow("example1.gap", ex1.gap, 0.5 - 0.5 ** 1.5, 1e-3),
        ReferenceRow("example2.symmetric.gap", ex2_sym.gap, 0.0, 1e-12),
        ReferenceRow("example2.asymmetric.gap", ex2_asym.gap, 0.02, 1e-6),
    ]
    if tol is not None:
        rows = [replace(row, tolerance=tol) for row in rows]
    return rows
