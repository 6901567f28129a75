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
from .errors import ContractError, GptError, NotPureError, UnsupportedModelError

TRIVIAL_AVERAGE = "trivial-average"
STEERED_UNIFORM = "steered-uniform"

_FORMULA_TOL = 1e-12
_MARGINAL_TOL = 1e-10
# Scenarios per batch of a certificate: a batch's arrays take about 4.5 KB
# per scenario, so this bounds a certificate's memory at any sample count.
_CERTIFICATE_BATCH = 256


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
    the two protocols do not share the distant average state. This is
    :func:`run_scenarios` on a batch of one.
    """
    return run_scenarios([scenario])[0]


def run_scenarios(scenarios) -> list[SignalingReport]:
    """Run a batch of scenarios through the full pipeline at once.

    Each quantity of the pipeline is one stacked array over the batch, and
    every check of a stage is made on the whole stack; each report is
    bitwise what the scenario gives in a batch of its own. If a check
    fails, the scenarios are run again one at a time, in order, and the
    first one that fails alone raises: the error's ``index`` and
    ``scenario`` name it, and so does its message.
    """
    runs = _Runs(list(scenarios))
    return [runs.report(i) for i in range(len(runs.scenarios))]


class _Runs:
    """The arrays of a batch run: per scenario the two predictions, the gap
    and both residuals, and the steered ensembles behind them. A failure
    names its scenario by its position in the batch plus ``start``."""

    def __init__(self, scenarios: list, start: int = 0):
        self.scenarios = scenarios
        n = len(scenarios)
        self.prob_1, self.prob_2 = np.empty(n), np.empty(n)
        self.marginal, self.formula = np.empty(n), np.empty(n)
        self._ensembles = [None] * n
        try:
            self._check_models()
            sizes = np.array([s.phi.model.size for s in scenarios])
            for d in sorted(set(sizes.tolist())):
                self._run_group(gm.quantum(d), np.flatnonzero(sizes == d))
        except GptError as exc:
            index, error = 0, exc
            if n > 1:  # the first scenario that fails when run alone
                for index, scenario in enumerate(scenarios):
                    try:
                        run_scenario(scenario)
                    except GptError as alone:
                        error = alone
                        break
                else:
                    raise
            error.index, error.scenario = start + index, scenarios[index]
            raise error from None
        self.gap = self.prob_1 - self.prob_2

    def _check_models(self) -> None:
        for s in self.scenarios:
            if s.phi.model.kind != gm.QUANTUM:
                raise UnsupportedModelError(
                    "Signaling scenarios require a quantum model.")
            if not s.phi.pure:
                raise NotPureError("phi must be a pure state.")
            if s.mode == STEERED_UNIFORM and s.phi.model.size != 2:
                raise UnsupportedModelError(_UNIFORM_QUBITS_ONLY)

    def _run_group(self, model: gm.SystemModel, rows: np.ndarray) -> None:
        """Run the scenarios ``rows``, all on ``model``.

        Protocol 1 of every scenario and the steered protocol 2 of those in
        steered-uniform mode are synthesized as one stack of targets; those
        measurements and the trivial ones of trivial-average mode are then
        steered as one stack, whose rows the two protocols share.
        """
        scenarios = [self.scenarios[i] for i in rows]
        n, d = len(rows), model.size
        phi_m = np.array([s.phi.matrix for s in scenarios])
        phi_k = np.array([gm.pure_ket(s.phi) for s in scenarios])
        p = np.array([(s.p1, s.p2) for s in scenarios])
        weights = np.array([(s.lam, 1.0 - s.lam) for s in scenarios])
        lam = weights[:, 0]
        present = weights > 0.0  # a member of weight 0 drops out
        lone = [j for j, s in enumerate(scenarios) if s.lam in (0.0, 1.0)]

        # Protocol 1's members: states with overlaps p1 and p2 with phi,
        # their residual directions drawn from the scenario's seed.
        draws = np.ones((n, 2, d - 1), dtype=complex)
        for j, s in enumerate(scenarios):
            mixed = [0.0 < s.p1 < 1.0, 0.0 < s.p2 < 1.0]
            if any(mixed):
                draws[j, mixed] = tr._tau_draws(
                    np.random.default_rng(s.seed), d - 1, sum(mixed))
        kets, members, _, pure, clipped = gm._ket_states(
            model, tr._kets_with_tau(phi_k[:, None], p, draws))
        if np.count_nonzero(clipped):
            kets = np.where(clipped[..., None], gm._pure_kets(members), kets)
        is_phi = p == 1.0  # the reference state itself
        if np.count_nonzero(is_phi):
            kets = np.where(is_phi[..., None], phi_k[:, None], kets)
            members = np.where(is_phi[..., None, None], phi_m[:, None], members)
            pure = pure | is_phi
        if np.count_nonzero(present & ~pure):
            raise NotPureError("Ensemble members must be pure states.")

        # The average state (a lone member is its own) and its purification.
        average = (weights[:, 0, None, None] * members[:, 0]
                   + weights[:, 1, None, None] * members[:, 1])
        for j in lone:
            average[j] = members[j, 0 if scenarios[j].lam == 1.0 else 1]
        omega = gm._check_states(model, average)[0]
        joints = ss._purify(omega, present.sum(axis=1))

        # Synthesis targets: protocol 1 of every scenario, then protocol 2
        # of the steered-uniform ones.
        steered = np.array([s.mode == STEERED_UNIFORM for s in scenarios])
        uniform = np.flatnonzero(steered)
        trivial = np.flatnonzero(~steered)
        targets = np.concatenate([np.arange(n), uniform])
        if len(uniform):
            u_members, _, u_pure, _ = gm._check_states(
                model, _uniform_members(omega[uniform], phi_m[uniform]))
            if np.count_nonzero(u_pure) < u_pure.size:
                raise NotPureError("Ensemble members must be pure states.")
            m = len(uniform)
            weights = np.concatenate([weights, np.full((m, 2), 0.5)])
            members = np.concatenate([members, u_members])
            kets = np.concatenate([kets, gm._pure_kets(u_members)])
            pure = np.concatenate([pure, u_pure])
            present = np.concatenate([present, np.ones((m, 2), dtype=bool)])
        model_a = gm.quantum(joints.shape[1])
        effects, _, live = ss._synthesize(
            model_a, joints[targets], weights, members, kets, pure, present)

        # Steered rows: protocol 1 of scenario j at row j, protocol 2 at
        # row n + j, the trivial measurement's or the synthesized one.
        if len(trivial):
            unit = np.zeros((n,) + effects.shape[1:], dtype=complex)
            unit[:, 0] = np.eye(model_a.size)
            unit_live = np.zeros((n, live.shape[1]), dtype=bool)
            unit_live[:, 0] = True
            unit[uniform], unit_live[uniform] = effects[n:], live[n:]
            effects = np.concatenate([effects[:n], unit])
            live = np.concatenate([live[:n], unit_live])
        both = np.concatenate([np.arange(n), np.arange(n)])
        steered = ss._steer(model, joints[both], effects, live)
        rows_t = np.concatenate([np.arange(n), n + uniform])
        ss._check_targets(steered.subs[rows_t], weights, members, present)

        # Predictions: from the known decomposition, or (trivial protocol 2,
        # the lone unit outcome of weight 1) the rule at the average state's
        # overlap.
        accepts = np.array([tr.accept_effect(s.phi).matrix for s in scenarios])
        taus = gm._pairings(steered.matrices, accepts[both, None])
        mixed = steered.keep & ~steered.pure
        mixed[n + trivial] = False
        known = np.empty(2 * n)
        for rule, at in self._rule_rows(rows[both]):
            known[at] = rl._predict(rule, steered.weights[at], taus[at],
                                    mixed[at])
        prob_1, prob_2 = known[:n], known[n:]
        marginal = ss._marginal_residuals(
            steered.weights[:n], steered.coeffs[:n],
            steered.weights[n:], steered.coeffs[n:])
        for j, i in enumerate(rows):
            self._ensembles[i] = (model, steered, j, n + j)

        if np.count_nonzero(marginal > _MARGINAL_TOL):
            gm._fail(ContractError,
                     "Protocols disagree on the distant marginal by {}.",
                     marginal > _MARGINAL_TOL, marginal)
        expected_1, expected_2 = np.empty(n), np.empty(n)
        for rule, at in self._rule_rows(rows):
            expected_1[at], expected_2[at] = closed_form(
                rule, p[at, 0], p[at, 1], lam[at])
        formula = np.maximum(abs(prob_1 - expected_1), abs(prob_2 - expected_2))
        if np.count_nonzero(formula > _FORMULA_TOL):
            gm._fail(ContractError,
                     "Pipeline deviates from the closed form by {}.",
                     formula > _FORMULA_TOL, formula)
        self.prob_1[rows], self.prob_2[rows] = prob_1, prob_2
        self.marginal[rows], self.formula[rows] = marginal, formula

    def _rule_rows(self, rows: np.ndarray) -> list:
        """(rule, positions in ``rows``) for each distinct rule object."""
        rules = [self.scenarios[i].rule for i in rows]
        if all(rule is rules[0] for rule in rules):
            return [(rules[0], slice(None))]
        groups = {}
        for j, rule in enumerate(rules):
            groups.setdefault(id(rule), (rule, []))[1].append(j)
        return [(rule, np.array(at)) for rule, at in groups.values()]

    def report(self, i: int) -> SignalingReport:
        model, steered, j_1, j_2 = self._ensembles[i]
        return SignalingReport(
            scenario=self.scenarios[i],
            prob_1=float(self.prob_1[i]),
            prob_2=float(self.prob_2[i]),
            gap=float(self.gap[i]),
            ensemble_1=steered.ensemble(model, j_1),
            ensemble_2=steered.ensemble(model, j_2),
            marginal_residual=float(self.marginal[i]),
            formula_residual=float(self.formula[i]),
        )


_UNIFORM_QUBITS_ONLY = (
    "The uniform-overlap construction is a qubit protocol; use the "
    "trivial-average mode for other models.")


def uniform_overlap_decomposition(omega: gm.State, phi: gm.State) -> gm.Ensemble:
    """Two-member pure decomposition of omega whose members share the same
    overlap with phi (equal to the mixed-state overlap).

    Geometrically: both Bloch vectors sit on the circle at phi's latitude
    through omega, symmetric about omega's in-plane offset. Defined for
    qubits; this is the steered-uniform protocol-2 construction.
    """
    model = omega.model
    if model.kind != gm.QUANTUM or model.size != 2:
        raise UnsupportedModelError(_UNIFORM_QUBITS_ONLY)
    members = _uniform_members(omega.matrix[None], phi.matrix[None])[0]
    return gm.ensemble([(0.5, gm.state_from_matrix(model, m)) for m in members])


def _uniform_members(omega: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Matrices ``(n, 2, 2, 2)`` of the uniform-overlap decompositions of
    ``(n, 2, 2)`` qubit stacks ``omega`` against ``phi``."""
    r = gm._bloch(omega)
    m = gm._bloch(phi)
    m = m / gm._norm(m)[:, None]
    height = gm._dot(r, m)
    in_plane = r - height[:, None] * m
    radial = gm._norm(in_plane)
    flat = ~(radial > 1e-12)
    w = np.cross(m, in_plane / np.where(flat, 1.0, radial)[:, None])
    if np.count_nonzero(flat):
        w[flat] = tr._deterministic_orthogonal(m[flat])
        in_plane[flat] = 0.0
    length = gm._dot(r, r)
    spread = np.sqrt(np.maximum(1.0 - length, 0.0))
    # omega is pure to purify's rank cut; a round-off spread (~1e-8)
    # would put the members outside the purification's support.
    spread[(1.0 - np.sqrt(length)) / 2 <= ss.RANK_TOL] = 0.0
    centre = height[:, None] * m + in_plane
    offset = spread[:, None] * w
    blochs = np.empty((len(r), 2, 3))
    blochs[:, 0] = centre + offset
    blochs[:, 1] = centre - offset
    return gm._from_bloch(blochs)


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
    i, j, k = np.unravel_index(np.argmax(magnitude), magnitude.shape)
    point = np.array([axis[i], axis[j], axis[k]])

    step = 1.0 / (grid - 1)
    value = float(magnitude[i, j, k])
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

    The scenarios run in batches of up to ``_CERTIFICATE_BATCH``; only the
    worst witness's report outlives its batch. A failing sample surfaces
    from :func:`run_scenario` on it (see :func:`run_scenarios`), and the
    error raised names its place among the certificate's samples.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}.")
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}.")
    rng = np.random.default_rng(seed)
    model = gm.quantum(2)
    worst = None  # (|gap|, report); the first maximum wins
    for start in range(0, samples, _CERTIFICATE_BATCH):
        count = min(_CERTIFICATE_BATCH, samples - start)
        kets = np.empty((count, 2), dtype=complex)
        params = np.empty((count, 3))
        seeds = []
        for index in range(count):
            kets[index] = rng.normal(size=2) + 1j * rng.normal(size=2)
            params[index] = rng.random(3)
            seeds.append(int(rng.integers(2**31)))
        unit, matrices, coeffs, pure, clipped = gm._ket_states(
            model, kets / gm._norm(kets)[:, None])
        phis = gm._states(model, matrices, coeffs, pure, unit, pure & ~clipped)
        scenarios = [Scenario(rule, phi, float(p1), float(p2), float(lam),
                              seed=s)
                     for phi, (p1, p2, lam), s in zip(phis, params, seeds)]
        runs = _Runs(scenarios, start)
        magnitudes = np.abs(runs.gap)
        k = int(np.argmax(magnitudes))
        if worst is None or magnitudes[k] > worst[0]:
            worst = (float(magnitudes[k]), runs.report(k))
    worst_value, report = worst
    return CertificateResult(
        passed=worst_value <= tol,
        samples=samples,
        tolerance=tol,
        seed=seed,
        max_abs_gap=worst_value,
        worst=report,
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
    ex1, ex2_sym, ex2_asym = run_scenarios([
        Scenario(rl.power_rule(1.5), phi, 1.0, 0.0, 0.5, mode=STEERED_UNIFORM),
        Scenario(rl.piecewise_quadratic_rule(), phi, 0.3, 0.7, 0.5),
        Scenario(rl.piecewise_quadratic_rule(), phi, 0.2, 0.4, 0.5)])
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
