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
# Scenarios per batch of a certificate. A batch peaks at about 4 KB per
# scenario (1.0 MB at 256, by tracemalloc), so a certificate's memory is
# bounded at any sample count: 1.6 MB with the worst witness's batch kept.
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

    The scenarios on one model with one rule object run as one group of
    stacked arrays, each check made on the whole stack; each report is
    bitwise what the scenario gives in a batch of its own. If a check
    fails, the scenarios are run again one at a time, in order, and the
    first one that fails alone raises: the error's ``index`` and
    ``scenario`` name it, and so does its message.
    """
    scenarios = list(scenarios)
    reports = [None] * len(scenarios)
    try:
        groups = {}
        for i, s in enumerate(scenarios):
            if s.phi.model.kind != gm.QUANTUM:
                raise UnsupportedModelError(
                    "Signaling scenarios require a quantum model.")
            if not s.phi.pure:
                raise NotPureError("phi must be a pure state.")
            if s.mode == STEERED_UNIFORM and s.phi.model.size != 2:
                raise UnsupportedModelError(_UNIFORM_QUBITS_ONLY)
            groups.setdefault((s.phi.model.size, id(s.rule)), []).append(i)
        for rows in groups.values():
            group = [scenarios[i] for i in rows]
            model = gm.quantum(group[0].phi.model.size)
            run = _run(
                group[0].rule, model,
                np.array([gm.pure_ket(s.phi) for s in group]),
                np.array([s.phi.matrix for s in group]),
                np.array([(s.p1, s.p2) for s in group], dtype=float),
                np.array([s.lam for s in group], dtype=float),
                [s.seed for s in group],
                np.array([s.mode == STEERED_UNIFORM for s in group]))
            for j, s in enumerate(group):
                reports[rows[j]] = _report(s, model, run, j)
    except GptError as exc:
        _raise_named(exc, scenarios)
    return reports


def _raise_named(error: GptError, scenarios: list, start: int = 0):
    """Raise the error of a failed batch: that of the first scenario that
    fails when run alone through :func:`run_scenario` (the batch's own for
    a batch of one), named by its position in the batch plus ``start``."""
    index = 0
    if len(scenarios) > 1:
        for index, scenario in enumerate(scenarios):
            try:
                run_scenario(scenario)
            except GptError as alone:
                error = alone
                break
        else:
            raise error
    error.index, error.scenario = start + index, scenarios[index]
    raise error from None


def _report(scenario: Scenario, model: gm.SystemModel, run: tuple,
            j: int) -> SignalingReport:
    """Report of scenario ``j`` of a :func:`_run` on ``model``."""
    prob_1, prob_2, marginal, formula, steered = run
    return SignalingReport(
        scenario, float(prob_1[j]), float(prob_2[j]),
        float(prob_1[j] - prob_2[j]), steered.ensemble(model, j),
        steered.ensemble(model, len(prob_1) + j), float(marginal[j]),
        float(formula[j]))


def _run(rule: rl.ProbabilityRule, model: gm.SystemModel, phi_k: np.ndarray,
         phi_m: np.ndarray, p: np.ndarray, lam: np.ndarray, seeds: list,
         uniform: np.ndarray) -> tuple:
    """Run ``n`` scenarios of one rule on one quantum model: scenario j
    has phi's ket ``phi_k[j]`` and checked matrix ``phi_m[j]``, overlaps
    ``p[j]``, weight ``lam[j]``, draw seed ``seeds[j]`` and, where
    ``uniform[j]``, the steered-uniform protocol 2. Returns the arrays
    ``(P1, P2, marginal residual, formula residual)`` and the steered
    stack: protocol 1 of scenario j at row j, its protocol 2 at row n + j.
    """
    n, d = len(p), model.size
    weights = np.stack([lam, 1.0 - lam], axis=1)
    present = weights > 0.0  # a member of weight 0 drops out

    # Protocol 1's members: states with overlaps p1 and p2 with phi,
    # their residual directions drawn from the scenario's seed.
    inner = (0.0 < p) & (p < 1.0)
    draws = np.ones((n, 2, d - 1), dtype=complex)
    if np.count_nonzero(inner):
        draws[inner] = np.concatenate([
            tr._tau_draws(np.random.default_rng(seeds[j]), d - 1, count)
            for j, count in enumerate(inner.sum(axis=1).tolist()) if count])
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
    average = gm._average(weights, members)
    average[lam == 1.0] = members[lam == 1.0, 0]
    average[lam == 0.0] = members[lam == 0.0, 1]
    omega = gm._check_states(model, average)[0]
    joints, schmidt = ss._purify(omega, present.sum(axis=1))

    # Synthesis targets, as one stack: protocol 1 of every scenario, then
    # protocol 2 of the steered-uniform ones.
    trivial = np.flatnonzero(~uniform)
    uniform = np.flatnonzero(uniform)
    targets = np.concatenate([np.arange(n), uniform])
    if len(uniform):
        u_members, _, u_pure, _ = gm._check_states(
            model, _uniform_members(omega[uniform], phi_m[uniform]))
        if np.count_nonzero(u_pure) < u_pure.size:
            raise NotPureError("Ensemble members must be pure states.")
        weights = np.concatenate([weights, np.full((len(uniform), 2), 0.5)])
        members = np.concatenate([members, u_members])
        kets = np.concatenate([kets, gm._pure_kets(u_members)])
        pure = np.concatenate([pure, u_pure])
        present = np.concatenate([present, np.ones_like(present[uniform])])
    model_a = gm.quantum(joints.shape[1])
    effects, live = ss._synthesize(
        joints[targets], ss._Schmidt(*(a[targets] for a in schmidt)), weights,
        members, kets, pure, present)
    effects, _ = ss._check_synthesized(model_a, joints[targets], effects, live)

    # One steered stack: protocol 1 of scenario j at row j, protocol 2 at
    # row n + j, the trivial measurement's or the synthesized one.
    effects_2 = np.zeros((n,) + effects.shape[1:], dtype=complex)
    live_2 = np.zeros((n, live.shape[1]), dtype=bool)
    effects_2[trivial, 0], live_2[trivial, 0] = np.eye(model_a.size), True
    effects_2[uniform], live_2[uniform] = effects[n:], live[n:]
    effects = np.concatenate([effects[:n], effects_2])
    live = np.concatenate([live[:n], live_2])
    both = np.concatenate([np.arange(n), np.arange(n)])
    steered = ss._steer(model, joints[both], effects, live)
    rows_t = np.concatenate([np.arange(n), n + uniform])
    ss._check_targets(steered.subs[rows_t], weights, members, present)

    # Predictions: from the known decomposition, or (trivial protocol 2,
    # the lone unit outcome of weight 1) the rule at the average state's
    # overlap. phi's accepting effect is its own matrix.
    taus = gm._pairings(steered.matrices, phi_m[both, None])
    mixed = steered.keep & ~steered.pure
    mixed[n + trivial] = False
    known = rl._predict(rule, steered.weights, taus, mixed)
    prob_1, prob_2 = known[:n], known[n:]
    marginal = ss._marginal_residuals(steered.weights[:n], steered.coeffs[:n],
                                      steered.weights[n:], steered.coeffs[n:])
    if np.count_nonzero(marginal > _MARGINAL_TOL):
        gm._fail(ContractError,
                 "Protocols disagree on the distant marginal by {}.",
                 marginal > _MARGINAL_TOL, marginal)
    expected_1, expected_2 = closed_form(rule, p[:, 0], p[:, 1], lam)
    formula = np.maximum(abs(prob_1 - expected_1), abs(prob_2 - expected_2))
    if np.count_nonzero(formula > _FORMULA_TOL):
        gm._fail(ContractError,
                 "Pipeline deviates from the closed form by {}.",
                 formula > _FORMULA_TOL, formula)
    return prob_1, prob_2, marginal, formula, steered


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
                   refine: int = 40, seed: int = 0) -> SignalingReport:
    """Largest |gap| witness over the parameter cube.

    Scans the closed-form surface on a grid (ties broken toward the
    lexicographically smallest (p1, p2, lambda)), refines by coordinate
    descent with shrinking steps, then runs the full steering scenario at
    the winning point, with phi = |0>. Deterministic for fixed grid and
    seed.
    """
    return _witness(rule, gap_surface(rule, grid), refine, seed)


def _witness(rule: rl.ProbabilityRule, surface: tuple, refine: int,
             seed: int) -> SignalingReport:
    """:func:`max_gap_search` on the ``surface`` from :func:`gap_surface`."""
    axis, _, _, gaps = surface
    magnitude = np.abs(gaps)
    i, j, k = np.unravel_index(np.argmax(magnitude), magnitude.shape)
    point = np.array([axis[i], axis[j], axis[k]])

    step = 1.0 / (len(axis) - 1)
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

    scenario = Scenario(rule, gm.point_state(gm.quantum(2), 0),
                        float(point[0]), float(point[1]), float(point[2]),
                        seed=seed)
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

    Sample i draws phi's ket (two real parts, then two imaginary parts),
    then (p1, p2, lambda), then its scenario's seed. The samples run in
    batches of up to ``_CERTIFICATE_BATCH`` as arrays through the core of
    :func:`run_scenarios`, with no object per sample; a report is made
    only for the worst witness. A failing batch is run again as
    scenarios, so a failing sample surfaces from :func:`run_scenario` on
    it, and the error raised names its place among the samples.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}.")
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}.")
    rng = np.random.default_rng(seed)
    model = gm.quantum(2)
    worst = None  # (|gap|, its row, its batch's arrays); the first wins
    for start in range(0, samples, _CERTIFICATE_BATCH):
        count = min(_CERTIFICATE_BATCH, samples - start)
        normals = np.empty((count, 4))
        params = np.empty((count, 3))
        seeds = []
        for i in range(count):
            normals[i] = rng.normal(size=4)
            rng.random(out=params[i])
            seeds.append(int(rng.integers(2**31)))
        kets = normals[:, :2] + 1j * normals[:, 2:]
        unit, matrices, coeffs, pure, clipped = gm._ket_states(
            model, kets / gm._norm(kets)[:, None])
        phis = (matrices, coeffs, pure, unit, pure & ~clipped)
        phi_k = unit  # a clipped phi's ket is its matrix's top eigenvector
        if np.count_nonzero(clipped):
            phi_k = np.where(clipped[:, None], gm._pure_kets(matrices), unit)
        try:
            if np.count_nonzero(~pure):
                raise NotPureError("phi must be a pure state.")
            run = _run(rule, model, phi_k, matrices, params[:, :2],
                       params[:, 2], seeds, np.zeros(count, dtype=bool))
        except GptError as exc:
            _raise_named(exc, _samples(rule, model, phis, params, seeds,
                                       slice(None)), start)
        magnitudes = np.abs(run[0] - run[1])  # |P1 - P2|
        k = int(np.argmax(magnitudes))
        if worst is None or magnitudes[k] > worst[0]:
            worst = (float(magnitudes[k]), k, run, phis, params, seeds)
    worst_value, k, run, phis, params, seeds = worst
    witness = _samples(rule, model, phis, params, seeds, slice(k, k + 1))[0]
    return CertificateResult(
        passed=worst_value <= tol,
        samples=samples,
        tolerance=tol,
        seed=seed,
        max_abs_gap=worst_value,
        worst=_report(witness, model, run, k),
    )


def _samples(rule: rl.ProbabilityRule, model: gm.SystemModel, phis: tuple,
             params: np.ndarray, seeds: list, rows: slice) -> list:
    """Scenarios of the certificate samples ``rows``, from phi's checked
    arrays ``phis`` (matrices, coeffs, purity, kets, where a phi keeps its
    ket), the (p1, p2, lambda) ``params`` and the ``seeds``."""
    states = gm._states(model, *(a[rows] for a in phis))
    return [Scenario(rule, phi, p1, p2, lam, seed=s) for phi, (p1, p2, lam), s
            in zip(states, params[rows].tolist(), seeds[rows])]


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
    if runs < 1:
        raise ValueError(f"runs must be at least 1, got {runs}.")
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
