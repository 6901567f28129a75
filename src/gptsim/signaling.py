"""Two-protocol signaling experiments over steered ensembles.

A scenario fixes a probability rule, a reference state phi, and a two-member
decomposition parameterized by overlaps (p1, p2) and weight lambda. Protocol
1 steers the shared purification to exactly that decomposition; protocol 2
delivers the same average state either as an unresolved mixture (trivial
measurement) or as a steered ensemble of two members that share the average
overlap, built from the purification's Schmidt form in any dimension.
Nonlinear rules predict different outcome rates for the two protocols even
though the distant average state is identical; the signed difference is the
signaling gap.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import models as gm
from . import rules as rl
from . import steering as ss
from . import transition as tr
from .errors import ContractError, GptError

TRIVIAL_AVERAGE = "trivial-average"
STEERED_UNIFORM = "steered-uniform"

_FORMULA_TOL = 1e-12
_MARGINAL_TOL = 1e-10
# Scenarios per batch of a certificate. A batch peaks at about 3.5 KB per
# scenario (1.78 MB at 512, by tracemalloc), so a certificate's memory is
# bounded at any sample count: 3.0 MB with the worst witness's batch kept.
_CERTIFICATE_BATCH = 512


def _check_count(name: str, count) -> None:
    """Require an integer ``count`` of at least 1, called ``name``."""
    if not isinstance(count, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {count!r}.")
    if count < 1:
        raise ValueError(f"{name} must be at least 1, got {count}.")


@dataclass(frozen=True)
class Scenario:
    """One signaling experiment: rule, reference state and decomposition.

    ``phi`` is a pure quantum state of any dimension. ``mode`` picks
    protocol 2: the trivial measurement, or steering to the equal-overlap
    pair of :func:`uniform_overlap_decomposition`. ``seed``, a non-negative
    integer of any size, keys the counter-based words that draw the
    members' residual directions (README, "Numerical conventions").
    """

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
        tr._check_seed(self.seed)

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
    state on the distant side. ``ensemble_1`` and ``ensemble_2``, the
    steered ensembles, are built from the run's steered stack when first
    read.
    """

    scenario: Scenario
    prob_1: float
    prob_2: float
    gap: float
    marginal_residual: float
    formula_residual: float
    # (model, steered stack, row of protocol 1, row of protocol 2)
    _steered: tuple = field(repr=False)

    @cached_property
    def ensemble_1(self) -> gm.Ensemble:
        model, steered, row, _ = self._steered
        return steered.ensemble(model, row)

    @cached_property
    def ensemble_2(self) -> gm.Ensemble:
        model, steered, _, row = self._steered
        return steered.ensemble(model, row)

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

    The scenarios on one model size and protocol-2 mode run as one group
    of stacked arrays, whatever their rules, each check made on the whole
    stack; each report is bitwise what the scenario gives in a batch of its
    own. If a check fails, the first scenario that fails alone raises: the
    error's ``index`` and ``scenario`` name it, and so does its message.
    """
    scenarios = list(scenarios)
    try:
        return _run_batch(scenarios)
    except GptError as exc:
        _raise_named(exc, scenarios)


def _run_batch(scenarios: list) -> list[SignalingReport]:
    """:func:`run_scenarios` without naming the scenario of an error."""
    reports = [None] * len(scenarios)
    keys = [(s.phi.model.size, s.mode == STEERED_UNIFORM) for s in scenarios]
    for d, uniform in sorted(set(keys)):
        rows = [i for i, key in enumerate(keys) if key == (d, uniform)]
        group = [scenarios[i] for i in rows]
        run = _run_stack(
            gm.quantum(d), np.array([gm.pure_ket(s.phi) for s in group]),
            np.array([s.phi.matrix for s in group]),
            np.array([(s.p1, s.p2, s.lam) for s in group], dtype=float),
            [s.seed for s in group], uniform,
            _rule_groups([s.rule for s in group]))
        for j, s in enumerate(group):
            reports[rows[j]] = _report(s, run, j)
    return reports


def _run_stack(model: gm.SystemModel, phi_k: np.ndarray, phi_m: np.ndarray,
               params: np.ndarray, seeds: list, uniform: bool,
               groups: list) -> tuple:
    """:func:`_steer_protocols` then :func:`_predict_protocols` on ``n``
    scenarios, ``params`` ``(n, 3)`` holding (p1, p2, lambda): returns
    ``(model, (P1, P2), formula, marginal, steered)``, all checked."""
    p, lam = params[:, :2], params[:, 2]
    stacks, *rest = _steer_protocols(model, phi_k, phi_m, p, lam, seeds, uniform)
    return (model, *_predict_protocols(groups, stacks, p, lam), *rest)


def _raise_named(error: GptError, scenarios: list, start: int = 0):
    """Raise the error of a failed batch: that of the first scenario that
    fails when run alone through :func:`run_scenario` (the batch's own for
    a batch of one), named by its position in the batch plus ``start``.
    As reports are bitwise their single runs, a batch fails if and only if
    one of its scenarios fails alone, so bisection (Zeller & Hildebrandt
    2002) through :func:`_run_batch` finds that scenario in about one
    batch's work. Should it pass alone, all run alone in order, and if none
    fails, the batch's error is raised unnamed."""
    index = 0
    if len(scenarios) > 1:
        low, high = 0, len(scenarios)  # the first to fail is in [low, high)
        while high - low > 1:
            middle = (low + high) // 2
            try:
                _run_batch(scenarios[low:middle])
                low = middle
            except GptError:
                high = middle
        for index in [low, *range(len(scenarios))]:
            try:
                run_scenario(scenarios[index])
            except GptError as alone:
                error = alone
                break
        else:
            raise error
    error.index, error.scenario = start + index, scenarios[index]
    raise error from None


def _report(scenario: Scenario, run: tuple, j: int) -> SignalingReport:
    """Report of scenario ``j`` of ``run``, a :func:`_run_stack` result."""
    model, (prob_1, prob_2), formula, marginal, steered = run
    return SignalingReport(
        scenario, float(prob_1[j]), float(prob_2[j]),
        float(prob_1[j] - prob_2[j]), float(marginal[j]), float(formula[j]),
        (model, steered, j, len(prob_1) + j))


def _steer_protocols(model: gm.SystemModel, phi_k: np.ndarray,
                     phi_m: np.ndarray, p: np.ndarray, lam: np.ndarray,
                     seeds: list, uniform: bool) -> tuple:
    """The rule-free half of a run of ``n`` scenarios on one quantum model:
    scenario j has phi's ket ``phi_k[j]`` and checked matrix ``phi_m[j]``,
    overlaps ``p[j]``, weight ``lam[j]`` and draw seed ``seeds[j]``; all
    share protocol 2, the steered-uniform one if ``uniform``, else the
    trivial measurement. Returns the prediction stacks ``(weights,
    taus)``, the marginal residuals and the steered stack (protocol 1 of
    scenario j at row j, its protocol 2 at row n + j), all checked; every
    steered member but trivial protocol 2's is pure by construction.
    """
    n, d = len(p), model.size
    weights = np.empty((n, 2))
    weights[:, 0], weights[:, 1] = lam, 1.0 - lam
    present = weights > 0.0  # a member of weight 0 drops out

    # Protocol 1's members: states with overlaps p1 and p2 with phi,
    # their residual directions drawn from the scenario's seed.
    kets, members = gm._ket_states(model, tr._kets_with_tau(
        phi_k[:, None], p, tr._residual_draws(seeds, d)))
    is_phi = p == 1.0  # the reference state itself
    if np.count_nonzero(is_phi):
        kets = np.where(is_phi[..., None], phi_k[:, None], kets)
        members = np.where(is_phi[..., None, None], phi_m[:, None], members)

    # omega = A A†, A = [sqrt(w1) m1, sqrt(w2) m2]: one closed-form rotation
    # of A purifies omega and gives protocol 1's steering rows, so omega is
    # not formed as a state; the round trip holds it to the members' average.
    joints, schmidt, marginals, alphas = ss._purify(
        *ss._rotation_schmidt(np.sqrt(weights)[..., None] * kets),
        gm._average(weights, members))

    # In uniform mode protocol 2 follows in the stack: the rows
    # (1, +-conj(t)) / sqrt(2) in the Schmidt basis steer each joint to its
    # equal-overlap kets s_0 v_0 +- t s_1 v_1, at weight 1/2.
    if uniform:
        u_kets, t = _uniform_kets(schmidt, phi_k)
        rows = np.empty((n, 2), dtype=complex)
        rows[:, 0], rows[:, 1] = 1.0, t.conj()
        rows *= np.sqrt(0.5)
        alphas = np.concatenate([alphas, rows[:, None] * [[1, 1], [1, -1]]])
        joints = np.concatenate([joints] * 2)
        weights = np.concatenate([weights, np.full((n, 2), 0.5)])
        members = np.concatenate([members, gm._ket_states(model, u_kets)[1]])
        present = np.concatenate([present, np.ones((n, 2), bool)])

    # One steered stack: protocol 1 of scenario j at row j, protocol 2 at
    # row n + j. A target member's effect has the one-column factor alpha,
    # so X = alpha†J. In trivial mode protocol 2 is the unit effect, factor
    # I, whose conditional is the joint's B marginal that the purification
    # already formed.
    grams, live = marginals[:0], present
    if not uniform:
        grams = marginals
        live = np.concatenate([present, np.tile([True, False], (n, 1))])
    rows = gm._product(alphas.conj(), joints)
    steered = ss._steer(rows[present], grams, live)
    ss._check_targets(steered.subs[:len(weights)], weights, members, present)
    # Each protocol's average is its kept subs' sum over that sum's trace,
    # so no conditional is normalized and one difference is expanded.
    sums = gm._average(steered.keep, steered.subs)
    averages = sums / gm._trace(sums)[:, None, None]
    marginal = gm._largest(abs(model.coeffs_from_matrix(averages[:n]
                                                        - averages[n:])))
    gm._fail(ContractError, "Protocols disagree on the distant marginal by {}.",
             ~(marginal <= _MARGINAL_TOL), marginal)  # NaN fails too

    # The prediction stacks. The overlaps with phi of each kept member, from
    # its row X, |<phi|X>|²/‖X‖², and of trivial protocol 2's lone outcome,
    # ‖J conj(phi)‖²/‖J‖², have round-off relative to the overlap.
    bras = phi_k.conj()[:, None]
    overlaps = gm._total(rows.reshape(-1, n, *rows.shape[1:]) * bras)
    taus = np.zeros((2 * n, 2))
    np.divide(abs(overlaps.reshape(len(rows), -1)) ** 2, gm._squares(rows),
              out=taus[:len(rows)], where=steered.keep[:len(rows)])
    if not uniform:
        taus[n:, 0] = (gm._squares(gm._total(joints * bras))
                       / gm._squares(joints.reshape(n, -1)))
    return ((steered.weights.reshape(2, n, 2), taus.reshape(2, n, 2)),
            marginal, steered)


def _rule_groups(rules: list) -> list:
    """``(rule, rows)`` for each distinct rule object of ``rules`` (hashed
    by identity) in order of first appearance; ``rows`` indexes the
    scenarios it predicts, a full slice when there is one rule."""
    codes = {}  # rules coded 0, 1, ... as first seen
    keys = [codes.setdefault(rule, len(codes)) for rule in rules]
    if len(codes) == 1:
        return [(rules[0], slice(None))]
    keys = np.array(keys)
    return [(rule, np.flatnonzero(keys == code))
            for rule, code in codes.items()]


def _predict_protocols(groups: list, stacks: tuple, p: np.ndarray,
                       lam: np.ndarray) -> tuple:
    """The rule half: P1 and P2 ``(2, n)`` from the ``stacks`` of
    :func:`_steer_protocols`, the scenarios ``rows`` of each ``(rule,
    rows)`` group by its rule, evaluated once on them, and their residuals
    from the closed form at overlaps ``p`` and weights ``lam``, checked."""
    at = np.concatenate([p.T, (lam * p[:, 0] + (1 - lam) * p[:, 1])[None]])
    known, expected = np.empty((2, 2, len(p)))
    for rule, rows in groups:
        known[:, rows], (at_1, at_2, expected[1, rows]) = rl._predict(
            rule, *(a[:, rows] for a in stacks), at[:, rows])
        expected[0, rows] = lam[rows] * at_1 + (1 - lam[rows]) * at_2
    formula = abs(known - expected).max(axis=0)
    gm._fail(ContractError, "Pipeline deviates from the closed form by {}.",
             ~(formula <= _FORMULA_TOL), formula)
    return known, formula


def uniform_overlap_decomposition(omega: gm.State, phi: gm.State) -> gm.Ensemble:
    """Two pure members of weight 1/2 that average to omega, each with
    overlap <phi|omega|phi> with the pure state phi: the steered-uniform
    protocol-2 target, built by :func:`_uniform_kets` in any dimension
    from the Schmidt form of omega's purification (:func:`purify`'s).
    omega must have rank at most 2, as an average of two pure states does;
    a higher rank raises ``ValueError`` naming it.
    """
    tr._require_same_model(omega, phi)
    phi_k = gm.pure_ket(phi)  # a quantum model, so omega has a matrix
    matrices = omega.matrix[None]
    schmidt = ss._purify(*ss._eigh_schmidt(matrices), matrices)[1]
    rank = int(schmidt.rank[0])
    if rank > 2:
        raise ValueError(
            f"omega has rank {rank}; two pure members average to rank 2 at most.")
    kets, members = gm._ket_states(
        omega.model, _uniform_kets(schmidt, phi_k[None])[0])
    states = gm._states(omega.model, members[0], True, kets[0])
    return gm.ensemble([(0.5, state) for state in states])


def _uniform_kets(schmidt: ss._Schmidt, phi_k: np.ndarray) -> tuple:
    """Kets ``(n, 2, d)`` of the equal-overlap pairs of ``n`` states of rank
    at most 2, from their :class:`_Schmidt` form, against phi's kets
    ``phi_k``, and their phases t ``(n,)``. The kets s_0 v_0 +- t s_1 v_1,
    |t| = 1, average to omega at weight 1/2; with b_k = s_k <v_k|phi> and
    z = conj(b_0) b_1, t = -i z/|z| zeroes the cross term of their overlaps
    with phi, so both are <phi|omega|phi>. Where |z| is round-off, at most
    64 ulp of s_0 s_1 (its largest value), t = 1: round-off does not pick
    the pair, and the cross term left is round-off too. A pure omega
    (s_1 = 0) gives v_0 twice."""
    scaled = schmidt.values[:, :2, None] * schmidt.vectors[:, :2]
    b = (scaled.conj() @ phi_k[..., None])[..., 0]
    z = b[:, 0].conj() * b[:, 1]
    size = abs(z)
    turn = size > 2.0 ** -46 * schmidt.values[:, 0] * schmidt.values[:, 1]
    t = np.where(turn, -1j * z / np.where(turn, size, 1.0), 1.0)
    swing = t[:, None] * scaled[:, 1]
    kets = np.empty_like(scaled)
    kets[:, 0], kets[:, 1] = scaled[:, 0] + swing, scaled[:, 0] - swing
    return kets, t


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
    if refine < 0:
        raise ValueError(f"refine must be non-negative, got {refine}.")
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

    Sample i reads words 8i to 8i + 7 of the seed's sample stream, in
    :func:`transition._certificate_draws`. The samples run in batches of
    up to ``_CERTIFICATE_BATCH`` as arrays through :func:`_run_stack`, as
    :func:`run_scenarios` does, with no object per sample; a report is made
    only for the worst witness. A failing batch is run again as
    scenarios, so a failing sample surfaces from :func:`run_scenario` on
    it, and the error raised names its place among the samples.
    """
    _check_count("samples", samples)
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}.")
    tr._check_seed(seed)
    model = gm.quantum(2)
    worst = None  # (|gap|, its row, its batch's arrays); the first wins
    for start in range(0, samples, _CERTIFICATE_BATCH):
        count = min(_CERTIFICATE_BATCH, samples - start)
        kets, params, seeds = tr._certificate_draws(seed, start, count)
        phis = gm._ket_states(model, kets / gm._norm(kets)[:, None])
        try:
            run = _run_stack(model, *phis, params, seeds, False,
                             [(rule, slice(None))])
        except GptError as exc:
            _raise_named(exc, _samples(rule, model, *phis, params, seeds),
                         start)
        magnitudes = np.abs(run[1][0] - run[1][1])  # |P1 - P2|
        k = int(np.argmax(magnitudes))
        if worst is None or magnitudes[k] > worst[0]:
            worst = (float(magnitudes[k]), k, run, phis, params, seeds)
    worst_value, k, run, phis, params, seeds = worst
    witness = _samples(rule, model, *phis, params, seeds, slice(k, k + 1))[0]
    return CertificateResult(
        passed=worst_value <= tol,
        samples=samples,
        tolerance=tol,
        seed=seed,
        max_abs_gap=worst_value,
        worst=_report(witness, run, k),
    )


def _samples(rule: rl.ProbabilityRule, model: gm.SystemModel,
             kets: np.ndarray, matrices: np.ndarray, params: np.ndarray,
             seeds: list, rows: slice = slice(None)) -> list:
    """Scenarios of the certificate samples ``rows``, from phi's ``kets``
    and projectors ``matrices``, the ``params`` and the ``seeds``."""
    states = gm._states(model, matrices[rows], True, kets[rows])
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
        if self.sigma == 0.0:  # both outcomes certain
            return 0.0
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
    one with standard error sqrt(P1(1-P1)/N + P2(1-P2)/N). Both read the
    predictions clamped to [0, 1], which round-off may leave by 2**-52.
    """
    _check_count("runs", runs)
    tr._check_seed(seed)
    prob_1, prob_2 = np.clip([report.prob_1, report.prob_2], 0.0, 1.0).tolist()
    rng = np.random.default_rng(seed)
    k1 = int(rng.binomial(runs, prob_1))
    k2 = int(rng.binomial(runs, prob_2))
    est_1 = k1 / runs
    est_2 = k2 / runs
    sigma = float(np.sqrt(prob_1 * (1 - prob_1) / runs
                          + prob_2 * (1 - prob_2) / runs))
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
