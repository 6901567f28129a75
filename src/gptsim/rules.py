"""Probability rules mapping geometric overlap to predicted outcome rates.

A rule is a function on [0, 1] applied to the transition probability before
it is reported as an outcome probability. Built-in families: ``identity``
(the linear rule), ``power`` (p**alpha, deliberately violating the
normalization constraint for signaling demos), ``piecewise-quadratic``
(2p^2 below 1/2 mirrored above, normalized but curved), and ``tabulated``
(monotone piecewise-linear interpolation of user samples).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import models as gm
from . import transition as tr
from .errors import EmptyEnsembleError, NotPureError, RuleDomainError

FAMILIES = ("identity", "power", "piecewise-quadratic", "tabulated")

_AUDIT_GRID = 10_000  # constructor-time range audit resolution


@dataclass(frozen=True, eq=False)
class ProbabilityRule:
    """Function [0, 1] -> [0, 1] with family metadata.

    The evaluator is vectorized; construction audits its range on a dense
    grid. Rules are immutable and safe to share across parallel scans.
    """

    family: str
    params: dict
    _fn: Callable[[np.ndarray], np.ndarray]

    def label(self) -> str:
        if self.family == "power":
            return f"power({self.params['alpha']:g})"
        if self.family == "tabulated":
            return f"tabulated({len(self.params['samples'])} samples)"
        return self.family

    def to_dict(self) -> dict:
        data = {"family": self.family}
        data.update(self.params)
        return data


def _audit_range(family: str, fn) -> None:
    grid = np.linspace(0.0, 1.0, _AUDIT_GRID)
    values = np.asarray(fn(grid), dtype=float)
    if not (values.min() >= 0.0 and values.max() <= 1.0):  # NaN fails
        raise ValueError(
            f"{family} evaluator escapes [0, 1]: range "
            f"[{values.min()}, {values.max()}].")


def identity_rule() -> ProbabilityRule:
    """The linear rule: predicted probability equals the overlap."""
    fn = lambda p: p
    _audit_range("identity", fn)
    return ProbabilityRule("identity", {}, fn)


def power_rule(alpha: float) -> ProbabilityRule:
    """p**alpha. Satisfies the boundary conditions but not normalization;
    provided because the signaling demos need constraint-violating rules.
    ``alpha`` must be positive and finite."""
    if not 0 < alpha < np.inf:  # NaN fails
        raise ValueError(f"alpha must be positive and finite, got {alpha}.")
    fn = lambda p, a=float(alpha): np.power(p, a)
    _audit_range("power", fn)
    return ProbabilityRule("power", {"alpha": float(alpha)}, fn)


def piecewise_quadratic_rule() -> ProbabilityRule:
    """2p^2 on [0, 1/2], 1 - 2(1-p)^2 on [1/2, 1].

    Normalized and monotone, strictly convex below the midpoint and
    strictly concave above it.
    """
    def fn(p):
        p = np.asarray(p, dtype=float)
        return np.where(p <= 0.5, 2.0 * p * p, 1.0 - 2.0 * (1.0 - p) ** 2)
    _audit_range("piecewise-quadratic", fn)
    return ProbabilityRule("piecewise-quadratic", {}, fn)


def tabulated_rule(samples) -> ProbabilityRule:
    """Monotone piecewise-linear interpolation through (p, value) samples.

    Outputs are clamped to [0, 1]. Monotone samples yield a monotone
    interpolant (no spline overshoot).
    """
    pts = np.asarray(samples, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
        raise ValueError("samples must be an (n >= 2, 2) array of (p, value).")
    order = np.argsort(pts[:, 0], kind="stable")
    xs, ys = pts[order, 0], pts[order, 1]
    if not (xs[0] <= 0.0 and xs[-1] >= 1.0):  # NaN fails
        raise ValueError("samples must cover [0, 1].")
    if not np.all(np.diff(xs) > 0):
        raise ValueError("sample abscissae must be strictly increasing.")

    def fn(p):
        return np.clip(np.interp(p, xs, ys), 0.0, 1.0)

    _audit_range("tabulated", fn)
    return ProbabilityRule(
        "tabulated",
        {"samples": [[float(a), float(b)] for a, b in zip(xs, ys)]}, fn)


def rule_from_dict(data: dict) -> ProbabilityRule:
    """Rule from its JSON form, e.g. {"family": "power", "alpha": 1.5}.

    A missing key or a value of the wrong type raises ``ValueError``
    naming the key.
    """
    family = gm._read(data, "family")
    if family == "identity":
        return identity_rule()
    if family == "power":
        return power_rule(gm._read(data, "alpha", float))
    if family == "piecewise-quadratic":
        return piecewise_quadratic_rule()
    if family == "tabulated":
        return tabulated_rule(gm._read(data, "samples", gm._floats))
    raise ValueError(f"Unknown rule family {family!r}; expected one of {FAMILIES}.")


def eval_rule(rule: ProbabilityRule, p):
    """Apply the rule; scalar in, scalar out (arrays pass through).

    Inputs outside [0, 1] by more than 1e-12, and NaN, raise
    ``RuleDomainError``; closer excursions are snapped to the boundary
    first.
    """
    arr = np.asarray(p, dtype=float)
    if arr.size:
        lo = np.minimum.reduce(arr, axis=None)
        hi = np.maximum.reduce(arr, axis=None)
        if not (lo >= -1e-12 and hi <= 1.0 + 1e-12):
            raise RuleDomainError(
                f"Rule input outside [0, 1]: range [{lo}, {hi}].")
    out = rule._fn(arr.clip(0.0, 1.0))
    if np.ndim(p) == 0:
        return float(out)
    return np.asarray(out, dtype=float)


# ---------------------------------------------------------------------------
# Constraint audit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConstraintReport:
    """Grid audit of the boundary, monotonicity, normalization and midpoint
    constraints, plus a convexity classification by second differences."""

    rule_label: str
    grid_size: int
    tolerance: float
    boundary_ok: bool
    boundary_residual: float
    monotonicity_violations: int
    worst_monotonicity_pair: tuple[float, float] | None
    normalization_residual: float
    midpoint_residual: float
    convexity_segments: tuple[tuple[float, float, str], ...]

    @property
    def normalization_ok(self) -> bool:
        return self.normalization_residual <= self.tolerance

    @property
    def midpoint_ok(self) -> bool:
        return self.midpoint_residual <= self.tolerance

    @property
    def monotone(self) -> bool:
        return self.monotonicity_violations == 0

    @property
    def passed(self) -> bool:
        return (self.boundary_ok and self.monotone
                and self.normalization_ok and self.midpoint_ok)

    def to_dict(self) -> dict:
        return {
            "rule": self.rule_label,
            "grid_size": self.grid_size,
            "tolerance": self.tolerance,
            "boundary_ok": self.boundary_ok,
            "boundary_residual": self.boundary_residual,
            "monotonicity_violations": self.monotonicity_violations,
            "worst_monotonicity_pair": (
                list(self.worst_monotonicity_pair)
                if self.worst_monotonicity_pair else None),
            "normalization_residual": self.normalization_residual,
            "midpoint_residual": self.midpoint_residual,
            "convexity_segments": [list(seg) for seg in self.convexity_segments],
            "passed": self.passed,
        }


def check_constraints(rule: ProbabilityRule, grid_n: int = 4097,
                      tol: float = 1e-8) -> ConstraintReport:
    """Audit the rule on a uniform grid.

    Convexity labels come from second differences thresholded at ``tol``;
    measure-zero discontinuities are invisible to the grid by declared
    semantics. ``tol`` must be finite and non-negative.
    """
    if grid_n < 3:
        raise ValueError("grid_n must be at least 3.")
    if not 0 <= tol < np.inf:
        raise ValueError(f"tol must be finite and non-negative, got {tol}.")
    grid = np.linspace(0.0, 1.0, grid_n)
    values = eval_rule(rule, grid)

    boundary_residual = float(max(abs(values[0]), abs(values[-1] - 1.0)))
    boundary_ok = boundary_residual <= tol

    drops = values[:-1] - values[1:]
    violating = drops > tol
    violations = int(np.sum(violating))
    worst_pair = None
    if violations:
        worst = int(np.argmax(drops))
        worst_pair = (float(grid[worst]), float(grid[worst + 1]))

    normalization_residual = float(np.max(np.abs(values + values[::-1] - 1.0)))
    midpoint_residual = float(abs(eval_rule(rule, 0.5) - 0.5))

    second = values[2:] - 2.0 * values[1:-1] + values[:-2]
    labels = np.where(second > tol, 1, np.where(second < -tol, -1, 0))
    segments = _merge_segments(grid, labels)

    return ConstraintReport(
        rule_label=rule.label(),
        grid_size=grid_n,
        tolerance=tol,
        boundary_ok=boundary_ok,
        boundary_residual=boundary_residual,
        monotonicity_violations=violations,
        worst_monotonicity_pair=worst_pair,
        normalization_residual=normalization_residual,
        midpoint_residual=midpoint_residual,
        convexity_segments=segments,
    )


_CONVEXITY_NAMES = {1: "convex", 0: "affine", -1: "concave"}


def _merge_segments(grid, labels) -> tuple[tuple[float, float, str], ...]:
    """Group consecutive interior points with equal curvature sign.

    Runs shorter than three grid points are below the audit's resolution
    (for instance the exactly-cancelling second difference at a junction of
    two curved branches) and are absorbed into a neighbor, in one pass
    from the left: a short first run is carried into the next run, and a
    later run that is short or has the last kept run's label extends it.
    """
    runs = []  # [start_index, end_index_exclusive, label], kept so far
    start = 0
    for i in range(1, len(labels) + 1):
        if i == len(labels) or labels[i] != labels[start]:
            run = [start, i, int(labels[start])]
            start = i
            if runs and runs[-1][1] - runs[-1][0] < 3:
                run[0] = runs.pop()[0]  # the first run, carried into this one
            elif runs and (run[1] - run[0] < 3 or run[2] == runs[-1][2]):
                runs[-1][1] = run[1]
                continue
            runs.append(run)

    segments = []
    for start, end, label in runs:
        lo = float(grid[start])  # first interior point of the run...
        hi = float(grid[end])    # ...to the right neighbor of the last
        segments.append((lo, hi, _CONVEXITY_NAMES[label]))
    if segments:
        first = segments[0]
        segments[0] = (0.0, first[1], first[2])
        last = segments[-1]
        segments[-1] = (last[0], 1.0, last[2])
    return tuple(segments)


# ---------------------------------------------------------------------------
# Prediction maps
# ---------------------------------------------------------------------------

def predict_ensemble(rule: ProbabilityRule, ens: gm.Ensemble,
                     phi: gm.State) -> float:
    """Prediction when the pure-state decomposition is known: the
    weight-averaged rule values (law of total probability)."""
    if len(ens) == 0:
        raise EmptyEnsembleError("Cannot predict from an empty ensemble.")
    accept = tr.accept_effect(phi)
    taus = np.array([gm.evaluate(accept, s) for s in ens.states])
    if not all(s.pure for s in ens.states):
        raise NotPureError("Ensemble-knowledge prediction needs pure members.")
    return float(_predict(rule, ens.weights[None], taus[None])[0][0])


def _predict(rule: ProbabilityRule, weights: np.ndarray, taus: np.ndarray,
             at=()) -> tuple:
    """Predictions of a stack of ensembles, one per row of ``(..., K)``
    member weights and overlaps with phi: the weight-averaged rule values,
    and the rule's values at the overlaps ``at``, from the same
    :func:`eval_rule` call.

    Members of known decompositions are pure. An average state with no
    decomposition known is a row with one member of weight 1 (other slots
    of weight 0), whose prediction is the rule at its mixed-state overlap.
    The rule is evaluated only on members of positive weight: a slot of
    weight 0 holds no outcome.
    """
    live = weights > 0.0
    members = taus[live]
    evaluated = eval_rule(rule, np.concatenate([members, np.ravel(at)]))
    values = np.zeros(taus.shape)
    values[live] = evaluated[:len(members)]
    return ((weights[..., None, :] @ values[..., None])[..., 0, 0],
            evaluated[len(members):].reshape(np.shape(at)))
