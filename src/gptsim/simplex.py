"""Small dense two-phase simplex solver in standard form.

Solves  min c.x  subject to  a_eq.x = b_eq  and  x >= 0. Phase 1 starts from
an artificial basis on every row and drives it to zero; rows that stay
basic in an artificial are redundant and dropped before phase 2. Pivoting
uses the most-negative reduced cost (first index on ties) and the smallest
ratio (smallest basic index on ties), and falls back to Bland's rule after
a run of degenerate pivots, so the solve is deterministic and cannot cycle.
The tableau is dense, which suits programs with few rows and many columns,
such as the duals the LP cross-check of ``transition`` builds: a pivot's
ratio test runs over its m rows in Python floats.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UnboundedError

_EPS = 1e-9
_PIVOT_EPS = 1e-10
_MAX_ITER = 20000
_STALL_LIMIT = 64


@dataclass
class LpResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None
    value: float | None
    iterations: int
    phase1_iterations: int


def _iterate(table, basis, cost):
    """Run simplex pivots in place; returns (status, iterations)."""
    rhs = table[:, -1]
    iterations = 0
    stall = 0
    bland = False
    for _ in range(_MAX_ITER):
        reduced = cost - cost[basis] @ table[:, :-1]
        reduced[basis] = 0.0  # exact zeros on basic columns
        if bland:
            candidates = np.flatnonzero(reduced < -_EPS)
            if candidates.size == 0:
                return "optimal", iterations
            col = int(candidates[0])
        else:
            col = int(reduced.argmin())
            if reduced[col] >= -_EPS:
                return "optimal", iterations
        # Ratio test on the m-entry pivot column, in Python floats.
        level = rhs.tolist()
        ratios = {i: level[i] / entry
                  for i, entry in enumerate(table[:, col].tolist())
                  if entry > _PIVOT_EPS}
        if not ratios:
            return "unbounded", iterations
        bound = min(ratios.values()) + _PIVOT_EPS
        # Bland-style tie break: the smallest basis index
        row = min((i for i, ratio in ratios.items() if ratio <= bound),
                  key=basis.__getitem__)

        degenerate = level[row] <= _PIVOT_EPS
        stall = stall + 1 if degenerate else 0
        if stall > _STALL_LIMIT:
            bland = True

        _pivot(table, basis, row, col)
        iterations += 1
    raise UnboundedError("Simplex iteration limit exceeded; malformed cone.")


def _pivot(table, basis, row, col):
    """Pivot the tableau in place on ``(row, col)``: ``col`` enters the
    basis at ``row``."""
    table[row] /= table[row, col]
    for i, factor in enumerate(table[:, col].tolist()):
        if i != row:
            table[i] -= factor * table[row]
    basis[row] = col


def _pivot_out_artificials(table, basis, n_struct):
    """Replace basic artificials (at zero level) by structural columns."""
    for row in np.flatnonzero(basis >= n_struct):
        candidates = np.flatnonzero(np.abs(table[row, :n_struct]) > _PIVOT_EPS)
        if candidates.size == 0:
            # Redundant row: harmless, leave the zero-level artificial basic.
            continue
        _pivot(table, basis, row, int(candidates[0]))


def solve_nonneg(c, a_eq, b_eq) -> LpResult:
    """Solve the standard form  min c.x  s.t.  a_eq.x = b_eq, x >= 0.

    Returns an :class:`LpResult` whose status is "optimal", "infeasible" or
    "unbounded"; ``x`` and ``value`` are set only when optimal. A NaN or
    infinite entry in any argument raises ``ValueError``.
    """
    c = np.asarray(c, dtype=float)
    a = np.atleast_2d(np.asarray(a_eq, dtype=float))
    b = np.atleast_1d(np.asarray(b_eq, dtype=float))
    m, n = a.shape
    if b.shape != (m,) or c.shape != (n,):
        raise ValueError("Inconsistent standard-form shapes.")
    for name, values in (("c", c), ("a_eq", a), ("b_eq", b)):
        if not np.isfinite(values).all():
            raise ValueError(f"Standard-form {name} has a non-finite entry.")
    table = np.zeros((m, n + m + 1))  # [a | I | b], b >= 0
    table[:, :n], table[:, -1] = a, b
    table[b < 0] *= -1.0
    table[:, n:-1] = np.eye(m)
    basis = n + np.arange(m)

    cost1 = np.concatenate((np.zeros(n), np.ones(m)))
    status, phase1_iters = _iterate(table, basis, cost1)
    if status == "unbounded" or float(np.sum(table[basis >= n, -1])) > _EPS:
        return LpResult("infeasible", None, None, phase1_iters, phase1_iters)
    _pivot_out_artificials(table, basis, n)
    keep = basis < n
    table = np.concatenate((table[keep, :n], table[keep, -1:]), axis=1)
    basis = basis[keep]

    status, iters = _iterate(table, basis, c)
    total = phase1_iters + iters
    if status == "unbounded":
        return LpResult("unbounded", None, None, total, phase1_iters)
    x = np.zeros(n)
    x[basis] = table[:, -1]
    return LpResult("optimal", x, float(c @ x), total, phase1_iters)
