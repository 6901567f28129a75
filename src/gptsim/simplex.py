"""Small dense two-phase simplex solver in standard form.

Solves  min c.x  subject to  a_eq.x = b_eq  and  x >= 0. Phase 1 starts from
an artificial basis on every row and drives it to zero; rows that stay
basic in an artificial are redundant and dropped before phase 2. Pivoting
uses the most-negative reduced cost with smallest-index tie-breaking and
falls back to Bland's rule after a run of degenerate pivots, so the solve is
deterministic and cannot cycle. The tableau is dense, which suits programs
with few rows and many columns, such as the duals the LP cross-check of
``transition`` builds.
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
    m = table.shape[0]
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
            col = int(np.argmin(reduced))
            if reduced[col] >= -_EPS:
                return "optimal", iterations
        column = table[:, col]
        positive = column > _PIVOT_EPS
        if not positive.any():
            return "unbounded", iterations
        ratios = np.full(m, np.inf)
        ratios[positive] = table[positive, -1] / column[positive]
        best = ratios.min()
        ties = np.flatnonzero(ratios <= best + _PIVOT_EPS)
        row = int(ties[np.argmin(basis[ties])])  # Bland-style: smallest basis index

        degenerate = table[row, -1] <= _PIVOT_EPS
        stall = stall + 1 if degenerate else 0
        if stall > _STALL_LIMIT:
            bland = True

        pivot = table[row, col]
        table[row] /= pivot
        rest = np.arange(m) != row
        table[rest] -= np.outer(table[rest, col], table[row])
        basis[row] = col
        iterations += 1
    raise UnboundedError("Simplex iteration limit exceeded; malformed cone.")


def _pivot_out_artificials(table, basis, n_struct):
    """Replace basic artificials (at zero level) by structural columns."""
    for row in np.flatnonzero(basis >= n_struct):
        candidates = np.flatnonzero(np.abs(table[row, :n_struct]) > _PIVOT_EPS)
        if candidates.size == 0:
            # Redundant row: harmless, leave the zero-level artificial basic.
            continue
        col = int(candidates[0])
        pivot = table[row, col]
        table[row] /= pivot
        rest = np.arange(table.shape[0]) != row
        table[rest] -= np.outer(table[rest, col], table[row])
        basis[row] = col


def solve_nonneg(c, a_eq, b_eq) -> LpResult:
    """Solve the standard form  min c.x  s.t.  a_eq.x = b_eq, x >= 0.

    Returns an :class:`LpResult` whose status is "optimal", "infeasible" or
    "unbounded"; ``x`` and ``value`` are set only when optimal.
    """
    c = np.asarray(c, dtype=float)
    a = np.atleast_2d(np.asarray(a_eq, dtype=float)).copy()
    b = np.atleast_1d(np.asarray(b_eq, dtype=float)).copy()
    m, n = a.shape
    if b.shape != (m,) or c.shape != (n,):
        raise ValueError("Inconsistent standard-form shapes.")
    neg = b < 0
    a[neg] *= -1.0
    b[neg] = -b[neg]

    art = np.eye(m)
    table = np.hstack([a, art, b[:, None]])
    basis = n + np.arange(m)

    cost1 = np.concatenate([np.zeros(n), np.ones(m)])
    status, phase1_iters = _iterate(table, basis, cost1)
    if status == "unbounded" or float(np.sum(table[basis >= n, -1])) > _EPS:
        return LpResult("infeasible", None, None, phase1_iters, phase1_iters)
    _pivot_out_artificials(table, basis, n)
    keep = basis < n
    table = np.hstack([table[keep][:, :n], table[keep][:, -1:]])
    basis = basis[keep]

    status, iters = _iterate(table, basis, c.copy())
    total = phase1_iters + iters
    if status == "unbounded":
        return LpResult("unbounded", None, None, total, phase1_iters)
    x = np.zeros(n)
    x[basis] = table[:, -1]
    return LpResult("optimal", x, float(c @ x), total, phase1_iters)
