from itertools import combinations

import numpy as np
import pytest

from gptsim import simplex
from gptsim.simplex import solve_nonneg


def solve_general(c, a_ub, b_ub, a_eq=None, b_eq=None, maximize=False):
    """Free-variable program  min/max c.x  s.t.  a_ub.x <= b_ub, a_eq.x = b_eq
    posed in standard form for solve_nonneg: x = xp - xm, plus one slack per
    inequality row. Returns the solver result and x (None unless optimal)."""
    c = np.asarray(c, dtype=float)
    n = c.shape[0]
    a_ub = np.atleast_2d(np.asarray(a_ub, dtype=float))
    b_ub = np.asarray(b_ub, dtype=float)
    a_eq = np.zeros((0, n)) if a_eq is None else np.atleast_2d(np.asarray(a_eq, dtype=float))
    b_eq = np.zeros(0) if b_eq is None else np.asarray(b_eq, dtype=float)
    n_ub = a_ub.shape[0]
    rows = np.vstack([np.hstack([a_ub, -a_ub, np.eye(n_ub)]),
                      np.hstack([a_eq, -a_eq, np.zeros((a_eq.shape[0], n_ub))])])
    cost = -c if maximize else c
    res = solve_nonneg(np.concatenate([cost, -cost, np.zeros(n_ub)]), rows,
                       np.concatenate([b_ub, b_eq]))
    x = None if res.x is None else res.x[:n] - res.x[n:2 * n]
    return res, x


def enumerate_vertices(c, a_ub, b_ub, a_eq=None, b_eq=None):
    """Brute-force oracle: evaluate the objective on every basic feasible point."""
    a_eq = np.zeros((0, a_ub.shape[1])) if a_eq is None else np.atleast_2d(a_eq)
    b_eq = np.zeros(0) if b_eq is None else np.atleast_1d(b_eq)
    rows = np.vstack([a_ub, a_eq])
    rhs = np.concatenate([b_ub, b_eq])
    n = rows.shape[1]
    best = None
    for combo in combinations(range(rows.shape[0]), n):
        sub = rows[list(combo)]
        if abs(np.linalg.det(sub)) < 1e-10:
            continue
        x = np.linalg.solve(sub, rhs[list(combo)])
        if np.all(a_ub @ x <= b_ub + 1e-9) and (
                b_eq.size == 0 or np.max(np.abs(a_eq @ x - b_eq)) <= 1e-9):
            val = float(c @ x)
            if best is None or val > best:
                best = val
    return best


def test_simple_maximization():
    res, x = solve_general(c=[1.0, 1.0],
                           a_ub=[[1, 0], [0, 1], [-1, 0], [0, -1]],
                           b_ub=[1, 2, 0, 0], maximize=True)
    assert res.status == "optimal"
    assert res.value == pytest.approx(-3.0, abs=1e-9)  # solver minimizes -c.x
    assert np.allclose(x, [1, 2], atol=1e-9)


def test_textbook_lp():
    # max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18, x, y >= 0 -> 36 at (2, 6)
    res = solve_nonneg(c=[-3.0, -5.0, 0, 0, 0],
                       a_eq=[[1, 0, 1, 0, 0], [0, 2, 0, 1, 0], [3, 2, 0, 0, 1]],
                       b_eq=[4, 12, 18])
    assert res.value == pytest.approx(-36.0, abs=1e-9)
    assert np.allclose(res.x[:2], [2, 6], atol=1e-9)


def test_equality_constraints():
    # max x + 2y on the segment x + y = 1, x, y >= 0 -> 2 at (0, 1)
    res = solve_nonneg(c=[-1.0, -2.0], a_eq=[[1, 1]], b_eq=[1])
    assert res.value == pytest.approx(-2.0, abs=1e-9)
    assert np.allclose(res.x, [0, 1], atol=1e-9)


def test_free_variables_negative_solution():
    # min x s.t. x >= -3 (as -x <= 3) with x free -> -3
    res, x = solve_general(c=[1.0], a_ub=[[-1.0]], b_ub=[3.0])
    assert res.value == pytest.approx(-3.0, abs=1e-9)
    assert x == pytest.approx([-3.0], abs=1e-9)


def test_infeasible_detected():
    # x + s = 1 and x = 2 cannot both hold with x, s >= 0.
    res = solve_nonneg(c=[1.0, 0.0], a_eq=[[1, 1], [1, 0]], b_eq=[1.0, 2.0])
    assert res.status == "infeasible"
    assert res.x is None and res.value is None
    res = solve_nonneg(c=[1.0], a_eq=[[1.0]], b_eq=[-2.0])  # x = -2, x >= 0
    assert res.status == "infeasible"


def test_unbounded_detected():
    # min -x s.t. x - y = 0: the ray x = y grows without bound.
    res = solve_nonneg(c=[-1.0, 0.0], a_eq=[[1, -1]], b_eq=[0.0])
    assert res.status == "unbounded"
    assert res.x is None and res.value is None


TEXTBOOK = ([-3.0, -5.0, 0, 0, 0],
            [[1, 0, 1, 0, 0], [0, 2, 0, 1, 0], [3, 2, 0, 0, 1]],
            [4, 12, 18])


@pytest.mark.parametrize("arg, index, value", [
    (0, (1,), np.nan),      # would run to the pivot limit
    (2, (0,), np.nan),      # would break the ratio test
    (2, (2,), np.inf),      # would read as optimal with an infinite value
    (1, (1, 1), -np.inf),
], ids=["nan-cost", "nan-rhs", "inf-rhs", "inf-matrix"])
def test_non_finite_data_is_rejected_before_phase_one(arg, index, value):
    args = [np.array(a, dtype=float) for a in TEXTBOOK]
    args[arg][index] = value
    name = ("c", "a_eq", "b_eq")[arg]
    with pytest.raises(ValueError, match=f"^Standard-form {name} has a "
                                         "non-finite entry"):
        solve_nonneg(*args)


def test_degenerate_lp_terminates():
    # Many redundant constraints meeting at the optimum.
    a = np.array([[1, 0], [0, 1], [1, 1], [1, 1], [2, 2], [-1, 0], [0, -1]],
                 dtype=float)
    b = np.array([1, 1, 2, 2, 4, 0, 0], dtype=float)
    res, x = solve_general(c=[1.0, 1.0], a_ub=a, b_ub=b, maximize=True)
    assert res.status == "optimal"
    assert float(np.sum(x)) == pytest.approx(2.0, abs=1e-9)


def test_beale_cycling_program():
    # Beale's example, which cycles under the textbook most-negative rule
    # with largest-coefficient row choice: min -3/4 x4 + 150 x5 - x6/50 + 6 x7.
    a = [[1, 0, 0, 0.25, -60, -1 / 25, 9],
         [0, 1, 0, 0.5, -90, -1 / 50, 3],
         [0, 0, 1, 0, 0, 1, 0]]
    res = solve_nonneg([0, 0, 0, -0.75, 150, -1 / 50, 6], a, [0, 0, 1])
    assert res.status == "optimal"
    assert res.value == pytest.approx(-0.05, abs=1e-12)
    assert (res.iterations, res.phase1_iterations) == (6, 3)
    assert np.allclose(res.x, [0.03, 0, 0, 0.04, 0, 1, 0], atol=1e-12)


def test_bland_fallback_solves_a_degenerate_program(monkeypatch):
    # With no stall allowed, the first degenerate pivot switches the solve
    # to Bland's rule for the rest of its phase.
    monkeypatch.setattr(simplex, "_STALL_LIMIT", 0)
    a = np.array([[1, 0], [0, 1], [1, 1], [1, 1], [2, 2], [-1, 0], [0, -1]],
                 dtype=float)
    b = np.array([1, 1, 2, 2, 4, 0, 0], dtype=float)
    res, x = solve_general(c=[1.0, 1.0], a_ub=a, b_ub=b, maximize=True)
    assert res.status == "optimal"
    assert (res.iterations, res.phase1_iterations) == (13, 9)
    assert np.allclose(x, [1.0, 1.0], atol=1e-12)


def test_iteration_limit_raises(monkeypatch):
    # No program of the package's comes near the limit; a lowered one
    # stops Beale's program, which needs 3 pivots in phase 1.
    monkeypatch.setattr(simplex, "_MAX_ITER", 2)
    a = [[1, 0, 0, 0.25, -60, -1 / 25, 9],
         [0, 1, 0, 0.5, -90, -1 / 50, 3],
         [0, 0, 1, 0, 0, 1, 0]]
    with pytest.raises(simplex.UnboundedError) as info:
        solve_nonneg([0, 0, 0, -0.75, 150, -1 / 50, 6], a, [0, 0, 1])
    assert str(info.value) == "Simplex iteration limit exceeded; malformed cone."


def test_inconsistent_shapes_are_rejected():
    with pytest.raises(ValueError, match="^Inconsistent standard-form shapes"):
        solve_nonneg([1.0, 2.0], [[1.0, 1.0]], [1.0, 2.0])


def test_redundant_equalities():
    # Second row is twice the first; phase 1 drops it.
    res = solve_nonneg(c=[-1.0, -1.0], a_eq=[[1, 1], [2, 2]], b_eq=[1, 2])
    assert res.status == "optimal"
    assert res.value == pytest.approx(-1.0, abs=1e-9)


def test_matches_vertex_enumeration_oracle():
    rng = np.random.default_rng(42)
    for _ in range(30):
        n = int(rng.integers(2, 4))
        m = int(rng.integers(n + 1, n + 5))
        a = rng.normal(size=(m, n))
        x0 = rng.normal(size=n)
        b = a @ x0 + rng.uniform(0.1, 1.0, size=m)  # strictly feasible at x0
        # Box the polytope so the LP is bounded.
        a = np.vstack([a, np.eye(n), -np.eye(n)])
        b = np.concatenate([b, np.full(n, 10.0 + np.abs(x0).max()),
                            np.full(n, 10.0 + np.abs(x0).max())])
        c = rng.normal(size=n)
        res, x = solve_general(c, a_ub=a, b_ub=b, maximize=True)
        expected = enumerate_vertices(c, a, b)
        assert res.status == "optimal"
        assert float(c @ x) == pytest.approx(expected, abs=1e-7)


def test_deterministic_given_same_input():
    a = np.array([[1, 1], [1, -1], [-1, 0], [0, -1]], dtype=float)
    b = np.array([2, 1, 0, 0], dtype=float)
    first, _ = solve_general(c=[1.0, 0.3], a_ub=a, b_ub=b, maximize=True)
    second, _ = solve_general(c=[1.0, 0.3], a_ub=a, b_ub=b, maximize=True)
    assert first.iterations == second.iterations
    assert np.array_equal(first.x, second.x)
