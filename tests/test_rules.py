import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gptsim import models as gm
from gptsim import rules as rl
from gptsim import signaling as sg
from gptsim import transition as tr
from gptsim.errors import EmptyEnsembleError, NotPureError, RuleDomainError

QUBIT = gm.quantum(2)
KET0 = gm.point_state(QUBIT, 0)
KET1 = gm.point_state(QUBIT, 1)
PLUS = gm.ket_state(QUBIT, np.array([1, 1]) / np.sqrt(2))
MINUS = gm.ket_state(QUBIT, np.array([1, -1]) / np.sqrt(2))
MIXED = gm.state_from_matrix(QUBIT, np.eye(2) / 2)


# ---------------------------------------------------------------------------
# eval_rule
# ---------------------------------------------------------------------------

def test_power_rule_at_half():
    rule = rl.power_rule(1.5)
    assert rl.eval_rule(rule, 0.5) == pytest.approx(0.5 ** 1.5, abs=1e-15)
    assert rl.eval_rule(rule, 0.5) == pytest.approx(0.353553, abs=1e-6)


def test_piecewise_quadratic_values():
    rule = rl.piecewise_quadratic_rule()
    assert rl.eval_rule(rule, 0.3) == pytest.approx(0.18, abs=1e-15)
    assert rl.eval_rule(rule, 0.7) == pytest.approx(0.82, abs=1e-15)
    assert rl.eval_rule(rule, 0.5) == 0.5
    assert rl.eval_rule(rule, 0.0) == 0.0
    assert rl.eval_rule(rule, 1.0) == 1.0


def test_identity_rule_is_identity():
    rule = rl.identity_rule()
    for p in np.linspace(0, 1, 11):
        assert rl.eval_rule(rule, float(p)) == p


def test_eval_rule_domain_errors():
    rule = rl.identity_rule()
    with pytest.raises(RuleDomainError, match=r"^Rule input outside "
                       r"\[0, 1\]: range \[1.5, 1.5\]\.$"):
        rl.eval_rule(rule, 1.5)
    with pytest.raises(RuleDomainError):
        rl.eval_rule(rule, -0.1)
    with pytest.raises(RuleDomainError, match=r"range \[-0.1, 0.5\]\.$"):
        rl.eval_rule(rule, [-0.1, 0.5])
    for nan in (float("nan"), np.array([0.5, np.nan])):
        with pytest.raises(RuleDomainError, match=r"range \[nan, nan\]\.$"):
            rl.eval_rule(rule, nan)
    # within tolerance: snapped, not raised
    assert rl.eval_rule(rule, 1.0 + 1e-13) == 1.0
    assert rl.eval_rule(rule, -1e-13) == 0.0
    # scalar in, scalar out; the snap keeps the sign of zero
    assert type(rl.eval_rule(rule, np.array(0.3))) is float
    assert math.copysign(1.0, rl.eval_rule(rule, -0.0)) == -1.0


def test_eval_rule_vectorized():
    rule = rl.power_rule(2.0)
    grid = np.linspace(0, 1, 5)
    np.testing.assert_allclose(rl.eval_rule(rule, grid), grid ** 2, atol=1e-15)


def test_tabulated_rule_interpolates_and_clamps():
    rule = rl.tabulated_rule([[0.0, 0.0], [0.5, 0.4], [1.0, 1.0]])
    assert rl.eval_rule(rule, 0.25) == pytest.approx(0.2, abs=1e-15)
    assert rl.eval_rule(rule, 0.75) == pytest.approx(0.7, abs=1e-15)


def test_tabulated_rule_clamps_above_one():
    rule = rl.tabulated_rule([[0.0, 0.0], [1.0, 2.0]])  # raw values reach 2
    assert rl.eval_rule(rule, 0.75) == 1.0  # raw 1.5 clamped down
    assert rl.eval_rule(rule, 0.25) == pytest.approx(0.5, abs=1e-15)


def test_clamping_rule_shared_across_threads():
    rule = rl.tabulated_rule([[0.0, -0.5], [0.5, 0.5], [1.0, 2.0]])
    grids = [np.linspace(0.0, 1.0, 4001) ** (1 + k / 8) for k in range(8)]
    serial = [rl.eval_rule(rule, g) for g in grids]
    results = [None] * len(grids)

    def work(k):
        for _ in range(50):
            results[k] = rl.eval_rule(rule, grids[k])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(k,))
                   for k in range(len(grids))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for got, want in zip(results, serial):
        assert np.array_equal(got, want)


def test_tabulated_rule_preserves_monotonicity():
    samples = [[0.0, 0.0], [0.2, 0.1], [0.6, 0.55], [1.0, 1.0]]
    rule = rl.tabulated_rule(samples)
    grid = np.linspace(0, 1, 1001)
    values = rl.eval_rule(rule, grid)
    assert np.all(np.diff(values) >= -1e-15)


NAN = float("nan")


@pytest.mark.parametrize("make", [
    lambda: rl.power_rule(NAN),
    lambda: rl.tabulated_rule([[0, 0], [0.5, NAN], [1, 1]]),
    lambda: rl.tabulated_rule([[0, NAN], [1, 1]]),
    lambda: rl.tabulated_rule([[0, 0], [NAN, 0.5], [1, 1]]),
    lambda: rl.tabulated_rule([[NAN, 0], [0, 0], [1, 1]]),
])
def test_nan_rules_are_rejected(make):
    with pytest.raises(ValueError):
        make()


@pytest.mark.parametrize("make, message", [
    (lambda: rl.power_rule(0.0), "alpha must be positive and finite, got 0.0."),
    (lambda: rl.power_rule(math.inf),
     "alpha must be positive and finite, got inf."),
    (lambda: rl.power_rule(NAN), "alpha must be positive and finite, got nan."),
    (lambda: rl.tabulated_rule([[0, 0, 1]]),
     "samples must be an (n >= 2, 2) array of (p, value)."),
    (lambda: rl.tabulated_rule([[0, 0], [0.5, 0.2], [0.5, 0.3], [1, 1]]),
     "sample abscissae must be strictly increasing."),
    (lambda: rl.rule_from_dict([1, 2]),
     "Expected a JSON object with key 'family'."),
    (lambda: rl.rule_from_dict({"family": "power", "alpha": [1.5]}),
     "Key 'alpha': float() argument *, not 'list'."),
    (lambda: rl.rule_from_dict({"family": "tabulated", "samples": {"0": 0}}),
     "Key 'samples': float() argument *, not 'dict'."),
])
def test_rule_arguments_are_checked(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert type(info.value) is ValueError
    head, _, tail = message.partition("*")  # *: Python's TypeError wording
    assert str(info.value).startswith(head) and str(info.value).endswith(tail)


def test_rule_from_dict_roundtrip():
    for data in ({"family": "identity"},
                 {"family": "power", "alpha": 1.5},
                 {"family": "piecewise-quadratic"},
                 {"family": "tabulated", "samples": [[0, 0], [1, 1]]}):
        rule = rl.rule_from_dict(data)
        assert rule.family == data["family"]
        again = rl.rule_from_dict(rule.to_dict())
        grid = np.linspace(0, 1, 17)
        np.testing.assert_array_equal(rl.eval_rule(rule, grid),
                                      rl.eval_rule(again, grid))
    with pytest.raises(ValueError):
        rl.rule_from_dict({"family": "cubic"})
    for family, key in (("power", "alpha"), ("tabulated", "samples")):
        with pytest.raises(ValueError, match=key):
            rl.rule_from_dict({"family": family})


# ---------------------------------------------------------------------------
# check_constraints
# ---------------------------------------------------------------------------

def test_power_rule_fails_normalization():
    report = rl.check_constraints(rl.power_rule(1.5))
    assert report.boundary_ok
    assert report.monotone
    assert not report.normalization_ok
    assert not report.passed
    # residual at p = 1/2 is |2 * 0.5^1.5 - 1|
    assert report.normalization_residual == pytest.approx(
        abs(2 * 0.5 ** 1.5 - 1.0), abs=1e-9)
    assert report.normalization_residual == pytest.approx(0.2928932, abs=1e-6)


def test_piecewise_quadratic_passes_with_convex_concave_split():
    report = rl.check_constraints(rl.piecewise_quadratic_rule())
    assert report.passed
    labels = [seg[2] for seg in report.convexity_segments]
    assert labels == ["convex", "concave"]
    (lo1, hi1, _), (lo2, hi2, _) = report.convexity_segments
    assert lo1 == 0.0 and hi2 == 1.0
    assert hi1 == pytest.approx(0.5, abs=1e-3)
    assert lo2 == pytest.approx(0.5, abs=1e-3)


def test_identity_passes_and_is_affine():
    report = rl.check_constraints(rl.identity_rule())
    assert report.passed
    assert report.convexity_segments == ((0.0, 1.0, "affine"),)
    assert report.normalization_residual <= 1e-12
    assert report.midpoint_residual == 0.0


def test_nonmonotone_tabulated_rule_flagged():
    rule = rl.tabulated_rule([[0.0, 0.0], [0.4, 0.6], [0.6, 0.4], [1.0, 1.0]])
    report = rl.check_constraints(rule, grid_n=101, tol=1e-8)
    assert report.monotonicity_violations > 0
    lo, hi = report.worst_monotonicity_pair
    assert 0.4 <= lo < hi <= 0.6
    assert not report.passed


@pytest.mark.parametrize("tol", [-1e-8, float("nan"), float("inf")])
def test_check_constraints_rejects_bad_tolerance(tol):
    with pytest.raises(ValueError):
        rl.check_constraints(rl.identity_rule(), tol=tol)


def test_power_rule_classified_convex():
    report = rl.check_constraints(rl.power_rule(2.0))
    assert all(seg[2] == "convex" for seg in report.convexity_segments)
    report = rl.check_constraints(rl.power_rule(0.5))
    assert all(seg[2] == "concave" for seg in report.convexity_segments)


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=30),
       grid_n=st.integers(3, 40))
def test_convexity_segments_tile_the_unit_interval(values, grid_n):
    # A random tabulated rule on evenly spaced knots, audited on a grid
    # coarse enough to leave short curvature runs to merge.
    xs = np.linspace(0.0, 1.0, len(values) + 2)
    rule = rl.tabulated_rule(np.column_stack([xs, [0.0, *values, 1.0]]))
    segments = rl.check_constraints(rule, grid_n=grid_n).convexity_segments
    grid = np.linspace(0.0, 1.0, grid_n)
    index = {float(g): k for k, g in enumerate(grid)}
    assert segments[0][0] == 0.0 and segments[-1][1] == 1.0
    for (_, hi, label), (lo, _, next_label) in zip(segments, segments[1:]):
        assert hi == lo and label != next_label
    if len(segments) > 1:
        for lo, hi, _ in segments:
            # the interior grid points in (lo, hi]
            assert min(index[hi], grid_n - 2) - index[lo] >= 3


def test_constraint_report_serializes():
    report = rl.check_constraints(rl.identity_rule(), grid_n=129)
    data = report.to_dict()
    assert data["passed"] is True
    assert data["grid_size"] == 129


def test_check_constraints_rejects_tiny_grid():
    with pytest.raises(ValueError):
        rl.check_constraints(rl.identity_rule(), grid_n=2)


# ---------------------------------------------------------------------------
# prediction maps
# ---------------------------------------------------------------------------

def test_predict_pure_examples():
    def predict(rule, psi):
        return rl.predict_ensemble(rule, gm.ensemble([(1.0, psi)]), KET0)

    assert predict(rl.identity_rule(), PLUS) == pytest.approx(0.5, abs=1e-15)
    assert predict(rl.power_rule(1.5), PLUS) == pytest.approx(0.3536, abs=1e-4)
    for rule in (rl.identity_rule(), rl.power_rule(1.5),
                 rl.piecewise_quadratic_rule()):
        assert predict(rule, KET0) == 1.0


def test_predict_ensemble_computational_mixture():
    rule = rl.power_rule(1.5)
    ens = gm.ensemble([(0.5, KET0), (0.5, KET1)])
    assert rl.predict_ensemble(rule, ens, KET0) == 0.5


def test_predict_ensemble_plus_minus_mixture():
    rule = rl.power_rule(1.5)
    ens = gm.ensemble([(0.5, PLUS), (0.5, MINUS)])
    assert rl.predict_ensemble(rule, ens, KET0) == pytest.approx(0.35355, abs=1e-5)


def test_predict_ensemble_piecewise_on_02_04():
    rule = rl.piecewise_quadratic_rule()
    psi1 = tr.state_with_tau(QUBIT, KET0, 0.2, 0)
    psi2 = tr.state_with_tau(QUBIT, KET0, 0.4, 1)
    ens = gm.ensemble([(0.5, psi1), (0.5, psi2)])
    assert rl.predict_ensemble(rule, ens, KET0) == pytest.approx(0.2, abs=1e-12)


def test_predict_average_piecewise_at_03():
    # Protocol 2 of the trivial average predicts the rule at the average
    # state's overlap, 0.5 * 0.2 + 0.5 * 0.4.
    rule = rl.piecewise_quadratic_rule()
    report = sg.run_scenario(sg.Scenario(rule, KET0, 0.2, 0.4, 0.5, seed=1))
    assert report.prob_2 == pytest.approx(0.18, abs=1e-12)


def test_predict_average_identity_equals_mixed_tau():
    rule = rl.identity_rule()
    report = sg.run_scenario(sg.Scenario(rule, KET0, 1.0, 0.0, 0.5))
    omega = gm.mix(report.ensemble_1)
    assert np.allclose(omega.matrix, MIXED.matrix, rtol=0, atol=1e-15)
    assert report.prob_2 == pytest.approx(
        gm.evaluate(tr.accept_effect(KET0), omega), abs=1e-15)


def test_predict_boundary_any_rule_on_reference_state():
    for rule in (rl.identity_rule(), rl.piecewise_quadratic_rule(),
                 rl.power_rule(2.5)):
        assert rl.eval_rule(rule, tr.tau(KET0, KET0)) == 1.0


def test_predict_ensemble_errors():
    rule = rl.identity_rule()
    with pytest.raises(EmptyEnsembleError):
        rl.predict_ensemble(rule, gm.Ensemble(np.zeros(0), ()), KET0)
    mixed = gm.ensemble([(1.0, MIXED)], require_pure=False)
    with pytest.raises(NotPureError):
        rl.predict_ensemble(rule, mixed, KET0)


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_identity_rule_ensemble_average_agree(seed):
    rng = np.random.default_rng(seed)
    rule = rl.identity_rule()
    k = int(rng.integers(2, 5))
    weights = rng.dirichlet(np.ones(k))
    members = []
    for _ in range(k):
        ket = rng.normal(size=2) + 1j * rng.normal(size=2)
        members.append(gm.ket_state(QUBIT, ket / np.linalg.norm(ket)))
    ens = gm.ensemble(zip(weights, members))
    phi_ket = rng.normal(size=2) + 1j * rng.normal(size=2)
    phi = gm.ket_state(QUBIT, phi_ket / np.linalg.norm(phi_ket))
    overlap = gm.evaluate(tr.accept_effect(phi), gm.mix(ens))
    assert rl.predict_ensemble(rule, ens, phi) == pytest.approx(
        rl.eval_rule(rule, overlap), abs=1e-12)


def test_jensen_direction_for_strictly_convex_rule():
    rule = rl.power_rule(2.0)
    rng = np.random.default_rng(3)
    for i in range(50):
        p1, p2 = sorted(rng.uniform(0.05, 0.95, size=2))
        if p2 - p1 < 0.05:
            continue
        lam = float(rng.uniform(0.2, 0.8))
        psi1 = tr.state_with_tau(QUBIT, KET0, p1, 2 * i)
        psi2 = tr.state_with_tau(QUBIT, KET0, p2, 2 * i + 1)
        ens = gm.ensemble([(lam, psi1), (1 - lam, psi2)])
        avg = rl.eval_rule(
            rule, gm.evaluate(tr.accept_effect(KET0), gm.mix(ens)))
        ens_pred = rl.predict_ensemble(rule, ens, KET0)
        assert avg < ens_pred


def test_normalization_closure_for_passing_rules():
    rng = np.random.default_rng(4)
    for rule in (rl.identity_rule(), rl.piecewise_quadratic_rule()):
        for _ in range(50):
            ket = rng.normal(size=2) + 1j * rng.normal(size=2)
            psi = gm.ket_state(QUBIT, ket / np.linalg.norm(ket))
            t = tr.tau(psi, KET0)
            total = rl.eval_rule(rule, t) + rl.eval_rule(rule, 1.0 - t)
            assert total == pytest.approx(1.0, abs=1e-12)
