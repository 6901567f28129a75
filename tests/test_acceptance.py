"""Acceptance gate: every criterion below runs at its stated tolerance and
prints one pass/fail line (run with ``pytest -s`` to see them inline)."""

import time

import numpy as np
import pytest

from gptsim import models as gm
from gptsim import rules as rl
from gptsim import signaling as sg
from gptsim import steering as ss
from gptsim import transition as tr

QUBIT = gm.quantum(2)
PHI = gm.point_state(QUBIT, 0)


def _report(number: int, title: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"acceptance {number} [{status}] {title}: {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def _random_pure(rng, model=QUBIT):
    ket = rng.normal(size=model.size) + 1j * rng.normal(size=model.size)
    return gm.ket_state(model, ket / np.linalg.norm(ket))


def _random_mixed(rng, model=QUBIT):
    g = rng.normal(size=(model.size, model.size)) + \
        1j * rng.normal(size=(model.size, model.size))
    rho = g @ g.conj().T
    return gm.state_from_matrix(model, rho / np.trace(rho).real)


def test_criterion_1_convex_rule_reproduction():
    start = time.perf_counter()
    rule = rl.power_rule(1.5)
    bell = gm.bipartite_from_ket(
        QUBIT, QUBIT, np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2))
    z_basis = gm.measurement([gm.projector_effect(gm.point_state(QUBIT, 0)),
                              gm.projector_effect(gm.point_state(QUBIT, 1))])
    plus = gm.ket_state(QUBIT, np.array([1, 1]) / np.sqrt(2))
    minus = gm.ket_state(QUBIT, np.array([1, -1]) / np.sqrt(2))
    x_basis = gm.measurement([gm.projector_effect(plus),
                              gm.projector_effect(minus)])

    p1 = rl.predict_ensemble(rule, ss.steer(bell, z_basis), PHI)
    p2 = rl.predict_ensemble(rule, ss.steer(bell, x_basis), PHI)
    gap = p1 - p2

    # The same numbers through the scenario driver (synthesized protocols).
    report = sg.run_scenario(sg.Scenario(rule, PHI, 1.0, 0.0, 0.5,
                                         mode=sg.STEERED_UNIFORM))
    elapsed = time.perf_counter() - start

    ok = (p1 == 0.5
          and abs(p2 - 0.353553) <= 1e-6
          and abs(gap - 0.146447) <= 1e-6
          and report.prob_1 == 0.5
          and abs(report.prob_2 - 0.353553) <= 1e-6
          and abs(report.gap - 0.146447) <= 1e-6
          and elapsed < 1.0)
    _report(1, "convex-rule maximally entangled reproduction", ok,
            f"P1={p1!r} P2={p2:.9f} gap={gap:.9f} ({elapsed:.3f}s)")


def test_criterion_2_normalized_curved_rule_reproduction():
    start = time.perf_counter()
    rule = rl.piecewise_quadratic_rule()
    sym_a = sg.run_scenario(sg.Scenario(rule, PHI, 0.3, 0.7, 0.5))
    sym_b = sg.run_scenario(sg.Scenario(rule, PHI, 1.0, 0.0, 0.5))
    asym = sg.run_scenario(sg.Scenario(rule, PHI, 0.2, 0.4, 0.5))
    elapsed = time.perf_counter() - start

    ok = (abs(sym_a.gap) <= 1e-12
          and abs(sym_b.gap) <= 1e-12
          and abs(asym.gap - 0.02) <= 1e-9
          and elapsed < 1.0)
    _report(2, "normalized curved-rule gaps", ok,
            f"sym={sym_a.gap:.2e}/{sym_b.gap:.2e} asym={asym.gap:.12f} "
            f"({elapsed:.3f}s)")


def test_criterion_3_affinity_certificate():
    start = time.perf_counter()
    cert = sg.affinity_certificate(rl.identity_rule(), samples=10_000,
                                   tol=1e-10, seed=2026)
    elapsed = time.perf_counter() - start
    ok = cert.passed and cert.max_abs_gap <= 1e-10 and elapsed < 10.0
    _report(3, "identity-rule affinity certificate", ok,
            f"max|gap|={cert.max_abs_gap:.3e} over {cert.samples} scenarios "
            f"({elapsed:.2f}s)")


def test_criterion_4_convexity_sign_law():
    start = time.perf_counter()
    rng = np.random.default_rng(404)
    worst_convex = np.inf
    worst_concave = -np.inf
    for alpha_range, expect_positive in (((1.1, 3.0), True),
                                         ((0.3, 0.9), False)):
        for _ in range(100):
            rule = rl.power_rule(float(rng.uniform(*alpha_range)))
            for _ in range(10):
                p1, p2 = rng.random(2)
                while p1 == p2:
                    p1, p2 = rng.random(2)
                lam = float(rng.uniform(0.1, 0.9))
                report = sg.run_scenario(sg.Scenario(
                    rule, PHI, float(p1), float(p2), lam,
                    seed=int(rng.integers(2**31))))
                if expect_positive:
                    worst_convex = min(worst_convex, report.gap)
                else:
                    worst_concave = max(worst_concave, report.gap)
    elapsed = time.perf_counter() - start
    ok = worst_convex > 0 and worst_concave < 0 and elapsed < 30.0
    _report(4, "convex/concave gap sign law", ok,
            f"min convex gap={worst_convex:.3e}, "
            f"max concave gap={worst_concave:.3e} ({elapsed:.2f}s)")


def test_criterion_5_overlap_lemma_invariants():
    rng = np.random.default_rng(505)
    worst_reflexive = 0.0
    worst_complement = 0.0
    for _ in range(1000):
        phi = _random_pure(rng)
        psi = _random_pure(rng)
        complement = tr.state_with_tau(QUBIT, phi, 0.0, 0)
        worst_reflexive = max(worst_reflexive, abs(tr.tau(phi, phi) - 1.0))
        total = tr.tau(psi, phi) + tr.tau(psi, complement)
        worst_complement = max(worst_complement, abs(total - 1.0))
    ok = worst_reflexive <= 1e-12 and worst_complement <= 1e-12
    _report(5, "overlap lemma invariants", ok,
            f"max |tau(phi,phi)-1|={worst_reflexive:.2e}, "
            f"max |tau+tau_perp-1|={worst_complement:.2e}")


def test_criterion_6_steering_roundtrip():
    rng = np.random.default_rng(606)
    worst_weight = 0.0
    worst_state = 0.0
    worst_marginal = 0.0
    for _ in range(100):
        omega = _random_mixed(rng)
        members = int(rng.integers(2, 4))
        joint = ss.purify(omega, purifier_dim=members)
        ensembles = []
        for _ in range(2):
            g = rng.normal(size=(members, members)) + \
                1j * rng.normal(size=(members, members))
            q, _ = np.linalg.qr(g)
            probe = gm.measurement([
                gm.effect_from_matrix(joint.model_a,
                                      np.outer(q[:, k], q[:, k].conj()))
                for k in range(members)])
            target = ss.steer(joint, probe)
            synth = ss.synthesize_steering_measurement(joint, target)
            steered = ss.steer(joint, synth.measurement)
            worst_weight = max(worst_weight, float(np.max(np.abs(
                steered.weights - target.weights))))
            for got, want in zip(steered.states, target.states):
                worst_state = max(worst_state, float(np.max(np.abs(
                    got.matrix - want.matrix))))
            ensembles.append(steered)
        worst_marginal = max(worst_marginal, ss.marginal_residual(*ensembles))
    ok = worst_weight <= 1e-9 and worst_state <= 1e-9 and worst_marginal <= 1e-10
    _report(6, "steering synthesis roundtrip", ok,
            f"weights {worst_weight:.2e}, states {worst_state:.2e}, "
            f"marginals {worst_marginal:.2e}")


def test_criterion_7_lp_against_closed_form():
    rng = np.random.default_rng(707)
    worst = 0.0
    for _ in range(100):
        psi = _random_pure(rng)
        phi = _random_pure(rng)
        grid = tr.great_circle_states(phi, 720, through=psi)
        lp_value = tr.tau_lp_report(QUBIT, psi, phi, generators=grid).value
        worst = max(worst, abs(lp_value - tr.tau(psi, phi)))

    classical_worst = 0.0
    for n in (2, 3, 4):
        model = gm.classical(n)
        for k in range(n):
            for j in range(n):
                lp_value = tr.tau_lp_report(model, gm.point_state(model, k),
                                            gm.point_state(model, j)).value
                exact = 1.0 if k == j else 0.0
                classical_worst = max(classical_worst, abs(lp_value - exact))
    ok = worst <= 5e-3 and classical_worst <= 1e-12
    _report(7, "LP path versus closed form", ok,
            f"quantum max err={worst:.2e} (720-point grid), "
            f"classical max err={classical_worst:.2e}")


def test_criterion_8_statistical_detectability():
    report = sg.run_scenario(sg.Scenario(rl.power_rule(1.5), PHI, 1.0, 0.0, 0.5,
                                         mode=sg.STEERED_UNIFORM))
    stats = sg.simulate_runs(report, runs=10_000, seed=808)
    deviation = abs(stats.gap_estimate - 0.146447)
    ok = deviation <= 3.0 * stats.sigma
    _report(8, "finite-run gap detectability", ok,
            f"estimate={stats.gap_estimate:.6f}, |dev|={deviation:.6f} "
            f"<= 3*sigma={3 * stats.sigma:.6f}")
