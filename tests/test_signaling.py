import itertools
import json
import re
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import draws_reference as ref
from gptsim import errors
from gptsim import models as gm
from gptsim import rules as rl
from gptsim import signaling as sg
from gptsim import steering as ss
from gptsim import transition as tr
from gptsim.errors import (
    ContractError,
    GptError,
    NotPureError,
    UnsupportedModelError,
)

QUBIT = gm.quantum(2)
PHI = gm.point_state(QUBIT, 0)
KET1 = gm.point_state(QUBIT, 1)
PLUS = gm.ket_state(QUBIT, np.array([1, 1]) / np.sqrt(2))
MINUS = gm.ket_state(QUBIT, np.array([1, -1]) / np.sqrt(2))
MIXED = gm.state_from_matrix(QUBIT, np.eye(2) / 2)

BELL = gm.bipartite_from_ket(QUBIT, QUBIT,
                             np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2))
Z_BASIS = gm.measurement([gm.projector_effect(PHI), gm.projector_effect(KET1)])
X_BASIS = gm.measurement([gm.projector_effect(PLUS), gm.projector_effect(MINUS)])


def report_json(report):
    """A report's JSON; it tells -0.0 from 0.0."""
    return json.dumps(report.to_dict(), sort_keys=True)


def brute_force_max_gap(phi_fn, n=201):
    """Independent oracle: densely grid the closed-form gap expression."""
    p = np.linspace(0, 1, n)
    p1 = p[:, None, None]
    p2 = p[None, :, None]
    lam = p[None, None, :]
    g = lam * phi_fn(p1) + (1 - lam) * phi_fn(p2) - phi_fn(lam * p1 + (1 - lam) * p2)
    return float(np.max(np.abs(g)))


# ---------------------------------------------------------------------------
# protocol predictions on steered ensembles
# ---------------------------------------------------------------------------

def test_steered_prediction_power_rule_z_basis():
    value = rl.predict_ensemble(rl.power_rule(1.5), ss.steer(BELL, Z_BASIS), PHI)
    assert value == 0.5  # float-exact: tau values clamp to {0, 1}


def test_steered_prediction_power_rule_x_basis():
    value = rl.predict_ensemble(rl.power_rule(1.5), ss.steer(BELL, X_BASIS), PHI)
    assert value == pytest.approx(0.5 ** 1.5, abs=1e-12)
    assert value == pytest.approx(0.35355, abs=1e-5)


def test_steered_prediction_trivial_collapses_for_identity():
    rule = rl.identity_rule()
    values = [rl.predict_ensemble(rule, ss.steer(BELL, basis), PHI)
              for basis in (Z_BASIS, X_BASIS)]
    # Protocol 2 of the trivial average: the rule at the overlap of the
    # Bell marginal I/2, steered from a purification of its own.
    values.append(sg.run_scenario(sg.Scenario(rule, PHI, 1.0, 0.0, 0.5)).prob_2)
    for value in values:
        assert value == pytest.approx(0.5, abs=1e-12)


# ---------------------------------------------------------------------------
# run_scenario
# ---------------------------------------------------------------------------

def test_scenario_example_power_rule_maximal_witness():
    report = sg.run_scenario(sg.Scenario(rl.power_rule(1.5), PHI, 1.0, 0.0, 0.5,
                                         mode=sg.STEERED_UNIFORM))
    assert report.prob_1 == 0.5
    assert report.prob_2 == pytest.approx(0.5 ** 1.5, abs=1e-12)
    assert report.gap == pytest.approx(0.14645, abs=1e-5)
    assert report.marginal_residual <= 1e-10
    assert report.formula_residual <= 1e-12


def test_scenario_piecewise_quadratic_gap_cases():
    rule = rl.piecewise_quadratic_rule()
    asym = sg.run_scenario(sg.Scenario(rule, PHI, 0.2, 0.4, 0.5))
    assert asym.gap == pytest.approx(0.02, abs=1e-9)
    sym = sg.run_scenario(sg.Scenario(rule, PHI, 0.3, 0.7, 0.5))
    assert abs(sym.gap) <= 1e-12
    extremes = sg.run_scenario(sg.Scenario(rule, PHI, 1.0, 0.0, 0.5))
    assert abs(extremes.gap) <= 1e-12


def test_scenario_modes_agree_when_tau_values_constant():
    rule = rl.power_rule(1.5)
    trivial = sg.run_scenario(sg.Scenario(rule, PHI, 1.0, 0.0, 0.5))
    steered = sg.run_scenario(sg.Scenario(rule, PHI, 1.0, 0.0, 0.5,
                                          mode=sg.STEERED_UNIFORM))
    assert trivial.prob_2 == pytest.approx(steered.prob_2, abs=1e-12)
    assert trivial.gap == pytest.approx(steered.gap, abs=1e-12)


def test_scenario_steered_uniform_reproduces_x_basis_structure():
    report = sg.run_scenario(sg.Scenario(rl.power_rule(1.5), PHI, 1.0, 0.0, 0.5,
                                         mode=sg.STEERED_UNIFORM))
    members = report.ensemble_2.states
    assert len(members) == 2
    for s in members:
        x = gm.bloch_vector(s)[0]
        assert abs(abs(x) - 1.0) <= 1e-12  # the +/- x states


def test_scenario_deterministic_for_fixed_seed():
    scenario = sg.Scenario(rl.power_rule(2.0), PHI, 0.3, 0.8, 0.4, seed=11)
    a = sg.run_scenario(scenario)
    b = sg.run_scenario(scenario)
    assert a.gap == b.gap
    assert a.prob_1 == b.prob_1


def test_scenario_rejects_bad_parameters():
    with pytest.raises(ValueError):
        sg.Scenario(rl.identity_rule(), PHI, 1.5, 0.0, 0.5)
    with pytest.raises(ValueError):
        sg.Scenario(rl.identity_rule(), PHI, 0.5, 0.0, 0.5, mode="other")
    classical_phi = gm.point_state(gm.classical(2), 0)
    with pytest.raises(UnsupportedModelError) as info:
        sg.run_scenario(sg.Scenario(rl.identity_rule(), classical_phi, 1.0, 0.0, 0.5))
    assert info.value.index == 0


@pytest.mark.parametrize("seed", [-1, -(2**70), 1.5, "3"])
def test_scenario_rejects_bad_seed(seed):
    with pytest.raises(ValueError, match=f"seed.*{seed!r}"):
        sg.Scenario(rl.identity_rule(), PHI, 0.0, 1.0, 0.5, seed=seed)


@pytest.mark.parametrize("seed", [-1, 1.5])
@pytest.mark.parametrize("call", [
    lambda seed: sg.affinity_certificate(rl.identity_rule(), samples=1,
                                         seed=seed),
    lambda seed: sg.simulate_runs(sg.run_scenario(sg.Scenario(
        rl.identity_rule(), PHI, 0.2, 0.7, 0.3)), runs=10, seed=seed),
    lambda seed: tr.state_with_tau(QUBIT, PHI, 0.3, seed),
], ids=["affinity_certificate", "simulate_runs", "state_with_tau"])
def test_seeded_entry_points_reject_bad_seed_as_scenario_does(call, seed):
    with pytest.raises(ValueError, match=(
            rf"^seed must be a non-negative integer, got {seed!r}\.$")):
        call(seed)


@pytest.mark.parametrize("name, call", [
    ("samples", lambda count: sg.affinity_certificate(rl.identity_rule(),
                                                      samples=count)),
    ("runs", lambda count: sg.simulate_runs(sg.run_scenario(sg.Scenario(
        rl.identity_rule(), PHI, 0.2, 0.7, 0.3)), runs=count)),
], ids=["affinity_certificate", "simulate_runs"])
@pytest.mark.parametrize("count", [2.5, 3.0, "3"])
def test_counts_must_be_integers(name, call, count):
    with pytest.raises(ValueError, match=(
            rf"^{name} must be an integer, got {re.escape(repr(count))}\.$")):
        call(count)


def test_nan_residual_fails_the_contract():
    # A hand-built rule that skips the range audit: NaN above 0.3.
    rule = rl.ProbabilityRule("custom", {},
                              lambda p: np.where(p > 0.3, np.nan, p))
    scenario = sg.Scenario(rule, PHI, 0.5, 0.2, 0.5)
    with pytest.raises(ContractError, match="closed form by nan") as info:
        sg.run_scenario(scenario)
    assert info.value.index == 0 and info.value.scenario is scenario


@pytest.mark.parametrize("mode", [sg.TRIVIAL_AVERAGE, sg.STEERED_UNIFORM])
def test_rule_is_not_evaluated_on_weight_zero_outcomes(mode):
    # The same rule with every member's overlap below 0.3: a weight-0
    # outcome's slot holds zeros, and the rule is not evaluated there.
    rule = rl.ProbabilityRule("custom", {},
                              lambda p: np.where(p > 0.3, np.nan, p))
    report = sg.run_scenario(sg.Scenario(rule, PHI, 0.1, 0.2, 0.5, mode=mode))
    assert report.prob_1 == pytest.approx(0.15, abs=1e-12)
    assert report.prob_2 == pytest.approx(0.15, abs=1e-12)


def test_scenario_degenerate_weights():
    report = sg.run_scenario(sg.Scenario(rl.power_rule(1.5), PHI, 0.7, 0.2, 1.0))
    assert report.gap == pytest.approx(0.0, abs=1e-12)
    report = sg.run_scenario(sg.Scenario(rl.power_rule(1.5), PHI, 0.7, 0.2, 0.0))
    assert report.gap == pytest.approx(0.0, abs=1e-12)


def test_steered_uniform_pure_average_state():
    # lambda in {0, 1}, or p1 = p2 in {0, 1}, leaves a pure average state;
    # its round-off must not spread the uniform-overlap members out of the
    # purification's support.
    rng = np.random.default_rng(41)
    rules = (rl.power_rule(1.5), rl.piecewise_quadratic_rule(),
             rl.identity_rule(), rl.power_rule(2.5))
    for i in range(200):
        ket = rng.normal(size=2) + 1j * rng.normal(size=2)
        phi = gm.ket_state(QUBIT, ket / np.linalg.norm(ket))
        if i % 3 == 0:
            p1, p2 = (float(x) for x in rng.random(2))
            lam = float(rng.integers(2))
        elif i % 3 == 1:
            p1 = p2 = float(rng.integers(2))
            lam = float(rng.random())
        else:
            p1, p2, lam = float(rng.integers(2)), float(rng.random()), 1.0
        rule = rules[i % len(rules)]
        report = sg.run_scenario(sg.Scenario(rule, phi, p1, p2, lam,
                                             mode=sg.STEERED_UNIFORM, seed=i))
        expected_1, expected_2 = sg.closed_form(rule, p1, p2, lam)
        assert abs(report.gap - (expected_1 - expected_2)) <= 1e-12
        assert report.marginal_residual <= 1e-10


def test_closed_form_broadcasts_like_scalars():
    rule = rl.piecewise_quadratic_rule()
    p1, p2, lam = np.array([0.2, 0.3, 1.0]), np.array([0.4, 0.7, 0.0]), 0.5
    prob_1, prob_2 = sg.closed_form(rule, p1, p2, lam)
    assert prob_1.shape == prob_2.shape == (3,)
    for k in range(3):
        scalar_1, scalar_2 = sg.closed_form(rule, float(p1[k]), float(p2[k]), lam)
        assert (prob_1[k], prob_2[k]) == (scalar_1, scalar_2)
    assert prob_1[0] - prob_2[0] == pytest.approx(0.02, abs=1e-12)


def test_report_serializes():
    report = sg.run_scenario(sg.Scenario(rl.power_rule(1.5), PHI, 1.0, 0.0, 0.5))
    data = report.to_dict()
    assert data["P1"] == report.prob_1
    assert "ensemble_1" in data and "scenario" in data
    assert isinstance(report_json(report), str)


# ---------------------------------------------------------------------------
# run_scenarios: a batch runs as its scenarios would one by one
# ---------------------------------------------------------------------------

# Rules with a finite slope everywhere: a steep rule amplifies round-off
# past the 1e-12 closed-form contract (see the failure test below).
# One rule of each family, none steep.
FAMILY_RULES = (rl.identity_rule(), rl.power_rule(1.5),
                rl.piecewise_quadratic_rule(),
                rl.tabulated_rule([[0, 0], [0.3, 0.1], [0.7, 0.8], [1, 1]]))


@st.composite
def scenarios(draw):
    d = draw(st.sampled_from([2, 2, 3, 4]))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    ket = rng.normal(size=d) + 1j * rng.normal(size=d)
    phi = gm.ket_state(gm.quantum(d), ket / np.linalg.norm(ket))
    overlap = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
    p1, p2 = draw(overlap), draw(overlap)
    lam = draw(st.one_of(st.sampled_from([0.0, 1.0, 0.5]),
                         st.floats(0.05, 0.95)))
    if draw(st.booleans()):
        # orthogonal members at nearly equal weight: a near-degenerate
        # average state
        p1, p2 = 1.0, 0.0
        lam = 0.5 + draw(st.sampled_from([0.0, 1e-12, 1e-9, -1e-9]))
    mode = (sg.TRIVIAL_AVERAGE, sg.STEERED_UNIFORM)[draw(st.booleans())]
    return sg.Scenario(draw(st.sampled_from(FAMILY_RULES)), phi, p1, p2, lam,
                       mode=mode, seed=draw(st.integers(0, 2**31 - 1)))


@settings(max_examples=40, deadline=None)
@given(batch=st.lists(scenarios(), min_size=1, max_size=8),
       one_rule=st.booleans())
def test_batch_equals_single_runs(batch, one_rule):
    # The batch runs one group per dimension, whatever the rules; within
    # it each rule object predicts on its own rows. With one rule object,
    # every row of a group shares one prediction.
    if one_rule:
        batch = [replace(s, rule=batch[0].rule) for s in batch]
    singles = []
    for scenario in batch:
        try:
            singles.append(sg.run_scenario(scenario))
        except GptError as exc:  # e.g. two nearly identical members
            singles.append(exc)
    failed = [i for i, one in enumerate(singles) if isinstance(one, GptError)]
    if failed:
        k = failed[0]
        with pytest.raises(type(singles[k])) as info:
            sg.run_scenarios(batch)
        assert info.value.index == k and info.value.scenario is batch[k]
        assert info.value.args == singles[k].args
        return
    for one, many in zip(singles, sg.run_scenarios(batch)):
        assert many.scenario is one.scenario
        for field in ("prob_1", "prob_2", "gap"):
            assert getattr(many, field).hex() == getattr(one, field).hex()
        assert report_json(many) == report_json(one)


def test_rules_do_not_split_the_pipeline(monkeypatch):
    # Twenty scenarios, each with a power(1.5) rule object of its own, are
    # purified and steered in one pass per protocol-2 mode, ten scenarios
    # each, and each report is its single run's.
    rng = np.random.default_rng(12)
    batch = [sg.Scenario(rl.power_rule(1.5), PHI,
                         *(float(x) for x in rng.random(3)), seed=k,
                         mode=(sg.TRIVIAL_AVERAGE, sg.STEERED_UNIFORM)[k % 2])
             for k in range(20)]
    singles = [report_json(sg.run_scenario(s)) for s in batch]
    calls = []

    def counted(name):
        real = getattr(ss, name)

        def counting(*args):
            calls.append((name, len(args[-1])))  # the pass's stack rows
            return real(*args)
        return counting

    for name in ("_purify", "_steer"):
        monkeypatch.setattr(ss, name, counted(name))
    reports = sg.run_scenarios(batch)
    assert sorted(calls) == [("_purify", 10)] * 2 + [("_steer", 20)] * 2
    assert [report_json(r) for r in reports] == singles


def test_rules_shared_across_threads():
    # Four threads run rotated copies of one batch (d = 2, 3, 4; three rule
    # objects shared by all) and each gets the serial run's reports.
    rules = (rl.power_rule(1.5), rl.piecewise_quadratic_rule(),
             rl.tabulated_rule([[0, 0], [0.3, 0.1], [0.7, 0.8], [1, 1]]))
    rng = np.random.default_rng(13)
    batch = []
    for k in range(24):
        d = (2, 3, 4)[k % 3]
        ket = rng.normal(size=d) + 1j * rng.normal(size=d)
        phi = gm.ket_state(gm.quantum(d), ket / np.linalg.norm(ket))
        mode = sg.STEERED_UNIFORM if d == 2 and k % 2 else sg.TRIVIAL_AVERAGE
        batch.append(sg.Scenario(rules[k % 3 if k % 4 else 0], phi,
                                 *(float(x) for x in rng.random(3)),
                                 mode=mode, seed=k))
    serial = [report_json(r) for r in sg.run_scenarios(batch)]
    results = {}

    def run(shift):
        rotated = batch[shift:] + batch[:shift]
        outputs = []
        for _ in range(5):
            outputs.append([report_json(r) for r in sg.run_scenarios(rotated)])
        results[shift] = outputs

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(shift,))
                   for shift in (0, 5, 11, 17)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(results) == [0, 5, 11, 17]  # no thread raised
    for shift, outputs in results.items():
        expected = serial[shift:] + serial[:shift]
        assert all(output == expected for output in outputs)


@settings(max_examples=100, deadline=None)
@given(d=st.sampled_from([2, 3, 4]), uniform=st.booleans(),
       rule=st.sampled_from(FAMILY_RULES), p1=st.floats(0.0, 1.0),
       p2=st.floats(0.0, 1.0), decades=st.floats(3.0, 9.0),
       light_first=st.booleans(), seed=st.integers(0, 2**31 - 1))
def test_near_pure_mixtures_pass(d, uniform, rule, p1, p2, decades,
                                 light_first, seed):
    # The lighter weight 10**-decades in [1e-9, 1e-3] leaves a small Schmidt
    # value, whose inverse once amplified round-off past the effect checks.
    # Members at Fubini-Study angles theta_1 and theta_2 from phi are at
    # least |theta_1 - theta_2| apart, so the average's smallest eigenvalue
    # is at least light * (1 - light) * sin(theta_1 - theta_2)**2. Nearly
    # identical members take it to the rank cut at any weight, a separate
    # documented limit; the property keeps it 100 times above the cut.
    light = 10.0 ** -decades
    apart = np.arccos(np.sqrt(p1)) - np.arccos(np.sqrt(p2))
    assume(light * (1.0 - light) * np.sin(apart) ** 2 >= 100 * ss.RANK_TOL)
    rng = np.random.default_rng(seed)
    ket = rng.normal(size=d) + 1j * rng.normal(size=d)
    phi = gm.ket_state(gm.quantum(d), ket / np.linalg.norm(ket))
    mode = sg.STEERED_UNIFORM if uniform else sg.TRIVIAL_AVERAGE
    report = sg.run_scenario(sg.Scenario(
        rule, phi, p1, p2, light if light_first else 1.0 - light, mode=mode,
        seed=seed))
    assert report.marginal_residual <= 1e-10
    assert report.formula_residual <= 1e-12


def steep_scenario():
    """power(0.1) has infinite slope at 0: round-off in this scenario's zero
    overlap (1.4e-32) takes its prediction 3.3e-4 off the closed form."""
    return sg.Scenario(rl.power_rule(0.1), PHI, 0.0, 0.5, 0.5, seed=0)


def test_batch_failure_names_its_scenario():
    bad = steep_scenario()
    fine = [sg.Scenario(rl.power_rule(1.5), PHI, 0.1 * i, 0.7, 0.4, seed=i,
                        mode=(sg.STEERED_UNIFORM, sg.TRIVIAL_AVERAGE)[i % 2])
            for i in range(5)]
    named = json.dumps(bad.to_dict(), sort_keys=True)
    for k in (0, 2, 5):
        with pytest.raises(ContractError) as info:
            sg.run_scenarios(fine[:k] + [bad] + fine[k:])
        assert info.value.index == k
        assert info.value.scenario is bad
        assert str(info.value).startswith(
            f"Scenario {k} of the batch {named}: Pipeline deviates from the "
            f"closed form by ")


def test_batch_failure_names_the_first_scenario_failing_alone():
    # The mixed phi fails the batch's first check, but the steep scenario
    # before it is the first to fail when each is run alone.
    bad = steep_scenario()
    fine = sg.Scenario(rl.power_rule(1.5), PHI, 0.2, 0.7, 0.4)
    mixed_phi = sg.Scenario(rl.power_rule(1.5), MIXED, 0.2, 0.7, 0.4)
    with pytest.raises(NotPureError) as info:
        sg.run_scenarios([fine, mixed_phi])
    assert info.value.index == 1
    with pytest.raises(ContractError) as info:
        sg.run_scenarios([fine, bad, mixed_phi])
    assert info.value.index == 1 and info.value.scenario is bad


def test_batch_failure_is_found_by_bisection(monkeypatch):
    # A failure at the last of 64 scenarios: the bisection runs 63
    # scenarios through the batch core in six passes (32 + 16 + ... + 1),
    # and only the failing scenario runs alone, itself a batch of one.
    bad = steep_scenario()
    batch = [sg.Scenario(rl.power_rule(1.5), PHI, 0.2, 0.7, 0.4, seed=i)
             for i in range(63)] + [bad]
    core, alone = [], []
    run_batch, run_scenario = sg._run_batch, sg.run_scenario
    monkeypatch.setattr(sg, "_run_batch",
                        lambda s: core.append(len(s)) or run_batch(s))
    monkeypatch.setattr(sg, "run_scenario",
                        lambda s: alone.append(s) or run_scenario(s))
    with pytest.raises(ContractError) as info:
        sg.run_scenarios(batch)
    assert info.value.index == 63 and info.value.scenario is bad
    assert core == [64, 32, 16, 8, 4, 2, 1, 1]
    assert alone == [bad]


SCENARIO_PINS = Path(__file__).resolve().parent / "scenario_pins.json"


def test_run_scenario_matches_its_pinned_results():
    # Every case of scenario_pins.json, one run_scenario each: Haar phi at
    # d = 2..4, both modes, overlaps and weights at 0 and 1, near-pure
    # mixtures, the power, piecewise-quadratic and tabulated rules (a steep
    # one too). Member counts and error classes are pinned exactly,
    # probabilities and residuals to 1e-14.
    pins = json.loads(SCENARIO_PINS.read_text())
    rules = [rl.rule_from_dict(data) for data in pins["rules"]]
    assert len(pins["cases"]) == 232
    for case in pins["cases"]:
        d, mode, k, ket, p1, p2, lam, seed, pinned = case
        phi = gm.ket_state(gm.quantum(d), np.array([complex(*z) for z in ket]))
        scenario = sg.Scenario(rules[k], phi, p1, p2, lam, mode=mode, seed=seed)
        if isinstance(pinned, str):
            with pytest.raises(GptError) as info:
                sg.run_scenario(scenario)
            assert type(info.value) is getattr(errors, pinned), case
            continue
        report = sg.run_scenario(scenario)
        values = (report.prob_1, report.prob_2, report.gap,
                  report.marginal_residual, report.formula_residual)
        assert max(abs(a - b) for a, b in zip(values, pinned)) <= 1e-14, case
        assert [len(report.ensemble_1), len(report.ensemble_2)] == pinned[5:], case


def test_batch_failure_no_scenario_reproduces_alone_is_raised_unnamed():
    # A rule whose values depend on how many overlaps it is given at once
    # breaks the closed form only in a batch, so no scenario fails alone:
    # one scenario's call sees six (its three live members, p1, p2 and the
    # average's), and past the sixth the rule halves its input.
    rule = rl.ProbabilityRule(
        "identity", {},
        lambda p: np.where(np.arange(np.size(p)) < 6, p, 0.5 * p))
    batch = [sg.Scenario(rule, PHI, 0.2, 0.7, 0.3, seed=i) for i in range(3)]
    for scenario in batch:
        sg.run_scenario(scenario)
    with pytest.raises(ContractError) as info:
        sg.run_scenarios(batch)
    assert info.value.index is None and info.value.scenario is None
    assert str(info.value).startswith("Pipeline deviates from the closed form")


UNIT = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 0.999))


@settings(max_examples=80, deadline=None)
@given(d=st.sampled_from([2, 3, 4]), p1=UNIT, p2=UNIT,
       lam=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.01, 0.99)),
       alpha=st.sampled_from([1.0, 0.9, 1.5, 3.0]),
       seed=st.integers(0, 2**31 - 1))
@example(d=2, p1=0.5, p2=0.5, lam=0.5, alpha=1.5, seed=0)
def test_steered_uniform_in_every_dimension(d, p1, p2, lam, alpha, seed):
    # Members at least 1e-3 rad apart in Fubini-Study angle keep the
    # average's smaller eigenvalue far above the rank cut (see
    # test_near_pure_mixtures_pass). Equal overlaps are apart for sure only
    # beyond the qubit, where each member has its own residual direction,
    # or at 0 and 1, where both members are one state. On a qubit, equal
    # overlaps p near 0 or 1 leave members about sqrt(p) or sqrt(1 - p)
    # apart, README's near-identical limit.
    apart = np.arccos(np.sqrt(p1)) - np.arccos(np.sqrt(p2))
    assume(lam in (0.0, 1.0) or abs(apart) >= 1e-3
           or (p1 == p2 and (d > 2 or p1 in (0.0, 1.0))))
    rng = np.random.default_rng(seed)
    ket = rng.normal(size=d) + 1j * rng.normal(size=d)
    phi = gm.ket_state(gm.quantum(d), ket / np.linalg.norm(ket))
    rule = rl.identity_rule() if alpha == 1.0 else rl.power_rule(alpha)
    trivial, uniform = sg.run_scenarios([
        sg.Scenario(rule, phi, p1, p2, lam, mode=mode, seed=seed)
        for mode in (sg.TRIVIAL_AVERAGE, sg.STEERED_UNIFORM)])

    omega = gm.mix(trivial.ensemble_1)
    overlap = gm.evaluate(tr.accept_effect(phi), omega)
    pair = sg.uniform_overlap_decomposition(omega, phi)
    assert len(pair) == 2 and np.all(pair.weights == 0.5)
    for member in pair.states:
        assert member.pure
        assert abs(tr.tau(member, phi) - overlap) <= 1e-12
    assert abs(gm.mix(pair).matrix - omega.matrix).max() <= 1e-12

    assert abs(uniform.gap - trivial.gap) <= 1e-12
    if alpha == 1.0:
        assert max(abs(trivial.gap), abs(uniform.gap)) <= 1e-10
    elif d > 2 and p1 != p2 and 0.0 < lam < 1.0:
        # Jensen: a convex rule opens a positive gap, a concave one a
        # negative gap; one within the closed-form contract has no sign.
        expected = np.subtract(*sg.closed_form(rule, p1, p2, lam))
        if abs(expected) > 1e-12:
            for report in (trivial, uniform):
                assert np.sign(report.gap) == np.sign(alpha - 1.0)


def test_marginal_contract_fires_on_a_corrupted_steered_stack(monkeypatch):
    # Shift protocol 2's lone (trivial) outcome by 1e-9 in its traceless Z
    # coefficient, (m00 - m11)/sqrt(2), after steering: only the marginal
    # contract reads that sub, and its trace, the outcome's probability,
    # stays as it was.
    steer = ss._steer

    def corrupted(*args):
        steered = steer(*args)
        subs = steered.subs.copy()
        shift = 1e-9 / np.sqrt(2.0)
        subs[len(subs) // 2:, 0, 0, 0] += shift
        subs[len(subs) // 2:, 0, 1, 1] -= shift
        return steered._replace(subs=subs)

    monkeypatch.setattr(ss, "_steer", corrupted)
    with pytest.raises(ContractError) as info:
        sg.run_scenario(sg.Scenario(rl.identity_rule(), PHI, 0.2, 0.7, 0.3))
    assert info.value.index == 0
    named, by = str(info.value).rsplit(" by ", 1)
    assert named.endswith(": Protocols disagree on the distant marginal")
    assert abs(float(by.rstrip(".")) - 1e-9) <= 1e-15


def planted_failure() -> rl.ProbabilityRule:
    """The identity rule, but NaN at exactly the p1 of sample 376 of
    certificate seed 54, in its first batch: the closed-form check fails on
    that sample alone, whatever the pipeline's round-off."""
    p1 = certificate_scenarios(rl.identity_rule(), 377, 54)[376].p1
    return rl.ProbabilityRule("identity", {},
                              lambda q: np.where(q == p1, np.nan, q))


def test_certificate_failure_surfaces_from_run_scenario(monkeypatch):
    # Certificate seed 1555123228, the benchmark's defect probe, drew a
    # near-pure mixture (lambda = 0.99994) from numpy's generators, which
    # synthesis once failed; it passes. Its lightest weight now is 0.0030.
    defect = sg.affinity_certificate(rl.identity_rule(), samples=1000,
                                     seed=1555123228)
    assert defect.passed and defect.max_abs_gap <= 1e-10

    # The planted failure: bisection finds sample 376, and only it runs
    # again alone. The failure also surfaces from run_scenario on that
    # scenario, where a per-scenario wrapper (the benchmark's defect probe)
    # finds it.
    rule = planted_failure()
    real = sg.run_scenario
    raised = []

    def catching(scenario):
        try:
            return real(scenario)
        except Exception:
            raised.append(scenario)
            raise

    monkeypatch.setattr(sg, "run_scenario", catching)
    with pytest.raises(ContractError) as info:
        sg.affinity_certificate(rule, samples=1000, seed=54)
    assert info.value.index == 376
    assert str(info.value).startswith("Scenario 376 of the batch {")
    assert str(info.value).endswith(
        "Pipeline deviates from the closed form by nan.")
    assert raised == [info.value.scenario]
    assert np.isnan(rule._fn(np.array(raised[0].p1)))


# (P1, P2, protocol-1 members, protocol-2 members) of the 48 scenarios of
# the test below, recorded from the per-scenario pipeline the batch replaced.
PER_SCENARIO_REPORTS = (
    (0.396236765518604, 0.39623676551860415, 2, 1),
    (0.6530713812530844, 0.6530713812530843, 1, 2),
    (0.43091206068443116, 0.12189099550843786, 2, 1),
    (0.16842016517236458, 0.16662093808880876, 2, 1),
    (0.2961737979541703, 0.32755848634641627, 2, 1),
    (0.6620675048515888, 0.6620675048515889, 2, 2),
    (0.2688800767221436, 0.2688545370791177, 2, 1),
    (0.0008360773410534926, 0.0008360773410534928, 1, 2),
    (0.0, 0.0, 2, 1),
    (0.6930413258380492, 0.6945797290084688, 2, 1),
    (0.6483687935621261, 0.6483687935621263, 2, 1),
    (0.4297321977531124, 0.4255366393912007, 2, 2),
    (0.2502979149875213, 0.2169679441032989, 2, 1),
    (0.7682141943755126, 0.7682141943755126, 1, 1),
    (0.9999999999999998, 1.0, 2, 1),
    (0.4802709605761785, 0.4802709605761786, 2, 2),
    (0.061267474462338774, 0.05894900931980961, 2, 1),
    (0.3216790713358824, 0.29442817442620156, 2, 2),
    (0.6163357481725995, 0.6536245485388608, 2, 1),
    (0.9522341681933837, 0.9522341681933837, 1, 1),
    (0.020374151148506492, 0.020374151148506353, 2, 1),
    (0.12940424721738092, 0.12455778163790988, 2, 2),
    (0.3814327173269576, 0.37758720565822357, 2, 1),
    (0.4627284539669549, 0.424192339761913, 2, 1),
    (0.633569877591683, 0.6532302988190555, 2, 1),
    (0.5694728969947691, 0.5694728969947691, 1, 2),
    (0.9461829725207951, 0.9203705048123978, 2, 1),
    (0.004015921102090632, 0.0038332334144142916, 2, 2),
    (0.26934695161756506, 0.2716929307650479, 2, 1),
    (0.5997572114611431, 0.6156720982516761, 2, 1),
    (0.07593941189080929, 0.07593941189080927, 2, 1),
    (0.8368411192200509, 0.8368411192200509, 1, 2),
    (3.622522574376323e-43, 0.0, 2, 1),
    (0.12028974875469205, 0.06723025821089454, 2, 1),
    (0.5794262274266115, 0.6302837415257345, 2, 1),
    (0.6966061508510819, 0.6966061508510818, 2, 2),
    (0.7707892894836192, 0.7702825800885439, 2, 1),
    (0.14772476297601278, 0.14772476297601272, 1, 2),
    (1.0, 1.0, 2, 1),
    (0.27080353956919145, 0.25986707915080687, 2, 1),
    (0.8709325916693491, 0.8709325916693492, 2, 1),
    (0.7472441057541368, 0.7452761575151209, 2, 2),
    (0.18401024478931116, 0.0775569390201038, 2, 1),
    (0.04752907142709178, 0.04752907142709178, 1, 1),
    (0.6046229476208944, 0.7034672107156708, 2, 1),
    (0.5976370446385628, 0.5976370446385627, 2, 2),
    (0.292604768808348, 0.20456568540087366, 2, 1),
    (0.16889896506545604, 0.10725982251482383, 2, 2),
)


def test_steer_checks_only_the_live_conditionals(monkeypatch):
    # A trivial-average batch steers each scenario's two members through
    # their one-column factors and its trivial outcome through the B
    # marginal; the deficit and empty slots are not steered. No
    # conditional is state-checked, and no purity is computed.
    rng, rule = np.random.default_rng(4), rl.power_rule(1.5)
    batch = [sg.Scenario(rule, PHI, *(float(x) for x in 0.1 + 0.8 * rng.random(3)),
                         seed=k) for k in range(7)]
    sg.run_scenarios(batch[:1])  # a warm-up run, outside the count
    calls, steered = [], []  # steered: None inside _steer, then its args
    steer = ss._steer

    def counted(name):
        real = getattr(gm, name)

        def counting(*args):
            if steered and steered[-1] is None:
                calls.append((name, int(np.prod(np.shape(args[-1])[:-2]))))
            return real(*args)
        return counting

    def marked_steer(*args):
        steered.append(None)
        try:
            return steer(*args)
        finally:
            steered[-1] = args

    for name in ("_check_states", "_check_hermitian", "_pure"):
        monkeypatch.setattr(gm, name, counted(name))
    monkeypatch.setattr(ss, "_steer", marked_steer)
    sg.run_scenarios(batch)
    (kets, grams, live), = steered
    assert (len(kets), len(grams)) == (2 * len(batch), len(batch))
    assert np.count_nonzero(live) == 3 * len(batch)
    assert calls == []


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("mode", [sg.TRIVIAL_AVERAGE, sg.STEERED_UNIFORM])
def test_single_run_makes_no_hermiticity_check(monkeypatch, d, mode):
    # The members' projectors are pure by construction, the average
    # state is purified from the members' factor without being formed as a
    # state, and the steered conditionals are Hermitian and positive by
    # construction, so none of them is checked.
    scenario = sg.Scenario(rl.power_rule(1.5), gm.point_state(gm.quantum(d), 0),
                           0.2, 0.7, 0.4, mode)
    calls, check = [], gm._check_hermitian
    monkeypatch.setattr(gm, "_check_hermitian",
                        lambda *args: calls.append(1) or check(*args))
    sg.run_scenario(scenario)
    assert len(calls) == 0


def test_certificate_makes_no_hermiticity_check(monkeypatch):
    # For the reasons above.
    calls, check = [], gm._check_hermitian
    monkeypatch.setattr(gm, "_check_hermitian",
                        lambda *args: calls.append(1) or check(*args))
    sg.affinity_certificate(rl.identity_rule(), samples=1000)
    assert len(calls) == 0


def test_decompositions_are_one_eigh_per_public_call_and_none_per_stack(
        monkeypatch):
    # A batch over d = 2, 3 and both modes runs four stacks, and a
    # 1000-sample certificate two: each stack's average state is purified
    # by closed-form rotations of its members' factor, with no LAPACK
    # decomposition and no state check of the average. Public purify and
    # uniform_overlap_decomposition take their state's Schmidt form from
    # one eigh.
    calls = []

    def counted(module, name):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, **kwargs: calls.append(
            name) or real(*args, **kwargs))

    batch = [sg.Scenario(rl.power_rule(1.5), gm.point_state(gm.quantum(d), 0),
                         0.2, 0.7, 0.4, mode, seed=k)
             for k, (d, mode) in enumerate(itertools.product(
                 (2, 3, 2, 3), (sg.TRIVIAL_AVERAGE, sg.STEERED_UNIFORM)))]
    omega = gm.mix(sg.run_scenario(batch[0]).ensemble_1)
    for name in ("svd", "eigh", "eigvalsh"):
        counted(np.linalg, name)
    counted(gm, "_check_states")
    sg.run_scenarios(batch)
    sg.affinity_certificate(rl.identity_rule(), samples=1000)
    assert calls == []
    ss.purify(omega)
    assert calls == ["eigh"]
    calls.clear()
    sg.uniform_overlap_decomposition(omega, batch[0].phi)
    assert calls == ["eigh"]


def _pipeline_batch(rng):
    """Scenarios at d = 2..4 in both modes, with overlaps and weights at 0,
    1 and between, on a Haar phi per dimension."""
    batch = []
    for d in (2, 3, 4):
        ket = rng.normal(size=d) + 1j * rng.normal(size=d)
        phi = gm.ket_state(gm.quantum(d), ket / np.linalg.norm(ket))
        for mode, p1, p2, lam in itertools.product(
                (sg.TRIVIAL_AVERAGE, sg.STEERED_UNIFORM), (0.0, 0.37, 1.0),
                (0.0, 0.81, 1.0), (0.0, 0.42, 1.0)):
            batch.append(sg.Scenario(rl.power_rule(1.5), phi, p1, p2, lam,
                                     mode, seed=len(batch)))
    return batch


def test_pipeline_synthesis_holds_its_contract_by_construction(monkeypatch):
    # The pipeline neither synthesizes nor checks protocol 1's measurement:
    # its rows alpha come from the rotation of the members' factor, whose
    # columns are the members' kets m_k times sqrt(w_k). For every purified
    # stack, the projectors onto the rows must sum to the projector onto
    # the kept basis vectors, and alpha_k†J must be sqrt(w_k) m_k up to
    # phase, at weights 0, 1e-9, 0.42, 1 - 1e-9 and 1.
    batch = _pipeline_batch(np.random.default_rng(11))
    batch += [replace(s, lam=lam) for s in batch[::9] for lam in (1e-9, 1 - 1e-9)]
    factors, stacks = [], []
    rotate, purify = ss._rotation_schmidt, ss._purify
    monkeypatch.setattr(ss, "_rotation_schmidt", lambda factor: factors.append(
        factor) or rotate(factor))
    monkeypatch.setattr(ss, "_purify", lambda *args: stacks.append(
        purify(*args)) or stacks[-1])
    sg.run_scenarios(batch)
    assert len(stacks) == len(factors) == 6  # one per model size and mode
    scenarios = iter(sorted(batch, key=lambda s: (  # in the stacks' order
        s.phi.model.size, s.mode == sg.STEERED_UNIFORM)))
    for factor, (joints, schmidt, _, alphas) in zip(factors, stacks):
        kept = np.arange(alphas.shape[-1]) < schmidt.rank[:, None]
        total = np.einsum("nki,nkj->nij", alphas, alphas.conj())
        assert abs(total - kept[:, None] * np.eye(len(kept[0]))).max() <= 1e-12
        steered = alphas.conj() @ joints
        for rows, columns, s in zip(steered, factor, scenarios):
            weights = np.array([s.lam, 1 - s.lam])
            overlaps = abs(columns @ gm.pure_ket(s.phi).conj()) ** 2
            assert abs(gm._norm(columns) ** 2 - weights).max() <= 1e-15
            assert abs(overlaps - weights * [s.p1, s.p2]).max() <= 1e-12
            for row, column in zip(rows, columns):
                phase = np.vdot(row, column)
                phase = phase / abs(phase) if abs(phase) else 1.0
                assert abs(row * phase - column).max() <= 1e-12


def test_lighter_weight_below_the_cut_matches_the_closed_form():
    # A lighter weight of 1e-13 puts the average state's smaller squared
    # Schmidt value below the rank cut; the factor's SVD still steers every
    # member within the contracts, in both modes at d = 2..4, where
    # synthesis from the cut Schmidt basis found a member outside it.
    rule = rl.power_rule(1.5)
    rng = np.random.default_rng(5)
    for d, mode, lam in itertools.product(
            (2, 3, 4), (sg.TRIVIAL_AVERAGE, sg.STEERED_UNIFORM),
            (1e-13, 1 - 1e-13)):
        ket = rng.normal(size=d) + 1j * rng.normal(size=d)
        phi = gm.ket_state(gm.quantum(d), ket / np.linalg.norm(ket))
        report = sg.run_scenario(sg.Scenario(rule, phi, 0.3, 0.8, lam, mode))
        expected = sg.closed_form(rule, 0.3, 0.8, lam)
        assert abs(report.prob_1 - expected[0]) <= 1e-12
        assert abs(report.prob_2 - expected[1]) <= 1e-12
        assert report.marginal_residual <= 1e-10


@settings(max_examples=60, deadline=None)
@given(d=st.sampled_from([2, 3, 4]), p1=UNIT, p2=UNIT,
       lam=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.01, 0.99)),
       seed=st.integers(0, 2**31 - 1))
def test_pipeline_conditionals_are_states_by_construction(d, p1, p2, lam,
                                                         seed):
    # The steered conditionals are not checked: each kept one must have
    # trace 1 within 1e-12, be exactly Hermitian and have no eigenvalue
    # below -1e-9, in both modes, and each member of a known decomposition
    # must be pure. Members at least 1e-3 rad apart keep the average off
    # the rank cut (README's first known limit); equal overlaps may not.
    apart = np.arccos(np.sqrt(p1)) - np.arccos(np.sqrt(p2))
    assume(lam in (0.0, 1.0) or abs(apart) >= 1e-3)
    rng = np.random.default_rng(seed)
    ket = rng.normal(size=d) + 1j * rng.normal(size=d)
    phi = gm.ket_state(gm.quantum(d), ket / np.linalg.norm(ket))
    stacks = []
    steer = ss._steer

    def capturing(*args):
        stacks.append(steer(*args))
        return stacks[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ss, "_steer", capturing)
        trivial, uniform = sg.run_scenarios([
            sg.Scenario(rl.identity_rule(), phi, p1, p2, lam, mode, seed=seed)
            for mode in (sg.TRIVIAL_AVERAGE, sg.STEERED_UNIFORM)])
    for steered in stacks:
        subs = steered.subs[steered.keep]
        kept = subs / np.trace(subs, axis1=-2, axis2=-1).real[:, None, None]
        assert np.array_equal(kept, kept.conj().swapaxes(-1, -2))
        trace = np.trace(kept, axis1=-2, axis2=-1).real
        assert abs(trace - 1.0).max() <= gm.LINEAR_TOL
        assert np.linalg.eigvalsh(kept).min() >= -gm.SPECTRAL_TOL
    members = (trivial.ensemble_1.states + uniform.ensemble_1.states
               + uniform.ensemble_2.states)
    assert all(state.pure for state in members)


def test_report_ensembles_are_built_when_first_read(monkeypatch):
    calls = []
    ensemble = ss._Steered.ensemble

    def counting(self, model, i):
        calls.append(i)
        return ensemble(self, model, i)

    monkeypatch.setattr(ss._Steered, "ensemble", counting)
    rng, rule = np.random.default_rng(5), rl.power_rule(1.5)
    reports = sg.run_scenarios(
        sg.Scenario(rule, PHI, *(float(x) for x in rng.random(3)), seed=k)
        for k in range(50))
    assert calls == []
    report = reports[3]
    assert report.ensemble_1 is report.ensemble_1
    assert calls == [3]
    assert len(report.to_dict()["ensemble_2"]["members"]) == 1
    assert calls == [3, 53]


def test_certificate_expands_one_row_per_sample(monkeypatch):
    # The steered stack keeps subnormalized conditionals only: the marginal
    # check expands one difference of averages per sample, and only the
    # witness's report builds states (phi and its ensembles' members).
    assert ss._Steered._fields == ("subs", "keep", "weights")
    rows = []
    expand = gm.SystemModel.coeffs_from_matrix

    def counting(self, matrix):
        rows.append(int(np.prod(np.shape(matrix)[:-2])))
        return expand(self, matrix)

    monkeypatch.setattr(gm.SystemModel, "coeffs_from_matrix", counting)
    cert = sg.affinity_certificate(rl.power_rule(1.5), samples=1000, seed=3)
    witness = 1 + len(cert.worst.ensemble_1) + len(cert.worst.ensemble_2)
    assert sum(rows) <= 1000 + witness


def test_batch_reports_match_per_scenario_pipeline():
    # Within 1e-14, not bitwise: another numpy or BLAS build may round the
    # eigh and svd steps differently. The member counts check the masks:
    # zero-weight members, trivial protocols and uniform decompositions.
    rng = np.random.default_rng(2026)
    rules = (rl.identity_rule(), rl.power_rule(1.5), rl.power_rule(2.5),
             rl.piecewise_quadratic_rule(),
             rl.tabulated_rule([[0, 0], [0.3, 0.1], [0.6, 0.7], [1, 1]]))
    batch = []
    for i in range(48):
        d = (2, 2, 2, 3, 4)[i % 5]
        ket = rng.normal(size=d) + 1j * rng.normal(size=d)
        phi = gm.ket_state(gm.quantum(d), ket / np.linalg.norm(ket))
        p1, p2, lam = (float(x) for x in rng.random(3))
        if i % 6 == 1:
            lam = float(i % 4 // 2)
        elif i % 6 == 2:
            p1, p2 = float(i % 4 // 2), float(i % 8 // 4)
        mode = sg.STEERED_UNIFORM if d == 2 and i % 2 else sg.TRIVIAL_AVERAGE
        batch.append(sg.Scenario(rules[i % 5], phi, p1, p2, lam, mode=mode,
                                 seed=int(rng.integers(2**31))))
    for report, (prob_1, prob_2, size_1, size_2) in zip(
            sg.run_scenarios(batch), PER_SCENARIO_REPORTS, strict=True):
        assert report.prob_1 == pytest.approx(prob_1, rel=0, abs=1e-14)
        assert report.prob_2 == pytest.approx(prob_2, rel=0, abs=1e-14)
        assert (len(report.ensemble_1), len(report.ensemble_2)) == (size_1,
                                                                    size_2)


def certificate_scenarios(rule, samples, seed):
    """The certificate's samples as scenarios, by its documented draws:
    sample i reads words 8i to 8i + 7 of the seed's sample stream, phi's
    ket from two normals, then (p1, p2, lambda), then the scenario's seed,
    the last word >> 33."""
    words = ref.words(ref.STREAMS[1], seed, 0, 8 * samples)
    batch = []
    for i in range(samples):
        w = words[8 * i:8 * i + 8]
        ket = np.array([ref.normal(*w[0:2]), ref.normal(*w[2:4])])
        phi = gm.ket_state(QUBIT, ket / np.linalg.norm(ket))
        p1, p2, lam = (ref.uniform(x) for x in w[4:7])
        batch.append(sg.Scenario(rule, phi, p1, p2, lam, seed=w[7] >> 33))
    return batch


@pytest.mark.parametrize("seed", [3, 2026])
@pytest.mark.parametrize("rule", [rl.identity_rule(), rl.power_rule(1.5)],
                         ids=["identity", "power1.5"])
@pytest.mark.parametrize("samples", [1, 255, 256, 257, 600])
def test_certificate_equals_runs_of_its_scenarios(rule, samples, seed):
    # The certificate draws and runs arrays in batches of 512; the same
    # samples built as objects and run as one batch give the same witness.
    cert = sg.affinity_certificate(rule, samples=samples, tol=1e-3, seed=seed)
    reports = sg.run_scenarios(certificate_scenarios(rule, samples, seed))
    gaps = [abs(report.gap) for report in reports]
    worst = reports[int(np.argmax(gaps))]
    assert cert.max_abs_gap == max(gaps)
    assert report_json(cert.worst) == report_json(worst)


def test_certificate_is_batch_invariant(monkeypatch):
    # Each sample's draws are words of its own, whatever batch reads them.
    # A failure planted on one sample is named at its index in every
    # batching.
    by_batch, planted = {}, planted_failure()
    for batch in (1, 3, 256, 512):
        monkeypatch.setattr(sg, "_CERTIFICATE_BATCH", batch)
        by_batch[batch] = [json.dumps(sg.affinity_certificate(
            rl.identity_rule(), samples=samples, seed=2026).to_dict(),
            sort_keys=True) for samples in (1, 2, 511, 512, 513, 1025)]
        with pytest.raises(ContractError) as info:
            sg.affinity_certificate(planted, samples=1000, seed=54)
        assert info.value.index == 376
    assert all(out == by_batch[512] for out in by_batch.values())


@pytest.mark.parametrize("seed", [0, 5, 54, 2026, 2**31 - 1])
def test_certificate_seeds_are_halves_of_raw_words(seed):
    # Sample i's scenario seed is the high half of word 8i + 7 of the
    # certificate seed's sample stream, >> 1: 31 bits, whichever window of
    # samples reads it.
    raw = ref.words(ref.STREAMS[1], seed, 0, 8 * 9)
    seeds = sg._certificate_draws(seed, 0, 9)[2]
    assert seeds == [(raw[8 * i + 7] >> 32) >> 1 for i in range(9)]
    assert all(isinstance(s, int) and 0 <= s < 2**31 for s in seeds)
    for start in range(9):
        assert sg._certificate_draws(seed, start, 1)[2] == [seeds[start]]


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("p1", [0.0, 0.3])
def test_state_with_tau_is_the_pipelines_first_member(monkeypatch, d, p1):
    # Protocol 1's members are the pipeline's first unit kets; the first is
    # state_with_tau's state at p1 with the scenario's seed, bit for bit.
    ket = np.random.default_rng(d).normal(size=(d, 2)) @ [1, 1j]
    phi = gm.ket_state(gm.quantum(d), ket / np.linalg.norm(ket))
    seed = 2**40 + d
    built = []
    ket_states = gm._ket_states
    monkeypatch.setattr(gm, "_ket_states", lambda model, kets: built.append(
        ket_states(model, kets)) or built[-1])
    sg.run_scenario(sg.Scenario(rl.identity_rule(), phi, p1, 0.8, 0.4,
                                seed=seed))
    kets, members = built[0]
    psi = tr.state_with_tau(phi.model, phi, p1, seed)
    assert gm.pure_ket(psi).tobytes() == kets[0, 0].tobytes()
    assert psi.matrix.tobytes() == members[0, 0].tobytes()


def test_certificate_worst_witness_is_its_single_run():
    cert = sg.affinity_certificate(rl.power_rule(1.5), samples=200, tol=1e-3,
                                   seed=8)
    assert report_json(cert.worst) == report_json(
        sg.run_scenario(cert.worst.scenario))
    assert cert.max_abs_gap == abs(cert.worst.gap)


# ---------------------------------------------------------------------------
# gap sign law
# ---------------------------------------------------------------------------

def test_gap_positive_for_convex_negative_for_concave():
    rng = np.random.default_rng(7)
    for _ in range(20):
        p1, p2 = rng.uniform(0.05, 0.95, size=2)
        while abs(p1 - p2) < 0.05:
            p1, p2 = rng.uniform(0.05, 0.95, size=2)
        lam = float(rng.uniform(0.15, 0.85))
        convex = sg.run_scenario(sg.Scenario(
            rl.power_rule(float(rng.uniform(1.1, 3.0))), PHI,
            float(p1), float(p2), lam, seed=int(rng.integers(2**31))))
        assert convex.gap > 0
        concave = sg.run_scenario(sg.Scenario(
            rl.power_rule(float(rng.uniform(0.3, 0.9))), PHI,
            float(p1), float(p2), lam, seed=int(rng.integers(2**31))))
        assert concave.gap < 0


# ---------------------------------------------------------------------------
# max_gap_search
# ---------------------------------------------------------------------------

def test_max_gap_identity_is_zero():
    report = sg.max_gap_search(rl.identity_rule(), grid=51, refine=10)
    assert abs(report.gap) <= 1e-12


def test_max_gap_power_rule_matches_brute_force():
    oracle = brute_force_max_gap(lambda x: x ** 1.5)
    report = sg.max_gap_search(rl.power_rule(1.5), grid=101, refine=40)
    # True maximum is 4/27 at (0, 1, 5/9) / (1, 0, 4/9); oracle grid slightly
    # undershoots, refinement recovers the analytic optimum.
    assert abs(report.gap) >= oracle - 1e-9
    assert abs(report.gap) == pytest.approx(4.0 / 27.0, abs=1e-8)
    assert abs(report.gap) >= 0.146


def test_max_gap_piecewise_quadratic_matches_brute_force():
    def pwq(x):
        return np.where(x <= 0.5, 2 * x * x, 1 - 2 * (1 - x) ** 2)
    oracle = brute_force_max_gap(pwq)
    report = sg.max_gap_search(rl.piecewise_quadratic_rule(), grid=101, refine=40)
    assert abs(report.gap) >= oracle - 1e-9
    # analytic optimum 3 - 2*sqrt(2) at p's straddling the curvature split
    assert abs(report.gap) == pytest.approx(3 - 2 * np.sqrt(2), abs=1e-8)
    assert abs(report.gap) >= 0.02


def test_max_gap_search_rejects_negative_refine():
    # It used to return a witness with no refinement.
    with pytest.raises(ValueError,
                       match=r"^refine must be non-negative, got -3\.$"):
        sg.max_gap_search(rl.power_rule(1.5), grid=5, refine=-3)


def test_max_gap_search_deterministic():
    a = sg.max_gap_search(rl.power_rule(1.7), grid=31, refine=15)
    b = sg.max_gap_search(rl.power_rule(1.7), grid=31, refine=15)
    assert a.scenario.p1 == b.scenario.p1
    assert a.gap == b.gap


def test_gap_surface_shapes_and_values():
    axis, prob_1, prob_2, gaps = sg.gap_surface(rl.identity_rule(), grid=11)
    assert axis.shape == (11,)
    assert prob_1.shape == prob_2.shape == gaps.shape == (11, 11, 11)
    assert np.max(np.abs(gaps)) <= 1e-15
    with pytest.raises(ValueError):
        sg.gap_surface(rl.identity_rule(), grid=2)


# ---------------------------------------------------------------------------
# affinity_certificate
# ---------------------------------------------------------------------------

def test_affinity_certificate_identity_passes():
    cert = sg.affinity_certificate(rl.identity_rule(), samples=300,
                                   tol=1e-10, seed=5)
    assert cert.passed
    assert cert.max_abs_gap <= 1e-10
    assert cert.worst is not None


def test_affinity_certificate_power_rule_fails_with_large_witness():
    cert = sg.affinity_certificate(rl.power_rule(1.5), samples=300,
                                   tol=1e-3, seed=5)
    assert not cert.passed
    assert cert.max_abs_gap >= 0.1
    assert abs(cert.worst.gap) == cert.max_abs_gap


def test_affinity_certificate_piecewise_fails():
    cert = sg.affinity_certificate(rl.piecewise_quadratic_rule(), samples=300,
                                   tol=1e-3, seed=5)
    assert not cert.passed


def test_certificate_seeds_its_scenarios_without_default_rng(monkeypatch):
    # Every draw, the samples' and their scenarios' residual directions, is
    # a counter-based word; no numpy generator is made.
    calls = []
    real = np.random.default_rng

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", counting)
    cert = sg.affinity_certificate(rl.identity_rule(), samples=600, seed=3)
    assert cert.passed
    assert calls == []


@pytest.mark.parametrize("tol", [0.0, -1e-10, float("nan"), float("inf")])
def test_affinity_certificate_rejects_bad_tolerance(tol):
    with pytest.raises(ValueError):
        sg.affinity_certificate(rl.identity_rule(), samples=5, tol=tol)


def test_affinity_certificate_serializes():
    cert = sg.affinity_certificate(rl.identity_rule(), samples=20,
                                   tol=1e-10, seed=5)
    data = cert.to_dict()
    assert data["passed"] is True
    assert data["samples"] == 20


# ---------------------------------------------------------------------------
# statistical detectability
# ---------------------------------------------------------------------------

def test_simulate_runs_within_three_sigma():
    report = sg.run_scenario(sg.Scenario(rl.power_rule(1.5), PHI, 1.0, 0.0, 0.5,
                                         mode=sg.STEERED_UNIFORM))
    stats = sg.simulate_runs(report, runs=10_000, seed=2)
    assert abs(stats.z_score) <= 3.0
    assert stats.sigma == pytest.approx(
        np.sqrt(report.prob_1 * (1 - report.prob_1) / 10_000
                + report.prob_2 * (1 - report.prob_2) / 10_000), abs=1e-15)


def test_simulate_runs_deterministic_and_serializable():
    report = sg.run_scenario(sg.Scenario(rl.power_rule(1.5), PHI, 1.0, 0.0, 0.5))
    a = sg.simulate_runs(report, runs=1000, seed=9)
    b = sg.simulate_runs(report, runs=1000, seed=9)
    assert a.successes_1 == b.successes_1
    assert a.to_dict()["runs"] == 1000
    for runs in (0, -5):
        with pytest.raises(ValueError, match=f"runs must be at least 1, got {runs}"):
            sg.simulate_runs(report, runs=runs)


@pytest.mark.parametrize("prob_1", [1 + 2**-52, 1.0], ids=["above-1", "at-1"])
def test_simulate_runs_at_certain_outcomes(prob_1):
    # Both members are phi, so P1 is 1. At this lambda, overlaps from
    # pairings of projectors once gave 1 + 2**-52; the steered rows give 1.
    # A P1 rounded to just above 1 is sampled as 1, and sigma is 0.
    report = sg.run_scenario(sg.Scenario(rl.identity_rule(), PHI, 1.0, 1.0,
                                         0.395557273104876))
    assert (report.prob_1, report.prob_2) == (1.0, 1.0)
    report = replace(report, prob_1=prob_1)
    stats = sg.simulate_runs(report, runs=100, seed=1)
    assert (stats.successes_1, stats.successes_2) == (100, 100)
    assert stats.sigma == 0.0 and stats.z_score == 0.0
    assert stats.gap_true == report.gap  # the report's own value
    assert stats.to_dict()["z_score"] == 0.0


def test_simulate_runs_gap_grows_detectable():
    # With the ~0.146 gap, 10k runs put the z statistic of "no gap" far out.
    report = sg.run_scenario(sg.Scenario(rl.power_rule(1.5), PHI, 1.0, 0.0, 0.5))
    stats = sg.simulate_runs(report, runs=10_000, seed=3)
    assert stats.gap_estimate / stats.sigma > 10


# ---------------------------------------------------------------------------
# reference table
# ---------------------------------------------------------------------------

def test_reference_table_rows_pass():
    rows = sg.reference_table()
    names = [r.name for r in rows]
    assert names == ["example1.P1", "example1.P2", "example1.gap",
                     "example2.symmetric.gap", "example2.asymmetric.gap"]
    for row in rows:
        assert row.passed, f"{row.name}: {row.value} vs {row.expected}"


def test_reference_table_regression_tolerance():
    rows = sg.reference_table(tol=1e-9)
    for row in rows:
        assert row.tolerance == 1e-9
        assert row.passed


def test_reference_table_values():
    rows = {r.name: r for r in sg.reference_table()}
    assert rows["example1.P1"].value == 0.5
    assert rows["example1.P2"].value == pytest.approx(0.353553, abs=1e-6)
    assert rows["example1.gap"].value == pytest.approx(0.146447, abs=1e-6)
    assert rows["example2.symmetric.gap"].value == pytest.approx(0.0, abs=1e-12)
    assert rows["example2.asymmetric.gap"].value == pytest.approx(0.02, abs=1e-9)


@pytest.mark.parametrize("tol", [-1e-9, float("nan"), float("inf")])
def test_reference_table_rejects_bad_tolerance(tol):
    with pytest.raises(ValueError):
        sg.reference_table(tol=tol)


@pytest.mark.parametrize("p1, p2, lam", [(0.2, 0.7, 0.3), (0.9, 0.1, 0.6),
                                         (0.5, 0.5, 0.5)])
def test_uniform_overlap_decomposition_is_the_steered_uniform_target(p1, p2, lam):
    ket = np.array([0.6, 0.8j])
    phi = gm.ket_state(QUBIT, ket)
    report = sg.run_scenario(sg.Scenario(rl.identity_rule(), phi, p1, p2, lam,
                                         mode=sg.STEERED_UNIFORM, seed=3))
    omega = gm.mix(report.ensemble_1)
    ens = sg.uniform_overlap_decomposition(omega, phi)
    overlap = gm.evaluate(tr.accept_effect(phi), omega)
    assert len(ens) == 2 and np.all(ens.weights == 0.5)
    for member in ens.states:
        assert abs(tr.tau(member, phi) - overlap) <= 1e-12
    assert abs(gm.mix(ens).matrix - omega.matrix).max() <= 1e-12
    steered = report.ensemble_2.states
    assert len(steered) == 2
    for member, target in zip(steered, ens.states):
        assert abs(member.matrix - target.matrix).max() <= 1e-12


def test_uniform_overlap_decomposition_rejects_rank_three():
    qutrit = gm.quantum(3)
    omega = gm.state_from_matrix(qutrit, np.eye(3) / 3)
    with pytest.raises(ValueError, match=r"^omega has rank 3; "):
        sg.uniform_overlap_decomposition(omega, gm.point_state(qutrit, 0))


@pytest.mark.parametrize("mode", [sg.TRIVIAL_AVERAGE, sg.STEERED_UNIFORM])
def test_rule_is_not_evaluated_on_empty_slots(mode):
    # An empty slot reads overlap 0, where this rule is NaN; every member
    # has overlap at least 0.1, so only an evaluation there yields NaN.
    rule = rl.ProbabilityRule("custom", {},
                              lambda p: np.where(p < 0.05, np.nan, p))
    report = sg.run_scenario(sg.Scenario(rule, PHI, 0.1, 0.2, 0.5, mode=mode))
    assert report.prob_1 == pytest.approx(0.15, abs=1e-12)
    assert report.prob_2 == pytest.approx(0.15, abs=1e-12)
