import contextlib
import io
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gptsim import models as gm
from gptsim import steering as ss
from gptsim.cli import main
from gptsim.errors import (
    ContractError,
    MarginalMismatchError,
    ModelMismatchError,
    NotPureError,
    RankDeficitError,
    UnsupportedModelError,
)

QUBIT = gm.quantum(2)
KET0 = gm.point_state(QUBIT, 0)
KET1 = gm.point_state(QUBIT, 1)
PLUS = gm.ket_state(QUBIT, np.array([1, 1]) / np.sqrt(2))
MINUS = gm.ket_state(QUBIT, np.array([1, -1]) / np.sqrt(2))

BELL = gm.bipartite_from_ket(QUBIT, QUBIT,
                             np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2))

Z_BASIS = gm.measurement([gm.projector_effect(KET0), gm.projector_effect(KET1)])
X_BASIS = gm.measurement([gm.projector_effect(PLUS), gm.projector_effect(MINUS)])
TRIVIAL = gm.measurement([gm.unit_effect(QUBIT)])
MIXED = gm.state_from_matrix(QUBIT, np.eye(2) / 2)


def random_mixed(rng, model=QUBIT):
    g = rng.normal(size=(model.size, model.size)) + \
        1j * rng.normal(size=(model.size, model.size))
    rho = g @ g.conj().T
    return gm.state_from_matrix(model, rho / np.trace(rho).real)


def random_pure(rng, model=QUBIT):
    ket = rng.normal(size=model.size) + 1j * rng.normal(size=model.size)
    return gm.ket_state(model, ket / np.linalg.norm(ket))


def haar_unitary(rng, n):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / abs(np.diag(r)))


def random_decomposition(omega, members, rng):
    """Random pure decomposition of omega with the given member count,
    generated by steering a purification with a Haar-random projective
    measurement (the independent route used to cross-check synthesis).
    Half the purifications get a Haar-random unitary on side A, so that
    their A basis is not their Schmidt basis."""
    psi = ss.purify(omega, purifier_dim=members)
    if rng.integers(2):
        psi = gm.bipartite_from_ket(psi.model_a, psi.model_b, (
            haar_unitary(rng, members) @ psi.joint_matrix).reshape(-1))
    q = haar_unitary(rng, members)
    basis = gm.measurement([
        gm.effect_from_matrix(psi.model_a, np.outer(q[:, k], q[:, k].conj()))
        for k in range(members)])
    return psi, ss.steer(psi, basis)


# ---------------------------------------------------------------------------
# purify
# ---------------------------------------------------------------------------

def test_purify_maximally_mixed_is_bell_like():
    psi = ss.purify(MIXED)
    schmidt = np.linalg.svd(psi.joint_matrix, compute_uv=False)
    np.testing.assert_allclose(schmidt, [1 / np.sqrt(2)] * 2, atol=1e-12)
    red = gm.marginal(psi, "B")
    assert np.max(np.abs(red.matrix - np.eye(2) / 2)) <= 1e-12


def test_purify_pure_state_is_product():
    psi = ss.purify(PLUS)
    schmidt = np.linalg.svd(psi.joint_matrix, compute_uv=False)
    assert schmidt[0] == pytest.approx(1.0, abs=1e-12)
    assert np.all(schmidt[1:] <= 1e-12)
    assert np.max(np.abs(gm.marginal(psi, "B").matrix - PLUS.matrix)) <= 1e-12


def test_purify_diagonal_spectrum():
    omega = gm.state_from_matrix(QUBIT, np.diag([0.3, 0.7]))
    psi = ss.purify(omega)
    schmidt = np.sort(np.linalg.svd(psi.joint_matrix, compute_uv=False))
    np.testing.assert_allclose(schmidt, [np.sqrt(0.3), np.sqrt(0.7)], atol=1e-12)
    assert np.max(np.abs(gm.marginal(psi, "B").matrix - omega.matrix)) <= 1e-10


def test_purify_marginal_roundtrip_random():
    rng = np.random.default_rng(0)
    for model in (QUBIT, gm.quantum(3)):
        for _ in range(30):
            omega = random_mixed(rng, model)
            psi = ss.purify(omega)
            back = gm.marginal(psi, "B")
            assert np.max(np.abs(back.matrix - omega.matrix)) <= 1e-10


def test_purify_requested_dimension():
    psi = ss.purify(MIXED, purifier_dim=3)
    assert psi.model_a.size == 3
    assert np.max(np.abs(gm.marginal(psi, "B").matrix - np.eye(2) / 2)) <= 1e-12
    with pytest.raises(ValueError):
        ss.purify(MIXED, purifier_dim=1)


def test_purify_rejects_classical():
    with pytest.raises(UnsupportedModelError):
        ss.purify(gm.validate_state(gm.classical(2), np.array([0.3, 0.7])))


def test_synthesize_rejects_classical():
    two = gm.classical(2)
    psi = gm.product_point(two, two, 0, 1)
    target = gm.ensemble([(1.0, gm.point_state(two, 1))])
    with pytest.raises(UnsupportedModelError):
        ss.synthesize_steering_measurement(psi, target)


def test_purify_deterministic():
    rng = np.random.default_rng(1)
    omega = random_mixed(rng)
    a = ss.purify(omega)
    b = ss.purify(omega)
    assert np.array_equal(a.amplitudes, b.amplitudes)


# ---------------------------------------------------------------------------
# steer
# ---------------------------------------------------------------------------

def test_steer_bell_with_z_basis():
    ens = ss.steer(BELL, Z_BASIS)
    np.testing.assert_allclose(ens.weights, [0.5, 0.5], atol=1e-15)
    assert np.max(np.abs(ens.states[0].matrix - KET0.matrix)) <= 1e-12
    assert np.max(np.abs(ens.states[1].matrix - KET1.matrix)) <= 1e-12
    assert all(s.pure for s in ens.states)


def test_steer_bell_with_x_basis():
    ens = ss.steer(BELL, X_BASIS)
    np.testing.assert_allclose(ens.weights, [0.5, 0.5], atol=1e-15)
    assert np.max(np.abs(ens.states[0].matrix - PLUS.matrix)) <= 1e-12
    assert np.max(np.abs(ens.states[1].matrix - MINUS.matrix)) <= 1e-12


def test_steer_trivial_measurement_returns_marginal():
    ens = ss.steer(BELL, TRIVIAL)
    assert len(ens) == 1
    assert ens.weights[0] == 1.0
    assert not ens.states[0].pure
    assert np.max(np.abs(ens.states[0].matrix - np.eye(2) / 2)) <= 1e-12


def test_steer_preserves_marginal_for_any_measurement():
    rng = np.random.default_rng(2)
    for _ in range(50):
        omega = random_mixed(rng)
        psi = ss.purify(omega, purifier_dim=2)
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, _ = np.linalg.qr(g)
        basis = gm.measurement([
            gm.effect_from_matrix(QUBIT, np.outer(q[:, k], q[:, k].conj()))
            for k in range(2)])
        avg = gm.mix(ss.steer(psi, basis))
        assert np.max(np.abs(avg.coeffs - omega.coeffs)) <= 1e-10


def test_steer_rank1_measurements_give_pure_members():
    rng = np.random.default_rng(3)
    psi = ss.purify(random_mixed(rng), purifier_dim=2)
    ens = ss.steer(psi, X_BASIS)
    assert all(s.pure for s in ens.states)


def test_steer_rejects_wrong_side_model():
    psi = ss.purify(MIXED, purifier_dim=3)
    with pytest.raises(ModelMismatchError):
        ss.steer(psi, Z_BASIS)  # qubit measurement, qutrit purifier


def test_steer_classical_product_point():
    two = gm.classical(2)
    psi = gm.product_point(two, two, 0, 1)
    coin = gm.measurement([
        gm.effect_from_covector(two, np.array([0.5, 0.5])),
        gm.effect_from_covector(two, np.array([0.5, 0.5]))])
    ens = ss.steer(psi, coin)
    np.testing.assert_allclose(ens.weights, [0.5, 0.5], atol=1e-15)
    for s in ens.states:
        assert s.coeffs.tolist() == [0.0, 1.0]


@settings(max_examples=40, deadline=None)
@given(d=st.sampled_from([2, 3, 4]), decades=st.floats(7.0, 12.0),
       small=st.integers(1, 3),
       angle=st.one_of(st.just(0.0), st.floats(1e-6, 0.4)),
       seed=st.integers(0, 2**32 - 1))
def test_steer_accepts_near_product_joints(d, decades, small, angle, seed):
    # Squared Schmidt values 1 - k e and e (k of them), e down to 1e-12,
    # in Haar local bases, measured in A's Schmidt basis or in that basis
    # rotated by a unitary exp(i angle H): every kept conditional passes
    # the state check, through steer and through `gptsim steer`.
    rng = np.random.default_rng(seed)
    model, e = gm.quantum(d), 10.0 ** -decades
    weights = np.zeros(d)
    weights[1:1 + small] = e
    weights[0] = 1.0 - weights.sum()
    a_side, b_side = haar_unitary(rng, d), haar_unitary(rng, d)
    joint = a_side @ np.diag(np.sqrt(weights)) @ b_side.T
    psi = gm.bipartite_from_ket(model, model, joint.reshape(-1)
                                / np.linalg.norm(joint))
    h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    eigvals, eigvecs = np.linalg.eigh(h + h.conj().T)
    basis = a_side @ (eigvecs * np.exp(1j * angle * eigvals
                                       / abs(eigvals).max())) @ eigvecs.conj().T
    alice = gm.measurement([gm.effect_from_matrix(
        model, np.outer(basis[:, k], basis[:, k].conj())) for k in range(d)])
    ens = ss.steer(psi, alice)
    assert abs(ens.weights.sum() - 1.0) <= gm.LINEAR_TOL
    for state in ens.states:
        gm.state_from_matrix(model, state.matrix)

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["steer", "--bipartite", json.dumps(psi.to_dict()),
                     "--alice", json.dumps(alice.to_dict()), "--format",
                     "json"])
    assert code == 0
    members = json.loads(out.getvalue())["ensemble"]["members"]
    assert len(members) == len(ens)


# ---------------------------------------------------------------------------
# synthesize_steering_measurement
# ---------------------------------------------------------------------------

def test_synthesize_computational_target_gives_z_basis():
    target = gm.ensemble([(0.5, KET0), (0.5, KET1)])
    result = ss.synthesize_steering_measurement(BELL, target)
    mats = [e.matrix for e in result.measurement.effects]
    assert np.max(np.abs(mats[0] - KET0.matrix)) <= 1e-12
    assert np.max(np.abs(mats[1] - KET1.matrix)) <= 1e-12


def test_synthesize_plus_minus_target_gives_x_basis():
    target = gm.ensemble([(0.5, PLUS), (0.5, MINUS)])
    result = ss.synthesize_steering_measurement(BELL, target)
    mats = [e.matrix for e in result.measurement.effects]
    assert np.max(np.abs(mats[0] - PLUS.matrix)) <= 1e-10
    assert np.max(np.abs(mats[1] - MINUS.matrix)) <= 1e-10


def test_synthesize_steer_roundtrip_random_decompositions():
    rng = np.random.default_rng(4)
    for _ in range(50):
        omega = random_mixed(rng)
        members = int(rng.integers(2, 4))
        psi, target = random_decomposition(omega, members, rng)
        result = ss.synthesize_steering_measurement(psi, target)
        steered = ss.steer(psi, result.measurement)
        assert np.array_equal(result.ensemble.weights, steered.weights)
        for got, want in zip(result.ensemble.states, steered.states, strict=True):
            assert np.array_equal(got.matrix, want.matrix)
        assert len(steered) == len(target)
        np.testing.assert_allclose(steered.weights, target.weights, atol=1e-9)
        for got, want in zip(steered.states, target.states):
            assert np.max(np.abs(got.matrix - want.matrix)) <= 1e-9


def test_synthesize_completeness_and_deficit_annihilation():
    rng = np.random.default_rng(5)
    omega = random_mixed(rng)
    psi = ss.purify(omega, purifier_dim=3)  # rank 2 support in a 3-dim purifier
    # Build a valid decomposition by steering, then re-synthesize it.
    g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    q, _ = np.linalg.qr(g)
    probe = gm.measurement([
        gm.effect_from_matrix(psi.model_a, np.outer(q[:, k], q[:, k].conj()))
        for k in range(3)])
    target = ss.steer(psi, probe)
    effects = ss.synthesize_steering_measurement(psi, target).measurement.effects
    total = np.sum([e.covector for e in effects], axis=0)
    assert np.max(np.abs(total - psi.model_a.unit_covector)) <= 1e-10
    assert len(effects) == len(target) + 1
    rho_a = gm.marginal(psi, "A").matrix
    assert np.max(np.abs(effects[-1].matrix @ rho_a)) <= 1e-12


def test_synthesize_cuts_the_rank_where_purify_does():
    # A squared Schmidt value at or below RANK_TOL is zero for synthesis as
    # for purify: the target's effect and the deficit effect complete the
    # measurement, and the deficit outcome, of weight eps, is a zero too.
    eps = 5e-13
    assert eps <= ss.RANK_TOL
    psi = gm.bipartite_from_ket(
        QUBIT, QUBIT, np.array([np.sqrt(1 - eps), 0, 0, np.sqrt(eps)]))
    result = ss.synthesize_steering_measurement(psi, gm.ensemble([(1.0, KET0)]))
    effects = [e.matrix for e in result.measurement.effects]
    assert len(effects) == 2
    assert np.max(np.abs(effects[0] - KET0.matrix)) <= 1e-12
    assert np.max(np.abs(effects[1] - KET1.matrix)) <= 1e-12
    np.testing.assert_array_equal(result.ensemble.weights, [1.0])
    (member,) = result.ensemble.states
    assert np.max(np.abs(member.matrix - KET0.matrix)) <= 1e-12


def test_synthesize_deficit_is_the_complement_of_the_support():
    # The purifier exceeds the rank: the members' effects sum to the
    # Schmidt-support projector, and the deficit effect completes them.
    psi = ss.purify(MIXED, purifier_dim=3)
    eigvals, eigvecs = np.linalg.eigh(gm.marginal(psi, "A").matrix)
    span = eigvecs[:, eigvals > 1e-12]
    complement = np.eye(3) - span @ span.conj().T
    for target in (gm.ensemble([(0.5, KET0), (0.5, KET1)]),
                   gm.ensemble([(0.5, PLUS), (0.5, MINUS)])):
        effects = ss.synthesize_steering_measurement(
            psi, target).measurement.effects
        assert len(effects) == 3
        total = np.sum([e.covector for e in effects], axis=0)
        assert np.max(np.abs(total - psi.model_a.unit_covector)) <= gm.LINEAR_TOL
        assert np.max(np.abs(effects[-1].matrix - complement)) <= gm.LINEAR_TOL


def test_synthesize_rejects_marginal_mismatch():
    target = gm.ensemble([(0.5, KET0), (0.5, PLUS)])  # averages off I/2
    with pytest.raises(MarginalMismatchError):
        ss.synthesize_steering_measurement(BELL, target)


@pytest.mark.parametrize("target", [
    gm.ensemble([(1 / 3, gm.point_state(gm.quantum(3), k)) for k in range(3)]),
    gm.ensemble([(0.5, gm.point_state(gm.classical(2), k)) for k in range(2)]),
])
def test_synthesize_rejects_a_target_on_another_model(target):
    with pytest.raises(ModelMismatchError, match="^" + re.escape(
            f"Target lives on {target.states[0].model}, not on side B's "
            f"{QUBIT}.") + "$"):
        ss.synthesize_steering_measurement(BELL, target)


def test_synthesize_rank_deficit_instructs_repurification():
    # Trine: Bloch vectors at 120 degrees in the x-z plane average to zero.
    t1 = gm.ket_state(QUBIT, np.array([0.5, np.sqrt(3) / 2]))
    t2 = gm.ket_state(QUBIT, np.array([0.5, -np.sqrt(3) / 2]))
    trine = gm.ensemble([(1 / 3, KET0), (1 / 3, t1), (1 / 3, t2)])
    mixed_check = gm.mix(trine)
    assert np.max(np.abs(mixed_check.matrix - np.eye(2) / 2)) <= 1e-12
    with pytest.raises(RankDeficitError) as info:
        ss.synthesize_steering_measurement(BELL, trine)
    assert info.value.required_dimension == 3

    bigger = ss.purify(MIXED, purifier_dim=3)
    result = ss.synthesize_steering_measurement(bigger, trine)
    steered = ss.steer(bigger, result.measurement)
    np.testing.assert_allclose(steered.weights, trine.weights, atol=1e-9)
    for got, want in zip(steered.states, trine.states):
        assert np.max(np.abs(got.matrix - want.matrix)) <= 1e-9


# ---------------------------------------------------------------------------
# no-signaling residual
# ---------------------------------------------------------------------------

def test_z_vs_x_marginals_agree_on_bell():
    assert ss.marginal_residual(ss.steer(BELL, Z_BASIS),
                                ss.steer(BELL, X_BASIS)) <= 1e-15


def test_same_measurement_twice_zero_residual():
    steered = ss.steer(BELL, Z_BASIS)
    assert ss.marginal_residual(steered, steered) == 0.0


def test_no_signaling_random_pairs():
    rng = np.random.default_rng(6)
    for d in (2, 3, 4):
        model = gm.quantum(d)
        for _ in range(100):
            psi = ss.purify(random_mixed(rng, model), purifier_dim=d)
            steered = []
            for _ in range(2):
                g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
                q, _ = np.linalg.qr(g)
                basis = gm.measurement([
                    gm.effect_from_matrix(psi.model_a,
                                          np.outer(q[:, k], q[:, k].conj()))
                    for k in range(d)])
                steered.append(ss.steer(psi, basis))
            assert ss.marginal_residual(*steered) <= 1e-10


def test_marginal_residual_rejects_mismatched_models():
    # classical(4) states have as many coefficients as qubit states.
    point = gm.point_state(gm.classical(4), 0)
    with pytest.raises(ModelMismatchError):
        ss.marginal_residual(ss.steer(BELL, Z_BASIS),
                             gm.ensemble([(1.0, point)]))


def test_purify_renormalizes_the_weights_kept_at_the_rank_cut():
    # Three eigenvalues at the rank cut drop 3e-12 of the trace. The kept
    # Schmidt weight is renormalized, so the joint is a unit vector, and
    # the marginal still round-trips within 1e-10.
    omega = gm.state_from_matrix(
        gm.quantum(4), np.diag([1 - 3e-12, 1e-12, 1e-12, 1e-12]))
    psi = ss.purify(omega)
    assert psi.model_a == QUBIT  # rank 1, purifier of dimension 2
    assert abs(np.linalg.norm(psi.amplitudes) - 1.0) <= 1e-15
    assert abs(gm.marginal(psi, "B").matrix - omega.matrix).max() <= 1e-10
    matrices = omega.matrix[None]
    joints, schmidt, marginals, _ = ss._purify(*ss._eigh_schmidt(matrices), matrices)
    assert schmidt.rank.tolist() == [1] and schmidt.values[0, 0] == 1.0
    assert np.array_equal(marginals, ss._marginals_b(joints))


EPS = np.finfo(float).eps


# Derandomized: against 200-bit singular values the rotation's err by at
# most 1.5 eps sigma_0 and LAPACK's by 3.5 (12,000 such draws), so the two
# may differ by more than 4 eps sigma_0, though none of those draws did.
@settings(max_examples=100, deadline=None, derandomize=True)
@given(d=st.sampled_from([2, 3, 4]), light=st.floats(-15.0, np.log10(0.5)),
       light_first=st.booleans(),
       delta=st.one_of(st.none(), st.floats(-14.0, 0.0)),
       seed=st.integers(0, 2**32 - 1))
def test_rotation_is_the_svd_of_a_two_column_factor(d, light, light_first,
                                                    delta, seed):
    # A = [sqrt(w1) m1, sqrt(w2) m2], the lighter weight 1e-15 to 0.5,
    # with m2 a Haar ket or m1 moved by 10**delta: the rotation's values
    # are the SVD's within 4 eps sigma_0, V is unitary, A V = U S and the
    # values descend. np.linalg.svd is the reference, here only. A value
    # cut to 0, at most 2**-46 sigma_0, is the SVD's in A V = U S.
    rng = np.random.default_rng(seed)
    kets = rng.normal(size=(2, d)) + 1j * rng.normal(size=(2, d))
    if delta is not None:
        kets[1] = kets[0] / np.linalg.norm(kets[0]) + 10.0 ** delta * kets[1]
    kets /= np.linalg.norm(kets, axis=1, keepdims=True)
    weights = np.array([10.0 ** light, 1.0 - 10.0 ** light])
    if not light_first:
        weights = weights[::-1]
    columns = np.sqrt(weights)[:, None] * kets
    (values,), (left,), (right,) = ss._rotation_schmidt(columns[None])
    scale = EPS * values[0]
    reference = np.linalg.svd(columns.T, compute_uv=False)
    cut = values == 0.0
    kept = np.where(cut, reference, values)
    assert not cut[0] and (reference[cut] <= 2.0 ** -46 * kept[0] + 4 * scale).all()
    assert abs(kept - reference).max() <= 4 * scale
    # The rows of left and right are U's and V's columns.
    assert abs(right.conj() @ right.T - np.eye(2)).max() <= 1e-15
    assert abs(columns.T @ right.T - left.T * kept).max() <= 4 * scale
    assert values[0] >= values[1]


def test_purification_round_trip_fires_on_a_non_hermitian_stack():
    # eigh reads the lower triangle, so the Schmidt form misses the upper one,
    # which does not round-trip.
    stack = np.array([[[0.5, 0.3], [0.0, 0.5]]], dtype=complex)
    with pytest.raises(ContractError,
                       match=r"^Purification marginal residual 0\.3"):
        ss._purify(*ss._eigh_schmidt(stack), stack)


def test_purification_round_trip_fails_on_a_nan():
    # A NaN eigenvalue leaves a NaN in the marginal, and a NaN residual is
    # not within the tolerance.
    stack = np.array([[[0.5, 0.0], [0.0, np.nan]]], dtype=complex)
    with pytest.raises(ContractError,
                       match=r"^Purification marginal residual nan\.$"):
        ss._purify(*ss._eigh_schmidt(stack), stack)


def test_synthesize_rejects_a_member_outside_the_support():
    # The product joint |00> has B marginal |0><0|. The target averages
    # within 1e-10 of it, but its member |1> of weight 1e-10 lies outside
    # that support, 1e-5 from it, beyond the support check's 1e-8.
    psi = gm.bipartite_from_ket(QUBIT, QUBIT, np.array([1, 0, 0, 0]))
    target = gm.ensemble([(1 - 1e-10, KET0), (1e-10, KET1)])
    with pytest.raises(MarginalMismatchError, match="^Target member leaves "
                                                    "the support of the B "
                                                    "marginal\\.$"):
        ss.synthesize_steering_measurement(psi, target)


def test_synthesize_rejects_a_mixed_target_member():
    target = gm.ensemble_from_dict({"members": [
        {"weight": 1.0, "state": MIXED.to_dict()}]})
    with pytest.raises(NotPureError, match="^Steering targets must "
                                           "decompose into pure states\\.$"):
        ss.synthesize_steering_measurement(BELL, target)


def test_synthesize_checks_purity_before_the_marginal():
    # A mixed target off the B marginal is rejected as mixed.
    target = gm.ensemble([(1.0, gm.state_from_matrix(
        QUBIT, np.diag([0.75, 0.25])))], require_pure=False)
    with pytest.raises(NotPureError, match="^Steering targets must "):
        ss.synthesize_steering_measurement(BELL, target)


def test_steered_conditional_check_fires_on_swapped_effects():
    target = gm.ensemble([(0.5, KET0), (0.5, KET1)])
    synthesized = ss.synthesize_steering_measurement(BELL, target)
    effects = np.stack([e.matrix for e in synthesized.measurement.effects])
    live = np.ones((1, 2), dtype=bool)
    steered = ss._steer_effects(BELL, effects[::-1])
    members = np.stack([KET0.matrix, KET1.matrix])[None]
    with pytest.raises(ContractError,
                       match=r"^Steered conditional 0 deviates by 0\.5\.$"):
        ss._check_targets(steered.subs, target.weights[None], members, live)


def test_steered_conditional_check_fails_on_a_nan():
    target = gm.ensemble([(0.5, KET0), (0.5, KET1)])
    synthesized = ss.synthesize_steering_measurement(BELL, target)
    effects = np.stack([e.matrix for e in synthesized.measurement.effects])
    subs = ss._steer_effects(BELL, effects).subs.copy()
    subs[0, 0, 0, 0] = np.nan
    members = np.stack([KET0.matrix, KET1.matrix])[None]
    with pytest.raises(ContractError,
                       match=r"^Steered conditional 0 deviates by nan\.$"):
        ss._check_targets(subs, target.weights[None], members,
                          np.ones((1, 2), dtype=bool))


def test_synthesize_accepts_a_joint_at_the_norm_tolerance_with_a_deficit():
    # The squared norm of this joint is 1 + 1.8e-12; its deficit effect
    # (rank 1 in a qubit purifier) overlaps its A marginal by exactly 0.
    psi = gm.bipartite_from_ket(QUBIT, QUBIT,
                                np.array([1 + 0.9e-12, 0, 0, 0]))
    result = ss.synthesize_steering_measurement(psi, gm.ensemble([(1.0, KET0)]))
    assert len(result.measurement) == 2
    np.testing.assert_array_equal(result.ensemble.weights, [1.0])
