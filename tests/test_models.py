import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gptsim import models as gm
from gptsim.errors import (
    EmptyEnsembleError,
    ModelMismatchError,
    NotNormalizedError,
    NotPureError,
    OutsideConeError,
    UnsupportedModelError,
)

QUBIT = gm.quantum(2)
QUTRIT = gm.quantum(3)
BIT = gm.classical(2)

KET0 = np.array([1, 0], dtype=complex)
KET1 = np.array([0, 1], dtype=complex)
PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)
MINUS = np.array([1, -1], dtype=complex) / np.sqrt(2)


def maximally_mixed(model):
    return gm.state_from_matrix(model, np.eye(model.size) / model.size)


def random_mixed_state(model, rng):
    g = rng.normal(size=(model.size, model.size)) + 1j * rng.normal(size=(model.size, model.size))
    rho = g @ g.conj().T
    return gm.state_from_matrix(model, rho / np.trace(rho).real)


def random_pure_state(model, rng):
    ket = rng.normal(size=model.size) + 1j * rng.normal(size=model.size)
    return gm.ket_state(model, ket / np.linalg.norm(ket))


def random_effect(model, rng):
    vals = rng.uniform(0, 1, size=model.size)
    g = rng.normal(size=(model.size, model.size)) + 1j * rng.normal(size=(model.size, model.size))
    q, _ = np.linalg.qr(g)
    return gm.effect_from_matrix(model, (q * vals) @ q.conj().T)


# ---------------------------------------------------------------------------
# validate_state
# ---------------------------------------------------------------------------

def test_validate_state_maximally_mixed_qubit():
    s = gm.state_from_matrix(QUBIT, np.eye(2) / 2)
    assert not s.pure
    assert abs(gm.evaluate(gm.unit_effect(QUBIT), s) - 1.0) <= 1e-12


def test_validate_state_rejects_negative_eigenvalue():
    with pytest.raises(OutsideConeError):
        gm.state_from_matrix(QUBIT, np.diag([1.2, -0.2]))


@pytest.mark.parametrize("model", [QUBIT, QUTRIT])
def test_states_and_effects_share_the_hermitian_check(model):
    # The skew is the largest entry of |m - m^dagger|, so an imaginary part
    # on the diagonal counts twice, for states and effects alike; a small
    # skew is symmetrized away.
    base = np.eye(model.size, dtype=complex) / model.size
    for imag in (0.4e-9, 0.6e-9):
        m = base.copy()
        m[0, 0] += 1j * imag
        if imag < 0.5e-9:
            assert np.array_equal(gm.state_from_matrix(model, m).matrix, base)
            assert np.array_equal(gm.effect_from_matrix(model, m).matrix, base)
            assert m.flags.writeable  # the caller's array is not frozen
            continue
        with pytest.raises(OutsideConeError, match="^Matrix is not Hermitian"):
            gm.state_from_matrix(model, m)
        with pytest.raises(OutsideConeError, match="^Effect operator is not"):
            gm.effect_from_matrix(model, m)


NAN = float("nan")


@pytest.mark.parametrize("make, error", [
    (lambda: gm.state_from_matrix(QUBIT, np.full((2, 2), NAN)),
     OutsideConeError),
    (lambda: gm.state_from_matrix(QUBIT, np.diag([NAN, 0.5])),
     NotNormalizedError),
    (lambda: gm.state_from_matrix(QUTRIT, np.full((3, 3), NAN)),
     OutsideConeError),
    (lambda: gm.effect_from_matrix(QUBIT, np.full((2, 2), NAN)),
     OutsideConeError),
    (lambda: gm.effect_from_matrix(QUBIT, np.diag([NAN, 0.5])),
     OutsideConeError),
    (lambda: gm.validate_state(QUBIT, np.full(4, NAN)), OutsideConeError),
    (lambda: gm.validate_state(BIT, np.array([NAN, 1.0])), NotNormalizedError),
    (lambda: gm.effect_from_covector(BIT, np.array([NAN, 0.5])),
     OutsideConeError),
    (lambda: gm.ket_state(QUBIT, [NAN, 0]), NotNormalizedError),
    (lambda: gm.bipartite_from_ket(QUBIT, QUBIT, [NAN, 0, 0, 0]),
     NotNormalizedError),
    (lambda: gm.ensemble([(NAN, gm.ket_state(QUBIT, KET0)),
                          (NAN, gm.ket_state(QUBIT, KET1))]), ValueError),
], ids=["state-2", "state-2-diagonal", "state-3", "effect-2",
        "effect-2-diagonal", "validate-quantum", "validate-classical",
        "covector-classical", "ket", "bipartite", "ensemble-weights"])
def test_nan_input_fails_its_check(make, error):
    # Each check fails unless its value is within bounds, so a NaN fails
    # the check that reads it (not a later eigensolver or SVD).
    with pytest.raises(error) as info:
        make()
    assert not isinstance(info.value, np.linalg.LinAlgError)


def test_validate_state_classical_probability_vector():
    s = gm.validate_state(BIT, np.array([0.3, 0.7]))
    assert not s.pure
    assert s.coeffs.tolist() == [0.3, 0.7]


def test_validate_state_rejects_unnormalized():
    with pytest.raises(NotNormalizedError):
        gm.state_from_matrix(QUBIT, np.diag([0.6, 0.6]))
    with pytest.raises(NotNormalizedError):
        gm.validate_state(BIT, np.array([0.3, 0.6]))


def test_validate_state_clips_tolerable_negatives():
    s = gm.state_from_matrix(QUBIT, np.diag([1.0 + 1e-10, -1e-10]))
    assert np.linalg.eigvalsh(s.matrix)[0] >= 0.0
    assert abs(np.trace(s.matrix).real - 1.0) <= 1e-12
    c = gm.validate_state(BIT, np.array([1.0 + 1e-13, -1e-13]))
    assert c.coeffs.min() >= 0.0


def test_validate_state_roundtrip_through_coeffs():
    rng = np.random.default_rng(5)
    for model in (QUBIT, QUTRIT):
        s = random_mixed_state(model, rng)
        again = gm.validate_state(model, s.coeffs)
        assert np.max(np.abs(again.matrix - s.matrix)) <= 1e-12


def test_purity_flags():
    assert gm.ket_state(QUBIT, PLUS).pure
    assert not maximally_mixed(QUBIT).pure
    assert gm.point_state(BIT, 1).pure
    assert not gm.validate_state(BIT, np.array([0.5, 0.5])).pure


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def test_evaluate_unit_effect_is_one():
    rng = np.random.default_rng(7)
    for model in (QUBIT, QUTRIT, BIT, gm.classical(4)):
        u = gm.unit_effect(model)
        s = random_mixed_state(model, rng) if model.kind == "quantum" else \
            gm.validate_state(model, np.full(model.size, 1.0 / model.size))
        assert gm.evaluate(u, s) == pytest.approx(1.0, abs=1e-12)


def test_evaluate_projector_on_plus_state():
    e0 = gm.projector_effect(gm.ket_state(QUBIT, KET0))
    assert gm.evaluate(e0, gm.ket_state(QUBIT, PLUS)) == pytest.approx(0.5, abs=1e-12)
    assert gm.evaluate(e0, gm.ket_state(QUBIT, KET1)) == 0.0


def test_evaluate_rejects_model_mismatch():
    with pytest.raises(ModelMismatchError):
        gm.evaluate(gm.unit_effect(QUBIT), gm.point_state(BIT, 0))
    with pytest.raises(ModelMismatchError):
        gm.evaluate(gm.unit_effect(QUBIT), maximally_mixed(QUTRIT))


def test_evaluate_in_range_random_sweep():
    rng = np.random.default_rng(11)
    for _ in range(200):
        s = random_mixed_state(QUBIT, rng)
        e = random_effect(QUBIT, rng)
        assert 0.0 <= gm.evaluate(e, s) <= 1.0


def test_evaluate_matches_covector_pairing():
    rng = np.random.default_rng(13)
    for _ in range(50):
        s = random_mixed_state(QUTRIT, rng)
        e = random_effect(QUTRIT, rng)
        assert gm.evaluate(e, s) == pytest.approx(
            float(e.covector @ s.coeffs), abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(lam=st.floats(0.0, 1.0), seed=st.integers(0, 2**31 - 1))
def test_evaluate_is_bilinear(lam, seed):
    rng = np.random.default_rng(seed)
    s1 = random_mixed_state(QUBIT, rng)
    s2 = random_mixed_state(QUBIT, rng)
    e = random_effect(QUBIT, rng)
    mixed = gm.state_from_matrix(QUBIT, lam * s1.matrix + (1 - lam) * s2.matrix)
    expected = lam * gm.evaluate(e, s1) + (1 - lam) * gm.evaluate(e, s2)
    assert gm.evaluate(e, mixed) == pytest.approx(expected, abs=1e-12)


# ---------------------------------------------------------------------------
# effects and measurements
# ---------------------------------------------------------------------------

def test_effect_rejects_spectrum_outside_unit_interval():
    with pytest.raises(OutsideConeError):
        gm.effect_from_matrix(QUBIT, np.diag([1.5, 0.0]))
    with pytest.raises(OutsideConeError):
        gm.effect_from_covector(BIT, np.array([1.2, 0.3]))


def test_measurement_completeness_enforced():
    e0 = gm.projector_effect(gm.ket_state(QUBIT, KET0))
    e1 = gm.projector_effect(gm.ket_state(QUBIT, KET1))
    m = gm.measurement([e0, e1])
    assert len(m) == 2
    with pytest.raises(OutsideConeError):
        gm.measurement([e0, e0])


# ---------------------------------------------------------------------------
# ensembles and mixing
# ---------------------------------------------------------------------------

def test_mix_computational_ensemble_gives_maximally_mixed():
    ens = gm.ensemble([(0.5, gm.ket_state(QUBIT, KET0)),
                       (0.5, gm.ket_state(QUBIT, KET1))])
    assert np.max(np.abs(gm.mix(ens).matrix - np.eye(2) / 2)) <= 1e-12


def test_mix_plus_minus_ensemble_gives_same_average():
    ens = gm.ensemble([(0.5, gm.ket_state(QUBIT, PLUS)),
                       (0.5, gm.ket_state(QUBIT, MINUS))])
    assert np.max(np.abs(gm.mix(ens).matrix - np.eye(2) / 2)) <= 1e-12


def test_mix_singleton_is_identity():
    s = gm.ket_state(QUBIT, PLUS)
    ens = gm.ensemble([(1.0, s)])
    assert np.max(np.abs(gm.mix(ens).matrix - s.matrix)) <= 1e-15


def test_mix_classical_averages_the_points():
    trit = gm.classical(3)
    ens = gm.ensemble([(0.25, gm.point_state(trit, 0)),
                       (0.75, gm.point_state(trit, 2))])
    mixed = gm.mix(ens)
    assert mixed.coeffs.tolist() == [0.25, 0.0, 0.75]
    assert mixed.matrix is None and not mixed.pure


def test_ensemble_invariants():
    s = gm.ket_state(QUBIT, KET0)
    with pytest.raises(EmptyEnsembleError):
        gm.ensemble([])
    with pytest.raises(NotNormalizedError):
        gm.ensemble([(0.5, s)])
    with pytest.raises(NotPureError):
        gm.ensemble([(1.0, maximally_mixed(QUBIT))])
    mixed_ok = gm.ensemble([(1.0, maximally_mixed(QUBIT))], require_pure=False)
    assert not any(s.pure for s in mixed_ok.states)


def test_mix_commutes_with_evaluate():
    rng = np.random.default_rng(3)
    for _ in range(50):
        k = rng.integers(2, 5)
        w = rng.dirichlet(np.ones(k))
        states = [random_pure_state(QUBIT, rng) for _ in range(k)]
        ens = gm.ensemble(zip(w, states))
        e = random_effect(QUBIT, rng)
        lhs = gm.evaluate(e, gm.mix(ens))
        rhs = float(np.dot(w, [gm.evaluate(e, s) for s in states]))
        assert lhs == pytest.approx(rhs, abs=1e-12)


# ---------------------------------------------------------------------------
# bipartite states and marginals
# ---------------------------------------------------------------------------

BELL = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)


def test_marginal_of_bell_state_is_maximally_mixed():
    psi = gm.bipartite_from_ket(QUBIT, QUBIT, BELL)
    for side in ("A", "B"):
        red = gm.marginal(psi, side)
        assert np.max(np.abs(red.matrix - np.eye(2) / 2)) <= 1e-12
        assert not red.pure


def test_marginal_of_product_state():
    amps = np.kron(PLUS, KET1)
    psi = gm.bipartite_from_ket(QUBIT, QUBIT, amps)
    a = gm.marginal(psi, "A")
    b = gm.marginal(psi, "B")
    assert np.max(np.abs(a.matrix - gm.ket_state(QUBIT, PLUS).matrix)) <= 1e-12
    assert np.max(np.abs(b.matrix - gm.ket_state(QUBIT, KET1).matrix)) <= 1e-12


def test_marginals_are_normalized_random_sweep():
    rng = np.random.default_rng(17)
    for _ in range(50):
        amps = rng.normal(size=6) + 1j * rng.normal(size=6)
        amps /= np.linalg.norm(amps)
        psi = gm.bipartite_from_ket(QUBIT, QUTRIT, amps)
        for side, model in (("A", QUBIT), ("B", QUTRIT)):
            red = gm.marginal(psi, side)
            assert red.model == model
            assert abs(np.trace(red.matrix).real - 1.0) <= 1e-12


def test_classical_product_point_marginals():
    three = gm.classical(3)
    psi = gm.product_point(BIT, three, 1, 2)
    assert gm.marginal(psi, "A").coeffs.tolist() == [0.0, 1.0]
    assert gm.marginal(psi, "B").coeffs.tolist() == [0.0, 0.0, 1.0]


def test_bipartite_rejects_unnormalized():
    with pytest.raises(NotNormalizedError):
        gm.bipartite_from_ket(QUBIT, QUBIT, np.array([1, 0, 0, 1], dtype=complex))


# ---------------------------------------------------------------------------
# hermitian basis and bloch helpers
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d", [2, 3, 4])
def test_hermitian_basis_is_orthonormal(d):
    basis = gm.quantum(d).hermitian_basis
    gram = np.einsum("aij,bji->ab", basis, basis)
    assert np.max(np.abs(gram - np.eye(d * d))) <= 1e-12
    for b in basis:
        assert np.max(np.abs(b - b.conj().T)) == 0.0


def test_bloch_roundtrip():
    rng = np.random.default_rng(23)
    for _ in range(20):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        v *= rng.uniform(0, 1)
        s = gm.state_from_bloch(QUBIT, v)
        assert np.max(np.abs(gm.bloch_vector(s) - v)) <= 1e-12


def test_pure_ket_roundtrip_and_phase_convention():
    rng = np.random.default_rng(29)
    for _ in range(20):
        s = random_pure_state(QUTRIT, rng)
        ket = gm.pure_ket(s)
        assert np.max(np.abs(np.outer(ket, ket.conj()) - s.matrix)) <= 1e-9
        first = ket[np.argmax(np.abs(ket) > 1e-12)]
        assert abs(first.imag) <= 1e-12 and first.real > 0
    with pytest.raises(NotPureError):
        gm.pure_ket(maximally_mixed(QUBIT))


def test_point_state_and_unsupported_kind_errors():
    assert gm.point_state(QUTRIT, 1).pure
    with pytest.raises(UnsupportedModelError):
        gm.bloch_vector(gm.point_state(BIT, 0))
    with pytest.raises(UnsupportedModelError):
        gm.ket_state(BIT, KET0)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_state_json_roundtrip_bit_exact():
    rng = np.random.default_rng(31)
    for model in (QUBIT, QUTRIT):
        s = random_mixed_state(model, rng)
        blob = json.dumps(s.to_dict(), sort_keys=True)
        back = gm.state_from_dict(json.loads(blob))
        assert json.dumps(back.to_dict(), sort_keys=True) == blob
        assert np.array_equal(back.matrix, s.matrix)
    c = gm.validate_state(BIT, np.array([0.3, 0.7]))
    blob = json.dumps(c.to_dict(), sort_keys=True)
    back = gm.state_from_dict(json.loads(blob))
    assert np.array_equal(back.coeffs, c.coeffs)


def test_effect_json_roundtrip_bit_exact():
    rng = np.random.default_rng(37)
    e = random_effect(QUBIT, rng)
    blob = json.dumps(e.to_dict(), sort_keys=True)
    back = gm.effect_from_dict(json.loads(blob))
    assert json.dumps(back.to_dict(), sort_keys=True) == blob
    assert np.array_equal(back.matrix, e.matrix)


def test_bipartite_json_roundtrip_bit_exact():
    psi = gm.bipartite_from_ket(QUBIT, QUBIT, BELL)
    blob = json.dumps(psi.to_dict(), sort_keys=True)
    back = gm.bipartite_from_dict(json.loads(blob))
    assert json.dumps(back.to_dict(), sort_keys=True) == blob
    assert np.array_equal(back.amplitudes, psi.amplitudes)


def test_measurement_json_roundtrip():
    e0 = gm.projector_effect(gm.ket_state(QUBIT, KET0))
    e1 = gm.projector_effect(gm.ket_state(QUBIT, KET1))
    m = gm.measurement([e0, e1])
    back = gm.measurement_from_dict(json.loads(json.dumps(m.to_dict())))
    assert len(back) == 2
    assert np.array_equal(back.effects[0].matrix, e0.matrix)


def test_model_serialization():
    assert gm.model_from_dict({"kind": "quantum", "d": 2}) == QUBIT
    assert gm.model_from_dict({"kind": "classical", "n": 2}) == BIT
    assert QUBIT.to_dict() == {"kind": "quantum", "d": 2}


# ---------------------------------------------------------------------------
# short-axis reductions: numpy's bits
# ---------------------------------------------------------------------------

SPECIAL = np.array([-0.0, 0.0, np.inf, -np.inf, 1.0, -2.5, 1e-300, 3.0])


def special_stack(rng, rows, k, dtype):
    """A ``(rows, k)`` stack drawn from SPECIAL, complex parts drawn too."""
    x = rng.choice(SPECIAL, size=(rows, k)).astype(dtype)
    if dtype is complex:
        x.imag = rng.choice(SPECIAL, size=(rows, k))
    return x


def bits(x):
    return np.ascontiguousarray(x).view(np.uint8).tobytes()


def negative_zero(x):
    """Which float parts of ``x`` are -0.0: ``(..., parts)``."""
    parts = np.ascontiguousarray(x).view(float).reshape(*x.shape, -1)
    return (parts == 0.0) & np.signbit(parts)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("rows", [1, 3, 1024])
@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("dtype", [float, complex])
def test_total_is_numpys_sum(rows, k, dtype):
    # inf - inf's NaN included. numpy's reduction starts from +0.0, so
    # where both terms of a part are -0.0 it gives +0.0 and the elementwise
    # sum -0.0; adding 0.0 changes no other part.
    x = special_stack(np.random.default_rng(rows * k), rows, k, dtype)
    x[0] = -np.zeros((), dtype)  # -0.0 in every part
    total = gm._total(x)
    if k == 2:
        assert np.array_equal(negative_zero(total),
                              negative_zero(x).all(axis=1))
        total = total + 0.0
    assert bits(total) == bits(x.sum(axis=-1))


@pytest.mark.parametrize("k", [2, 3, 4])
def test_total_counts_booleans(k):
    x = np.random.default_rng(k).random((5, k)) > 0.5
    assert gm._total(x).dtype == x.sum(axis=-1).dtype
    assert np.array_equal(gm._total(x), x.sum(axis=-1))


@pytest.mark.parametrize("rows", [1, 3, 1024])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_largest_is_numpys_max(rows, k):
    x = special_stack(np.random.default_rng(rows + k), rows, k, float)
    stacked = x.reshape(rows, 1, k)  # leading axes kept
    assert bits(gm._largest(x)) == bits(x.max(axis=-1))
    assert bits(gm._largest(stacked)) == bits(stacked.max(axis=-1))
    x[-1, k // 2] = np.nan
    largest = gm._largest(x)
    assert np.isnan(largest[-1]) and not np.isnan(largest[:-1]).any()


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("rows", [1, 3, 1024])
@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("dtype", [float, complex])
def test_trace_is_numpys_trace(rows, d, dtype):
    rng = np.random.default_rng(rows * d)
    m = special_stack(rng, rows, d * d, dtype).reshape(rows, d, d)
    m[0] = -np.zeros((), dtype)
    trace = gm._trace(m)
    if d == 2:  # as for _total
        diagonal = m.real.diagonal(axis1=-2, axis2=-1)
        assert np.array_equal(negative_zero(trace)[..., 0],
                              negative_zero(diagonal)[..., 0].all(axis=-1))
        trace = trace + 0.0
    assert bits(trace) == bits(m.real.trace(axis1=-2, axis2=-1))


# ---------------------------------------------------------------------------
# every input check fires on the input it guards against
# ---------------------------------------------------------------------------

# A state whose least eigenvalue sits just above the clip floor, and effects
# whose spectra sit just inside their tolerance band: paired, they leave
# [0, 1] by more than the pairing tolerance.
def edge_state():
    return gm.state_from_matrix(QUBIT, np.diag([1 + 9e-15, -9e-15]))


CLASSICAL_JOINT = {"model_a": BIT.to_dict(), "model_b": BIT.to_dict(),
                   "amplitudes": [[0.0, 1.0], [0, 0], [0, 0], [0, 0]]}
# classical:2 x classical:3 with 4 amplitudes, peaking where (1, 0) would be
CLASSICAL_2X3 = {"model_a": BIT.to_dict(), "model_b": gm.classical(3).to_dict(),
                 "amplitudes": [[0.0, 0.0]] * 3 + [[1.0, 0.0]]}


@pytest.mark.parametrize("make, error, message", [
    (lambda: gm.SystemModel("qutrit", 3), ValueError,
     "Unknown model kind 'qutrit'."),
    (lambda: gm.quantum(1), ValueError, "Model size must be at least 2."),
    (lambda: BIT.hermitian_basis, UnsupportedModelError,
     "Classical models have no matrix basis."),
    (lambda: gm.model_from_dict({"kind": "qutrit", "d": 3}), ValueError,
     "Unknown model kind 'qutrit'."),
    (lambda: gm.validate_state(QUBIT, [1.0]), ValueError,
     "Expected 4 coefficients, got (1,)."),
    (lambda: gm.validate_state(BIT, [1.5, -0.5]), OutsideConeError,
     "Negative probability -0.5 beyond tolerance."),
    (lambda: gm.state_from_matrix(BIT, np.eye(2)), UnsupportedModelError,
     "Matrix states require a quantum model."),
    (lambda: gm.state_from_matrix(QUBIT, np.eye(3)), ValueError,
     "Expected a 2x2 matrix."),
    (lambda: gm.ket_state(QUBIT, [1, 0, 0]), ValueError,
     "Expected a length-2 vector."),
    (lambda: gm.point_state(QUBIT, 2), ValueError,
     "Index 2 out of range for size 2."),
    (lambda: gm.pure_ket(gm.point_state(BIT, 0)), UnsupportedModelError,
     "Only quantum states have kets."),
    (lambda: gm.effect_from_matrix(BIT, np.eye(2)), UnsupportedModelError,
     "Matrix effects require a quantum model."),
    (lambda: gm.effect_from_matrix(QUBIT, np.eye(3)), ValueError,
     "Expected a 2x2 matrix."),
    (lambda: gm.effect_from_covector(QUBIT, [1.0, 0.0]), ValueError,
     "Expected 4 components, got (2,)."),
    (lambda: gm.projector_effect(gm.point_state(BIT, 0)),
     UnsupportedModelError, "Projector effects require a quantum model."),
    (lambda: gm.projector_effect(maximally_mixed(QUBIT)), NotPureError,
     "Projector effects require a pure state."),
    (lambda: gm.measurement([]), ValueError,
     "A measurement needs at least one effect."),
    (lambda: gm.measurement([gm.unit_effect(QUBIT), gm.unit_effect(BIT)]),
     ModelMismatchError, "Measurement mixes different models."),
    (lambda: gm.evaluate(gm.effect_from_matrix(
        QUBIT, np.diag([-1e-9 + 2e-15, 1.0])), edge_state()),
     OutsideConeError, "Pairing -1.00000700000000"),
    (lambda: gm.evaluate(gm.effect_from_matrix(
        QUBIT, np.diag([1 + 1e-9 - 2e-15, 0.0])), edge_state()),
     OutsideConeError, "Pairing 1.00000000100000"),
    (lambda: gm.ensemble([(0.5, gm.point_state(QUBIT, 0)),
                          (0.5, gm.point_state(BIT, 0))]),
     ModelMismatchError, "Ensemble mixes different models."),
    (lambda: gm.ensemble([(1.5, gm.point_state(QUBIT, 0)),
                          (-0.5, gm.point_state(QUBIT, 1))]),
     ValueError, "Negative ensemble weight -0.5."),
    (lambda: gm.mix(gm.Ensemble(np.zeros(0), ())), EmptyEnsembleError,
     "Cannot mix an empty ensemble."),
    (lambda: gm.bipartite_from_ket(BIT, BIT, [1, 0, 0, 0]),
     UnsupportedModelError, "Amplitude vectors require quantum models."),
    (lambda: gm.bipartite_from_ket(QUBIT, QUBIT, [1, 0]), ValueError,
     "Expected 4 amplitudes."),
    (lambda: gm.product_point(QUBIT, QUBIT, 0, 0), UnsupportedModelError,
     "Product points require classical models."),
    (lambda: gm.product_point(BIT, BIT, 2, 0), ValueError,
     "Point indices out of range."),
    (lambda: gm.bipartite_from_dict(CLASSICAL_JOINT), ValueError,
     "Classical joint states must be real."),
    (lambda: gm.bipartite_from_dict(CLASSICAL_2X3), ValueError,
     "Expected 6 amplitudes."),
    (lambda: gm.bipartite_from_dict({**CLASSICAL_2X3, "amplitudes": [
        [1.0, 0.0]] * 7}), ValueError, "Expected 6 amplitudes."),
    *((lambda amplitudes=amplitudes: gm.bipartite_from_dict(
        {**CLASSICAL_2X3, "amplitudes": [[a, 0.0] for a in amplitudes]}),
       ValueError, "Classical joint states must be one-hot.")
      for amplitudes in ([0.5, 0.5, 0, 0, 0, 0], [0] * 6, [0, 0, 0.9, 0, 0, 0],
                         [1, 0, 0, 0, 0, 1e-300], [1, 0, 0, float("nan"), 0, 0])),
    (lambda: gm.marginal(gm.bipartite_from_ket(QUBIT, QUBIT, BELL), "C"),
     ValueError, "Side must be 'A' or 'B', got 'C'."),
    (lambda: gm.state_from_bloch(QUTRIT, [0, 0, 1]), UnsupportedModelError,
     "Bloch construction is defined for qubits."),
])
def test_input_checks_fire(make, error, message):
    with pytest.raises(error) as info:
        make()
    assert type(info.value) is error
    assert str(info.value).startswith(message)


@pytest.mark.parametrize("parse, data, message", [
    (gm.state_from_dict, {}, "Expected a JSON object with key 'model'."),
    (gm.state_from_dict, [1, 2], "Expected a JSON object with key 'model'."),
    (gm.model_from_dict, {"kind": "quantum"},
     "Expected a JSON object with key 'd'."),
    (gm.model_from_dict, {"kind": "classical", "n": [2]},
     "Key 'n': int() argument *, not 'list'."),
    (gm.state_from_dict, {"model": QUBIT.to_dict(), "coeffs": {"x": 1}},
     "Key 'coeffs': float() argument *, not 'dict'."),
    (gm.effect_from_dict, {"model": QUBIT.to_dict(), "coeffs": [None, {}]},
     "Key 'coeffs': float() argument *, not 'dict'."),
    (gm.state_from_dict,
     {"model": QUBIT.to_dict(), "matrix": [[[1], [0]], [[0], [0]]]},
     "Complex entries must be [re, im] pairs."),
    (gm.effect_from_dict, {"model": QUBIT.to_dict(), "matrix": {}},
     "Key 'matrix': float() argument *, not 'dict'."),
    (gm.measurement_from_dict, {"effects": 5},
     "Key 'effects': 'int' object is not iterable."),
    (gm.measurement_from_dict, {"effects": [[]]},
     "Expected a JSON object with key 'model'."),
    (gm.ensemble_from_dict, {"members": [{"weight": [1], "state": {}}]},
     "Key 'weight': float() argument *, not 'list'."),
    (gm.ensemble_from_dict, {"members": [{"weight": 1}]},
     "Expected a JSON object with key 'state'."),
    (gm.bipartite_from_dict, [], "Expected a JSON object with key 'model_a'."),
    (gm.bipartite_from_dict, {**CLASSICAL_JOINT, "amplitudes": [1, 0, 0, 0]},
     "Complex entries must be [re, im] pairs."),
    (gm.bipartite_from_dict, {**CLASSICAL_JOINT, "amplitudes": []},
     "Complex entries must be [re, im] pairs."),
])
def test_json_of_the_wrong_shape_raises_value_error(parse, data, message):
    with pytest.raises(ValueError) as info:
        parse(data)
    assert type(info.value) is ValueError
    head, _, tail = message.partition("*")  # *: Python's TypeError wording
    assert str(info.value).startswith(head) and str(info.value).endswith(tail)
