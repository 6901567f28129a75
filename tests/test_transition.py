import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gptsim import errors
from gptsim import models as gm
from gptsim import transition as tr
from gptsim.errors import (
    InfeasibleError,
    ModelMismatchError,
    NotPureError,
    UnsupportedModelError,
)

QUBIT = gm.quantum(2)
QUTRIT = gm.quantum(3)
BIT = gm.classical(2)
TRIT = gm.classical(3)

KET0 = gm.point_state(QUBIT, 0)
KET1 = gm.point_state(QUBIT, 1)
PLUS = gm.ket_state(QUBIT, np.array([1, 1]) / np.sqrt(2))
MIXED = gm.state_from_matrix(QUBIT, np.eye(2) / 2)


def random_pure(model, rng):
    ket = rng.normal(size=model.size) + 1j * rng.normal(size=model.size)
    return gm.ket_state(model, ket / np.linalg.norm(ket))


# ---------------------------------------------------------------------------
# tau closed form
# ---------------------------------------------------------------------------

def test_tau_identical_states_is_one():
    assert tr.tau(KET0, KET0) == 1.0


def test_tau_orthogonal_states_is_zero():
    assert tr.tau(KET1, KET0) == 0.0


def test_tau_plus_against_zero_is_half():
    assert tr.tau(PLUS, KET0) == pytest.approx(0.5, abs=1e-15)


def test_tau_matches_squared_inner_product():
    rng = np.random.default_rng(1)
    for model in (QUBIT, QUTRIT):
        for _ in range(100):
            psi, phi = random_pure(model, rng), random_pure(model, rng)
            expected = abs(np.vdot(gm.pure_ket(phi), gm.pure_ket(psi))) ** 2
            assert tr.tau(psi, phi) == pytest.approx(expected, abs=1e-12)


def test_tau_symmetric_for_quantum():
    rng = np.random.default_rng(2)
    for _ in range(100):
        psi, phi = random_pure(QUBIT, rng), random_pure(QUBIT, rng)
        assert tr.tau(psi, phi) == pytest.approx(tr.tau(phi, psi), abs=1e-12)


def test_tau_classical_kronecker_match():
    assert tr.tau(gm.point_state(TRIT, 1), gm.point_state(TRIT, 1)) == 1.0
    assert tr.tau(gm.point_state(TRIT, 2), gm.point_state(TRIT, 1)) == 0.0


def test_tau_rejects_mixed_and_mismatched():
    with pytest.raises(NotPureError):
        tr.tau(MIXED, KET0)
    with pytest.raises(NotPureError):
        tr.tau(KET0, MIXED)
    with pytest.raises(ModelMismatchError):
        tr.tau(KET0, gm.point_state(QUTRIT, 0))


# ---------------------------------------------------------------------------
# distinguishing measurements
# ---------------------------------------------------------------------------

def reject_effect(phi):
    """Complement of phi's accepting effect to the unit effect; building it
    checks that it is a valid effect."""
    model = phi.model
    return gm.effect_from_covector(
        model, model.unit_covector - tr.accept_effect(phi).covector)


def test_distinguishing_pair_computational_basis():
    accept = tr.accept_effect(KET0)
    complement = tr.state_with_tau(QUBIT, KET0, 0.0, 0)
    assert gm.evaluate(accept, KET0) == 1.0
    assert gm.evaluate(accept, complement) == 0.0
    assert np.max(np.abs(complement.matrix - KET1.matrix)) <= 1e-12


def test_distinguishing_pair_rotated_basis():
    accept = tr.accept_effect(PLUS)
    complement = tr.state_with_tau(QUBIT, PLUS, 0.0, 0)
    assert gm.evaluate(accept, PLUS) == pytest.approx(1.0, abs=1e-12)
    assert gm.evaluate(accept, complement) == pytest.approx(0.0, abs=1e-12)
    assert gm.evaluate(reject_effect(PLUS), complement) == pytest.approx(
        1.0, abs=1e-12)


def test_distinguishing_pair_sums_to_one_on_random_states():
    rng = np.random.default_rng(3)
    for model in (QUBIT, QUTRIT):
        phi = random_pure(model, rng)
        accept, reject = tr.accept_effect(phi), reject_effect(phi)
        gm.measurement([accept, reject])  # validates completeness
        for _ in range(500):
            psi = random_pure(model, rng)
            total = gm.evaluate(accept, psi) + gm.evaluate(reject, psi)
            assert total == pytest.approx(1.0, abs=1e-12)


def test_distinguishing_pair_classical():
    phi = gm.point_state(TRIT, 2)
    accept = tr.accept_effect(phi)
    complement = tr.state_with_tau(TRIT, phi, 0.0, 0)
    assert gm.evaluate(accept, phi) == 1.0
    assert gm.evaluate(accept, complement) == 0.0
    assert gm.evaluate(reject_effect(phi), complement) == 1.0
    assert gm.measurement([accept, reject_effect(phi)]) is not None


# ---------------------------------------------------------------------------
# lemma-style invariants
# ---------------------------------------------------------------------------

def test_tau_in_unit_interval_and_reflexive():
    rng = np.random.default_rng(4)
    for _ in range(200):
        psi, phi = random_pure(QUBIT, rng), random_pure(QUBIT, rng)
        value = tr.tau(psi, phi)
        assert 0.0 <= value <= 1.0
        assert tr.tau(phi, phi) == pytest.approx(1.0, abs=1e-12)


def test_tau_complement_normalization():
    rng = np.random.default_rng(5)
    for _ in range(200):
        phi = random_pure(QUBIT, rng)
        complement = tr.state_with_tau(QUBIT, phi, 0.0, 0)
        psi = random_pure(QUBIT, rng)
        assert tr.tau(psi, phi) + tr.tau(psi, complement) == pytest.approx(
            1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# mixed-state overlap: the accepting effect's value on a mixed state
# ---------------------------------------------------------------------------

def mixed_tau(omega, phi):
    return gm.evaluate(tr.accept_effect(phi), omega)


def test_mixed_tau_maximally_mixed():
    assert mixed_tau(MIXED, KET0) == pytest.approx(0.5, abs=1e-12)


def test_mixed_tau_equal_weight_mixture_of_02_04():
    rng = np.random.default_rng(6)
    psi1 = tr.state_with_tau(QUBIT, KET0, 0.2, rng)
    psi2 = tr.state_with_tau(QUBIT, KET0, 0.4, rng)
    omega = gm.mix(gm.ensemble([(0.5, psi1), (0.5, psi2)]))
    assert mixed_tau(omega, KET0) == pytest.approx(0.3, abs=1e-12)


def test_mixed_tau_consistent_with_pure_tau():
    rng = np.random.default_rng(7)
    for _ in range(50):
        psi, phi = random_pure(QUBIT, rng), random_pure(QUBIT, rng)
        assert mixed_tau(psi, phi) == pytest.approx(tr.tau(psi, phi), abs=1e-15)


def test_mixed_tau_is_linear_in_the_state():
    rng = np.random.default_rng(8)
    for _ in range(50):
        phi = random_pure(QUBIT, rng)
        k = int(rng.integers(2, 5))
        w = rng.dirichlet(np.ones(k))
        members = [random_pure(QUBIT, rng) for _ in range(k)]
        omega = gm.mix(gm.ensemble(zip(w, members)))
        expected = float(np.dot(w, [tr.tau(m, phi) for m in members]))
        assert mixed_tau(omega, phi) == pytest.approx(expected, abs=1e-12)


# ---------------------------------------------------------------------------
# state_with_tau
# ---------------------------------------------------------------------------

def test_state_with_tau_endpoints_exact():
    psi1 = tr.state_with_tau(QUBIT, KET0, 1.0, 0)
    assert np.array_equal(psi1.matrix, KET0.matrix)
    psi0 = tr.state_with_tau(QUBIT, KET0, 0.0, 0)
    assert np.max(np.abs(psi0.matrix - KET1.matrix)) <= 1e-15


def test_state_with_tau_roundtrip_thousand_random():
    rng = np.random.default_rng(9)
    for _ in range(1000):
        phi = random_pure(QUBIT, rng)
        p = float(rng.uniform())
        psi = tr.state_with_tau(QUBIT, phi, p, rng)
        assert psi.pure
        assert tr.tau(psi, phi) == pytest.approx(p, abs=1e-12)


def test_state_with_tau_higher_dimension():
    rng = np.random.default_rng(10)
    for _ in range(50):
        phi = random_pure(QUTRIT, rng)
        p = float(rng.uniform())
        psi = tr.state_with_tau(QUTRIT, phi, p, rng)
        assert tr.tau(psi, phi) == pytest.approx(p, abs=1e-12)


def test_state_with_tau_deterministic_for_fixed_seed():
    a = tr.state_with_tau(QUBIT, KET0, 0.3, 7)
    b = tr.state_with_tau(QUBIT, KET0, 0.3, 7)
    assert np.array_equal(a.matrix, b.matrix)
    assert tr.tau(a, KET0) == pytest.approx(0.3, abs=1e-12)


def test_state_with_tau_classical_endpoints_only():
    point = gm.point_state(BIT, 0)
    assert tr.state_with_tau(BIT, point, 1.0, 0) is point
    other = tr.state_with_tau(BIT, point, 0.0, 0)
    assert other.coeffs.tolist() == [0.0, 1.0]
    with pytest.raises(UnsupportedModelError):
        tr.state_with_tau(BIT, point, 0.5, 0)


def test_state_with_tau_rejects_out_of_range():
    with pytest.raises(ValueError):
        tr.state_with_tau(QUBIT, KET0, 1.5, 0)


# ---------------------------------------------------------------------------
# Seeded residual draws of a batch
# ---------------------------------------------------------------------------

EDGE_SEEDS = [0, 1, 2**31 - 1, 2**32 - 1, 2**32, 2**64 + 5, 2**128 + 7, 3**200]


def reference_draws(seeds, size, counts):
    """Each drawing seed's own ``default_rng``, its normals laid out one
    state after another, real parts then imaginary parts."""
    return np.concatenate([
        np.random.default_rng(seed).normal(size=(count, 2, size))
        .transpose(0, 2, 1).copy().view(complex)[..., 0]
        for seed, count in zip(seeds, counts) if count])


def assert_same_draws(seeds, size, counts):
    got = tr._seeded_tau_draws(seeds, size, counts)
    want = reference_draws(seeds, size, counts)
    assert got.shape == (sum(counts), size)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("size", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 256, 257])
def test_seeded_draws_match_each_seeds_default_rng(n, size):
    rng = np.random.default_rng(1000 * n + size)
    seeds = [EDGE_SEEDS[i % len(EDGE_SEEDS)] if i % 3
             else int(rng.integers(2**62)) << int(rng.integers(70))
             for i in range(n)]
    counts = rng.integers(0, 3, size=n).tolist()  # zero-count rows mixed in
    counts[n // 2] = 1 + n % 2
    assert_same_draws(seeds, size, counts)


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(st.tuples(st.integers(0, 2**130 - 1),
                               st.integers(0, 2)), min_size=1, max_size=12),
       size=st.integers(1, 3))
def test_seeded_draws_match_default_rng_property(rows, size):
    seeds, counts = map(list, zip(*rows))
    assume(any(counts))
    assert_same_draws(seeds, size, counts)


POOL_SEEDS = [0, 2**32 - 1, 2**32, 2**64, 2**128, 2**128 + 1]


def assert_same_pools(seeds):
    want = np.array([np.random.SeedSequence(seed).pool for seed in seeds])
    got = tr._seed_pools(seeds)
    assert got.dtype == np.uint32 and got.tobytes() == want.tobytes()


def test_seed_pools_match_numpy_where_the_entropy_grows():
    # the number of entropy words changes at each of these seeds
    assert_same_pools(POOL_SEEDS)
    for seed in POOL_SEEDS:
        assert_same_pools([seed])


@settings(max_examples=200, deadline=None)
@given(seeds=st.lists(st.integers(0, 2**200 - 1), min_size=1, max_size=6))
def test_seed_pools_match_numpy_property(seeds):
    assert_same_pools(seeds)


def test_seeded_draws_see_only_the_seeds_that_draw():
    assert_same_draws([-1, 5, 2**70], 1, [0, 2, 1])


# ---------------------------------------------------------------------------
# LP path
# ---------------------------------------------------------------------------

def test_tau_lp_classical_identical_points():
    report = tr.tau_lp_report(BIT, gm.point_state(BIT, 0), gm.point_state(BIT, 0))
    assert report.value == pytest.approx(1.0, abs=1e-12)


def test_tau_lp_classical_distinguishable_points():
    report = tr.tau_lp_report(BIT, gm.point_state(BIT, 1), gm.point_state(BIT, 0))
    assert report.value == pytest.approx(0.0, abs=1e-12)


def test_tau_lp_classical_larger_model_exact():
    for k in range(3):
        for j in range(3):
            value = tr.tau_lp_report(TRIT, gm.point_state(TRIT, k),
                                     gm.point_state(TRIT, j)).value
            assert value == pytest.approx(1.0 if k == j else 0.0, abs=1e-12)


def test_tau_lp_qubit_grid_close_to_closed_form():
    grid = tr.great_circle_states(KET0, 360, through=PLUS)
    value = tr.tau_lp_report(QUBIT, PLUS, KET0, generators=grid).value
    assert value == pytest.approx(0.5, abs=5e-3)
    assert value >= 0.5 - 1e-9  # outer relaxation never undershoots


def test_tau_lp_grid_refinement_improves():
    rng = np.random.default_rng(11)
    psi, phi = random_pure(QUBIT, rng), random_pure(QUBIT, rng)
    exact = tr.tau(psi, phi)
    errors = []
    for count in (90, 360, 1440):
        grid = tr.great_circle_states(phi, count, through=psi)
        report = tr.tau_lp_report(QUBIT, psi, phi, generators=grid)
        errors.append(abs(report.value - exact))
    assert errors[2] <= errors[1] <= errors[0]
    assert errors[2] <= 1e-3


def test_tau_lp_report_exposes_iterations():
    grid = tr.great_circle_states(KET0, 90, through=PLUS)
    report = tr.tau_lp_report(QUBIT, PLUS, KET0, generators=grid)
    assert report.iterations > 0
    assert report.generators == 90


def test_tau_lp_quantum_requires_generators():
    with pytest.raises(ValueError):
        tr.tau_lp_report(QUBIT, PLUS, KET0)


def test_tau_lp_detects_unbounding_generator_set():
    from gptsim.errors import UnboundedError
    # Grid spans the x-z plane only; a +y state leaves the objective
    # unconstrained along the missing direction.
    grid = tr.great_circle_states(KET0, 90)
    psi_y = gm.ket_state(QUBIT, np.array([1, 1j]) / np.sqrt(2))
    with pytest.raises(UnboundedError):
        tr.tau_lp_report(QUBIT, psi_y, KET0, generators=grid)


LP_PINS = Path(__file__).resolve().parent / "tau_lp_pins.json"
PRESET_KETS = {"0": [1, 0], "1": [0, 1], "+": [1, 1], "-": [1, -1],
               "+i": [1, 1j]}


def test_tau_lp_report_matches_its_pinned_kernel_results():
    # Every case of tau_lp_pins.json: preset pairs as kets, Haar pairs as
    # validated matrices (the CLI's JSON input), on great circles of 3 to
    # 1001 points with and without ``through``. Iteration counts and error
    # classes are pinned exactly, values to 1e-14.
    pins = json.loads(LP_PINS.read_text())
    haar = [np.array([complex(*c) for c in ket]) for ket in pins["haar_kets"]]

    def state(name):
        if name in PRESET_KETS:
            ket = np.array(PRESET_KETS[name], dtype=complex)
            return gm.ket_state(QUBIT, ket / np.linalg.norm(ket))
        ket = haar[int(name.removeprefix("haar"))]
        return gm.state_from_matrix(QUBIT, np.outer(ket, ket.conj()))

    assert len(pins["cases"]) == 372
    for psi_name, phi_name, count, through, pinned in pins["cases"]:
        psi, phi = state(psi_name), state(phi_name)
        grid = tr.great_circle_states(phi, count,
                                      through=psi if through else None)
        case = (psi_name, phi_name, count, through)
        if isinstance(pinned, str):
            with pytest.raises(getattr(errors, pinned)):
                tr.tau_lp_report(QUBIT, psi, phi, generators=grid)
            continue
        report = tr.tau_lp_report(QUBIT, psi, phi, generators=grid)
        assert (report.iterations, report.phase1_iterations) == tuple(
            pinned[1:]), case
        assert abs(report.value - pinned[0]) <= 1e-14, case
        assert report.generators == count


# ---------------------------------------------------------------------------
# great-circle grid helper
# ---------------------------------------------------------------------------

def test_great_circle_first_point_is_phi():
    rows = tr.great_circle_states(PLUS, 12)
    assert rows.shape == (12, 4)
    assert np.max(np.abs(rows[0] - PLUS.coeffs)) <= 1e-12
    # A qubit state is pure iff its coefficient vector has unit length.
    np.testing.assert_allclose(np.sum(rows ** 2, axis=1), 1.0, atol=1e-12)


def test_great_circle_count_must_be_integral():
    # 3.5 points would be 4 angles 2*pi*k/3.5, not equally spaced.
    with pytest.raises(TypeError):
        tr.great_circle_states(PLUS, 3.5)
    assert np.array_equal(tr.great_circle_states(PLUS, np.int64(12)),
                          tr.great_circle_states(PLUS, 12))


def test_great_circle_contains_through_state_plane():
    rng = np.random.default_rng(12)
    psi, phi = random_pure(QUBIT, rng), random_pure(QUBIT, rng)
    rows = tr.great_circle_states(phi, 720, through=psi)
    m = gm.bloch_vector(phi) / np.linalg.norm(gm.bloch_vector(phi))
    t = gm.bloch_vector(psi)
    normal = np.cross(m, t - (t @ m) * m)
    normal /= np.linalg.norm(normal)
    blochs = np.sqrt(2.0) * rows[:, 1:]  # Bloch vector = sqrt(2) * (c1, c2, c3)
    assert np.max(np.abs(blochs @ normal)) <= 1e-9


def test_great_circle_rows_match_validated_states():
    # Reference: the rows are the coefficients of the validated pure states
    # on the circle, built one at a time.
    rng = np.random.default_rng(13)
    for trial in range(40):
        psi, phi = random_pure(QUBIT, rng), random_pure(QUBIT, rng)
        count = int(rng.integers(3, 400))
        through = psi if trial % 4 else None
        m = gm.bloch_vector(phi) / np.linalg.norm(gm.bloch_vector(phi))
        if through is None:
            w = tr._deterministic_orthogonal(m)
        else:
            t = gm.bloch_vector(psi)
            w = (t - (t @ m) * m) / np.linalg.norm(t - (t @ m) * m)
        thetas = 2.0 * np.pi * np.arange(count) / count
        expected = np.stack([
            gm.state_from_bloch(QUBIT, np.cos(a) * m + np.sin(a) * w).coeffs
            for a in thetas])
        assert np.array_equal(
            tr.great_circle_states(phi, count, through=through), expected)


def test_tau_lp_rejects_misshapen_generators():
    rows = tr.great_circle_states(KET0, 30, through=PLUS)
    for bad in (rows[:, :3], rows[0], rows[None]):
        with pytest.raises(ValueError):
            tr.tau_lp_report(QUBIT, PLUS, KET0, generators=bad)


def test_tau_lp_rejects_non_finite_generators():
    # A NaN row is malformed input, not a generator set that fails to bound.
    rows = tr.great_circle_states(KET0, 30, through=PLUS).copy()
    rows[4, 2] = np.nan
    with pytest.raises(ValueError, match="finite"):
        tr.tau_lp_report(QUBIT, PLUS, KET0, generators=rows)


@pytest.mark.parametrize("make, error, message", [
    (lambda: tr.state_with_tau(QUTRIT, KET0, 0.5, 0), ModelMismatchError,
     "phi does not belong to the given model."),
    (lambda: tr.great_circle_states(gm.point_state(QUTRIT, 0), 8),
     UnsupportedModelError, "Great-circle grids are a qubit construction."),
    (lambda: tr.great_circle_states(KET0, 2), ValueError,
     "Need at least 3 grid points."),
    (lambda: tr.tau_lp_report(QUTRIT, PLUS, KET0), ModelMismatchError,
     "States do not belong to the given model."),
    # A generator that the accepting effect must take to 2: with the
    # equalities pinning the whole effect (classical) or through the dual.
    (lambda: tr.tau_lp_report(BIT, gm.point_state(BIT, 1), gm.point_state(BIT, 0),
                              generators=np.array([[2.0, 0.0], [0.0, 1.0]])),
     InfeasibleError, "No effect in the generator polytope attains"),
    (lambda: tr.tau_lp_report(QUBIT, PLUS, KET0, generators=np.vstack(
        [tr.great_circle_states(KET0, 8, through=PLUS), 2.0 * KET0.coeffs])),
     InfeasibleError, "No effect in the generator polytope attains"),
])
def test_argument_and_feasibility_checks_fire(make, error, message):
    with pytest.raises(error) as info:
        make()
    assert type(info.value) is error and str(info.value).startswith(message)
