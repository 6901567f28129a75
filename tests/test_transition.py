import itertools
import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import draws_reference as ref
from gptsim import errors
from gptsim import models as gm
from gptsim import rules as rl
from gptsim import signaling as sg
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
    psi1 = tr.state_with_tau(QUBIT, KET0, 0.2, 6)
    psi2 = tr.state_with_tau(QUBIT, KET0, 0.4, 7)
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
    for seed in range(1000):
        phi = random_pure(QUBIT, rng)
        p = float(rng.uniform())
        psi = tr.state_with_tau(QUBIT, phi, p, seed)
        assert psi.pure
        assert tr.tau(psi, phi) == pytest.approx(p, abs=1e-12)


def test_state_with_tau_higher_dimension():
    rng = np.random.default_rng(10)
    for seed in range(50):
        phi = random_pure(QUTRIT, rng)
        p = float(rng.uniform())
        psi = tr.state_with_tau(QUTRIT, phi, p, seed)
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
# Counter-based draws
# ---------------------------------------------------------------------------

# every limb count from one to four; 5 and 2**64 + 5 share their low limb
EDGE_SEEDS = [0, 1, 5, 2**31 - 1, 2**32, 2**64 - 1, 2**64, 2**64 + 5,
              2**128 + 7, 3**200]


def test_stream_constants_are_the_documented_ones():
    assert (tr._SCENARIO_STREAM, tr._SAMPLE_STREAM) == ref.STREAMS


@pytest.mark.parametrize("stream", ref.STREAMS, ids=["scenario", "sampling"])
def test_words_match_the_python_reference(stream):
    got = tr._stream_words(stream, EDGE_SEEDS, 3, 5)
    assert got.dtype == np.uint64 and got.shape == (len(EDGE_SEEDS), 5)
    assert got.tolist() == [ref.words(stream, seed, 3, 5) for seed in EDGE_SEEDS]


@settings(max_examples=100, deadline=None)
@given(seeds=st.lists(st.integers(0, 2**200 - 1), min_size=1, max_size=6),
       stream=st.sampled_from(ref.STREAMS), start=st.integers(0, 2**40),
       count=st.integers(1, 9))
def test_words_match_the_python_reference_property(seeds, stream, start, count):
    assert tr._stream_words(stream, seeds, start, count).tolist() == [
        ref.words(stream, seed, start, count) for seed in seeds]


def test_uniforms_and_normals_match_the_python_reference():
    # the extreme words too: u1 = 2**-53 and 1, u2 = 0 and 1 - 2**-53
    words = np.concatenate([tr._stream_words(ref.STREAMS[1], EDGE_SEEDS, 0, 8),
                            np.array([[0, 0, ref.MASK, ref.MASK] * 2],
                                     dtype=np.uint64)])
    rows = words.tolist()
    assert tr._uniforms(words).tolist() == [[ref.uniform(w) for w in row]
                                            for row in rows]
    normals = tr._normals(words)
    assert normals.shape == (len(rows), 4)
    assert normals.tolist() == [[ref.normal(*row[k:k + 2])
                                 for k in range(0, 8, 2)] for row in rows]
    assert normals[-1, :2].tolist() == [np.sqrt(106 * np.log(2)), 0j]


def test_draws_are_a_function_of_seed_and_counter():
    # the same words whatever else the call draws: other seeds, a window
    for stream in ref.STREAMS:
        whole = tr._stream_words(stream, EDGE_SEEDS, 0, 24)
        for row, seed in zip(whole, EDGE_SEEDS):
            assert row.tobytes() == tr._stream_words(
                stream, [seed], 0, 24)[0].tobytes()
            assert row[10:17].tobytes() == tr._stream_words(
                stream, [seed], 10, 7)[0].tobytes()
    for d in (2, 3, 4):
        batch = tr._residual_draws(EDGE_SEEDS, d)
        assert batch.shape == (len(EDGE_SEEDS), 2, d - 1)
        for row, seed in zip(batch, EDGE_SEEDS):
            assert row.tobytes() == tr._residual_draws([seed], d)[0].tobytes()


def test_distinct_seeds_and_streams_draw_distinct_words():
    seeds = list(range(10_000)) + EDGE_SEEDS[4:]
    first = [tr._stream_words(stream, seeds, 0, 4) for stream in ref.STREAMS]
    for words in first:
        assert len(set(words[:, 0].tolist())) == len(seeds)
    assert not np.any(first[0] == first[1])


def test_one_word_of_one_seed_draws_without_overflow_warnings():
    # numpy warns when uint64 scalars wrap; the draws wrap on arrays only
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for stream, seed in itertools.product(ref.STREAMS, [0, ref.MASK, 3**200]):
            word = tr._stream_words(stream, [seed], 2**61, 1)
            assert word.tolist() == [ref.words(stream, seed, 2**61, 1)]
            assert tr._uniforms(word).tolist() == [[ref.uniform(word[0, 0])]]
        assert tr._residual_draws([ref.MASK], 2).shape == (1, 2, 1)


def test_residual_directions_of_a_member_read_their_own_words():
    # entry j of member m reads words 2((d-1)m + j) and 2((d-1)m + j) + 1
    for d, seed in itertools.product((2, 3, 4), (0, 2**64 + 5)):
        words = ref.words(ref.STREAMS[0], seed, 0, 4 * (d - 1))
        want = [[ref.normal(*words[2 * ((d - 1) * m + j):][:2])
                 for j in range(d - 1)] for m in range(2)]
        assert tr._residual_draws([seed], d)[0].tolist() == want


@pytest.mark.parametrize("d", [2, 4])
def test_residual_directions_are_isotropic(d):
    # 10**5 unit directions in the completion's coordinates: each of the
    # 2(d - 1) real components has mean 0 and second moment 1/(2(d - 1)),
    # both within 5 standard errors
    draws = tr._residual_draws(list(range(50_000)), d).reshape(-1, d - 1)
    units = draws / np.linalg.norm(draws, axis=-1, keepdims=True)
    parts = np.concatenate([units.real, units.imag], axis=-1)
    assert parts.shape == (10**5, 2 * (d - 1))
    for values, want in ((parts, 0.0), (parts ** 2, 0.5 / (d - 1))):
        error = values.std(axis=0) / np.sqrt(len(values))
        assert np.all(abs(values.mean(axis=0) - want) <= 5 * error)


def test_seeded_draws_see_only_the_seeds_that_draw():
    # Members at p = 0 (the completion's first row) and p = 1 (phi itself)
    # use no draw, so their states and the pipeline's run of them are the
    # same bits under every seed; a member at p in (0, 1) sees its seed.
    phi = gm.ket_state(QUTRIT, np.array([1, 2j, -1]) / np.sqrt(6))
    for p in (0.0, 1.0):
        states = {tr.state_with_tau(QUTRIT, phi, p, seed).matrix.tobytes()
                  for seed in EDGE_SEEDS}
        assert len(states) == 1
    assert len({tr.state_with_tau(QUTRIT, phi, 0.5, seed).matrix.tobytes()
                for seed in EDGE_SEEDS}) == len(EDGE_SEEDS)
    for p1, p2 in ((0.0, 1.0), (1.0, 0.0), (0.0, 0.0)):
        reports = sg.run_scenarios([sg.Scenario(
            rl.identity_rule(), phi, p1, p2, 0.3, seed=seed)
            for seed in EDGE_SEEDS])
        assert len({(r.prob_1, r.prob_2, r.gap) for r in reports}) == 1


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**130 - 1), runs=st.integers(1, 10**6),
       p1=st.floats(0, 1), p2=st.floats(0, 1), lam=st.floats(0, 1))
@example(seed=0, runs=1, p1=0.0, p2=1e-6, lam=1e-6)  # omega's smaller
# squared Schmidt value about 1e-12, once cut at 1e-12 and raised
def test_seeded_draws_match_default_rng_property(seed, runs, p1, p2, lam):
    # simulate_runs, the one seeded draw left on numpy's generators, takes
    # its two binomials from default_rng(seed), protocol 1's first
    report = sg.run_scenario(sg.Scenario(rl.identity_rule(), KET0, p1, p2,
                                         lam, seed=seed))
    stats = sg.simulate_runs(report, runs=runs, seed=seed)
    rng = np.random.default_rng(seed)
    probs = np.clip([report.prob_1, report.prob_2], 0.0, 1.0).tolist()
    assert [stats.successes_1, stats.successes_2] == [
        int(rng.binomial(runs, prob)) for prob in probs]


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
