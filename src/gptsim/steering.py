"""Purification and remote ensemble preparation.

Purifying a mixed state and choosing different measurements on the
purifying side steers the distant system into different pure-state
decompositions of the same marginal. The synthesis routine inverts this:
given a purification and a target decomposition, it constructs the
purifier-side measurement whose outcomes prepare exactly that decomposition
(the classic purification-based remote-preparation construction).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import models as gm
from .errors import (
    ContractError,
    MarginalMismatchError,
    ModelMismatchError,
    NotPureError,
    RankDeficitError,
    UnsupportedModelError,
)

STEERING_TOL = 1e-10
# Squared Schmidt values and steered outcome weights at or below this are zero.
RANK_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class SteeringMeasurement:
    """Purifier-side measurement together with the ensemble it steers side B
    into; ``ensemble`` is what :func:`steer` returns for ``measurement``."""

    measurement: gm.Measurement
    ensemble: gm.Ensemble


class _Schmidt(NamedTuple):
    """Schmidt form of ``n`` joint matrices: joint i is the sum over
    k < rank[i] of values[i, k] |k>_A |vectors[i, k]>_B, |k>_A its A-side
    Schmidt basis; past the rank, where squares fall to RANK_TOL, values are 0."""

    values: np.ndarray   # (n, r), descending
    vectors: np.ndarray  # (n, r, d)
    rank: np.ndarray     # (n,)


class _Steered(NamedTuple):
    """Stacked outcome of steering ``n`` joint states with ``S`` effects
    each: the subnormalized B conditionals ``subs`` (0 where no effect was
    applied), each of probability its trace; ``keep``, the outcomes of
    probability above RANK_TOL; and their normalized ``weights``, else 0."""

    subs: np.ndarray     # (n, S, d, d)
    keep: np.ndarray     # (n, S)
    weights: np.ndarray  # (n, S)

    def ensemble(self, model: gm.SystemModel, i: int) -> gm.Ensemble:
        """Member ``i``'s ensemble of kept outcomes, as ``steer`` builds it:
        each kept sub divided by its trace; a member is pure where its
        purity is 1 within SPECTRAL_TOL."""
        kept = self.keep[i]
        weights = self.weights[i][kept]
        subs = self.subs[i][kept]
        matrices = subs / subs.real.trace(axis1=-2, axis2=-1)[:, None, None]
        weights.flags.writeable = matrices.flags.writeable = False
        return gm.Ensemble(weights, tuple(gm._states(
            model, matrices, gm._pure(matrices))))


def purify(omega: gm.State, purifier_dim: int | None = None) -> gm.BipartiteState:
    """Pure joint state whose second marginal is ``omega``.

    The purifier (side A) has dimension equal to the rank of omega unless a
    larger dimension is requested. Classical mixed states admit no
    purification. omega's Schmidt form from one ``eigh`` (:func:`_eigh_schmidt`)
    is purified by :func:`_purify`, the scenario pipeline's kernel: Schmidt
    values descending, each B vector's first significant component made
    real-positive, so the result is deterministic.
    """
    if omega.model.kind != gm.QUANTUM:
        raise UnsupportedModelError(
            "Classical mixed states have no purification; steering scenarios "
            "require a quantum model.")
    dims = None if purifier_dim is None else np.array([int(purifier_dim)])
    matrices = omega.matrix[None]
    amplitudes = _purify(*_eigh_schmidt(matrices), matrices, dims)[0][0]
    return gm.BipartiteState(gm.quantum(len(amplitudes)), omega.model,
                             amplitudes.reshape(-1))


def _factors(matrices: np.ndarray) -> np.ndarray:
    """Factors F of a ``(..., d, d)`` stack of positive matrices M = F F†:
    one batched ``eigh``, eigenvectors times the roots of the eigenvalues
    clipped at 0."""
    eigvals, eigvecs = np.linalg.eigh(matrices)
    return eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))[..., None, :]


def _eigh_schmidt(matrices: np.ndarray) -> tuple:
    """:func:`_purify`'s Schmidt pieces of ``(n, d, d)`` states Q Λ Q† from
    one batched ``eigh``: √max(λ, 0) and Q's columns descending, and V = I."""
    eigvals, eigvecs = np.linalg.eigh(matrices)
    return (np.sqrt(np.clip(eigvals[:, ::-1], 0.0, None)),
            eigvecs[..., ::-1].swapaxes(-1, -2),
            np.broadcast_to(np.eye(matrices.shape[-1]), matrices.shape))


def _rotation_schmidt(columns: np.ndarray) -> tuple:
    """:func:`_purify`'s Schmidt pieces of factors A = [a_0 a_1] given by
    their ``(n, 2, d)`` columns, each by one closed-form complex Jacobi
    rotation V = [[cos θ, −e sin θ], [ē sin θ, cos θ]], g = a_0†a_1 = |g| e,
    tan 2θ = 2|g|/(‖a_0‖² − ‖a_1‖²), |θ| <= π/4: A V = U S, then ordered."""
    n_0, n_1 = gm._squares(columns).T
    g = (columns[:, 0].conj() * columns[:, 1]).sum(axis=-1)
    size = abs(g)
    turn = size > 2.0 ** -52 * np.sqrt(columns.shape[-1] * n_0 * n_1)
    # No turn for a round-off g; |θ| <= π/4 keeps θ's relative digits.
    half = 0.5 * np.arctan2(2.0 * size * turn, abs(n_0 - n_1))
    cos = np.cos(half)
    sin = np.copysign(np.sin(half), n_0 - n_1) * g / np.where(turn, size, 1.0)
    right = np.stack([cos, sin.conj(), -sin, cos], axis=-1).reshape(-1, 2, 2)
    ys = right[..., :1] * columns[:, :1] + right[..., 1:] * columns[:, 1:]
    values = np.sqrt(gm._squares(ys))
    flip = (values[:, 1] > values[:, 0])[:, None]  # the larger value first
    values = np.where(flip, values[:, ::-1], values)
    ys, right = (np.where(flip[..., None], a[:, ::-1], a) for a in (ys, right))
    return values, ys / np.where(values > 0.0, values, 1.0)[..., None], right


def _purify(values: np.ndarray, left: np.ndarray, right: np.ndarray,
            matrices: np.ndarray, purifier_dims=None):
    """Purifications of ``(n, d, d)`` density matrices A A†, each factor
    given in Schmidt form A = U S V† (Hughston, Jozsa & Wootters 1993): S
    ``(n, K)`` descending, and u_k and v_k as the rows of ``left``, ``right``.

    ``purifier_dims`` holds each one's requested purifier dimension (None:
    its rank); all share dimension max(2, largest request). Returns the
    ``(n, dim_a, d)`` joints J, read-only; their :class:`_Schmidt` form in
    the standard A basis (S past the rank cut, renormalized so that the
    joints are unit vectors; U's columns, phase-fixed, as B vectors); their
    B marginals, which must round-trip ``matrices`` within STEERING_TOL;
    and the rows alpha ``(n, K, dim_a)`` of V (v_k phased as u_k, cut at the
    rank): alpha_k†J is A's column k, renormalized as S, and the alphas'
    projectors sum to the projector onto the first rank basis vectors.
    """
    n, slots, d = left.shape
    above = values ** 2 > RANK_TOL
    rank = above.sum(axis=-1)
    kept = np.where(above, values, 0.0)
    values = kept / np.sqrt((kept ** 2).sum(axis=-1, keepdims=True))
    # Each pair [u_k | v_k] gets one phase, its pivot among the components
    # of u_k (one >= 1/sqrt(d)), or of the unit v_k where u_k = 0.
    rows = gm._fix_phase(np.concatenate([left, right], axis=-1))
    dims = rank if purifier_dims is None else purifier_dims
    gm._fail(ValueError, "Purifier dimension {} is below rank {}.",
             dims < rank, dims, rank)
    dim_a = max(int(dims.max()), 2)
    top = min(dim_a, len(rows[0]))
    amplitudes = np.zeros((n, dim_a, d), dtype=complex)
    amplitudes[:, :top] = values[:, :top, None] * rows[:, :top, :d]
    amplitudes.flags.writeable = False
    alphas = np.zeros((n, slots, dim_a), dtype=complex)
    alphas[..., :top] = np.where(above[:, :top, None], rows[:, :top, d:],
                                 0.0).swapaxes(-1, -2)

    marginals = _marginals_b(amplitudes)
    roundtrip = abs(marginals - matrices).max(axis=(-2, -1))
    gm._fail(ContractError, "Purification marginal residual {}.",
             roundtrip > STEERING_TOL, roundtrip)
    return amplitudes, _Schmidt(values, rows[..., :d], rank), marginals, alphas


def _marginals_b(joints: np.ndarray) -> np.ndarray:
    """B marginals JᵀJ̄ ``(n, d, d)`` of ``(n, A, d)`` joint matrices J."""
    return gm._product(joints.swapaxes(-1, -2), joints.conj())


def steer(psi: gm.BipartiteState, alice: gm.Measurement) -> gm.Ensemble:
    """Ensemble prepared on side B by measuring side A.

    Outcome weights are the measurement probabilities (renormalized to sum
    to one exactly); outcomes of probability at most RANK_TOL are
    dropped. Each conditional is a state by construction (:func:`_steer`),
    with round-off relative to its probability. Rank-1 measurements on a
    pure joint state give pure members; coarse effects (e.g. the trivial
    measurement) give honest mixed members.
    """
    if alice.model != psi.model_a:
        raise ModelMismatchError("Measurement does not act on side A's model.")

    if psi.model_a.kind == gm.CLASSICAL:
        point_a = gm.marginal(psi, "A")
        point_b = gm.marginal(psi, "B")
        members = [(gm.evaluate(e, point_a), point_b) for e in alice.effects]
        members = [(w, s) for w, s in members if w > RANK_TOL]
        weights = np.array([w for w, _ in members])
        return gm.Ensemble(weights / weights.sum(),
                           tuple(s for _, s in members))

    effects = np.stack([e.matrix for e in alice.effects])
    return _steer_effects(psi, effects).ensemble(psi.model_b, 0)


def _steer_effects(psi: gm.BipartiteState, effects: np.ndarray) -> _Steered:
    """Steer quantum ``psi`` through ``(S, A, A)`` checked effects, each
    factored as F F† by :func:`_factors`."""
    factors = _factors(effects)
    return _steer(np.empty((0, psi.model_b.size)),
                  _marginals_b(gm._dagger(factors) @ psi.joint_matrix),
                  np.ones((1, len(effects)), dtype=bool))


def _steer(kets: np.ndarray, grams: np.ndarray, live: np.ndarray) -> _Steered:
    """Steer ``n`` members' ``(n, S)`` outcome slots, the ``live`` ones.

    An outcome of effect F F† leaves joint J's side B in the subnormalized
    conditional XᵀX̄, X = F†J, of probability ‖X‖², its trace: its
    Hermitian part is positive by construction, with round-off relative to
    that probability, so it is not checked (Nielsen & Chuang 2000,
    §2.2.3), and it is not normalized here. The live outcomes come in
    row-major order: first one-column factors' rows X, ``kets`` ``(L, d)``,
    whose conditionals are the projectors onto X/‖X‖; then the other
    factors' Gram matrices XᵀX̄, ``grams`` ``(M, d, d)``.
    """
    outer = kets[:, :, None] * kets.conj()[:, None, :]
    if len(grams):
        outer = np.concatenate([outer, grams])
    live_subs = 0.5 * (outer + gm._dagger(outer))
    probs = live_subs.real.trace(axis1=-2, axis2=-1)
    kept = ~(probs <= RANK_TOL)
    keep = _filled(live, kept)
    weights = _filled(keep, probs[kept])
    return _Steered(_filled(live, live_subs), keep,
                    weights / weights.sum(axis=1, keepdims=True))


def _filled(mask: np.ndarray, values: np.ndarray) -> np.ndarray:
    """A read-only array of ``values`` where ``mask``, zeros elsewhere."""
    out = np.zeros(mask.shape + values.shape[1:], dtype=values.dtype)
    out[mask] = values
    out.flags.writeable = False
    return out


def synthesize_steering_measurement(psi: gm.BipartiteState,
                                    target: gm.Ensemble) -> SteeringMeasurement:
    """Purifier-side measurement steering B to the target decomposition.

    The target must live on psi's B model, average to its B marginal
    within 1e-9 and have at most as many members as the purifier's
    dimension. One effect factor per member comes from the members'
    coefficients in the Schmidt basis of psi's SVD, cut where
    :func:`purify` cuts. Rotated back to psi's A basis, factor f gives the
    rank-1 effect f f†; where the purifier is larger than the Schmidt rank,
    the deficit effect projects onto the basis vectors past it. The effects
    and their completeness are checked, and the measurement steers as in
    :func:`steer`, so the returned ensemble is ``steer(psi, measurement)``
    bit for bit. Each conditional is checked against its target member at
    ``STEERING_TOL``.
    """
    if psi.model_a.kind != gm.QUANTUM:
        raise UnsupportedModelError("Steering synthesis requires quantum models.")
    states = target.states
    if states[0].model != psi.model_b:
        raise ModelMismatchError(f"Target lives on {states[0].model}, not on "
                                 f"side B's {psi.model_b}.")
    if not all(s.pure for s in states):
        raise NotPureError("Steering targets must decompose into pure states.")
    kets = np.stack([gm.pure_ket(s) for s in states])
    joints = psi.joint_matrix[None]
    weights = target.weights[None]
    members = np.stack([s.matrix for s in states])[None]
    residual = abs(gm._average(weights, members) - _marginals_b(joints)).max()
    if residual > 1e-9:
        raise MarginalMismatchError(
            f"Target ensemble averages {residual} away from the B marginal.")
    count, dim_a = len(states), psi.model_a.size
    if count > dim_a:
        raise RankDeficitError(
            f"Target has {count} members but the purifier has dimension "
            f"{dim_a}; re-purify with purifier_dim >= {count}.",
            required_dimension=count)

    # In the Schmidt form sum_j s_j |j>_A |w_j>_B, the HJW coefficients
    # conj(beta) / s of the members have orthonormal columns in exact
    # arithmetic, but 1/s amplifies round-off. Their polar factor (Higham
    # 1986) has orthonormal columns to round-off, so the members' effects
    # sum to the projector onto the first rank basis vectors.
    basis, values, vectors = np.linalg.svd(joints[0])
    rank = int((values ** 2 > RANK_TOL).sum())
    support = vectors[:rank]
    roots = np.sqrt(target.weights)[:, None]
    beta = roots * (kets @ support.conj().T)
    if np.count_nonzero(gm._norm(roots * kets - beta @ support) > 1e-8):
        raise MarginalMismatchError(
            "Target member leaves the support of the B marginal.")
    left, _, right = np.linalg.svd(beta.conj() / values[:rank],
                                   full_matrices=False)
    factors = left @ right @ basis[:, :rank].T
    effects = factors[:, :, None] * factors.conj()[:, None, :]
    past = basis[:, rank:]
    if past.size:
        effects = np.concatenate([effects, (past @ gm._dagger(past))[None]])
    alice = gm.measurement([gm.effect_from_matrix(psi.model_a, m)
                            for m in effects])
    steered = _steer_effects(psi, np.stack([e.matrix for e in alice.effects]))
    _check_targets(steered.subs, weights, members, weights >= 0.0)
    return SteeringMeasurement(alice, steered.ensemble(psi.model_b, 0))


def _check_targets(subs: np.ndarray, weights: np.ndarray,
                   members: np.ndarray, present: np.ndarray) -> None:
    """Each synthesized measurement's subnormalized conditionals ``subs``
    must equal its target's weighted members within STEERING_TOL."""
    residual = abs(subs[:, :weights.shape[1]]
                   - weights[..., None, None] * members).max(axis=(-2, -1))
    position = present.cumsum(axis=1) - 1  # index among the members
    gm._fail(ContractError, "Steered conditional {} deviates by {}.",
             present & (residual > STEERING_TOL), position, residual)


def marginal_residual(ens_1: gm.Ensemble, ens_2: gm.Ensemble) -> float:
    """Max-abs coefficient distance between two ensembles' average states.

    This is the operational no-signaling check: every purifier-side
    measurement must leave the distant average state untouched, so two
    ensembles steered from one joint state must average alike. The
    contract is a residual at most 1e-10.
    """
    if ens_1.states[0].model != ens_2.states[0].model:
        raise ModelMismatchError("Ensembles live on different models.")
    avg_1, avg_2 = (e.weights[None] @ np.stack([s.coeffs for s in e.states])
                    for e in (ens_1, ens_2))
    return float(np.abs(avg_1 - avg_2).max())
