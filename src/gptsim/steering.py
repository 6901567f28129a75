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
    Schmidt basis; the squared values past the rank are at most RANK_TOL."""

    values: np.ndarray   # (n, r), descending
    vectors: np.ndarray  # (n, r, d)
    rank: np.ndarray     # (n,)


class _Steered(NamedTuple):
    """Stacked outcome of steering ``n`` joint states with ``S`` effects
    each: the subnormalized B conditionals ``subs`` (0 where no effect was
    applied) and, per outcome kept (probability above RANK_TOL), its
    normalized weight and conditional state; other slots hold the zero
    matrix at weight 0, which no stage reads."""

    subs: np.ndarray      # (n, S, d, d)
    keep: np.ndarray      # (n, S)
    weights: np.ndarray   # (n, S)
    matrices: np.ndarray  # (n, S, d, d)
    coeffs: np.ndarray    # (n, S, d*d)

    def ensemble(self, model: gm.SystemModel, i: int) -> gm.Ensemble:
        """Member ``i``'s ensemble of kept outcomes, as ``steer`` builds it;
        a member is pure where its purity is 1 within SPECTRAL_TOL."""
        kept = self.keep[i]
        weights = self.weights[i][kept]
        weights.flags.writeable = False
        matrices = self.matrices[i][kept]
        return gm.Ensemble(weights, tuple(gm._states(
            model, matrices, gm._pure(matrices))))


def purify(omega: gm.State, purifier_dim: int | None = None) -> gm.BipartiteState:
    """Pure joint state whose second marginal is ``omega``.

    The purifier (side A) has dimension equal to the rank of omega unless a
    larger dimension is requested. Classical mixed states admit no
    purification. Degenerate spectra are resolved deterministically:
    eigenvalues descending, each eigenvector's first significant component
    made real-positive.
    """
    if omega.model.kind != gm.QUANTUM:
        raise UnsupportedModelError(
            "Classical mixed states have no purification; steering scenarios "
            "require a quantum model.")
    dims = None if purifier_dim is None else np.array([int(purifier_dim)])
    amplitudes = _purify(omega.matrix[None], dims)[0][0]
    return gm.BipartiteState(gm.quantum(len(amplitudes)), omega.model,
                             amplitudes.reshape(-1))


def _purify(matrices: np.ndarray, purifier_dims=None):
    """Purifications of an ``(n, d, d)`` stack of density matrices.

    ``purifier_dims`` holds each one's requested purifier dimension (None:
    its rank); all share dimension max(2, largest request). Returns the
    ``(n, dim_a, d)`` joints, read-only, their :class:`_Schmidt` form in
    the standard A basis (the eigenvalues above RANK_TOL, descending and
    renormalized to sum to 1, as squared values, so the joints are unit
    vectors; the eigenvectors, phase-fixed, as B vectors) and their B
    marginals, which must round-trip within STEERING_TOL.
    """
    eigvals, eigvecs = np.linalg.eigh(matrices)
    n, d = eigvals.shape
    rows = eigvecs.swapaxes(-1, -2)
    if np.count_nonzero(eigvals[:, 1:] == eigvals[:, :-1]):
        # a stable sort keeps tied eigenvalues in eigh's order
        order = (-eigvals).argsort(axis=-1, kind="stable")
        items = np.arange(n)[:, None]
        eigvals, rows = eigvals[items, order], rows[items, order]
    else:  # eigh's ascending order, reversed
        eigvals, rows = eigvals[:, ::-1], np.ascontiguousarray(rows[:, ::-1])
    rows = gm._fix_phase(rows)
    above = eigvals > RANK_TOL
    rank = above.sum(axis=-1)
    kept = np.where(above, eigvals, 0.0)
    values = np.sqrt(kept / kept.sum(axis=-1, keepdims=True))
    dims = rank if purifier_dims is None else purifier_dims
    gm._fail(ValueError, "Purifier dimension {} is below rank {}.",
             dims < rank, dims, rank)
    dim_a = max(int(dims.max()), 2)
    top = min(dim_a, d)
    amplitudes = np.zeros((n, dim_a, d), dtype=complex)
    amplitudes[:, :top] = values[:, :top, None] * rows[:, :top]
    amplitudes.flags.writeable = False

    marginals = _marginals_b(amplitudes)
    roundtrip = abs(marginals - matrices).max(axis=(-2, -1))
    gm._fail(ContractError, "Purification marginal residual {}.",
             roundtrip > STEERING_TOL, roundtrip)
    return amplitudes, _Schmidt(values, rows, rank), marginals


def _marginals_b(joints: np.ndarray) -> np.ndarray:
    """B marginals ``(n, d, d)`` of ``(n, A, d)`` joint matrices."""
    return (joints.conj().swapaxes(-1, -2) @ joints).swapaxes(-1, -2)


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
    factored as F F† by one batched ``eigh``, eigenvalues clipped at 0."""
    eigvals, eigvecs = np.linalg.eigh(effects)
    factors = eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))[:, None, :]
    return _steer(psi.model_b, np.empty((0, psi.model_b.size)),
                  _marginals_b(gm._dagger(factors) @ psi.joint_matrix),
                  np.ones((1, len(effects)), dtype=bool))


def _steer(model_b: gm.SystemModel, kets: np.ndarray, grams: np.ndarray,
           live: np.ndarray) -> _Steered:
    """Steer ``n`` members' ``(n, S)`` outcome slots, the ``live`` ones.

    An outcome of effect F F† leaves joint J's side B in the subnormalized
    conditional XᵀX̄, X = F†J, of probability ‖X‖²: its Hermitian part is
    positive by construction, with round-off relative to that probability,
    so it is not checked (Nielsen & Chuang 2000, §2.2.3). The live outcomes
    come in row-major order: first one-column factors' rows X, ``kets``
    ``(L, d)``, whose conditionals are the projectors onto X/‖X‖; then the
    other factors' Gram matrices XᵀX̄, ``grams`` ``(M, d, d)``.
    """
    outer = kets[:, :, None] * kets.conj()[:, None, :]
    if len(grams):
        outer = np.concatenate([outer, grams])
    live_subs = 0.5 * (outer + gm._dagger(outer))
    probs = live_subs.real.trace(axis1=-2, axis2=-1)
    kept = ~(probs <= RANK_TOL)
    keep = _filled(live, kept)
    weights = _filled(keep, probs[kept])
    weights = weights / weights.sum(axis=1, keepdims=True)
    matrices = _filled(keep, live_subs[kept] / probs[kept, None, None])
    return _Steered(_filled(live, live_subs), keep, weights, matrices,
                    gm._coeffs(model_b, matrices))


def _filled(mask: np.ndarray, values: np.ndarray) -> np.ndarray:
    """A read-only array of ``values`` where ``mask``, zeros elsewhere."""
    out = np.zeros(mask.shape + values.shape[1:], dtype=values.dtype)
    out[mask] = values
    out.flags.writeable = False
    return out


def synthesize_steering_measurement(psi: gm.BipartiteState,
                                    target: gm.Ensemble) -> SteeringMeasurement:
    """Purifier-side measurement steering B to the target decomposition.

    The target must live on psi's B model and average to its B marginal
    within 1e-9. :func:`_synthesize` builds one effect factor per member in
    the Schmidt basis of psi's SVD, cut where :func:`purify` cuts. Rotated
    back to psi's A basis, factor f gives the rank-1 effect f f†; where the
    purifier is larger than the Schmidt rank, the deficit effect projects
    onto the basis vectors past it. The effects and their completeness are
    checked, and the measurement steers as in :func:`steer`, so the
    returned ensemble is ``steer(psi, measurement)`` bit for bit. Each
    conditional is checked against its target member at ``STEERING_TOL``.
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
    present = np.ones((1, len(states)), dtype=bool)
    basis, values, vectors = np.linalg.svd(joints)
    rank = (values ** 2 > RANK_TOL).sum(axis=-1)
    factors = _synthesize(joints, _Schmidt(values, vectors, rank), weights,
                          kets[None], present)[0] @ basis[0].T
    effects = factors[:, :, None] * factors.conj()[:, None, :]
    past = basis[0][:, rank[0]:]
    if past.size:
        effects = np.concatenate([effects, (past @ gm._dagger(past))[None]])
    alice = gm.measurement([gm.effect_from_matrix(psi.model_a, m)
                            for m in effects])
    steered = _steer_effects(psi, np.stack([e.matrix for e in alice.effects]))
    _check_targets(steered.subs, weights, members, present)
    return SteeringMeasurement(alice, steered.ensemble(psi.model_b, 0))


def _synthesize(joints: np.ndarray, schmidt: _Schmidt, weights: np.ndarray,
                kets: np.ndarray, present: np.ndarray) -> np.ndarray:
    """Synthesize the steering measurements of ``n`` joint states.

    ``joints`` is ``(n, A, d)``, ``schmidt`` its Schmidt form; each target
    has ``K`` member slots: weights ``(n, K)`` and the pure members' kets
    ``(n, K, d)``, and must average to its joint's B marginal. A slot that
    is not ``present`` must have weight 0 and a unit ket. Returns the
    ``(n, K, A)`` rows alpha of the members' polar factor in the A-side
    Schmidt basis: member k's effect is alpha_k alpha_k†, and the present
    members' effects sum to the projector onto the first rank basis
    vectors, so with the projector onto the rest (the deficit effect) they
    are valid and complete by construction."""
    n, dim_a, _ = joints.shape
    slots = weights.shape[1]
    if slots > dim_a:
        count = present.sum(axis=1)
        if np.count_nonzero(count > dim_a):
            i = int(np.argmax(count > dim_a))
            raise RankDeficitError(
                f"Target has {count[i]} members but the purifier has "
                f"dimension {dim_a}; re-purify with purifier_dim >= "
                f"{count[i]}.", required_dimension=int(count[i]))

    # In the Schmidt form sum_k s_k |k>_A |w_k>_B, the HJW coefficients
    # conj(beta) / s of the members have orthonormal columns in exact
    # arithmetic, but 1/s amplifies round-off. Their polar factor (Higham
    # 1986) has orthonormal columns to round-off, so the members' effects
    # sum to the projector onto the first rank basis vectors.
    alphas = np.zeros((n, slots, dim_a), dtype=complex)
    roots = np.sqrt(weights)[..., None]
    for r, rows in gm._groups(schmidt.rank):  # the Schmidt slices differ per rank
        s_r = schmidt.values[rows][:, None, :r]
        w_r = schmidt.vectors[rows][:, :r]
        root, ket = roots[rows], kets[rows]
        beta = root * (w_r.conj()[:, None] @ ket[..., None])[..., 0]
        rebuilt = (w_r.swapaxes(-1, -2)[:, None] @ beta[..., None])[..., 0]
        gm._fail(MarginalMismatchError,
                 "Target member leaves the support of the B marginal.",
                 (gm._norm(root * ket - rebuilt) > 1e-8) & present[rows])
        left, _, right = np.linalg.svd(beta.conj() / s_r, full_matrices=False)
        alphas[rows, :, :r] = left @ right
    return alphas


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
    return float(_marginal_residuals(
        ens_1.weights, np.stack([s.coeffs for s in ens_1.states]),
        ens_2.weights, np.stack([s.coeffs for s in ens_2.states])))


def _marginal_residuals(weights_1, coeffs_1, weights_2, coeffs_2):
    """Rowwise :func:`marginal_residual` of stacked ensembles: weights
    ``(..., K)`` and member coefficients ``(..., K, m)`` for each side."""
    avg_1 = (weights_1[..., None, :] @ coeffs_1)[..., 0, :]
    avg_2 = (weights_2[..., None, :] @ coeffs_2)[..., 0, :]
    return np.abs(avg_1 - avg_2).max(axis=-1)
