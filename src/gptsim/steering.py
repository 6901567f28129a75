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

import numpy as np

from . import models as gm
from .errors import (
    MarginalMismatchError,
    ModelMismatchError,
    NotPureError,
    RankDeficitError,
    UnsupportedModelError,
)

STEERING_TOL = 1e-10
RANK_TOL = 1e-12  # eigenvalues of a purified state at or below this are zero
_DROP_TOL = 1e-14  # conditional outcomes below this weight are numerical zeros


@dataclass(frozen=True, eq=False)
class SteeringMeasurement:
    """Purifier-side measurement together with the ensemble it steers side B
    into; ``ensemble`` is what :func:`steer` returns for ``measurement``."""

    measurement: gm.Measurement
    ensemble: gm.Ensemble


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
    eigvals, eigvecs = np.linalg.eigh(omega.matrix)
    order = np.argsort(-eigvals, kind="stable")
    eigvals = np.clip(eigvals[order], 0.0, None)
    eigvecs = eigvecs[:, order]
    rank = int(np.sum(eigvals > RANK_TOL))
    dim_a = rank if purifier_dim is None else int(purifier_dim)
    if dim_a < rank:
        raise ValueError(f"Purifier dimension {dim_a} is below rank {rank}.")
    dim_a = max(dim_a, 2)  # systems have at least two levels

    amplitudes = np.zeros((dim_a, omega.model.size), dtype=complex)
    for k in range(rank):
        vec = gm._fix_phase(eigvecs[:, k])
        amplitudes[k] = np.sqrt(eigvals[k]) * vec
    model_a = gm.quantum(dim_a)
    psi = gm.bipartite_from_ket(model_a, omega.model, amplitudes.reshape(-1))

    reduced = (amplitudes.conj().T @ amplitudes).T
    roundtrip = np.max(np.abs(reduced - omega.matrix))
    if roundtrip > STEERING_TOL:
        raise AssertionError(f"Purification marginal residual {roundtrip}.")
    return psi


def steer(psi: gm.BipartiteState, alice: gm.Measurement) -> gm.Ensemble:
    """Ensemble prepared on side B by measuring side A.

    Outcome weights are the measurement probabilities (renormalized to sum
    to one exactly); outcomes below the numerical-zero threshold are
    dropped. Rank-1 measurements on a pure joint state give pure members;
    coarse effects (e.g. the trivial measurement) give honest mixed members.
    """
    if alice.model != psi.model_a:
        raise ModelMismatchError("Measurement does not act on side A's model.")

    if psi.model_a.kind == gm.CLASSICAL:
        point_a = gm.marginal(psi, "A")
        point_b = gm.marginal(psi, "B")
        members = [(gm.evaluate(e, point_a), point_b) for e in alice.effects]
        members = [(w, s) for w, s in members if w >= _DROP_TOL]
        weights = np.array([w for w, _ in members])
        return gm.Ensemble(weights / weights.sum(),
                           tuple(s for _, s in members))

    return _steer_quantum(psi, alice)[1]


def _steer_quantum(psi: gm.BipartiteState, alice: gm.Measurement):
    """Subnormalized B conditionals of every outcome, and their ensemble."""
    m = psi.joint_matrix
    subs = [(m.conj().T @ effect.matrix @ m).T for effect in alice.effects]
    members = []
    for sub in subs:
        if sub.shape[0] == 2:
            prob = sub[0, 0].real + sub[1, 1].real
        else:
            prob = float(np.trace(sub).real)
        if prob < _DROP_TOL:
            continue
        members.append((prob, gm.state_from_matrix(psi.model_b, sub / prob)))
    if not members:
        raise AssertionError("All outcomes had zero probability.")
    weights = np.array([w for w, _ in members])
    weights = weights / weights.sum()
    weights.flags.writeable = False
    return subs, gm.Ensemble(weights, tuple(s for _, s in members))


def synthesize_steering_measurement(psi: gm.BipartiteState,
                                    target: gm.Ensemble) -> SteeringMeasurement:
    """Purifier-side measurement steering B to the target decomposition.

    Each target member's subnormalized vector is expressed in the Schmidt
    basis of the joint state; the corresponding A-side vectors give rank-1
    measurement elements, completed by the deficit effect (supported off
    the A-marginal) when the purifier is larger than the Schmidt rank.

    The conditionals of the final measurement are computed once: each is
    checked against its target member at ``STEERING_TOL`` and together they
    form the returned ensemble, identical to ``steer(psi, measurement)``.
    """
    if psi.model_a.kind != gm.QUANTUM:
        raise UnsupportedModelError("Steering synthesis requires quantum models.")
    weights = target.weights
    states = target.states

    m = psi.joint_matrix
    marginal_b = (m.conj().T @ m).T
    avg = weights[0] * states[0].matrix
    for w, s in zip(weights[1:], states[1:]):
        avg = avg + w * s.matrix
    residual = float(np.max(np.abs(avg - marginal_b)))
    if residual > 1e-9:
        raise MarginalMismatchError(
            f"Target ensemble averages {residual} away from the B marginal.")

    dim_a = psi.model_a.size
    if len(target) > dim_a:
        raise RankDeficitError(
            f"Target has {len(target)} members but the purifier has "
            f"dimension {dim_a}; re-purify with purifier_dim >= {len(target)}.",
            required_dimension=len(target))

    # Schmidt form: amplitudes = sum_k s_k |u_k>_A |w_k>_B where u_k are the
    # left singular vectors and w_k[b] = vh[k, b] (the conjugated right ones).
    u, svals, vh = np.linalg.svd(psi.joint_matrix)
    rank = int(np.sum(svals > 1e-12))
    u = u[:, :rank]
    svals = svals[:rank]
    schmidt_b = vh[:rank].T  # (dim_b, rank), column k is w_k

    effects = []
    for lam, member in zip(weights, states):
        if not member.pure:
            raise NotPureError("Steering targets must decompose into pure states.")
        ket = gm.pure_ket(member)
        beta = np.sqrt(lam) * (schmidt_b.conj().T @ ket)  # <w_k|ket>
        rebuilt = schmidt_b @ beta
        if np.linalg.norm(np.sqrt(lam) * ket - rebuilt) > 1e-8:
            raise MarginalMismatchError(
                "Target member leaves the support of the B marginal.")
        alpha = u @ (beta.conj() / svals)
        effects.append(gm.effect_from_matrix(psi.model_a,
                                             np.outer(alpha, alpha.conj())))

    total = np.sum([e.matrix for e in effects], axis=0)
    deficit = np.eye(dim_a, dtype=complex) - total
    # Split the deficit into the genuine part (orthogonal to the Schmidt
    # support, nonzero when the purifier exceeds the rank) and conditioning
    # noise, which is folded back into the heaviest element so the
    # completeness identity holds at linear tolerance.
    support = u @ u.conj().T
    complement = np.eye(dim_a, dtype=complex) - support
    genuine = complement @ deficit @ complement
    noise = deficit - genuine
    if np.max(np.abs(genuine)) <= STEERING_TOL:
        noise = deficit
        genuine = None
    if np.max(np.abs(noise)) > 0:
        heavy = int(np.argmax(weights))
        effects[heavy] = gm.effect_from_matrix(
            psi.model_a, effects[heavy].matrix + noise)
    if genuine is not None:
        rho_a = gm.marginal(psi, "A").matrix
        leak = float(np.max(np.abs(genuine @ rho_a)))
        if leak > STEERING_TOL:
            raise AssertionError(
                f"Deficit effect overlaps the A marginal by {leak}.")
        effects.append(gm.effect_from_matrix(psi.model_a, genuine))

    alice = gm.measurement(effects)
    subs, steered = _steer_quantum(psi, alice)
    for i, (lam, member) in enumerate(zip(weights, states)):
        residual = float(np.max(np.abs(subs[i] - lam * member.matrix)))
        if residual > STEERING_TOL:
            raise AssertionError(
                f"Steered conditional {i} deviates by {residual}.")
    return SteeringMeasurement(alice, steered)


def marginal_residual(ens_1: gm.Ensemble, ens_2: gm.Ensemble) -> float:
    """Max-abs coefficient distance between two ensembles' average states.

    This is the operational no-signaling check: every purifier-side
    measurement must leave the distant average state untouched, so two
    ensembles steered from one joint state must average alike. The
    contract is a residual at most 1e-10.
    """
    if ens_1.states[0].model != ens_2.states[0].model:
        raise ModelMismatchError("Ensembles live on different models.")
    avg_1 = ens_1.weights @ np.stack([s.coeffs for s in ens_1.states])
    avg_2 = ens_2.weights @ np.stack([s.coeffs for s in ens_2.states])
    return float(np.max(np.abs(avg_1 - avg_2)))
