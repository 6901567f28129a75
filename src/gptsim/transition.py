"""Geometric transition probability between pure states.

The transition probability tau(psi, phi) is the maximal acceptance
probability of psi by a test that accepts phi with certainty and rejects a
state perfectly distinguishable from phi. The optimum is achieved by the
distinguishing measurement, so the closed form evaluates the accepting
effect directly; an LP path over a finite effect-generator polytope provides
an independent cross-check.
"""

from __future__ import annotations

import numbers
import operator
from dataclasses import dataclass

import numpy as np

from . import models as gm
from .errors import (
    InfeasibleError,
    ModelMismatchError,
    NotPureError,
    UnboundedError,
    UnsupportedModelError,
)
from .models import LINEAR_TOL
from .simplex import solve_nonneg


@dataclass(frozen=True)
class TauLpReport:
    """LP cross-check outcome with solver diagnostics."""

    value: float
    iterations: int
    phase1_iterations: int
    generators: int


def _require_pure(state: gm.State, name: str) -> None:
    if not state.pure:
        raise NotPureError(f"{name} must be a pure state.")


def _require_same_model(a: gm.State, b: gm.State) -> None:
    if a.model != b.model:
        raise ModelMismatchError(f"States live on different models: "
                                 f"{a.model} vs {b.model}.")


def orthonormal_completion(ket: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal basis of the orthocomplement of ``ket``.

    Returns a (d-1, d) array, or ``(..., d-1, d)`` for a ``(..., d)`` stack
    of kets; rows are obtained by Gram-Schmidt over the computational
    basis, skipping the direction absorbed by ``ket`` (closed form for
    qubits).
    """
    d = ket.shape[-1]
    if d == 2:
        rows = np.empty(ket.shape[:-1] + (1, 2), dtype=complex)
        rows[..., 0, 0] = -ket[..., 1].conjugate()
        rows[..., 0, 1] = ket[..., 0].conjugate()
        return rows
    kets = ket.reshape(-1, d)
    rows = np.zeros((len(kets), d, d), dtype=complex)
    rows[:, 0] = kets
    count = np.ones(len(kets), dtype=int)  # rows filled so far
    for j in range(d):
        cand = np.zeros((len(kets), d), dtype=complex)
        cand[:, j] = 1.0
        for r in range(d - 1):
            row = rows[:, r]
            overlap = (np.conj(row)[:, None, :] @ cand[:, :, None])[:, 0]
            cand = np.where((r < count)[:, None], cand - row * overlap, cand)
        norm = gm._norm(cand)
        # at most one basis vector collapses; full bases take no more rows
        take = (norm > 0.5 / np.sqrt(d)) & (count < d)
        rows[take, count[take]] = cand[take] / norm[take, None]
        count = count + take
    return rows[:, 1:].reshape(*ket.shape[:-1], d - 1, d)


def accept_effect(phi: gm.State) -> gm.Effect:
    """The optimal accepting effect of phi's distinguishing test.

    Quantum: the rank-1 projector onto phi (the pure state's own matrix);
    classical: the indicator of phi's deterministic point. It accepts
    ``state_with_tau(model, phi, 0.0, seed)``, a state perfectly
    distinguishable from phi, with probability zero; the rejecting effect
    is its complement to the unit effect.
    """
    _require_pure(phi, "phi")
    if phi.model.kind == gm.QUANTUM:
        return gm.projector_effect(phi)
    vec = np.zeros(phi.model.size)
    vec[int(np.argmax(phi.coeffs))] = 1.0
    return gm.effect_from_covector(phi.model, vec)


def tau(psi: gm.State, phi: gm.State) -> float:
    """Transition probability between pure states.

    Quantum: the squared modulus of the Hilbert-space inner product,
    computed as the accepting effect's value on psi. Classical: the
    Kronecker match of the deterministic points.
    """
    _require_same_model(psi, phi)
    _require_pure(psi, "psi")
    return gm.evaluate(accept_effect(phi), psi)


def state_with_tau(model: gm.SystemModel, phi: gm.State, p: float,
                   seed) -> gm.State:
    """Pure state psi with tau(psi, phi) = p.

    The residual direction (and phase) is drawn as in a scenario of seed
    ``seed``: psi is bitwise its first member at p1 = p. p = 0 and p = 1
    return exact complement/reference states with no trigonometric noise.
    Classical models only admit p in {0, 1}.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}.")
    _check_seed(seed)
    _require_pure(phi, "phi")
    if model != phi.model:
        raise ModelMismatchError("phi does not belong to the given model.")

    if model.kind == gm.CLASSICAL:
        if p == 1.0:
            return phi
        if p == 0.0:
            index = int(np.argmax(phi.coeffs))
            return gm.point_state(model, (index + 1) % model.size)
        raise UnsupportedModelError(
            "Classical models admit only p in {0, 1}; "
            "intermediate overlaps require a quantum model.")

    ket = gm.pure_ket(phi)
    if p == 1.0:
        return phi
    draws = _residual_draws([seed], model.size)[0, 0]
    return gm.ket_state(model, _kets_with_tau(ket, p, draws))


def _check_seed(seed) -> None:
    """Require a non-negative integer seed, with one message for every
    seeded entry point."""
    if not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}.")


# Counter-based draws (README, "Numerical conventions"): SplitMix64's
# gamma and finalizer multipliers, and the two streams' constants.
_GAMMA, _MIX_1, _MIX_2 = np.array(
    [0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB], np.uint64)
_SCENARIO_STREAM, _SAMPLE_STREAM = (int.from_bytes(name, "little")
                                    for name in (b"scenario", b"sampling"))


def _mix64(words: np.ndarray) -> np.ndarray:
    """SplitMix64's finalizer on uint64 arrays, which wrap silently."""
    for shift, factor in ((30, _MIX_1), (27, _MIX_2)):
        words = (words ^ words >> shift) * factor
    return words ^ words >> 31


def _stream_words(stream: int, seeds, start: int, count: int) -> np.ndarray:
    """Words ``start`` to ``start + count - 1`` of each seed's ``stream``:
    word k is mix64(key + (k + 1) gamma), the key mix64 folded over the
    seed's 64-bit limbs from the stream constant, low limb first."""
    try:
        limbs = np.array(seeds, dtype=np.uint64)[:, None]
    except OverflowError:  # a seed of 2**64 or more
        seeds = [operator.index(seed) for seed in seeds]
        limbs = np.array([[seed >> 64 * k & 2**64 - 1 for k in range(
            (max(seeds).bit_length() + 63) // 64)] for seed in seeds], np.uint64)
    keys = _mix64(limbs[:, 0] ^ np.uint64(stream))
    for k in range(1, limbs.shape[1]):  # up to each seed's top limb
        keys = np.where(limbs[:, k:].any(axis=1), _mix64(keys ^ limbs[:, k]),
                        keys)
    counters = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    return _mix64(keys[:, None] + counters * _GAMMA)


def _uniforms(words: np.ndarray) -> np.ndarray:
    """Uniforms in [0, 1): each word's top 53 bits times 2**-53."""
    return (words >> 11) * 2.0 ** -53


def _normals(words: np.ndarray) -> np.ndarray:
    """Complex normals ``(..., k)``, real and imaginary parts each N(0, 1),
    by Box-Muller on the consecutive pairs of the ``(..., 2k)`` words."""
    radius = np.sqrt(-2.0 * np.log(_uniforms(words[..., 0::2]) + 2.0 ** -53))
    turn = 2.0 * np.pi * _uniforms(words[..., 1::2])
    normals = np.empty(turn.shape, dtype=complex)
    normals.real, normals.imag = radius * np.cos(turn), radius * np.sin(turn)
    return normals


def _residual_draws(seeds, d: int) -> np.ndarray:
    """``(len(seeds), 2, d-1)`` residual weights: entry j of member m of a
    seed from words 2((d-1)m + j) and 2((d-1)m + j) + 1 of its stream."""
    words = _stream_words(_SCENARIO_STREAM, seeds, 0, 4 * (d - 1))
    return _normals(words).reshape(-1, 2, d - 1)


def _kets_with_tau(kets: np.ndarray, p, draws: np.ndarray) -> np.ndarray:
    """Kets with overlap ``p`` with each of the ``(..., d)`` ``kets``, unit
    to round-off: the callers build their states through ``gm._ket_states``,
    which checks and divides by the norm.

    p = 0 gives the first row of the orthonormal completion, exactly;
    otherwise the completion is weighted by ``draws`` (``(..., d-1)``) into
    a unit residual direction, mixed in with weight sqrt(1 - p). p = 1
    (the reference itself) is left to the caller.
    """
    p = np.asarray(p, dtype=float)
    completion = orthonormal_completion(kets)
    residual = gm._product(draws[..., None, :], completion)[..., 0, :]
    residual = residual / gm._norm(residual)[..., None]
    psi = (np.sqrt(p)[..., None] * kets
           + np.sqrt(1.0 - p)[..., None] * residual)
    if np.count_nonzero(p == 0.0):
        psi = np.where((p == 0.0)[..., None], completion[..., 0, :], psi)
    return psi


# ----------------------------------------------------------------------------
# LP cross-check path
# ----------------------------------------------------------------------------

def great_circle_states(phi: gm.State, count: int,
                        through: gm.State | None = None) -> np.ndarray:
    """Qubit cone generators on the Bloch great circle through phi.

    Returns a ``(count, 4)`` array whose rows are the coefficient vectors
    of the pure states at ``count`` equally spaced angles, the first row
    being phi's own. The circle plane is spanned by phi's Bloch vector and,
    when provided, the component of ``through``'s Bloch vector orthogonal
    to it (with a deterministic axis fallback for aligned or missing
    ``through``). The rows feed :func:`tau_lp_report` directly.
    """
    model = phi.model
    if model.kind != gm.QUANTUM or model.size != 2:
        raise UnsupportedModelError("Great-circle grids are a qubit construction.")
    count = operator.index(count)
    if count < 3:
        raise ValueError("Need at least 3 grid points.")
    m = gm.bloch_vector(phi)
    m = m / np.linalg.norm(m)
    w = None
    if through is not None:
        t = gm.bloch_vector(through)
        t_perp = t - (t @ m) * m
        if np.linalg.norm(t_perp) > 1e-8:
            w = t_perp / np.linalg.norm(t_perp)
    if w is None:
        w = _deterministic_orthogonal(m)
    thetas = 2.0 * np.pi * np.arange(count) / count
    x, y, z = m[:, None] * np.cos(thetas) + w[:, None] * np.sin(thetas)
    # coeffs_from_matrix of state_from_bloch's matrix in the same float
    # operations; the halving and doubling of x and y there cancel (above
    # 2**-1021), and their sums with m01's zero make a zero x or y +0
    # before the scaling.
    m00, m11 = 0.5 * (1.0 + z), 0.5 * (1.0 - z)
    rows = np.empty((count, 4))
    rows[:, 0] = (m00 + m11) * gm._INV_SQRT2
    rows[:, 1] = (0.0 + x) * gm._INV_SQRT2
    rows[:, 2] = (0.0 - y) * -gm._INV_SQRT2
    rows[:, 3] = (m00 - m11) * gm._INV_SQRT2
    return rows


def _deterministic_orthogonal(m: np.ndarray) -> np.ndarray:
    """Unit vector orthogonal to the unit 3-vector ``m``: the first
    coordinate axis at more than 30 degrees from it (one always is), with
    its component along m removed."""
    for axis in np.eye(3):
        cand = axis - gm._dot(axis, m) * m
        norm = gm._norm(cand)
        if norm > 0.5:
            return cand / norm


def tau_lp_report(model: gm.SystemModel, psi: gm.State, phi: gm.State,
                  generators: np.ndarray | None = None) -> TauLpReport:
    """LP form of tau with solver diagnostics.

    Maximizes e(psi) over covectors e that accept phi with certainty,
    reject each state of phi's distinguishing complement family, and
    satisfy 0 <= e(g) <= 1 on the cone generators. ``generators`` is an
    ``(m, ambient_dimension)`` array with one generator's coefficient
    vector per row. Classical models default to the deterministic vertices,
    ``np.eye(n)``, which makes the LP exact; quantum models need a finite
    generator set such as :func:`great_circle_states`.

    The perfect-acceptance/rejection equalities are eliminated analytically
    and the remaining box-constrained program is solved through its dual,
    which keeps the simplex tableau small even for dense generator grids.
    """
    _require_same_model(psi, phi)
    _require_pure(psi, "psi")
    _require_pure(phi, "phi")
    if model != phi.model:
        raise ModelMismatchError("States do not belong to the given model.")

    if model.kind == gm.CLASSICAL:
        if generators is None:
            generators = np.eye(model.size)
        index = int(np.argmax(phi.coeffs))
        rejected = [row for j, row in enumerate(np.eye(model.size)) if j != index]
    else:
        if generators is None:
            raise ValueError(
                "Quantum tau_lp needs a finite effect generator set; "
                "see great_circle_states.")
        rejected = [gm.ket_state(model, row).coeffs
                    for row in orthonormal_completion(gm.pure_ket(phi))]
    gen_rows = np.ascontiguousarray(generators, dtype=float)
    if gen_rows.ndim != 2 or gen_rows.shape[1] != model.ambient_dimension:
        raise ValueError(
            f"Generators must be an (m, {model.ambient_dimension}) array of "
            f"coefficient rows, got shape {gen_rows.shape}.")
    if not np.isfinite(gen_rows).all():
        raise ValueError("Generators must be finite.")

    pinned = np.array([phi.coeffs, *rejected])
    targets = np.array([1.0] + [0.0] * len(rejected))

    # Particular solution: the distinguishing accept effect, corrected onto
    # the equality manifold; nullspace basis spans the remaining freedom.
    accept = accept_effect(phi).covector
    correction = np.linalg.lstsq(pinned, pinned @ accept - targets, rcond=None)[0]
    e0 = accept - correction
    _, svals, vt = np.linalg.svd(pinned)
    rank = np.count_nonzero(svals > 1e-10 * svals[0])
    nullspace = vt[rank:].T  # (ambient, k)

    base = gen_rows @ e0
    const = float(e0 @ psi.coeffs)

    if nullspace.shape[1] == 0:
        # Equalities pin the effect completely (classical models).
        if base.min() < -LINEAR_TOL or base.max() > 1.0 + LINEAR_TOL:
            raise InfeasibleError(
                "No effect in the generator polytope attains e(phi) = 1.")
        return TauLpReport(min(max(const, 0.0), 1.0), 0, 0, len(gen_rows))

    reduced_obj = nullspace.T @ psi.coeffs
    rows = gen_rows @ nullspace  # (m, k)
    a_ub = np.concatenate((rows, -rows))
    b_ub = np.concatenate((1.0 - base, base))

    # Primal: max reduced_obj . z  s.t.  a_ub z <= b_ub, z free.
    # Dual:   min b_ub . y  s.t.  a_ub^T y = reduced_obj, y >= 0.
    result = solve_nonneg(b_ub, a_ub.T, reduced_obj)
    if result.status == "infeasible":
        raise UnboundedError(
            "Generator set does not bound the effect polytope in the "
            "objective direction; the cone is malformed or too sparse.")
    if result.status == "unbounded":
        raise InfeasibleError(
            "No effect in the generator polytope attains e(phi) = 1.")
    value = min(max(result.value + const, 0.0), 1.0)
    return TauLpReport(value, result.iterations, result.phase1_iterations,
                       len(gen_rows))

