"""Core state/effect/measurement abstractions and the two concrete models.

A system is an ordered real vector space with a positive cone and an order
unit. Two model kinds are provided: ``quantum`` (Hermitian matrices on a
d-dimensional Hilbert space, cone = positive semidefinite operators) and
``classical`` (probability vectors over n outcomes, cone = nonnegative
orthant). Quantum objects are stored as complex Hermitian matrices
internally; the real coefficient vector in a fixed orthonormal Hermitian
basis is the model-agnostic view used by the cone abstraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, partial

import numpy as np

from .errors import (
    EmptyEnsembleError,
    ModelMismatchError,
    NotNormalizedError,
    NotPureError,
    OutsideConeError,
    UnsupportedModelError,
)

# Tolerances: linear identities are checked at double-precision accumulation
# noise, eigenvalue-based checks (PSD membership, purity) at eigensolver noise.
LINEAR_TOL = 1e-12
SPECTRAL_TOL = 1e-9

QUANTUM = "quantum"
CLASSICAL = "classical"

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_OFF_SCALE = np.array([2.0, -2.0])  # Re m01, Im m01 to the X, Y coefficients
_CLIP_FLOOR = -1e-14  # below this, negatives are projected; above, passed through


# ============================================================================
# Models
# ============================================================================

@dataclass(frozen=True)
class SystemModel:
    """A finite-dimensional model: ``quantum`` with Hilbert dimension ``size``
    or ``classical`` with ``size`` outcomes."""

    kind: str
    size: int

    def __post_init__(self):
        if self.kind not in (QUANTUM, CLASSICAL):
            raise ValueError(f"Unknown model kind {self.kind!r}.")
        if self.size < 2:
            raise ValueError("Model size must be at least 2.")

    @property
    def ambient_dimension(self) -> int:
        """Real dimension of the ambient ordered vector space."""
        return self.size * self.size if self.kind == QUANTUM else self.size

    @cached_property
    def hermitian_basis(self) -> np.ndarray:
        """Orthonormal Hermitian basis, shape ``(d*d, d, d)``; quantum only."""
        if self.kind != QUANTUM:
            raise UnsupportedModelError("Classical models have no matrix basis.")
        return _hermitian_basis(self.size)

    @cached_property
    def unit_covector(self) -> np.ndarray:
        """Order unit as a covector on the ambient coefficient space."""
        if self.kind == QUANTUM:
            vec = np.zeros(self.ambient_dimension)
            vec[0] = np.sqrt(self.size)  # identity component of Tr
        else:
            vec = np.ones(self.size)
        vec.flags.writeable = False
        return vec

    @cached_property
    def _coeff_map(self) -> np.ndarray:
        """``(d*d, d*d)`` map taking a flattened matrix to its coefficients."""
        d = self.size
        return np.ascontiguousarray(
            self.hermitian_basis.transpose(0, 2, 1).reshape(d * d, d * d).T)

    def coeffs_from_matrix(self, matrix: np.ndarray) -> np.ndarray:
        """Expand a Hermitian matrix, or a ``(..., d, d)`` stack of them, in
        the orthonormal basis; each row is its own matrix's expansion."""
        if self.size == 2:  # closed form in the {I, X, Y, Z}/sqrt(2) basis
            # Float view: row 0 is Re m00, Im m00, Re m01, Im m01.
            parts = np.ascontiguousarray(matrix, dtype=complex).view(np.float64)
            m00, m11 = parts[..., 0, 0], parts[..., 1, 2]
            coeffs = np.empty(parts.shape[:-2] + (4,))
            coeffs[..., 0] = (m00 + m11) * _INV_SQRT2
            coeffs[..., 1:3] = _OFF_SCALE * parts[..., 0, 2:] * _INV_SQRT2
            coeffs[..., 3] = (m00 - m11) * _INV_SQRT2
            return coeffs
        d2 = self.size * self.size
        flat = matrix.reshape(*matrix.shape[:-2], 1, d2)
        return np.ascontiguousarray(np.real(flat @ self._coeff_map)[..., 0, :])

    def matrix_from_coeffs(self, coeffs: np.ndarray) -> np.ndarray:
        """Reconstruct the Hermitian matrix from its coefficient vector."""
        return np.einsum("k,kij->ij", np.asarray(coeffs, dtype=float),
                         self.hermitian_basis)

    def to_dict(self) -> dict:
        key = "d" if self.kind == QUANTUM else "n"
        return {"kind": self.kind, key: self.size}


@lru_cache(maxsize=None)
def quantum(d: int) -> SystemModel:
    """Quantum model on a d-dimensional complex Hilbert space."""
    return SystemModel(QUANTUM, d)


@lru_cache(maxsize=None)
def classical(n: int) -> SystemModel:
    """Classical model with n perfectly distinguishable outcomes."""
    return SystemModel(CLASSICAL, n)


def model_from_dict(data: dict) -> SystemModel:
    kind = _read(data, "kind")
    if kind == QUANTUM:
        return quantum(_read(data, "d", int))
    if kind == CLASSICAL:
        return classical(_read(data, "n", int))
    raise ValueError(f"Unknown model kind {kind!r}.")


def _read(data, key: str, convert=lambda value: value):
    """``convert(data[key])`` of parsed JSON; ``ValueError`` if ``data`` is
    not an object with ``key`` or ``convert`` rejects the value's type."""
    if not isinstance(data, dict) or key not in data:
        raise ValueError(f"Expected a JSON object with key {key!r}.")
    try:
        return convert(data[key])
    except TypeError as exc:
        raise ValueError(f"Key {key!r}: {exc}.") from None


_floats = partial(np.asarray, dtype=float)


def _hermitian_basis(d: int) -> np.ndarray:
    """Identity-normalized plus generalized Gell-Mann elements.

    All elements are Hermitian and orthonormal under the Hilbert-Schmidt
    inner product; the first element is I/sqrt(d).
    """
    basis = [np.eye(d, dtype=complex) / np.sqrt(d)]
    for k in range(1, d):
        for j in range(k):
            sym = np.zeros((d, d), dtype=complex)
            sym[j, k] = sym[k, j] = 1.0 / np.sqrt(2.0)
            basis.append(sym)
            asym = np.zeros((d, d), dtype=complex)
            asym[j, k] = -1.0j / np.sqrt(2.0)
            asym[k, j] = 1.0j / np.sqrt(2.0)
            basis.append(asym)
    for ell in range(1, d):
        diag = np.zeros((d, d), dtype=complex)
        diag[np.arange(ell), np.arange(ell)] = 1.0
        diag[ell, ell] = -float(ell)
        basis.append(diag / np.sqrt(ell * (ell + 1)))
    out = np.stack(basis, axis=0)
    out.flags.writeable = False
    return out


# ============================================================================
# States
# ============================================================================

@dataclass(frozen=True, eq=False)
class State:
    """Normalized cone element. Construct via :func:`validate_state` or the
    factory helpers; direct construction skips invariant checks."""

    model: SystemModel
    coeffs: np.ndarray
    matrix: np.ndarray | None  # density matrix, quantum models only
    pure: bool
    ket: np.ndarray | None = None  # cached unit vector for pure quantum states

    def to_dict(self) -> dict:
        data = {"type": "state", "model": self.model.to_dict(),
                "coeffs": self.coeffs.tolist()}
        if self.matrix is not None:
            data["matrix"] = _matrix_to_pairs(self.matrix)
        return data


def validate_state(model: SystemModel, coeffs: np.ndarray) -> State:
    """Check normalization, cone membership and purity of a coefficient vector.

    Raises ``NotNormalizedError`` if the order unit does not evaluate to 1,
    ``OutsideConeError`` for PSD/nonnegativity failures beyond tolerance.
    Eigenvalues inside the tolerance band are clipped to zero rather than
    silently accepted as negatives.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (model.ambient_dimension,):
        raise ValueError(
            f"Expected {model.ambient_dimension} coefficients, got {coeffs.shape}.")
    if model.kind == QUANTUM:
        return state_from_matrix(model, model.matrix_from_coeffs(coeffs))

    total = float(coeffs.sum())
    if not abs(total - 1.0) <= LINEAR_TOL:  # NaN fails too
        raise NotNormalizedError(f"Probabilities sum to {total}, expected 1.")
    low = float(coeffs.min())
    if not low >= -LINEAR_TOL:
        raise OutsideConeError(f"Negative probability {low} beyond tolerance.")
    if low < 0.0:
        coeffs = np.clip(coeffs, 0.0, None)
        coeffs = coeffs / coeffs.sum()
    pure = abs(float(coeffs.max()) - 1.0) <= LINEAR_TOL
    coeffs.flags.writeable = False
    return State(model, coeffs, None, pure)


# Stack kernels. Each takes a ``(..., d, d)`` stack (or ``(..., d)`` for
# vectors) and works on every member at once. A member's arithmetic does
# not depend on the batch, so its result is bitwise equal to that of a
# stack of one. Products with a short inner axis (2 to 4 terms in the
# pipeline) are added elementwise in a fixed order: numpy runs that in a
# fraction of a batched ``matmul``'s time. Real dot products stay
# ``matmul``s on rows, the routine ``np.dot`` runs per member, which is
# faster there. Reductions over a short last axis are as slow: numpy
# reduces each output with its own inner loop, so ``sum(axis=-1)`` of a
# ``(1024, 2, 2)`` complex stack takes about 20 times two elementwise
# calls. :func:`_total` adds a 2-term axis elementwise, with numpy's bits,
# and leaves a longer one to numpy, whose pairwise order an in-order chain
# would not keep; the choice reads the axis length only, never the batch.
# :func:`_largest` takes a maximum as one reduction over the leading axis
# of a contiguous transposed copy, exact in any order.

def _dagger(matrices: np.ndarray) -> np.ndarray:
    return matrices.conj().swapaxes(-1, -2)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Rowwise dot product of real ``(..., n)`` stacks."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix products a @ b of ``(..., m, K)`` and ``(..., K, n)`` stacks
    with a short K, the K products added elementwise in order."""
    out = a[..., :, :1] * b[..., :1, :]
    for k in range(1, a.shape[-1]):
        out = out + a[..., :, k:k + 1] * b[..., k:k + 1, :]
    return out


def _total(x: np.ndarray) -> np.ndarray:
    """``x.sum(axis=-1)`` of a ``(..., k)`` stack, bit for bit, booleans
    counted as integers, but for one case: numpy's reduction starts from
    +0.0, so where both of two terms are -0.0 it gives +0.0 and this -0.0.
    A caller whose terms can be -0.0 and whose result's sign of zero is
    read adds 0.0 to match."""
    if x.shape[-1] != 2:
        return x.sum(axis=-1)
    if x.dtype == bool:
        x = x.astype(np.intp)
    return x[..., 0] + x[..., 1]


def _largest(x: np.ndarray) -> np.ndarray:
    """``x.max(axis=-1)`` of a real ``(..., k)`` stack, bit for bit: a NaN
    anywhere in a row makes its maximum NaN."""
    k = x.shape[-1]
    return np.ascontiguousarray(x.reshape(-1, k).T).max(axis=0).reshape(
        x.shape[:-1])


def _trace(m: np.ndarray) -> np.ndarray:
    """Real part of the trace of each matrix of a ``(..., d, d)`` stack,
    ``m.real.trace(axis1=-2, axis2=-1)`` bit for bit."""
    return _total(m.real.diagonal(axis1=-2, axis2=-1))


def _norm(vecs: np.ndarray) -> np.ndarray:
    """Rowwise Euclidean norm of a ``(..., n)`` stack."""
    if vecs.dtype.kind != "c":
        return np.sqrt(_dot(vecs, vecs))
    return np.sqrt(_squares(vecs))


def _squares(vecs: np.ndarray) -> np.ndarray:
    """Rowwise squared Euclidean norm of a complex ``(..., n)`` stack."""
    return _total(vecs.real ** 2 + vecs.imag ** 2)


def _vdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Real part of ``vdot`` of matching ``(..., d, d)`` matrix stacks."""
    size = a.shape[-1] * a.shape[-2]
    flat_a = a.conj().reshape(*a.shape[:-2], 1, size)
    return (flat_a @ b.reshape(*b.shape[:-2], size, 1))[..., 0, 0].real


def _fail(error: type, message, bad: np.ndarray, *values) -> None:
    """Raise ``error`` for the first True entry of ``bad``, its ``message``
    formatted with each of ``values`` read at that entry; return if no
    entry is True."""
    if not np.count_nonzero(bad):
        return
    at = np.unravel_index(int(np.argmax(bad)), np.shape(bad))
    raise error(message.format(*(np.asarray(v)[at] for v in values)))


def _spectrum_bounds(matrices: np.ndarray):
    """Smallest and largest eigenvalue of each Hermitian matrix.

    2x2 matrices use the closed form (exact at the arithmetic level, which
    keeps projector spectra at exactly {0, 1}); larger ones use the
    eigensolver.
    """
    if matrices.shape[-1] == 2:
        m00, m11 = matrices[..., 0, 0].real, matrices[..., 1, 1].real
        half_trace = 0.5 * (m00 + m11)
        radius = np.sqrt((0.5 * (m00 - m11)) ** 2 + abs(matrices[..., 0, 1]) ** 2)
        return half_trace - radius, half_trace + radius
    eigvals = np.linalg.eigvalsh(matrices)
    return eigvals[..., 0], eigvals[..., -1]


def _check_hermitian(model: SystemModel, matrices: np.ndarray,
                     not_hermitian: str):
    """Core of the state and effect checks on a ``(..., d, d)`` stack: each
    member's skew, the largest entry of ``|m - m^dagger|``, must be at most
    SPECTRAL_TOL (else ``OutsideConeError(not_hermitian)``), and a member
    with any skew is replaced by its Hermitian part. Returns a C-contiguous
    copy of the stack, which callers may freeze, and each member's smallest
    and largest eigenvalue."""
    m = np.array(matrices, dtype=complex, order="C")
    if model.size == 2:  # the same value in closed form
        diagonal = np.maximum(abs(m[..., 0, 0].imag), abs(m[..., 1, 1].imag))
        skew = np.maximum(2.0 * diagonal, abs(m[..., 0, 1] - m[..., 1, 0].conj()))
    else:
        skew = abs(m - _dagger(m)).max(axis=(-2, -1))
    _fail(OutsideConeError, not_hermitian, ~(skew <= SPECTRAL_TOL))
    asym = skew > 0.0
    count = np.count_nonzero(asym)
    if count:
        hermitian = 0.5 * (m + _dagger(m))
        m = hermitian if count == asym.size else np.where(
            asym[..., None, None], hermitian, m)
    return (m, *_spectrum_bounds(m))


def _coeffs(model: SystemModel, matrices: np.ndarray) -> np.ndarray:
    """Read-only coefficient rows of checked ``matrices``."""
    coeffs = model.coeffs_from_matrix(matrices)
    coeffs.flags.writeable = False
    return coeffs


def _check_states(model: SystemModel, matrices: np.ndarray):
    """Validate a ``(..., d, d)`` stack of density matrices.

    Each must pass :func:`_check_hermitian`, have unit trace within
    LINEAR_TOL and no eigenvalue below -SPECTRAL_TOL. Eigenvalues between
    that and the clip floor are projected away. Returns the checked
    matrices, read-only; :func:`_coeffs` and :func:`_pure` read them.
    """
    m, low, _ = _check_hermitian(
        model, matrices, "Matrix is not Hermitian within tolerance.")
    trace = m.real.trace(axis1=-2, axis2=-1)
    _fail(NotNormalizedError, "Trace is {}, expected 1.",
          ~(abs(trace - 1.0) <= LINEAR_TOL), trace)  # NaN fails too
    _fail(OutsideConeError, "Negative eigenvalue {} beyond tolerance.",
          ~(low >= -SPECTRAL_TOL), low)

    clipped = low < _CLIP_FLOOR
    if np.count_nonzero(clipped):
        # Genuine (but tolerable) negative part: project it away. Values
        # above the floor are rounding noise that a rebuild could not
        # improve on, so they pass through untouched.
        eigvals, eigvecs = np.linalg.eigh(m[clipped])
        fixed = (eigvecs * np.clip(eigvals, 0.0, None)[..., None, :]) @ \
            _dagger(eigvecs)
        fixed = 0.5 * (fixed + _dagger(fixed))
        fixed = fixed / np.trace(fixed, axis1=-2, axis2=-1).real[:, None, None]
        m[clipped] = fixed

    m.flags.writeable = False
    return m


def _pure(matrices: np.ndarray) -> np.ndarray:
    """Whether each checked density matrix is pure (its purity is 1)."""
    return abs(_vdot(matrices, matrices) - 1.0) <= SPECTRAL_TOL


def _states(model: SystemModel, matrices, pure, kets=None) -> list:
    """States of already-checked stack members, without checking again:
    member i is pure where ``pure[i]``, or every member where ``pure`` is
    True; given ``kets``, the members are their projectors and keep them."""
    coeffs = _coeffs(model, matrices)
    pure = [pure] * len(coeffs) if np.ndim(pure) == 0 else pure
    return [State(model, coeffs[i], matrices[i], bool(pure[i]),
                  None if kets is None else kets[i])
            for i in range(len(coeffs))]


def state_from_matrix(model: SystemModel, matrix: np.ndarray) -> State:
    """Validate a density matrix and wrap it as a State."""
    if model.kind != QUANTUM:
        raise UnsupportedModelError("Matrix states require a quantum model.")
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.shape != (model.size, model.size):
        raise ValueError(f"Expected a {model.size}x{model.size} matrix.")
    matrix = _check_states(model, matrix)
    return State(model, _coeffs(model, matrix), matrix, bool(_pure(matrix)))


def _ket_states(model: SystemModel, kets: np.ndarray):
    """Check a ``(..., d)`` stack of kets for unit norm and build their
    projectors, pure by construction: ``(kets, matrices)``, read-only,
    phases fixed. A unit ket's projector passes the state check, so it is
    not made; each is taken as its Hermitian part, which drops the skew
    (about 1e-18) of numpy's complex outer product, as that check would."""
    norm = _norm(kets)
    _fail(NotNormalizedError, "Ket norm is {}, expected 1.",
          ~(abs(norm - 1.0) <= SPECTRAL_TOL), norm)  # NaN fails too
    unit = _fix_phase(kets / norm[..., None])
    outer = unit[..., :, None] * np.conj(unit)[..., None, :]
    matrices = 0.5 * (outer + _dagger(outer))
    unit.flags.writeable = matrices.flags.writeable = False
    return unit, matrices


def ket_state(model: SystemModel, ket: np.ndarray) -> State:
    """Pure quantum state from a unit Hilbert-space vector."""
    if model.kind != QUANTUM:
        raise UnsupportedModelError("Ket states require a quantum model.")
    ket = np.asarray(ket, dtype=complex).reshape(-1)
    if ket.shape != (model.size,):
        raise ValueError(f"Expected a length-{model.size} vector.")
    unit, matrix = _ket_states(model, ket)
    return State(model, _coeffs(model, matrix), matrix, True, unit)


def point_state(model: SystemModel, index: int) -> State:
    """Deterministic extreme point: |i><i| for quantum, e_i for classical."""
    if not 0 <= index < model.size:
        raise ValueError(f"Index {index} out of range for size {model.size}.")
    if model.kind == QUANTUM:
        ket = np.zeros(model.size, dtype=complex)
        ket[index] = 1.0
        return ket_state(model, ket)
    coeffs = np.zeros(model.size)
    coeffs[index] = 1.0
    return validate_state(model, coeffs)


def pure_ket(state: State) -> np.ndarray:
    """Extract the underlying unit vector of a pure quantum state.

    The global phase is fixed deterministically: the first component larger
    than 1e-12 in modulus is made real and positive.
    """
    if state.model.kind != QUANTUM:
        raise UnsupportedModelError("Only quantum states have kets.")
    if not state.pure:
        raise NotPureError("State is mixed; no ket representation exists.")
    if state.ket is not None:
        return state.ket
    return _fix_phase(np.linalg.eigh(state.matrix)[1][:, -1])


def _fix_phase(vecs: np.ndarray) -> np.ndarray:
    """Each ``(..., d)`` row times the phase making its first component
    larger than 1e-12 in modulus real and positive."""
    pivot = vecs[..., 0]
    size = np.hypot(pivot.real, pivot.imag)
    if np.count_nonzero(size > 1e-12) < pivot.size:
        idx = np.argmax(abs(vecs) > 1e-12, axis=-1)
        pivot = np.take_along_axis(vecs, idx[..., None], axis=-1)[..., 0]
        size = np.hypot(pivot.real, pivot.imag)
    keep = (pivot.imag == 0.0) & (pivot.real > 0.0)
    if np.count_nonzero(keep) == keep.size:
        return vecs
    fixed = vecs * (pivot.conj() / size)[..., None]
    np.copyto(fixed, vecs, where=keep[..., None])
    return fixed


# ============================================================================
# Effects and measurements
# ============================================================================

@dataclass(frozen=True, eq=False)
class Effect:
    """Dual-cone functional taking values in [0, 1] on all states."""

    model: SystemModel
    covector: np.ndarray
    matrix: np.ndarray | None  # effect operator, quantum models only

    def to_dict(self) -> dict:
        data = {"type": "effect", "model": self.model.to_dict(),
                "coeffs": self.covector.tolist()}
        if self.matrix is not None:
            data["matrix"] = _matrix_to_pairs(self.matrix)
        return data


def effect_from_matrix(model: SystemModel, matrix: np.ndarray) -> Effect:
    """Effect from a Hermitian operator with spectrum inside [0, 1].

    Validity is checked on the cone generators, i.e. on the operator's own
    eigenbasis projectors.
    """
    if model.kind != QUANTUM:
        raise UnsupportedModelError("Matrix effects require a quantum model.")
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.shape != (model.size, model.size):
        raise ValueError(f"Expected a {model.size}x{model.size} matrix.")
    m, low, high = _check_hermitian(
        model, matrix, "Effect operator is not Hermitian.")
    if not (low >= -SPECTRAL_TOL and high <= 1.0 + SPECTRAL_TOL):
        raise OutsideConeError(f"Effect spectrum [{low}, {high}] escapes [0, 1].")
    m.flags.writeable = False
    return Effect(model, _coeffs(model, m), m)


def effect_from_covector(model: SystemModel, covector: np.ndarray) -> Effect:
    """Effect from its ambient covector; validity checked on cone generators
    (eigenbasis projectors for quantum, vertices for classical)."""
    covector = np.asarray(covector, dtype=float)
    if covector.shape != (model.ambient_dimension,):
        raise ValueError(
            f"Expected {model.ambient_dimension} components, got {covector.shape}.")
    if model.kind == QUANTUM:
        return effect_from_matrix(model, model.matrix_from_coeffs(covector))
    if not -LINEAR_TOL <= covector.min() <= covector.max() <= 1.0 + LINEAR_TOL:
        raise OutsideConeError(
            f"Effect values [{covector.min()}, {covector.max()}] escape [0, 1].")
    covector = np.clip(covector, 0.0, 1.0)
    covector.flags.writeable = False
    return Effect(model, covector, None)


@lru_cache(maxsize=None)
def unit_effect(model: SystemModel) -> Effect:
    """The order unit: evaluates to 1 on every normalized state."""
    if model.kind == QUANTUM:
        return effect_from_matrix(model, np.eye(model.size, dtype=complex))
    return effect_from_covector(model, np.ones(model.size))


def projector_effect(state: State) -> Effect:
    """Rank-1 effect projecting onto a pure quantum state."""
    if state.model.kind != QUANTUM:
        raise UnsupportedModelError("Projector effects require a quantum model.")
    if not state.pure:
        raise NotPureError("Projector effects require a pure state.")
    return Effect(state.model, state.coeffs, state.matrix)


def effect_from_dict(data: dict) -> Effect:
    model = model_from_dict(_read(data, "model"))
    if model.kind == QUANTUM and "matrix" in data:
        return effect_from_matrix(model, _read(data, "matrix", _from_pairs))
    return effect_from_covector(model, _read(data, "coeffs", _floats))


def state_from_dict(data: dict) -> State:
    model = model_from_dict(_read(data, "model"))
    if model.kind == QUANTUM and "matrix" in data:
        return state_from_matrix(model, _read(data, "matrix", _from_pairs))
    return validate_state(model, _read(data, "coeffs", _floats))


@dataclass(frozen=True, eq=False)
class Measurement:
    """Ordered collection of effects summing to the order unit."""

    effects: tuple[Effect, ...]

    @property
    def model(self) -> SystemModel:
        return self.effects[0].model

    def __len__(self) -> int:
        return len(self.effects)

    def to_dict(self) -> dict:
        return {"type": "measurement", "model": self.model.to_dict(),
                "effects": [e.to_dict() for e in self.effects]}


def measurement(effects) -> Measurement:
    """Validate completeness (sum of effects equals the unit) and wrap."""
    effects = tuple(effects)
    if not effects:
        raise ValueError("A measurement needs at least one effect.")
    model = effects[0].model
    for e in effects:
        if e.model != model:
            raise ModelMismatchError("Measurement mixes different models.")
    total = effects[0].covector  # the covectors, added in order
    for e in effects[1:]:
        total = total + e.covector
    residual = abs(total - model.unit_covector).max()
    if not residual <= LINEAR_TOL:  # NaN fails too
        raise OutsideConeError(f"Effects sum deviates from the unit by {residual}.")
    return Measurement(effects)


def measurement_from_dict(data: dict) -> Measurement:
    return measurement(effect_from_dict(e) for e in _read(data, "effects", list))


# ============================================================================
# Pairing and mixtures
# ============================================================================

def evaluate(effect: Effect, state: State) -> float:
    """Real pairing e(omega), clamp-checked to [0, 1].

    Quantum models pair through the Hilbert-Schmidt inner product of the
    stored matrices; classical models through the coefficient dot product.
    Both agree with the ambient covector pairing to linear tolerance.
    """
    if effect.model != state.model:
        raise ModelMismatchError(
            f"Effect on {effect.model} paired with state on {state.model}.")
    value = (effect.covector @ state.coeffs if state.matrix is None
             else _vdot(state.matrix, effect.matrix))
    _fail(OutsideConeError, "Pairing {} below 0 beyond tolerance.",
          value < -SPECTRAL_TOL, value)
    _fail(OutsideConeError, "Pairing {} above 1 beyond tolerance.",
          value > 1.0 + SPECTRAL_TOL, value)
    return float(np.clip(value, 0.0, 1.0))


@dataclass(frozen=True, eq=False)
class Ensemble:
    """Probability distribution over states.

    A proper ensemble decomposes into pure members; :func:`ensemble`
    enforces this. Steering can produce honest mixed-member variants (e.g.
    under the trivial measurement), so the container itself only requires
    valid weights.
    """

    weights: np.ndarray
    states: tuple[State, ...]

    def __len__(self) -> int:
        return len(self.states)

    def __iter__(self):
        return zip(self.weights, self.states)

    def to_dict(self) -> dict:
        return {"type": "ensemble",
                "members": [{"weight": float(w), "state": s.to_dict()}
                            for w, s in self]}


def ensemble(members, require_pure: bool = True) -> Ensemble:
    """Build an ensemble from (weight, state) pairs and check its invariants."""
    members = list(members)
    if not members:
        raise EmptyEnsembleError("Ensemble has no members.")
    weights = np.asarray([w for w, _ in members], dtype=float)
    states = tuple(s for _, s in members)
    model = states[0].model
    for s in states:
        if s.model != model:
            raise ModelMismatchError("Ensemble mixes different models.")
    non_finite = weights[~np.isfinite(weights)]
    if non_finite.size:
        raise ValueError(f"Non-finite ensemble weight {non_finite[0]}.")
    if not weights.min() >= -LINEAR_TOL:
        raise ValueError(f"Negative ensemble weight {weights.min()}.")
    if not abs(weights.sum() - 1.0) <= LINEAR_TOL:
        raise NotNormalizedError(f"Weights sum to {weights.sum()}, expected 1.")
    if require_pure:
        for s in states:
            if not s.pure:
                raise NotPureError("Ensemble members must be pure states.")
    weights = np.clip(weights, 0.0, None)
    weights.flags.writeable = False
    return Ensemble(weights, states)


def ensemble_from_dict(data: dict) -> Ensemble:
    return ensemble(
        ((_read(m, "weight", float), state_from_dict(_read(m, "state")))
         for m in _read(data, "members", list)),
        require_pure=False,
    )


def _average(weights: np.ndarray, matrices: np.ndarray) -> np.ndarray:
    """Weighted sums ``(n, d, d)`` of ``n`` stacks of ``K`` member matrices
    ``(n, K, d, d)`` with weights ``(n, K)``, added in member order."""
    n, _, d, _ = matrices.shape
    flat = matrices.reshape(n, -1, d * d)
    return _product(weights[:, None], flat).reshape(n, d, d)


def mix(ens: Ensemble) -> State:
    """Average state of an ensemble."""
    if len(ens) == 0:
        raise EmptyEnsembleError("Cannot mix an empty ensemble.")
    model = ens.states[0].model
    if len(ens) == 1 and ens.weights[0] == 1.0:
        return ens.states[0]
    if model.kind == QUANTUM:
        return state_from_matrix(model, _average(
            ens.weights[None], np.stack([s.matrix for s in ens.states])[None])[0])
    avg = ens.weights @ np.stack([s.coeffs for s in ens.states])
    return validate_state(model, avg)


# ============================================================================
# Bipartite states
# ============================================================================

@dataclass(frozen=True, eq=False)
class BipartiteState:
    """Pure joint state of two systems of the same kind.

    Quantum pairs store the joint state vector (complex amplitudes, length
    d_A * d_B). Classical pairs are product deterministic points, stored as a
    one-hot joint distribution of the same length.
    """

    model_a: SystemModel
    model_b: SystemModel
    amplitudes: np.ndarray

    @property
    def joint_matrix(self) -> np.ndarray:
        """Amplitudes reshaped to (dim_A, dim_B)."""
        return self.amplitudes.reshape(self.model_a.size, self.model_b.size)

    def to_dict(self) -> dict:
        return {"type": "bipartite_state",
                "model_a": self.model_a.to_dict(),
                "model_b": self.model_b.to_dict(),
                "amplitudes": [[float(a.real), float(a.imag)]
                               for a in self.amplitudes]}


def bipartite_from_ket(model_a: SystemModel, model_b: SystemModel,
                       amplitudes: np.ndarray) -> BipartiteState:
    """Joint pure quantum state from its amplitude vector."""
    if model_a.kind != QUANTUM or model_b.kind != QUANTUM:
        raise UnsupportedModelError("Amplitude vectors require quantum models.")
    amplitudes = np.asarray(amplitudes, dtype=complex).reshape(-1)
    expected = model_a.size * model_b.size
    if amplitudes.shape != (expected,):
        raise ValueError(f"Expected {expected} amplitudes.")
    norm = float(np.linalg.norm(amplitudes))
    if not abs(norm - 1.0) <= LINEAR_TOL:  # NaN fails too
        raise NotNormalizedError(f"Joint norm is {norm}, expected 1.")
    amplitudes.flags.writeable = False
    # Marginals of a unit vector are Gram matrices: positive semidefinite
    # with trace equal to the squared norm, so they are valid states by
    # construction once the norm check passes.
    return BipartiteState(model_a, model_b, amplitudes)


def product_point(model_a: SystemModel, model_b: SystemModel,
                  i: int, j: int) -> BipartiteState:
    """Classical bipartite pure state: the product deterministic point (i, j)."""
    if model_a.kind != CLASSICAL or model_b.kind != CLASSICAL:
        raise UnsupportedModelError("Product points require classical models.")
    if not (0 <= i < model_a.size and 0 <= j < model_b.size):
        raise ValueError("Point indices out of range.")
    joint = np.zeros(model_a.size * model_b.size)
    joint[i * model_b.size + j] = 1.0
    joint.flags.writeable = False
    return BipartiteState(model_a, model_b, joint)


def bipartite_from_dict(data: dict) -> BipartiteState:
    model_a = model_from_dict(_read(data, "model_a"))
    model_b = model_from_dict(_read(data, "model_b"))
    amplitudes = _read(data, "amplitudes", _from_pairs)
    if model_a.kind == CLASSICAL:
        if amplitudes.shape != (model_a.size * model_b.size,):
            raise ValueError(f"Expected {model_a.size * model_b.size} amplitudes.")
        if np.max(np.abs(amplitudes.imag)) > 0:
            raise ValueError("Classical joint states must be real.")
        point = np.flatnonzero(amplitudes)
        if len(point) != 1 or amplitudes[point[0]] != 1.0:
            raise ValueError("Classical joint states must be one-hot.")
        return product_point(model_a, model_b,
                             *divmod(int(point[0]), model_b.size))
    return bipartite_from_ket(model_a, model_b, amplitudes)


def marginal(psi: BipartiteState, side: str) -> State:
    """Reduced state on side ``"A"`` or ``"B"``."""
    if side not in ("A", "B"):
        raise ValueError(f"Side must be 'A' or 'B', got {side!r}.")
    model = psi.model_a if side == "A" else psi.model_b
    if model.kind == QUANTUM:
        m = psi.joint_matrix
        rho = m @ m.conj().T if side == "A" else (m.conj().T @ m).T
        return state_from_matrix(model, rho)
    joint = psi.amplitudes.real.reshape(psi.model_a.size, psi.model_b.size)
    probs = joint.sum(axis=1) if side == "A" else joint.sum(axis=0)
    return validate_state(model, probs)


# ============================================================================
# Qubit geometry helpers
# ============================================================================

_PAULIS = np.array([[[0, 1], [1, 0]],
                    [[0, -1j], [1j, 0]],
                    [[1, 0], [0, -1]]], dtype=complex)


def bloch_vector(state: State) -> np.ndarray:
    """Bloch vector (x, y, z) of a qubit state."""
    if state.model.kind != QUANTUM or state.model.size != 2:
        raise UnsupportedModelError("Bloch vectors are defined for qubits.")
    return np.real(np.einsum("kij,ji->k", _PAULIS, state.matrix))


def state_from_bloch(model: SystemModel, vec: np.ndarray) -> State:
    """Qubit state with the given Bloch vector (|vec| <= 1)."""
    if model.kind != QUANTUM or model.size != 2:
        raise UnsupportedModelError("Bloch construction is defined for qubits.")
    vec = np.asarray(vec, dtype=float)
    return state_from_matrix(
        model, 0.5 * (np.eye(2, dtype=complex)
                      + np.einsum("k,kij->ij", vec, _PAULIS)))


# ============================================================================
# Serialization helpers
# ============================================================================

def _matrix_to_pairs(matrix: np.ndarray) -> list:
    return [[[float(c.real), float(c.imag)] for c in row] for row in matrix]


def _from_pairs(data) -> np.ndarray:
    pairs = np.asarray(data, dtype=float)
    if pairs.shape[-1:] != (2,):
        raise ValueError("Complex entries must be [re, im] pairs.")
    return pairs[..., 0] + 1j * pairs[..., 1]
