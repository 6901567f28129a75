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
from functools import cached_property, lru_cache

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

    def coeffs_from_matrix(self, matrix: np.ndarray) -> np.ndarray:
        """Expand a Hermitian matrix in the orthonormal basis.

        Qubit models also take a ``(..., 2, 2)`` stack and return
        ``(..., 4)`` coefficients, each row equal to its matrix's expansion.
        """
        if self.size == 2:  # closed form in the {I, X, Y, Z}/sqrt(2) basis
            # Entry (i, j) read as t[j, i] indexes one matrix or a stack
            # alike, at the cost of plain indexing on a single matrix.
            t = matrix.T
            off = t[1, 0]
            return np.array([
                (t[0, 0].real + t[1, 1].real) * _INV_SQRT2,
                2.0 * off.real * _INV_SQRT2,
                -2.0 * off.imag * _INV_SQRT2,
                (t[0, 0].real - t[1, 1].real) * _INV_SQRT2,
            ]).T
        coeffs = np.einsum("ij,kji->k", matrix, self.hermitian_basis)
        return np.real(coeffs)

    def matrix_from_coeffs(self, coeffs: np.ndarray) -> np.ndarray:
        """Reconstruct the Hermitian matrix from its coefficient vector."""
        return np.einsum("k,kij->ij", np.asarray(coeffs, dtype=float),
                         self.hermitian_basis)

    def to_dict(self) -> dict:
        key = "d" if self.kind == QUANTUM else "n"
        return {"kind": self.kind, key: self.size}


def quantum(d: int) -> SystemModel:
    """Quantum model on a d-dimensional complex Hilbert space."""
    return SystemModel(QUANTUM, d)


def classical(n: int) -> SystemModel:
    """Classical model with n perfectly distinguishable outcomes."""
    return SystemModel(CLASSICAL, n)


def model_from_dict(data: dict) -> SystemModel:
    kind = data["kind"]
    if kind == QUANTUM:
        return quantum(int(data["d"]))
    if kind == CLASSICAL:
        return classical(int(data["n"]))
    raise ValueError(f"Unknown model kind {kind!r}.")


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
    if abs(total - 1.0) > LINEAR_TOL:
        raise NotNormalizedError(f"Probabilities sum to {total}, expected 1.")
    low = float(coeffs.min())
    if low < -LINEAR_TOL:
        raise OutsideConeError(f"Negative probability {low} beyond tolerance.")
    if low < 0.0:
        coeffs = np.clip(coeffs, 0.0, None)
        coeffs = coeffs / coeffs.sum()
    pure = abs(float(coeffs.max()) - 1.0) <= LINEAR_TOL
    coeffs.flags.writeable = False
    return State(model, coeffs, None, pure)


def _spectrum_bounds(matrix: np.ndarray) -> tuple[float, float]:
    """Smallest and largest eigenvalue of a Hermitian matrix.

    2x2 matrices use the closed form (exact at the arithmetic level, which
    keeps projector spectra at exactly {0, 1}); larger ones fall back to
    the eigensolver.
    """
    if matrix.shape[0] == 2:
        half_trace = 0.5 * (matrix[0, 0].real + matrix[1, 1].real)
        radius = np.sqrt((0.5 * (matrix[0, 0].real - matrix[1, 1].real)) ** 2
                         + abs(matrix[0, 1]) ** 2)
        return half_trace - radius, half_trace + radius
    eigvals = np.linalg.eigvalsh(matrix)
    return float(eigvals[0]), float(eigvals[-1])


def state_from_matrix(model: SystemModel, matrix: np.ndarray,
                      ket: np.ndarray | None = None) -> State:
    """Validate a density matrix and wrap it as a State."""
    if model.kind != QUANTUM:
        raise UnsupportedModelError("Matrix states require a quantum model.")
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.shape != (model.size, model.size):
        raise ValueError(f"Expected a {model.size}x{model.size} matrix.")
    if model.size == 2:
        skew = max(abs(matrix[0, 0].imag), abs(matrix[1, 1].imag),
                   abs(matrix[0, 1] - matrix[1, 0].conjugate()))
        trace = matrix[0, 0].real + matrix[1, 1].real
    else:
        skew = float(np.max(np.abs(matrix - matrix.conj().T)))
        trace = float(np.trace(matrix).real)
    if skew > SPECTRAL_TOL:
        raise OutsideConeError("Matrix is not Hermitian within tolerance.")
    if skew > 0.0:
        matrix = 0.5 * (matrix + matrix.conj().T)
    if abs(trace - 1.0) > LINEAR_TOL:
        raise NotNormalizedError(f"Trace is {trace}, expected 1.")

    low, _ = _spectrum_bounds(matrix)
    if low < -SPECTRAL_TOL:
        raise OutsideConeError(f"Negative eigenvalue {low} beyond tolerance.")
    if low < _CLIP_FLOOR:
        # Genuine (but tolerable) negative part: project it away. Values
        # above the floor are rounding noise that a rebuild could not
        # improve on, so they pass through untouched.
        eigvals, eigvecs = np.linalg.eigh(matrix)
        clipped = np.clip(eigvals, 0.0, None)
        matrix = (eigvecs * clipped) @ eigvecs.conj().T
        matrix = 0.5 * (matrix + matrix.conj().T)
        matrix = matrix / np.trace(matrix).real
        ket = None

    pure = abs(float(np.vdot(matrix, matrix).real) - 1.0) <= SPECTRAL_TOL
    coeffs = model.coeffs_from_matrix(matrix)
    coeffs.flags.writeable = False
    matrix.flags.writeable = False
    return State(model, coeffs, matrix, pure, ket if pure else None)


def ket_state(model: SystemModel, ket: np.ndarray) -> State:
    """Pure quantum state from a unit Hilbert-space vector."""
    if model.kind != QUANTUM:
        raise UnsupportedModelError("Ket states require a quantum model.")
    ket = np.asarray(ket, dtype=complex).reshape(-1)
    if ket.shape != (model.size,):
        raise ValueError(f"Expected a length-{model.size} vector.")
    norm = float(np.linalg.norm(ket))
    if abs(norm - 1.0) > SPECTRAL_TOL:
        raise NotNormalizedError(f"Ket norm is {norm}, expected 1.")
    unit = _fix_phase(ket / norm)
    unit.flags.writeable = False
    return state_from_matrix(model, np.outer(unit, unit.conj()), ket=unit)


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


def maximally_mixed(model: SystemModel) -> State:
    """The order-unit-normalized maximally mixed state."""
    if model.kind == QUANTUM:
        return state_from_matrix(model, np.eye(model.size, dtype=complex) / model.size)
    return validate_state(model, np.full(model.size, 1.0 / model.size))


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
    eigvals, eigvecs = np.linalg.eigh(state.matrix)
    ket = eigvecs[:, -1]
    return _fix_phase(ket)


def _fix_phase(vec: np.ndarray) -> np.ndarray:
    idx = int(np.argmax(np.abs(vec) > 1e-12))
    pivot = vec[idx]
    if pivot.imag == 0.0 and pivot.real > 0.0:
        return vec
    return vec * (pivot.conjugate() / abs(pivot))


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
    if np.max(np.abs(matrix - matrix.conj().T)) > SPECTRAL_TOL:
        raise OutsideConeError("Effect operator is not Hermitian.")
    matrix = 0.5 * (matrix + matrix.conj().T)
    low, high = _spectrum_bounds(matrix)
    if low < -SPECTRAL_TOL or high > 1.0 + SPECTRAL_TOL:
        raise OutsideConeError(
            f"Effect spectrum [{low}, {high}] escapes [0, 1].")
    covector = model.coeffs_from_matrix(matrix)
    covector.flags.writeable = False
    matrix.flags.writeable = False
    return Effect(model, covector, matrix)


def effect_from_covector(model: SystemModel, covector: np.ndarray) -> Effect:
    """Effect from its ambient covector; validity checked on cone generators
    (eigenbasis projectors for quantum, vertices for classical)."""
    covector = np.asarray(covector, dtype=float)
    if covector.shape != (model.ambient_dimension,):
        raise ValueError(
            f"Expected {model.ambient_dimension} components, got {covector.shape}.")
    if model.kind == QUANTUM:
        return effect_from_matrix(model, model.matrix_from_coeffs(covector))
    if covector.min() < -LINEAR_TOL or covector.max() > 1.0 + LINEAR_TOL:
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
    model = model_from_dict(data["model"])
    if model.kind == QUANTUM and "matrix" in data:
        return effect_from_matrix(model, _matrix_from_pairs(data["matrix"]))
    return effect_from_covector(model, np.asarray(data["coeffs"], dtype=float))


def state_from_dict(data: dict) -> State:
    model = model_from_dict(data["model"])
    if model.kind == QUANTUM and "matrix" in data:
        return state_from_matrix(model, _matrix_from_pairs(data["matrix"]))
    return validate_state(model, np.asarray(data["coeffs"], dtype=float))


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
    total = np.sum([e.covector for e in effects], axis=0)
    residual = float(np.max(np.abs(total - model.unit_covector)))
    if residual > LINEAR_TOL:
        raise OutsideConeError(
            f"Effects sum deviates from the unit by {residual}.")
    return Measurement(effects)


def measurement_from_dict(data: dict) -> Measurement:
    return measurement(effect_from_dict(e) for e in data["effects"])


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
    if state.matrix is not None:
        value = float(np.vdot(state.matrix, effect.matrix).real)
    else:
        value = float(effect.covector @ state.coeffs)
    if value < 0.0:
        if value < -SPECTRAL_TOL:
            raise OutsideConeError(f"Pairing {value} below 0 beyond tolerance.")
        value = 0.0
    elif value > 1.0:
        if value > 1.0 + SPECTRAL_TOL:
            raise OutsideConeError(f"Pairing {value} above 1 beyond tolerance.")
        value = 1.0
    return value


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

    @property
    def all_pure(self) -> bool:
        return all(s.pure for s in self.states)

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
    if weights.min() < -LINEAR_TOL:
        raise ValueError(f"Negative ensemble weight {weights.min()}.")
    if abs(weights.sum() - 1.0) > LINEAR_TOL:
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
        ((m["weight"], state_from_dict(m["state"])) for m in data["members"]),
        require_pure=False,
    )


def mix(ens: Ensemble) -> State:
    """Average state of an ensemble."""
    if len(ens) == 0:
        raise EmptyEnsembleError("Cannot mix an empty ensemble.")
    model = ens.states[0].model
    if len(ens) == 1 and ens.weights[0] == 1.0:
        return ens.states[0]
    if model.kind == QUANTUM:
        avg = ens.weights[0] * ens.states[0].matrix
        for w, s in zip(ens.weights[1:], ens.states[1:]):
            avg = avg + w * s.matrix
        return state_from_matrix(model, avg)
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
    if abs(norm - 1.0) > LINEAR_TOL:
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
    model_a = model_from_dict(data["model_a"])
    model_b = model_from_dict(data["model_b"])
    pairs = np.asarray(data["amplitudes"], dtype=float)
    amplitudes = pairs[:, 0] + 1j * pairs[:, 1]
    if model_a.kind == CLASSICAL:
        if np.max(np.abs(amplitudes.imag)) > 0:
            raise ValueError("Classical joint states must be real.")
        idx = int(np.argmax(amplitudes.real))
        return product_point(model_a, model_b,
                             idx // model_b.size, idx % model_b.size)
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
    rho = 0.5 * (np.eye(2, dtype=complex) + np.einsum("k,kij->ij", vec, _PAULIS))
    return state_from_matrix(model, rho)


# ============================================================================
# Serialization helpers
# ============================================================================

def _matrix_to_pairs(matrix: np.ndarray) -> list:
    return [[[float(c.real), float(c.imag)] for c in row] for row in matrix]


def _matrix_from_pairs(data) -> np.ndarray:
    arr = np.asarray(data, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]
