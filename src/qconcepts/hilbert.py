"""Finite-dimensional complex Hilbert space primitives.

State vectors, projectors, spectral families, Born probabilities, tensor
products, and the clamped cosine inversion that turns a Born relation into
an interference angle. Everything is dense numpy; the dimensions in play
stay well below the point where sparsity would pay off.

Two fixed tolerances are used throughout: STRUCTURAL_TOL (1e-9) for
normalization, idempotence and completeness checks, and the tighter
ALGEBRAIC_TOL (1e-12) for identities that hold to rounding error.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, ModelError, NoInterferenceSolution

STRUCTURAL_TOL = 1e-9
ALGEBRAIC_TOL = 1e-12
# slack for clamping an arccos argument that is numerically just outside [-1, 1]
COS_CLAMP_SLACK = 1e-6


def _as_complex_array(components) -> np.ndarray:
    arr = np.asarray(components, dtype=complex)
    if arr.ndim != 1 or arr.size == 0:
        raise ModelError("state components must form a nonempty 1-d array")
    return arr


@dataclass(frozen=True, eq=False)
class StateVector:
    """A vector in C^dim, normalized unless explicitly built otherwise."""

    components: np.ndarray
    normalized: bool = True

    def __post_init__(self):
        arr = _as_complex_array(self.components)
        object.__setattr__(self, "components", arr)
        if self.normalized:
            nrm = np.linalg.norm(arr)
            if abs(nrm - 1.0) > STRUCTURAL_TOL:
                raise ModelError(
                    f"state vector not normalized: |norm - 1| = {abs(nrm - 1.0):.3e}"
                )

    def norm(self) -> float:
        return float(np.linalg.norm(self.components))


class Projector:
    """Orthogonal projector, either dense Hermitian-idempotent or diagonal.

    Diagonal projectors are stored as a set of basis indices and promoted to
    a dense matrix only on demand.
    """

    def __init__(self, matrix=None, basis_indices=None, dim=None):
        if (matrix is None) == (basis_indices is None):
            raise ModelError("provide exactly one of matrix or basis_indices")
        if matrix is not None:
            m = np.asarray(matrix, dtype=complex)
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise ModelError("projector matrix must be square")
            if np.max(np.abs(m - m.conj().T)) > STRUCTURAL_TOL:
                raise ModelError("projector matrix is not Hermitian")
            if np.max(np.abs(m @ m - m)) > STRUCTURAL_TOL:
                raise ModelError("projector matrix is not idempotent")
            self._matrix = m
            self._indices = None
            self._dim = m.shape[0]
        else:
            if dim is None:
                raise ModelError("diagonal projector needs an explicit dim")
            idx = sorted(int(i) for i in basis_indices)
            if len(set(idx)) != len(idx):
                raise ModelError("basis indices must be distinct")
            if idx and (idx[0] < 0 or idx[-1] >= dim):
                raise ModelError(f"basis index out of range for dim {dim}")
            self._matrix = None
            self._indices = tuple(idx)
            self._dim = int(dim)

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def basis_indices(self):
        return self._indices

    @property
    def matrix(self) -> np.ndarray:
        """Dense representation (promotes a diagonal projector on demand)."""
        if self._matrix is None:
            self._matrix = np.diag(np.isin(np.arange(self._dim), self._indices)).astype(complex)
        return self._matrix

    def apply(self, components: np.ndarray) -> np.ndarray:
        if components.shape[0] != self._dim:
            raise DimensionMismatch(
                f"projector dim {self._dim} vs state dim {components.shape[0]}"
            )
        if self._indices is not None:
            out = np.zeros_like(components)
            out[list(self._indices)] = components[list(self._indices)]
            return out
        return self.matrix @ components


@dataclass(frozen=True)
class SpectralFamily:
    """A list of projectors intended to be orthogonal and complete."""

    projectors: tuple
    dim: int

    def __post_init__(self):
        for p in self.projectors:
            if p.dim != self.dim:
                raise DimensionMismatch("spectral family members disagree on dim")


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    orthogonality_violations: tuple   # ((i, j, max_abs_entry), ...)
    completeness_defect: float


def inner_product(a, b) -> complex:
    """<a|b>, conjugate-linear in the first argument."""
    ca = a.components if isinstance(a, StateVector) else _as_complex_array(a)
    cb = b.components if isinstance(b, StateVector) else _as_complex_array(b)
    if ca.shape != cb.shape:
        raise DimensionMismatch(f"dims {ca.size} vs {cb.size}")
    return complex(np.vdot(ca, cb))


def born_probability(state, projector: Projector) -> float:
    """<s|M|s> for a projector M; validated real and inside [0, 1]."""
    comps = state.components if isinstance(state, StateVector) else _as_complex_array(state)
    idx = projector.basis_indices
    if idx is not None and len(idx) == 1 and comps.shape[0] == projector.dim:
        part = comps[idx[0]:idx[0] + 1]     # the zero-filled vdot's one nonzero term
        val = complex(np.vdot(part, part))
    else:
        val = complex(np.vdot(comps, projector.apply(comps)))
    if abs(val.imag) > ALGEBRAIC_TOL:
        raise ModelError(f"Born probability not real: imag = {val.imag:.3e}")
    p = val.real
    if not (-STRUCTURAL_TOL <= p <= 1.0 + STRUCTURAL_TOL):     # NaN fails too
        raise ModelError(f"Born probability outside [0, 1]: {p!r}")
    return min(max(p, 0.0), 1.0)


def tensor_product(a, b) -> StateVector:
    """Kronecker product, row-major: the first factor's index varies slowest."""
    ca = a.components if isinstance(a, StateVector) else _as_complex_array(a)
    cb = b.components if isinstance(b, StateVector) else _as_complex_array(b)
    return StateVector(np.kron(ca, cb), normalized=False)


def schmidt_rank(state, dims) -> int:
    """Number of Schmidt coefficients above STRUCTURAL_TOL for a state in C^(da*db)."""
    da, db = int(dims[0]), int(dims[1])
    comps = state.components if isinstance(state, StateVector) else _as_complex_array(state)
    if comps.size != da * db:
        raise DimensionMismatch(f"state dim {comps.size} != {da}*{db}")
    s = np.linalg.svd(comps.reshape(da, db), compute_uv=False)
    return int(np.sum(s > STRUCTURAL_TOL))


def validate_spectral_family(family: SpectralFamily) -> ValidationReport:
    """Check pairwise orthogonality and completeness; report violating pairs."""
    violations = []
    mats = [p.matrix for p in family.projectors]
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            worst = float(np.max(np.abs(mats[i] @ mats[j])))
            if worst > STRUCTURAL_TOL:
                violations.append((i, j, worst))
    total = sum(mats) if mats else np.zeros((family.dim, family.dim))
    defect = float(np.max(np.abs(total - np.eye(family.dim))))
    ok = not violations and defect <= STRUCTURAL_TOL
    return ValidationReport(ok, tuple(violations), defect)


def arccos_clamped(arg, message):
    """Angle in [0, pi] whose cosine is ``arg``, clamping rounding overshoot.

    ``arg`` may be an array of cosines. One beyond 1 + COS_CLAMP_SLACK in
    magnitude has no angle: the first such raises NoInterferenceSolution
    carrying it, with ``message`` (``message(i)`` for array element i).
    """
    arr = np.asarray(arg, dtype=float)
    over = np.flatnonzero(np.abs(arr) > 1.0 + COS_CLAMP_SLACK)
    if over.size:
        i = int(over[0])
        raise NoInterferenceSolution(message(i) if arr.ndim else message,
                                     argument=float(arr.flat[i]))
    angles = np.arccos(np.clip(arr, -1.0, 1.0))
    return angles if arr.ndim else float(angles)
