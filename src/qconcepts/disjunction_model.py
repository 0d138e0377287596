"""Explicit single-space model of disjunction data over n exemplars.

Each exemplar k gets one basis direction of C^(n+1); the last coordinate
absorbs any normalization deficit of the weight columns. The two concept
vectors are

    A_k = sqrt(mu(A)_k)                 (real)
    B_k = sqrt(mu(B)_k) * e^{i phi_k}

and the disjunction is the normalized superposition (|A> + |B>)/||.||,
whose Born weight at exemplar k is

    mu(A or B)_k = (mu(A)_k + mu(B)_k)/2 + c_k sqrt(mu(A)_k mu(B)_k) cos phi_k

for the canonical rank-1 projector family (here c_k = 1; the printed
component tables square back to the raw weights, i.e. unit scaling).
Phase magnitudes invert that relation; signs are free and only matter for
the inner product <A|B>, whose magnitude is reported, not forced to zero.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ModelError, check_unit_interval
from .hilbert import Projector, SpectralFamily, arccos_clamped, born_probability, inner_product

# the weight columns come from choose-one experiments, so each should sum
# to ~1; printed tables carry rounding residue up to a few parts in 10^3
COLUMN_SUM_SLACK = 0.002
NORM_DEVIATION_TOL = 1e-3


@dataclass(frozen=True)
class ExemplarRow:
    """One exemplar's weights under two concepts and their disjunction."""

    index: int
    name: str
    mu_a: float
    mu_b: float
    mu_a_or_b: float
    phi_deg: float | None = None    # signed interference angle, if supplied

    def __post_init__(self):
        check_unit_interval((("muA", self.mu_a), ("muB", self.mu_b), ("muAorB", self.mu_a_or_b)),
                            prefix=f"{self.name}: ")
        if self.phi_deg is not None and not (abs(self.phi_deg) <= 180.0):
            raise ModelError(f"{self.name}: phi must lie in [-180, 180] degrees")


def phase_magnitude(row: ExemplarRow, c_k: float = 1.0) -> float:
    """|phi_k| in radians from the weights: arccos of the inverted Born relation."""
    if row.mu_a <= 0.0 or row.mu_b <= 0.0:
        raise ModelError(f"{row.name}: phase undefined for zero membership weight")
    if c_k <= 0.0:
        raise ModelError(f"{row.name}: normalization constant must be positive")
    arg = float((2.0 * row.mu_a_or_b - row.mu_a - row.mu_b)
                / (2.0 * c_k * np.sqrt(row.mu_a * row.mu_b)))
    return arccos_clamped(arg, f"{row.name}: no phase solution at this c_k (cos phi = {arg!r})")


def assign_phase_signs(magnitudes, weights):
    """Choose signs s_k minimizing |sum_k w_k sin(s_k phi_k)|.

    Greedy pass over rows by descending weight (ties broken by position),
    each sign picked to keep the running imaginary sum small, then a
    single-flip local search to a fixed point. Deterministic heuristic, not
    an exhaustive optimum. Returns (signs, residual).
    """
    mags = np.asarray(magnitudes, dtype=float)
    w = np.asarray(weights, dtype=float)
    if mags.shape != w.shape:
        raise ModelError("magnitudes and weights must have equal length")
    terms = (w * np.sin(mags)).tolist()     # each row's imaginary part at sign +1
    signs = [1.0] * w.size
    total = 0.0
    for i in np.argsort(-w, kind="stable").tolist():
        signs[i] = 1.0 if abs(total + terms[i]) <= abs(total - terms[i]) else -1.0
        total += signs[i] * terms[i]
    # single-flip descent to a fixed point on the same running sum: flipping
    # row i moves it by -2 s_i t_i, so each pass is O(n)
    improved = True
    while improved:
        improved = False
        for i in range(w.size):
            flipped = total - 2.0 * signs[i] * terms[i]
            if abs(flipped) + 1e-18 < abs(total):
                signs[i] = -signs[i]
                total = flipped
                improved = True
    signs = np.array(signs)
    return signs, abs(float(np.sum(w * np.sin(signs * mags))))


@dataclass(frozen=True, eq=False)
class DisjunctionModel:
    """Built model: concept vectors, projector family, and phase bookkeeping."""

    rows: tuple
    vector_a: np.ndarray            # dim n+1, complex
    vector_b: np.ndarray
    family: SpectralFamily
    c: tuple                        # per-row normalization constants (all 1)
    phases: np.ndarray              # signed radians actually used
    sign_source: str                # "supplied" or "search"
    sign_residual: float            # |sum w sin(phi)| for the used signs
    superposed: np.ndarray          # the normalized midpoint (|A> + |B>)/||.||

    @property
    def dim(self) -> int:
        return self.vector_a.size

    @property
    def norm_deviation_a(self) -> float:
        return abs(float(np.linalg.norm(self.vector_a)) - 1.0)

    @property
    def norm_deviation_b(self) -> float:
        return abs(float(np.linalg.norm(self.vector_b)) - 1.0)


def build_model(rows, c=None) -> DisjunctionModel:
    """Construct the explicit model from exemplar rows.

    Weight columns must each sum to at most 1 + 0.002 (choose-one data).
    Phase magnitudes are always recomputed from the weights so the model
    inverts the disjunction column exactly; supplied angles contribute their
    sign only. With no supplied angles the sign search takes over.
    """
    rows = tuple(rows)
    if not rows:
        raise ModelError("need at least one exemplar row")
    n = len(rows)
    mu_a = np.array([r.mu_a for r in rows])
    mu_b = np.array([r.mu_b for r in rows])
    for label, col in (("muA", mu_a), ("muB", mu_b)):
        if col.sum() > 1.0 + COLUMN_SUM_SLACK:
            raise ModelError(
                f"{label} column sums to {col.sum()!r}; not a choose-one experiment"
            )
    if c is None:
        c = tuple(1.0 for _ in rows)
    mags = np.array([phase_magnitude(r, ck) for r, ck in zip(rows, c)])
    w = np.sqrt(mu_a * mu_b)

    supplied = [r.phi_deg is not None for r in rows]
    if all(supplied):
        signs = np.array([1.0 if r.phi_deg >= 0 else -1.0 for r in rows])
        source = "supplied"
        sign_residual = abs(float(np.sum(w * np.sin(signs * mags))))
    elif not any(supplied):
        signs, sign_residual = assign_phase_signs(mags, w)
        source = "search"
    else:
        raise ModelError("phi must be supplied for all rows or for none")
    phases = signs * mags

    comp_a = np.sqrt(max(0.0, 1.0 - float(mu_a.sum())))
    comp_b = np.sqrt(max(0.0, 1.0 - float(mu_b.sum())))
    vector_a = np.append(np.sqrt(mu_a), comp_a).astype(complex)
    vector_b = np.append(np.sqrt(mu_b) * np.exp(1j * phases), comp_b)

    for label, vec in (("A", vector_a), ("B", vector_b)):
        dev = abs(np.linalg.norm(vec) - 1.0)
        if dev > NORM_DEVIATION_TOL:
            raise ModelError(f"vector {label} norm off by {dev!r}")

    family = SpectralFamily(
        tuple(Projector(basis_indices=(k,), dim=n + 1) for k in range(n + 1)), n + 1)
    sup = vector_a + vector_b
    return DisjunctionModel(rows, vector_a, vector_b, family, tuple(c), phases,
                            source, sign_residual, sup / np.linalg.norm(sup))


def superposition(model: DisjunctionModel) -> np.ndarray:
    """The normalized midpoint state (|A> + |B>)/||.||."""
    return model.superposed


def predict_disjunction(model: DisjunctionModel, k: int) -> float:
    """Born weight of the normalized superposition at exemplar k (1-based)."""
    if not (1 <= k <= len(model.rows)):
        raise ModelError(f"exemplar index {k} out of range 1..{len(model.rows)}")
    return born_probability(model.superposed, model.family.projectors[k - 1])


def orthogonality_residual(model: DisjunctionModel) -> float:
    """|<A|B>|; reported as-is (exact cancellation is generally unreachable)."""
    return abs(inner_product(model.vector_a, model.vector_b))
