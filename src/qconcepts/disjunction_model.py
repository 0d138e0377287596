"""Explicit single-space model of disjunction data over n exemplars.

Each exemplar k gets one basis direction of C^(n+1); the last coordinate
absorbs any normalization deficit of the weight columns. The two concept
vectors are

    A_k = sqrt(mu(A)_k)                 (real)
    B_k = sqrt(mu(B)_k) * e^{i phi_k}

and the disjunction is the normalized superposition (|A> + |B>)/||.||,
whose Born weight at exemplar k is

    mu(A or B)_k = (mu(A)_k + mu(B)_k)/2 + sqrt(mu(A)_k mu(B)_k) cos phi_k

for the canonical rank-1 projector family: the paper's scale c_k on the
interference term is 1 for every k, since the printed component tables
square back to the raw weights (the CLI still lists the c_k, as ones).
Phase magnitudes invert that relation; signs are free and only matter for
the inner product <A|B>, whose magnitude is reported, not forced to zero.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ModelError, check_unit_interval
from .hilbert import Projector, arccos_clamped, born_probability, inner_product

# the weight columns come from choose-one experiments, so each should sum
# to ~1; printed tables carry rounding residue up to a few parts in 10^3
COLUMN_SUM_SLACK = 0.002


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
            raise ModelError(f"{self.name}: phi must lie in [-180, 180] degrees", column="phi_deg")


@dataclass(frozen=True, eq=False)
class ExemplarColumns:
    """An exemplar table by column: indices as Python ints, names as str,
    weights and supplied angles (None if absent) as float64 arrays. Item i
    is row i as an ``ExemplarRow``."""

    index: list
    name: list
    mu_a: np.ndarray
    mu_b: np.ndarray
    mu_a_or_b: np.ndarray
    phi_deg: np.ndarray | None

    def __len__(self):
        return len(self.index)

    def __getitem__(self, i):
        return ExemplarRow(self.index[i], self.name[i], float(self.mu_a[i]), float(self.mu_b[i]),
                           float(self.mu_a_or_b[i]),
                           None if self.phi_deg is None else float(self.phi_deg[i]))


def phase_magnitudes(names, mu_a, mu_b, mu_or) -> np.ndarray:
    """|phi_k| over float weight columns; the first failing row raises what it would alone."""
    with np.errstate(divide="ignore", invalid="ignore"):
        root = np.sqrt(mu_a * mu_b)
        arg = (2.0 * mu_or - mu_a - mu_b) / (2.0 * root)
    checks = (((mu_a <= 0.0) | (mu_b <= 0.0), "phase undefined for zero membership weight"),
              (root == 0.0, "phase undefined: muA * muB underflows to 0"))
    undefined = np.flatnonzero(checks[0][0] | checks[1][0])
    stop = int(undefined[0]) if undefined.size else arg.size
    mags = arccos_clamped(arg[:stop], lambda i: (
        f"{names[i]}: no phase solution at this c_k (cos phi = {float(arg[i])!r})"))
    if stop < arg.size:
        raise ModelError(f"{names[stop]}: " + next(text for bad, text in checks if bad[stop]))
    return mags


def phase_magnitude(row: ExemplarRow) -> float:
    """|phi_k| in radians for one row (see ``phase_magnitudes``)."""
    return float(phase_magnitudes(
        (row.name,), *(np.array([v]) for v in (row.mu_a, row.mu_b, row.mu_a_or_b)))[0])


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
    """Built model: concept vectors, their superposition, and phase bookkeeping."""

    rows: ExemplarColumns
    vector_a: np.ndarray            # dim n+1, complex
    vector_b: np.ndarray
    phases: np.ndarray              # signed radians actually used
    sign_source: str                # "supplied" or "search"
    sign_residual: float            # |sum w sin(phi)| for the used signs
    superposed: np.ndarray          # the normalized midpoint (|A> + |B>)/||.||
    norm_deviation_a: float         # | ||A|| - 1 |
    norm_deviation_b: float

    @property
    def dim(self) -> int:
        return self.vector_a.size


def build_model(rows: ExemplarColumns) -> DisjunctionModel:
    """Construct the explicit model from an exemplar table's columns.

    Weight columns must each sum to at most 1 + 0.002 (choose-one data), so
    each vector's norm is within 1e-3 of 1 (its deviation is reported).
    Phase magnitudes are always recomputed from the weights so the model
    inverts the disjunction column exactly; supplied angles contribute their
    sign only. With no supplied angles the sign search takes over.
    """
    if not len(rows):
        raise ModelError("need at least one exemplar row")
    mu_a, mu_b, mu_or = rows.mu_a, rows.mu_b, rows.mu_a_or_b
    for label, col in (("muA", mu_a), ("muB", mu_b)):
        if col.sum() > 1.0 + COLUMN_SUM_SLACK:
            raise ModelError(
                f"{label} column sums to {float(col.sum())!r}; not a choose-one experiment"
            )
    mags = phase_magnitudes(rows.name, mu_a, mu_b, mu_or)
    w = np.sqrt(mu_a * mu_b)

    if rows.phi_deg is None:
        signs = assign_phase_signs(mags, w)[0]
        source = "search"
    else:
        signs = np.where(rows.phi_deg >= 0, 1.0, -1.0)
        source = "supplied"
    phases = signs * mags
    sign_residual = abs(float(np.sum(w * np.sin(phases))))

    comp_a = np.sqrt(max(0.0, 1.0 - float(mu_a.sum())))
    comp_b = np.sqrt(max(0.0, 1.0 - float(mu_b.sum())))
    vector_a = np.append(np.sqrt(mu_a), comp_a).astype(complex)
    vector_b = np.append(np.sqrt(mu_b) * np.exp(1j * phases), comp_b)

    devs = [abs(float(np.linalg.norm(vec)) - 1.0) for vec in (vector_a, vector_b)]
    sup = vector_a + vector_b
    return DisjunctionModel(rows, vector_a, vector_b, phases,
                            source, sign_residual, sup / np.linalg.norm(sup), *devs)


def predict_disjunction(model: DisjunctionModel, k: int) -> float:
    """Born weight of the normalized superposition at exemplar k (1-based)."""
    if not (1 <= k <= len(model.rows)):
        raise ModelError(f"exemplar index {k} out of range 1..{len(model.rows)}")
    return born_probability(model.superposed, Projector(basis_indices=(k - 1,), dim=model.dim))


def orthogonality_residual(model: DisjunctionModel) -> float:
    """|<A|B>|; reported as-is (exact cancellation is generally unreachable)."""
    return abs(inner_product(model.vector_a, model.vector_b))
