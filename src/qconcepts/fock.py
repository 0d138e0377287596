"""Two-sector interference model for conjunction and disjunction weights.

The combined concept lives in a direct sum of a single space (sector 1,
where superposition produces interference around the average) and a pair
space (sector 2, where the combination acts like a probabilistic logical
connective on two copies). With sector weights m^2 + n^2 = 1 the predicted
weights are

  conjunction:  m^2 mu_a mu_b + n^2 ((mu_a+mu_b)/2 + sqrt((1-mu_a)(1-mu_b)) cos beta)
  disjunction:  m^2 (mu_a + mu_b - mu_a mu_b) + n^2 (same sector-1 term)

beta is the interference angle. Angle extraction inverts those formulas;
it is exact, so extract -> evaluate round-trips to rounding error.

Angles are radians internally; degrees appear only at I/O boundaries.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConstructionInapplicable, ModelError, check_unit_interval
from .hilbert import ALGEBRAIC_TOL, STRUCTURAL_TOL, Projector, StateVector, arccos_clamped


@dataclass(frozen=True)
class FockWeights:
    """Sector weights; m_sq rides the pair sector, n_sq the single sector."""

    m_sq: float
    n_sq: float

    def __post_init__(self):
        if not (math.isfinite(self.m_sq) and math.isfinite(self.n_sq)):
            raise ModelError(f"sector weights must be finite, got {self.m_sq!r}, {self.n_sq!r}")
        if self.m_sq < 0 or self.n_sq < 0:
            raise ModelError("sector weights must be non-negative")
        if abs(self.m_sq + self.n_sq - 1.0) > ALGEBRAIC_TOL:
            raise ModelError(
                f"sector weights must sum to 1, got {self.m_sq + self.n_sq!r}"
            )


def _sector1(mu_a, mu_b, beta):
    return (mu_a + mu_b) / 2.0 + np.sqrt((1.0 - mu_a) * (1.0 - mu_b)) * np.cos(beta)


def fock_conjunction(mu_a: float, mu_b: float, beta: float, weights: FockWeights) -> float:
    """Predicted conjunction weight, returned as computed even outside [0, 1]."""
    check_unit_interval((("muA", mu_a), ("muB", mu_b)))
    value = weights.m_sq * mu_a * mu_b + weights.n_sq * _sector1(mu_a, mu_b, beta)
    return float(value)


def fock_disjunction(mu_a: float, mu_b: float, beta: float, weights: FockWeights) -> float:
    """Predicted disjunction weight, returned as computed even outside [0, 1]."""
    check_unit_interval((("muA", mu_a), ("muB", mu_b)))
    sector2 = mu_a + mu_b - mu_a * mu_b
    value = weights.m_sq * sector2 + weights.n_sq * _sector1(mu_a, mu_b, beta)
    return float(value)


def _extract_angle(mu_a, mu_b, mu_joint, weights, sector2):
    check_unit_interval((("muA", mu_a), ("muB", mu_b), ("muJoint", mu_joint)))
    if weights.n_sq <= 0.0:
        raise ModelError("angle extraction needs a nonzero single-sector weight")
    if mu_a >= 1.0 or mu_b >= 1.0:
        raise ModelError(
            "angle extraction undefined: interference amplitude vanishes at unit weight"
        )
    amp = np.sqrt((1.0 - mu_a) * (1.0 - mu_b))
    arg = float(((mu_joint - weights.m_sq * sector2) / weights.n_sq * 2.0 - mu_a - mu_b)
                / (2.0 * amp))
    return arccos_clamped(
        arg, f"no interference solution: cos beta = {arg!r} lies outside [-1, 1]")


def interference_angle_conjunction(mu_a: float, mu_b: float, mu_joint: float,
                                   weights: FockWeights) -> float:
    """Angle (radians, [0, pi]) reproducing a conjunction weight exactly."""
    return _extract_angle(mu_a, mu_b, mu_joint, weights, mu_a * mu_b)


def interference_angle_disjunction(mu_a: float, mu_b: float, mu_joint: float,
                                   weights: FockWeights) -> float:
    """Angle (radians, [0, pi]) reproducing a disjunction weight exactly."""
    return _extract_angle(mu_a, mu_b, mu_joint, weights, mu_a + mu_b - mu_a * mu_b)


def build_c3_vectors(mu_a: float, mu_b: float, beta: float):
    """Concrete 3-d realization of two concept states and the membership projector.

    |A> = (sqrt(muA), 0, sqrt(1-muA))
    |B> = e^{i beta} (sqrt((1-muA)(1-muB)/muA), sqrt((muA+muB-1)/muA), -sqrt(1-muB))
    M   = projector on coordinates {0, 1}

    Requires muA > 0 and muA + muB >= 1 so that |B>'s components are real.
    Returns (vector_a, vector_b, projector).
    """
    check_unit_interval((("muA", mu_a), ("muB", mu_b)))
    # muA + muB - 1; below muA = 1/2, 1 - muB is exact, so a sum that rounds
    # up to 1 is refused when it falls short by more than STRUCTURAL_TOL * muA
    joint = mu_a + mu_b - 1.0 if mu_a >= 0.5 else mu_a - (1.0 - mu_b)
    if mu_a <= 0.0 or mu_a + mu_b < 1.0 or joint < -STRUCTURAL_TOL * mu_a:
        raise ConstructionInapplicable(
            "C3 construction inapplicable: requires muA > 0 and muA + muB >= 1 "
            f"(got muA={mu_a!r}, muA+muB-1={joint!r})"
        )
    vec_a = np.array([np.sqrt(mu_a), 0.0, np.sqrt(1.0 - mu_a)], dtype=complex)
    vec_b = np.exp(1j * beta) * np.array(
        [
            np.sqrt((1.0 - mu_a) * (1.0 - mu_b) / mu_a),
            np.sqrt(max(joint, 0.0) / mu_a),
            -np.sqrt(1.0 - mu_b),
        ],
        dtype=complex,
    )
    proj = Projector(basis_indices=(0, 1), dim=3)
    return StateVector(vec_a), StateVector(vec_b), proj


def complex_sum_interference(a: float, alpha: float, b: float, beta: float) -> float:
    """|a e^{i alpha} + b e^{i beta}|^2 = a^2 + b^2 + 2ab cos(beta - alpha).

    Angles in radians. Returns the squared magnitude of the sum; take the
    square root for the magnitude itself.
    """
    if a < 0 or b < 0:
        raise ModelError("magnitudes must be non-negative")
    z = a * np.exp(1j * alpha) + b * np.exp(1j * beta)
    return float(abs(z) ** 2)
