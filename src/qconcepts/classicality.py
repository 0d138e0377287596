"""Classical-representability diagnostics for concept combination data.

Given membership weights mu(A), mu(B) and the weight of a conjunction or
disjunction, three numbers decide whether any classical (Kolmogorovian)
probability model can reproduce them:

  conjunction:  delta_c = mu(A and B) - min(mu A, mu B)
                k_c     = 1 - mu A - mu B + mu(A and B)
                f_c     = min((mu A + mu B)/2 - mu_j, mu_j - mu A * mu B)
  disjunction:  delta_d = max(mu A, mu B) - mu(A or B)
                k_d     = mu A + mu B - mu(A or B)
                f_d     = min(mu_j - (mu A + mu B)/2, mu A + mu B - mu A mu B - mu_j)

A classical model exists iff delta <= 0 and k >= 0. Positive delta marks
overextension (conjunction) or underextension (disjunction); "double" when
the joint weight passes both components. Negative f flags data that no
interference-free average can reach either.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

# slack for comparisons against zero; the weights are survey frequencies,
# so ties at the boundary are common and must not flip on rounding noise
ZERO_SLACK = 1e-12

CONNECTIVES = ("and", "or")


class ExtensionClass(enum.Enum):
    NONE = "None"
    OVEREXTENDED = "Overextended"
    DOUBLE_OVEREXTENDED = "DoubleOverextended"
    UNDEREXTENDED = "Underextended"
    DOUBLE_UNDEREXTENDED = "DoubleUnderextended"


@dataclass(frozen=True)
class ClassicalityReport:
    delta: float
    kolmogorov_factor: float
    interference_need: float
    classical_representable: bool
    extension_class: ExtensionClass


@dataclass(frozen=True)
class ClassicalityColumns:
    """Per-row diagnostics of a table, one array per field, in input order."""

    delta: np.ndarray
    kolmogorov_factor: np.ndarray
    interference_need: np.ndarray
    classical_representable: np.ndarray   # bool
    extension_code: np.ndarray            # int: position in list(ExtensionClass)


_EXTENSION_CLASSES = tuple(ExtensionClass)
_NONE, _OVER, _DOUBLE_OVER, _UNDER, _DOUBLE_UNDER = range(5)


def _min(x, y):
    # Python's min(x, y): x unless y < x, so min(-0.0, 0.0) is -0.0
    return np.where(y < x, y, x)


def _max(x, y):
    return np.where(y > x, y, x)


def batch_diagnose(mu_a, mu_b, mu_joint, is_and) -> ClassicalityColumns:
    """Diagnostics for columns of weights; ``is_and`` marks conjunction rows.

    Each row gets the same IEEE operations, in the same order, as the
    formulas in the module docstring evaluated on Python floats.
    """
    a = np.asarray(mu_a, dtype=float)
    b = np.asarray(mu_b, dtype=float)
    j = np.asarray(mu_joint, dtype=float)
    is_and = np.asarray(is_and, dtype=bool)
    lo, hi, half_sum = _min(a, b), _max(a, b), (a + b) / 2.0
    delta = np.where(is_and, j - lo, hi - j)
    k = np.where(is_and, 1.0 - a - b + j, a + b - j)
    f = np.where(is_and, _min(half_sum - j, j - a * b), _min(j - half_sum, a + b - a * b - j))
    classical = (delta <= ZERO_SLACK) & (k >= -ZERO_SLACK)
    single = delta > ZERO_SLACK
    ext = np.where(is_and,
                   np.where(j > hi + ZERO_SLACK, _DOUBLE_OVER, np.where(single, _OVER, _NONE)),
                   np.where(j < lo - ZERO_SLACK, _DOUBLE_UNDER, np.where(single, _UNDER, _NONE)))
    return ClassicalityColumns(delta, k, f, classical, ext)


def _one_row(mu_a, mu_b, mu_joint, is_and) -> ClassicalityReport:
    cols = batch_diagnose([mu_a], [mu_b], [mu_joint], [is_and])
    return ClassicalityReport(float(cols.delta[0]), float(cols.kolmogorov_factor[0]),
                              float(cols.interference_need[0]),
                              bool(cols.classical_representable[0]),
                              _EXTENSION_CLASSES[cols.extension_code[0]])


def conjunction_diagnostics(mu_a: float, mu_b: float, mu_joint: float) -> ClassicalityReport:
    """Diagnostics for mu(A and B) against its components."""
    return _one_row(mu_a, mu_b, mu_joint, True)


def disjunction_diagnostics(mu_a: float, mu_b: float, mu_joint: float) -> ClassicalityReport:
    """Diagnostics for mu(A or B) against its components."""
    return _one_row(mu_a, mu_b, mu_joint, False)

