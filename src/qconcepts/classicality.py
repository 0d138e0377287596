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

from .errors import ModelError, check_unit_interval

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
class MembershipTriple:
    """One exemplar's weights for two concepts and their combination."""

    exemplar: str
    concept_a: str
    concept_b: str
    mu_a: float
    mu_b: float
    mu_joint: float
    connective: str

    def __post_init__(self):
        if self.connective not in CONNECTIVES:
            raise ModelError(f"connective must be one of {CONNECTIVES}, got {self.connective!r}")
        check_unit_interval((("muA", self.mu_a), ("muB", self.mu_b), ("muJoint", self.mu_joint)))


@dataclass(frozen=True)
class ClassicalityReport:
    delta: float
    kolmogorov_factor: float
    interference_need: float
    classical_representable: bool
    extension_class: ExtensionClass


def conjunction_diagnostics(mu_a: float, mu_b: float, mu_joint: float,
                            slack: float = ZERO_SLACK) -> ClassicalityReport:
    """Diagnostics for mu(A and B) against its components."""
    delta = mu_joint - min(mu_a, mu_b)
    k = 1.0 - mu_a - mu_b + mu_joint
    f = min((mu_a + mu_b) / 2.0 - mu_joint, mu_joint - mu_a * mu_b)
    classical = delta <= slack and k >= -slack
    ext = ExtensionClass.NONE
    if mu_joint > max(mu_a, mu_b) + slack:
        ext = ExtensionClass.DOUBLE_OVEREXTENDED
    elif delta > slack:
        ext = ExtensionClass.OVEREXTENDED
    return ClassicalityReport(delta, k, f, classical, ext)


def disjunction_diagnostics(mu_a: float, mu_b: float, mu_joint: float,
                            slack: float = ZERO_SLACK) -> ClassicalityReport:
    """Diagnostics for mu(A or B) against its components."""
    delta = max(mu_a, mu_b) - mu_joint
    k = mu_a + mu_b - mu_joint
    f = min(mu_joint - (mu_a + mu_b) / 2.0, mu_a + mu_b - mu_a * mu_b - mu_joint)
    classical = delta <= slack and k >= -slack
    ext = ExtensionClass.NONE
    if mu_joint < min(mu_a, mu_b) - slack:
        ext = ExtensionClass.DOUBLE_UNDEREXTENDED
    elif delta > slack:
        ext = ExtensionClass.UNDEREXTENDED
    return ClassicalityReport(delta, k, f, classical, ext)


def diagnose(triple: MembershipTriple, slack: float = ZERO_SLACK) -> ClassicalityReport:
    fn = conjunction_diagnostics if triple.connective == "and" else disjunction_diagnostics
    return fn(triple.mu_a, triple.mu_b, triple.mu_joint, slack)


def batch_diagnose(triples, slack: float = ZERO_SLACK):
    """Diagnose a list of triples; returns reports in input order."""
    return [diagnose(t, slack) for t in triples]
