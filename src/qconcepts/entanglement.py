"""CHSH statistics over coincidence probability tables.

Each measurement pairing contributes a 2x2 outcome table in the fixed order
(A1,B1), (A1,B2), (A2,B1), (A2,B2) with expectation

    E = p11 - p12 - p21 + p22

and the CHSH combination s = E(A',B') + E(A',B) + E(A,B') - E(A,B).
|s| <= 2 admits a local classical model, 2 < |s| <= 2*sqrt(2) is reachable
by quantum states, beyond that lies outside quantum correlations too.
"""
from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ModelError
from .hilbert import ALGEBRAIC_TOL

# probability tables come from small-sample surveys; row sums may miss 1 by
# a rounding residue, tolerated up to this slack
NORMALIZATION_SLACK = 0.002

DEFAULT_OUTCOME_NAMES = ("o11", "o12", "o21", "o22")

# the four measurement pairings s combines, one coincidence table each
CHSH_BLOCKS = ("AB", "A'B", "AB'", "A'B'")


class CHSHClass(enum.Enum):
    CLASSICAL = "Classical"
    QUANTUM_VIOLATION = "QuantumViolation"
    BEYOND_QUANTUM = "BeyondQuantum"


@dataclass(frozen=True)
class CoincidenceTable:
    """Joint outcome probabilities for one measurement pairing.

    An entry above 1 is refused: ``coincidence_from_values`` takes counts,
    normalizes them by their sum and keeps that sum in ``total``.
    """

    label: str
    p11: float
    p12: float
    p21: float
    p22: float
    outcome_names: tuple = DEFAULT_OUTCOME_NAMES
    total: float | None = None

    def __post_init__(self):
        if len(self.outcome_names) != 4:
            raise ModelError("outcome_names must hold exactly 4 labels")
        probs = (self.p11, self.p12, self.p21, self.p22)
        if not all(math.isfinite(p) for p in probs):
            raise ModelError(f"{self.label}: probabilities must be finite")
        if any(p < 0 for p in probs):
            raise ModelError(f"{self.label}: probabilities must be non-negative")
        if any(p > 1 for p in probs):
            raise ModelError(f"{self.label}: entries above 1; normalize counts first")
        deficit = abs(sum(probs) - 1.0)
        if deficit > NORMALIZATION_SLACK:
            raise ModelError(
                f"{self.label}: probabilities sum to {sum(probs)!r}, "
                f"off by {deficit!r} (allowed {NORMALIZATION_SLACK})"
            )

    @property
    def probabilities(self):
        return (self.p11, self.p12, self.p21, self.p22)


def coincidence_from_values(label, values,
                            outcome_names=DEFAULT_OUTCOME_NAMES) -> CoincidenceTable:
    """Build a table from probabilities or raw counts (auto-detected)."""
    vals = [float(v) for v in values]
    if len(vals) != 4:
        raise ModelError(f"{label}: need 4 outcome values, got {len(vals)}")
    if any(v < 0 for v in vals):
        raise ModelError(f"{label}: outcome values must be non-negative")
    total = None
    if any(v > 1.0 for v in vals):
        total = sum(vals)
        vals = [v / total for v in vals]
    return CoincidenceTable(label, *vals, outcome_names=tuple(outcome_names), total=total)


@dataclass(frozen=True)
class CHSHResult:
    tables: tuple               # one CoincidenceTable per block, in CHSH_BLOCKS order
    expectations: dict          # block label -> E, in CHSH_BLOCKS order
    s: float
    classification: CHSHClass


def expectation_value(table: CoincidenceTable) -> float:
    """E = p11 - p12 - p21 + p22 for one pairing."""
    return table.p11 - table.p12 - table.p21 + table.p22


def chsh_statistic(tables) -> CHSHResult:
    """s = E(A',B') + E(A',B) + E(A,B') - E(A,B), classified against 2 and 2*sqrt(2).

    ``tables`` holds exactly one table per label of CHSH_BLOCKS, in any order.
    Both bounds hold within ALGEBRAIC_TOL: a bound met exactly in decimal can
    be missed by a few ulps of the float sum.
    """
    by_label = {}
    for t in tables:
        if t.label in by_label:
            raise ModelError(f"duplicate coincidence block {t.label!r}")
        by_label[t.label] = t
    missing = [b for b in CHSH_BLOCKS if b not in by_label]
    if missing:
        raise ModelError(f"missing coincidence blocks: {', '.join(missing)}")
    extra = sorted(set(by_label) - set(CHSH_BLOCKS))
    if extra:
        raise ModelError(f"unexpected coincidence blocks: {', '.join(extra)}")
    e = {b: expectation_value(by_label[b]) for b in CHSH_BLOCKS}
    s = e["A'B'"] + e["A'B"] + e["AB'"] - e["AB"]
    if abs(s) <= local_deterministic_bound() + ALGEBRAIC_TOL:
        cls = CHSHClass.CLASSICAL
    elif abs(s) <= tsirelson_bound() + ALGEBRAIC_TOL:
        cls = CHSHClass.QUANTUM_VIOLATION
    else:
        cls = CHSHClass.BEYOND_QUANTUM
    return CHSHResult(tuple(by_label[b] for b in CHSH_BLOCKS), e, s, cls)


def deterministic_strategy_values():
    """CHSH s for all 16 local deterministic strategies (a, a', b, b' in {-1, +1})."""
    vals = []
    for a, ap, b, bp in itertools.product((-1, 1), repeat=4):
        vals.append(float(ap * bp + ap * b + a * bp - a * b))
    return vals


def local_deterministic_bound() -> float:
    """max |s| over local deterministic strategies; exactly 2."""
    return max(abs(v) for v in deterministic_strategy_values())


def tsirelson_bound() -> float:
    """Largest |s| quantum correlations can reach: 2*sqrt(2)."""
    return float(2.0 * np.sqrt(2.0))
