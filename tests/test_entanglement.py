"""CHSH statistics: table validation, expectations, bounds, classification."""
from __future__ import annotations

import numpy as np
import pytest

from qconcepts.entanglement import (
    CHSH_BLOCKS,
    CHSHClass,
    CoincidenceTable,
    chsh_statistic,
    coincidence_from_values,
    deterministic_strategy_values,
    expectation_value,
    local_deterministic_bound,
    tsirelson_bound,
)
from qconcepts.errors import ModelError

# animal-acts coincidence probabilities, one row per measurement pairing
TABLE_PROBS = {
    "AB": (0.049, 0.630, 0.259, 0.062),
    "A'B": (0.778, 0.086, 0.086, 0.049),
    "AB'": (0.593, 0.025, 0.296, 0.086),
    "A'B'": (0.148, 0.086, 0.099, 0.667),
}
TABLE_COUNTS = {
    "AB": (4, 51, 21, 5),
    "A'B": (63, 7, 7, 4),
    "AB'": (48, 2, 24, 7),
    "A'B'": (12, 7, 8, 54),
}


def _tables(source):
    return {label: coincidence_from_values(label, vals) for label, vals in source.items()}


def test_table_rejects_negative_entries():
    with pytest.raises(ModelError):
        CoincidenceTable("AB", -0.1, 0.5, 0.3, 0.3)


def test_table_rejects_non_finite_entries():
    # NaN slips past every ordering comparison, so it needs its own check
    with pytest.raises(ModelError, match="finite"):
        CoincidenceTable("AB", float("nan"), 0.5, 0.3, 0.2)
    with pytest.raises(ModelError, match="finite"):
        coincidence_from_values("AB", (float("inf"), 2.0, 3.0, 4.0))


def test_table_rejects_entries_above_one():
    with pytest.raises(ModelError, match="normalize counts"):
        CoincidenceTable("AB", 1.2, 0.0, 0.0, 0.0)


def test_table_rejects_sums_beyond_slack():
    with pytest.raises(ModelError) as exc_info:
        CoincidenceTable("AB", 0.3, 0.3, 0.3, 0.2)
    assert "off by" in str(exc_info.value)
    # within slack is fine; the survey rows miss 1 by a rounding residue
    CoincidenceTable("A'B", 0.778, 0.086, 0.086, 0.049)


def test_table_outcome_names_length_checked():
    with pytest.raises(ModelError):
        CoincidenceTable("AB", 0.25, 0.25, 0.25, 0.25, outcome_names=("a", "b"))


def test_counts_are_detected_and_normalized_with_total():
    t = coincidence_from_values("AB", TABLE_COUNTS["AB"])
    assert t.total == 81.0
    assert t.probabilities == pytest.approx((4 / 81, 51 / 81, 21 / 81, 5 / 81), abs=1e-15)
    # probability input keeps total unset
    assert coincidence_from_values("AB", TABLE_PROBS["AB"]).total is None


def test_value_list_length_checked():
    with pytest.raises(ModelError, match="4 outcome values"):
        coincidence_from_values("AB", (0.5, 0.5))
    # a single entry above 1 flips the whole row to count mode
    t = coincidence_from_values("AB", (0, 0, 0, 2))
    assert t.total == 2.0
    assert t.probabilities == (0.0, 0.0, 0.0, 1.0)


def test_expectation_matches_signed_sum():
    t = coincidence_from_values("AB", TABLE_PROBS["AB"])
    assert expectation_value(t) == pytest.approx(-0.778, abs=1e-12)


def test_chsh_from_probabilities_pins():
    res = chsh_statistic(_tables(TABLE_PROBS).values())
    assert res.expectations["AB"] == pytest.approx(-0.778, abs=1e-12)
    assert res.expectations["A'B"] == pytest.approx(0.655, abs=1e-12)
    assert res.expectations["AB'"] == pytest.approx(0.358, abs=1e-12)
    assert res.expectations["A'B'"] == pytest.approx(0.630, abs=1e-12)
    assert res.s == pytest.approx(2.4210000000000003, abs=1e-12)
    assert res.classification is CHSHClass.QUANTUM_VIOLATION


def test_chsh_from_counts_pins():
    res = chsh_statistic(_tables(TABLE_COUNTS).values())
    assert res.expectations["AB"] == pytest.approx(-0.7777777777777778, abs=1e-12)
    assert res.expectations["A'B"] == pytest.approx(0.654320987654321, abs=1e-12)
    assert res.expectations["AB'"] == pytest.approx(0.35802469135802467, abs=1e-12)
    assert res.expectations["A'B'"] == pytest.approx(0.6296296296296297, abs=1e-12)
    assert res.s == pytest.approx(2.419753086419753, abs=1e-12)
    assert res.classification is CHSHClass.QUANTUM_VIOLATION


def test_classification_boundaries():
    def perfect(label):
        return CoincidenceTable(label, 0.5, 0.0, 0.0, 0.5)  # E = 1

    res = chsh_statistic(map(perfect, CHSH_BLOCKS))
    assert res.s == pytest.approx(2.0, abs=1e-15)
    assert res.classification is CHSHClass.CLASSICAL

    anti = CoincidenceTable("AB", 0.0, 0.5, 0.5, 0.0)  # E = -1
    res = chsh_statistic([anti, *map(perfect, CHSH_BLOCKS[1:])])
    assert res.s == pytest.approx(4.0, abs=1e-15)
    assert res.classification is CHSHClass.BEYOND_QUANTUM


def test_chsh_takes_blocks_in_any_order_and_reports_them_in_block_order():
    tables = _tables(TABLE_PROBS)
    res = chsh_statistic(reversed(list(tables.values())))
    assert [t.label for t in res.tables] == list(CHSH_BLOCKS)
    assert list(res.expectations) == list(CHSH_BLOCKS)
    assert res.s == chsh_statistic(tables.values()).s


def test_chsh_needs_exactly_one_table_per_block():
    t = _tables(TABLE_PROBS)
    with pytest.raises(ModelError, match="^duplicate coincidence block \"AB'\"$"):
        chsh_statistic([t["AB"], t["AB'"], t["A'B"], t["AB'"], t["AB"], t["A'B'"]])
    with pytest.raises(ModelError, match="^missing coincidence blocks: AB, A'B'$"):
        chsh_statistic([t["AB'"], t["A'B"]])
    extra = [coincidence_from_values(label, TABLE_PROBS["AB"]) for label in ("ZZ", "AA")]
    with pytest.raises(ModelError, match="^unexpected coincidence blocks: AA, ZZ$"):
        chsh_statistic([*t.values(), *extra])
    # a missing block is reported before an unexpected one
    with pytest.raises(ModelError, match="^missing coincidence blocks: AB$"):
        chsh_statistic([extra[0], t["A'B"], t["AB'"], t["A'B'"]])


def test_deterministic_strategies_are_saturated():
    vals = deterministic_strategy_values()
    assert len(vals) == 16
    assert set(abs(v) for v in vals) == {2.0}
    assert local_deterministic_bound() == 2.0


def test_tsirelson_value():
    assert tsirelson_bound() == pytest.approx(2.0 * np.sqrt(2.0), abs=0)


def test_strategy_mixtures_never_violate():
    # any convex mixture of local deterministic strategies stays within |s| <= 2
    rng = np.random.default_rng(20240813)
    vals = np.array(deterministic_strategy_values())
    for _ in range(500):
        weights = rng.dirichlet(np.ones(16))
        s = float(weights @ vals)
        assert abs(s) <= 2.0 + 1e-9
