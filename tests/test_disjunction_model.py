"""Explicit (n+1)-dimensional disjunction model over exemplar weight tables."""
from __future__ import annotations

import numpy as np
import pytest

from qconcepts.datasets import load_dataset
from qconcepts.disjunction_model import (
    DisjunctionModel,
    ExemplarRow,
    assign_phase_signs,
    build_model,
    orthogonality_residual,
    phase_magnitude,
    predict_disjunction,
    superposition,
)
from qconcepts.errors import ModelError, NoInterferenceSolution
from qconcepts.hilbert import born_probability


@pytest.fixture(scope="module")
def table2_rows():
    return load_dataset("fruits-vegetables-table2").rows


def test_row_weight_bounds_checked():
    with pytest.raises(ModelError, match="muB"):
        ExemplarRow(1, "X", 0.2, 1.3, 0.4)
    with pytest.raises(ModelError, match="phi"):
        ExemplarRow(1, "X", 0.2, 0.3, 0.4, phi_deg=200.0)
    with pytest.raises(ModelError, match="phi"):
        ExemplarRow(1, "X", 0.2, 0.3, 0.4, phi_deg=float("nan"))
    with pytest.raises(ModelError, match="X: muAorB must lie in"):
        ExemplarRow(1, "X", 0.2, 0.3, float("nan"))


def test_phase_magnitude_matches_printed_angles(table2_rows):
    # recomputed |phi| agrees with the printed signed angles to well under
    # half a degree for every exemplar except one transcription outlier
    diffs = {}
    for row in table2_rows:
        mag_deg = np.degrees(phase_magnitude(row))
        diffs[row.name] = abs(mag_deg - abs(row.phi_deg))
    outlier = diffs.pop("Tomato")
    assert outlier == pytest.approx(3.924183489637116, abs=1e-6)
    assert max(diffs.values()) < 0.5


def test_phase_magnitude_zero_weight_undefined():
    row = ExemplarRow(1, "X", 0.0, 0.5, 0.25)
    with pytest.raises(ModelError, match="phase undefined"):
        phase_magnitude(row)


def test_phase_magnitude_small_scale_invalidates():
    # shrinking c_k pushes the cosine argument outside [-1, 1]
    row = ExemplarRow(1, "X", 0.2, 0.2, 0.5)
    with pytest.raises(NoInterferenceSolution) as exc_info:
        phase_magnitude(row, c_k=0.1)
    assert abs(exc_info.value.argument) > 1.0
    with pytest.raises(ModelError, match="positive"):
        phase_magnitude(row, c_k=0.0)


def test_sign_assignment_cancels_symmetric_pair():
    mags = [0.7, 0.7]
    weights = [0.3, 0.3]
    signs, residual = assign_phase_signs(mags, weights)
    assert sorted(signs) == [-1.0, 1.0]
    assert residual == pytest.approx(0.0, abs=1e-15)


def test_sign_assignment_single_row():
    signs, residual = assign_phase_signs([0.5], [0.2])
    assert signs.shape == (1,)
    # one row cannot cancel; residual is just the term magnitude
    assert residual == pytest.approx(0.2 * np.sin(0.5), abs=1e-15)
    with pytest.raises(ModelError):
        assign_phase_signs([0.5, 0.5], [0.2])


# two trial residuals closer than this count as a tie: far above the rounding
# of a full re-sum, far below any real difference between sign choices
TIE_BAND = 1e-12


def _quadratic_sign_search(magnitudes, weights):
    """The sign search as first written: every trial flip re-sums all n rows.

    Also reports whether any trial flip met a tie, where the choice follows
    the rounding of the re-sum rather than the data.
    """
    mags = np.asarray(magnitudes, dtype=float)
    w = np.asarray(weights, dtype=float)
    order = sorted(range(w.size), key=lambda i: (-w[i], i))
    signs = np.ones(w.size)
    running = 0.0
    for i in order:
        term = w[i] * np.sin(mags[i])
        if abs(running + term) <= abs(running - term):
            signs[i] = 1.0
        else:
            signs[i] = -1.0
        running += signs[i] * term

    def residual(s):
        return abs(float(np.sum(w * np.sin(s * mags))))
    tied = False
    improved = True
    while improved:
        improved = False
        for i in range(w.size):
            cur = residual(signs)
            signs[i] = -signs[i]
            trial = residual(signs)
            tied = tied or abs(trial - cur) <= TIE_BAND
            if trial + 1e-18 < cur:
                improved = True
            else:
                signs[i] = -signs[i]
    return signs, residual(signs), tied


def _choose_one_columns(rng, n):
    """Weights and phase magnitudes shaped like a synthetic choose-one table."""
    mu_a = rng.dirichlet(np.ones(n))
    mu_b = rng.dirichlet(np.ones(n))
    return rng.uniform(0.0, np.pi, n), np.sqrt(mu_a * mu_b)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sign_search_matches_the_quadratic_search_at_3000_rows(seed):
    mags, w = _choose_one_columns(np.random.default_rng(seed), 3000)
    signs, residual = assign_phase_signs(mags, w)
    want_signs, want_residual, tied = _quadratic_sign_search(mags, w)
    assert not tied
    assert np.array_equal(signs, want_signs)
    assert residual == want_residual


def test_sign_search_matches_the_quadratic_search_on_duplicated_rounded_rows():
    # Duplicates of rounded rows cancel exactly, so a later flip can leave
    # |sum| unchanged. At such a tie the two searches may keep different but
    # equally good signs; everywhere else they must agree bit for bit.
    rng = np.random.default_rng(20240813)
    untied = 0
    for _ in range(300):
        n = int(rng.integers(1, 14))
        mags, w = _choose_one_columns(rng, n)
        mags, w = np.round(mags, 2), np.round(w, 2)
        dup = rng.integers(n, size=int(rng.integers(0, n + 1)))
        mags, w = np.append(mags, mags[dup]), np.append(w, w[dup])
        signs, residual = assign_phase_signs(mags, w)
        want_signs, want_residual, tied = _quadratic_sign_search(mags, w)
        assert residual == pytest.approx(want_residual, abs=TIE_BAND)
        if not tied:
            untied += 1
            assert np.array_equal(signs, want_signs)
            assert residual == want_residual
    assert untied >= 200


def test_build_model_with_supplied_signs_pins(table2_rows):
    model = build_model(table2_rows)
    assert model.sign_source == "supplied"
    assert model.dim == 25
    assert model.c == tuple(1.0 for _ in range(24))
    assert model.sign_residual == pytest.approx(0.015448574874252562, abs=1e-12)
    assert model.norm_deviation_a == pytest.approx(4.9998750062396624e-05, abs=1e-12)
    assert model.norm_deviation_b == pytest.approx(4.9998750062396624e-05, abs=1e-12)
    assert orthogonality_residual(model) == pytest.approx(0.0154498694378104, abs=1e-10)
    errors = [abs(predict_disjunction(model, k) - row.mu_a_or_b)
              for k, row in enumerate(table2_rows, start=1)]
    assert max(errors) == pytest.approx(6.880688068811036e-06, abs=1e-12)


def test_build_model_sign_search_pin(table2_rows):
    stripped = [ExemplarRow(r.index, r.name, r.mu_a, r.mu_b, r.mu_a_or_b)
                for r in table2_rows]
    model = build_model(stripped)
    assert model.sign_source == "search"
    assert model.sign_residual == pytest.approx(0.007508126415909533, abs=1e-12)
    # the search residual beats the supplied-sign residual here
    assert model.sign_residual < 0.015448574874252562


def test_build_model_rejects_mixed_phase_supply(table2_rows):
    rows = list(table2_rows)
    rows[0] = ExemplarRow(1, rows[0].name, rows[0].mu_a, rows[0].mu_b, rows[0].mu_a_or_b)
    with pytest.raises(ModelError, match="all rows or for none"):
        build_model(rows)


def test_build_model_rejects_overfull_columns():
    rows = [
        ExemplarRow(1, "X", 0.6, 0.3, 0.45, phi_deg=10.0),
        ExemplarRow(2, "Y", 0.6, 0.3, 0.45, phi_deg=-10.0),
    ]
    with pytest.raises(ModelError, match="choose-one"):
        build_model(rows)
    with pytest.raises(ModelError, match="at least one"):
        build_model([])


def test_superposition_is_normalized(table2_rows):
    model = build_model(table2_rows)
    sup = superposition(model)
    assert np.linalg.norm(sup) == pytest.approx(1.0, abs=1e-12)


def test_born_weights_sum_to_one_over_family(table2_rows):
    model = build_model(table2_rows)
    sup = superposition(model)
    total = sum(born_probability(sup, p) for p in model.family.projectors)
    assert total == pytest.approx(1.0, abs=1e-12)
    assert len(model.family.projectors) == 25


@pytest.mark.parametrize("strip_phases", [False, True])
def test_prediction_is_the_born_weight_of_the_fresh_superposition(table2_rows, strip_phases):
    rows = table2_rows
    if strip_phases:
        rows = [ExemplarRow(r.index, r.name, r.mu_a, r.mu_b, r.mu_a_or_b) for r in rows]
    model = build_model(rows)
    fresh = model.vector_a + model.vector_b
    fresh = fresh / np.linalg.norm(fresh)
    for k, proj in enumerate(model.family.projectors[:-1], start=1):
        assert predict_disjunction(model, k) == born_probability(fresh, proj)


def test_predict_index_bounds(table2_rows):
    model = build_model(table2_rows)
    with pytest.raises(ModelError, match="out of range"):
        predict_disjunction(model, 0)
    with pytest.raises(ModelError, match="out of range"):
        predict_disjunction(model, 25)


def test_supplied_angles_contribute_sign_only():
    # magnitudes always come from the weights; a wrong supplied magnitude
    # with the right sign yields the same model
    rows_true = [
        ExemplarRow(1, "X", 0.3, 0.2, 0.3, phi_deg=40.0),
        ExemplarRow(2, "Y", 0.25, 0.3, 0.2, phi_deg=-70.0),
    ]
    rows_bent = [
        ExemplarRow(1, "X", 0.3, 0.2, 0.3, phi_deg=1.0),
        ExemplarRow(2, "Y", 0.25, 0.3, 0.2, phi_deg=-179.0),
    ]
    m1 = build_model(rows_true)
    m2 = build_model(rows_bent)
    assert np.array_equal(m1.phases, m2.phases)
    assert np.array_equal(m1.vector_b, m2.vector_b)
    # the recomputed phases invert the component relation exactly
    for k, row in enumerate(rows_true, start=1):
        component = (row.mu_a + row.mu_b) / 2 + np.sqrt(
            row.mu_a * row.mu_b) * np.cos(m1.phases[k - 1])
        assert component == pytest.approx(row.mu_a_or_b, abs=1e-12)
