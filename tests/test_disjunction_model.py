"""Explicit (n+1)-dimensional disjunction model over exemplar weight tables."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import exemplar_columns
from qconcepts.datasets import load_dataset
from qconcepts.disjunction_model import (
    DisjunctionModel,
    ExemplarColumns,
    ExemplarRow,
    assign_phase_signs,
    build_model,
    orthogonality_residual,
    phase_magnitude,
    phase_magnitudes,
    predict_disjunction,
)
from qconcepts.errors import ModelError, NoInterferenceSolution
from qconcepts.hilbert import COS_CLAMP_SLACK, Projector, born_probability


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


def _phase_magnitude_per_row(row):
    """Reference |phi_k|: one row at a time on Python and numpy scalars."""
    if row.mu_a <= 0.0 or row.mu_b <= 0.0:
        raise ModelError(f"{row.name}: phase undefined for zero membership weight")
    root = np.sqrt(row.mu_a * row.mu_b)
    if root == 0.0:
        raise ModelError(f"{row.name}: phase undefined: muA * muB underflows to 0")
    arg = float((2.0 * row.mu_a_or_b - row.mu_a - row.mu_b) / (2.0 * root))
    if abs(arg) > 1.0 + COS_CLAMP_SLACK:
        raise NoInterferenceSolution(
            f"{row.name}: no phase solution at this c_k (cos phi = {arg!r})", argument=arg)
    return float(np.arccos(np.clip(arg, -1.0, 1.0)))


def _outcomes(compute):
    """Each magnitude's exact bits, or the error's type, message and argument."""
    try:
        return [float(m).hex() for m in compute()]
    except ModelError as exc:
        return type(exc), str(exc), getattr(exc, "argument", None)


# weights that fail a check (0, a product that underflows) or sit near the clamp
_weight = st.one_of(st.sampled_from([0.0, 5e-324, 1e-200, 1e-160, 1e-5, 0.25, 1.0]),
                    st.floats(0.0, 1.0, exclude_min=True))


@st.composite
def _exemplar_rows(draw):
    """Rows of two kinds: Born-consistent up to a cosine just past the clamp
    slack, and arbitrary weights (mostly no phase solution)."""
    rows = []
    for k in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["born", "born", "born", "any"]))
        mu_a, mu_b = draw(_weight), draw(_weight)
        if kind == "any":
            mu_or = draw(_weight)
        else:
            cos = draw(st.floats(-1.0, 1.0))
            if draw(st.booleans()):
                cos = np.copysign(1.0 + draw(st.floats(0.0, 2.0 * COS_CLAMP_SLACK)), cos)
            mu_or = min(1.0, max(0.0, (mu_a + mu_b) / 2.0 + np.sqrt(mu_a * mu_b) * cos))
        rows.append(ExemplarRow(k + 1, f"x{k + 1}", mu_a, mu_b, mu_or))
    return rows


@settings(derandomize=True, deadline=None, max_examples=500)
@given(rows=_exemplar_rows())
def test_columnar_phase_magnitudes_match_the_per_row_loop(rows):
    columns = [np.array([getattr(r, f) for r in rows]) for f in ("mu_a", "mu_b", "mu_a_or_b")]
    want = _outcomes(lambda: [_phase_magnitude_per_row(r) for r in rows])
    assert _outcomes(lambda: phase_magnitudes([r.name for r in rows], *columns)) == want
    assert _outcomes(lambda: [phase_magnitude(r) for r in rows]) == want


def test_columnar_phase_magnitudes_match_the_per_row_loop_at_scale(table2_rows):
    rng = np.random.default_rng(11)
    mu_a, mu_b = rng.dirichlet(np.ones(3000)), rng.dirichlet(np.ones(3000))
    cos = rng.uniform(-1.0, 1.0, 3000)
    cos[::50] = np.sign(cos[::50]) * (1.0 + COS_CLAMP_SLACK * rng.uniform(0.0, 0.9, 60))
    mu_or = np.clip(0.5 * (mu_a + mu_b) + np.sqrt(mu_a * mu_b) * cos, 0.0, 1.0)
    rows = [ExemplarRow(k + 1, f"x{k}", *w)
            for k, w in enumerate(zip(mu_a.tolist(), mu_b.tolist(), mu_or.tolist()))]
    for case in (rows, table2_rows):
        columns = [np.array([getattr(r, f) for r in case]) for f in ("mu_a", "mu_b", "mu_a_or_b")]
        got = phase_magnitudes([r.name for r in case], *columns)
        assert [float(m).hex() for m in got] == \
            [float(_phase_magnitude_per_row(r)).hex() for r in case]


@pytest.mark.parametrize("weights, error", [
    ([(0.3, 0.2, 0.3), (0.2, 0.2, 0.5), (0.0, 0.2, 0.1)], "b: no phase solution"),
    ([(0.3, 0.2, 0.3), (0.0, 0.2, 0.1), (0.2, 0.2, 0.5)], "b: phase undefined for zero"),
    ([(0.3, 0.2, 0.3), (1e-200, 1e-200, 0.0), (0.2, 0.2, 0.5)], "b: phase undefined: muA"),
    # cos phi = 1 + 4e-7 for row a: clamped, inside the slack
    ([(0.25, 0.25, 0.5000001), (0.2, 0.2, 0.5)], "b: no phase solution"),
])
def test_first_failing_row_raises_its_own_error(weights, error):
    rows = [ExemplarRow(k + 1, "abc"[k], *w) for k, w in enumerate(weights)]
    names = [r.name for r in rows]
    columns = [np.array(col) for col in zip(*weights)]
    with pytest.raises(ModelError, match=error) as exc_info:
        phase_magnitudes(names, *columns)
    want = _outcomes(lambda: [_phase_magnitude_per_row(r) for r in rows])
    assert want == (type(exc_info.value), str(exc_info.value),
                    getattr(exc_info.value, "argument", None))


@pytest.mark.parametrize("weights", [(np.nan, 0.5, 0.5), (0.5, 0.5, np.nan)],
                         ids=["muA", "muAorB"])
def test_phase_magnitudes_refuse_a_nan_weight(weights):
    # a NaN cosine has no angle; catches arccos_clamped's range test written as
    # abs(arg) > 1 + COS_CLAMP_SLACK, which is False for NaN and returned [nan]
    with pytest.raises(NoInterferenceSolution, match=r"a: no phase solution .* = nan\)") as exc:
        phase_magnitudes(["a"], *(np.array([w]) for w in weights))
    assert np.isnan(exc.value.argument)


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
    model = build_model(exemplar_columns(stripped))
    assert model.sign_source == "search"
    assert model.sign_residual == pytest.approx(0.007508126415909533, abs=1e-12)
    # the search residual beats the supplied-sign residual here
    assert model.sign_residual < 0.015448574874252562


def test_build_model_rejects_overfull_columns():
    rows = [
        ExemplarRow(1, "X", 0.6, 0.3, 0.45, phi_deg=10.0),
        ExemplarRow(2, "Y", 0.6, 0.3, 0.45, phi_deg=-10.0),
    ]
    with pytest.raises(ModelError, match="choose-one"):
        build_model(exemplar_columns(rows))
    with pytest.raises(ModelError, match="at least one"):
        build_model([])


@pytest.mark.parametrize("mu_a, mu_or, message, column", [
    # a NaN once gave NaN phases and a NaN prediction, with numpy's warning
    ([0.3, np.nan, 0.2], [0.3, 0.3, 0.3], "b: muA must lie in [0, 1], got nan", "muA"),
    # the first bad row, and in it the first bad weight, names the error
    ([0.3, np.nan, 0.2], [-0.5, 0.3, 0.3], "a: muAorB must lie in [0, 1], got -0.5", "muAorB"),
    # checked before the column sum, which 1.5 would fail as well
    ([0.3, 1.5, 0.2], [0.3, 0.3, 0.3], "b: muA must lie in [0, 1], got 1.5", "muA"),
])
def test_build_model_refuses_a_weight_outside_the_unit_interval(mu_a, mu_or, message, column):
    rows = ExemplarColumns([1, 2, 3], ["a", "b", "c"], np.array(mu_a),
                           np.array([0.2, 0.3, 0.4]), np.array(mu_or), None)
    with pytest.raises(ModelError) as info:
        build_model(rows)
    assert str(info.value) == message and info.value.column == column


def _basis_projectors(model):
    return [Projector(basis_indices=(k,), dim=model.dim) for k in range(model.dim)]


def test_superposition_is_normalized(table2_rows):
    model = build_model(table2_rows)
    assert np.linalg.norm(model.superposed) == pytest.approx(1.0, abs=1e-12)


def test_born_weights_sum_to_one_over_family(table2_rows):
    model = build_model(table2_rows)
    family = _basis_projectors(model)
    total = sum(born_probability(model.superposed, p) for p in family)
    assert total == pytest.approx(1.0, abs=1e-12)
    assert len(family) == model.dim == 25


@pytest.mark.parametrize("strip_phases", [False, True])
def test_prediction_is_the_born_weight_of_the_fresh_superposition(table2_rows, strip_phases):
    rows = table2_rows
    if strip_phases:
        rows = exemplar_columns(
            [ExemplarRow(r.index, r.name, r.mu_a, r.mu_b, r.mu_a_or_b) for r in rows])
    model = build_model(rows)
    fresh = model.vector_a + model.vector_b
    fresh = fresh / np.linalg.norm(fresh)
    for k, proj in enumerate(_basis_projectors(model)[:-1], start=1):
        assert predict_disjunction(model, k) == born_probability(fresh, proj)


def test_predict_index_bounds(table2_rows):
    model = build_model(table2_rows)
    with pytest.raises(ModelError, match="out of range"):
        predict_disjunction(model, 0)
    with pytest.raises(ModelError, match="out of range"):
        predict_disjunction(model, 25)


def test_a_zero_supplied_angle_takes_the_positive_sign():
    rows = [
        ExemplarRow(1, "X", 0.3, 0.2, 0.3, phi_deg=0.0),
        ExemplarRow(2, "Y", 0.25, 0.3, 0.2, phi_deg=-0.0),
    ]
    model = build_model(exemplar_columns(rows))
    assert model.sign_source == "supplied" and (model.phases > 0).all()


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
    m1 = build_model(exemplar_columns(rows_true))
    m2 = build_model(exemplar_columns(rows_bent))
    assert np.array_equal(m1.phases, m2.phases)
    assert np.array_equal(m1.vector_b, m2.vector_b)
    # the recomputed phases invert the component relation exactly
    for k, row in enumerate(rows_true, start=1):
        component = (row.mu_a + row.mu_b) / 2 + np.sqrt(
            row.mu_a * row.mu_b) * np.cos(m1.phases[k - 1])
        assert component == pytest.approx(row.mu_a_or_b, abs=1e-12)
