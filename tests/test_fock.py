"""Two-sector weight combination, angle extraction, and the 3-d realization."""
from __future__ import annotations

import numpy as np
import pytest

from qconcepts.errors import ConstructionInapplicable, ModelError, NoInterferenceSolution
from qconcepts.fock import (
    FockWeights,
    build_c3_vectors,
    complex_sum_interference,
    fock_conjunction,
    fock_disjunction,
    interference_angle_conjunction,
    interference_angle_disjunction,
)
from qconcepts.hilbert import born_probability, inner_product

DEG = np.pi / 180.0


def test_weights_must_be_a_convex_pair():
    FockWeights(0.3, 0.7)
    with pytest.raises(ModelError):
        FockWeights(-0.1, 1.1)
    with pytest.raises(ModelError):
        FockWeights(0.3, 0.6)
    with pytest.raises(ModelError, match="finite"):
        FockWeights(float("nan"), float("nan"))
    with pytest.raises(ModelError, match="finite"):
        FockWeights(float("inf"), 0.0)


def test_conjunction_angle_pin_and_round_trip():
    w = FockWeights(0.3, 0.7)
    beta = interference_angle_conjunction(0.87, 0.81, 0.90, w)
    # frozen extraction values for these weights
    assert beta == pytest.approx(0.41691828412887333, abs=1e-12)
    assert np.degrees(beta) == pytest.approx(23.887658082420536, abs=1e-9)
    assert fock_conjunction(0.87, 0.81, beta, w) == pytest.approx(0.90, abs=1e-9)


def test_conjunction_angle_candidate_50_21_does_not_invert():
    # a nearby widely-quoted angle value fails round-trip by far more than
    # extraction tolerance; the extracted angle above is the working constant
    w = FockWeights(0.3, 0.7)
    off = fock_conjunction(0.87, 0.81, 50.21 * DEG, w)
    assert abs(off - 0.90) > 0.01


def test_disjunction_angle_infeasible_weights_raise_with_argument():
    w = FockWeights(0.3, 0.7)
    with pytest.raises(NoInterferenceSolution) as exc_info:
        interference_angle_disjunction(0.0, 0.5, 0.9, w)
    assert exc_info.value.argument == pytest.approx(1.1616754262350422, abs=1e-12)
    assert "outside [-1, 1]" in str(exc_info.value)


def test_disjunction_angle_smaller_pair_sector_becomes_feasible():
    w = FockWeights(0.1, 0.9)
    beta = interference_angle_disjunction(0.0, 0.5, 0.9, w)
    assert np.degrees(beta) == pytest.approx(10.859311267982566, abs=1e-9)
    assert fock_disjunction(0.0, 0.5, beta, w) == pytest.approx(0.9, abs=1e-9)


def test_disjunction_single_sector_feasibility_threshold():
    # for these weights the single-sector share must reach ~0.87507; the step
    # is kept above the cosine clamp slack so the infeasible side really raises
    threshold = 0.8750690570848434
    eps = 1e-4
    feasible = FockWeights(1.0 - (threshold + eps), threshold + eps)
    interference_angle_disjunction(0.0, 0.5, 0.9, feasible)
    infeasible = FockWeights(1.0 - (threshold - eps), threshold - eps)
    with pytest.raises(NoInterferenceSolution):
        interference_angle_disjunction(0.0, 0.5, 0.9, infeasible)


def test_pure_single_sector_symmetric_weights_give_right_angle():
    w = FockWeights(0.0, 1.0)
    beta = interference_angle_conjunction(0.5, 0.5, 0.5, w)
    assert beta == pytest.approx(np.pi / 2, abs=1e-12)
    assert fock_conjunction(0.5, 0.5, beta, w) == pytest.approx(0.5, abs=1e-12)


def test_angle_extraction_rejects_degenerate_inputs():
    with pytest.raises(ModelError):
        interference_angle_conjunction(1.0, 0.5, 0.6, FockWeights(0.3, 0.7))
    with pytest.raises(ModelError):
        interference_angle_conjunction(0.5, 0.5, 0.5, FockWeights(1.0, 0.0))
    with pytest.raises(ModelError):
        interference_angle_conjunction(1.2, 0.5, 0.6, FockWeights(0.3, 0.7))


def test_cosine_overshoot_within_slack_clamps_to_zero_angle():
    # mu_joint at the exact feasibility edge plus float dust still resolves
    w = FockWeights(0.0, 1.0)
    mu_a, mu_b = 0.3, 0.4
    top = (mu_a + mu_b) / 2 + np.sqrt((1 - mu_a) * (1 - mu_b))
    beta = interference_angle_conjunction(mu_a, mu_b, top + 1e-8, w)
    assert beta == 0.0


def test_out_of_range_prediction_warns_but_returns():
    # in-phase predictions never exceed 1, but anti-phase ones can go negative
    w = FockWeights(0.0, 1.0)
    with pytest.warns(UserWarning):
        value = fock_conjunction(0.1, 0.1, np.pi, w)
    assert value == pytest.approx(-0.8, abs=1e-12)


def test_round_trip_property_both_connectives():
    rng = np.random.default_rng(20240812)
    for connective, forward, extract in (
        ("and", fock_conjunction, interference_angle_conjunction),
        ("or", fock_disjunction, interference_angle_disjunction),
    ):
        done = 0
        while done < 300:
            mu_a, mu_b = rng.uniform(0.0, 0.95, size=2)
            m2 = rng.uniform(0.0, 0.9)
            w = FockWeights(m2, 1.0 - m2)
            sector2 = mu_a * mu_b if connective == "and" else mu_a + mu_b - mu_a * mu_b
            amp = np.sqrt((1 - mu_a) * (1 - mu_b))
            lo = max(0.0, m2 * sector2 + (1 - m2) * ((mu_a + mu_b) / 2 - amp))
            hi = min(1.0, m2 * sector2 + (1 - m2) * ((mu_a + mu_b) / 2 + amp))
            if hi <= lo:
                continue
            mu_joint = rng.uniform(lo, hi)
            beta = extract(mu_a, mu_b, mu_joint, w)
            assert forward(mu_a, mu_b, beta, w) == pytest.approx(mu_joint, abs=1e-9)
            done += 1


def test_complementation_ties_the_two_interference_terms():
    # the disjunction interference term of (a, b, j) is the negative of the
    # conjunction term of the complemented triple (1-a, 1-b, 1-j)
    rng = np.random.default_rng(99)
    w = FockWeights(0.3, 0.7)
    done = 0
    while done < 200:
        a, b = rng.uniform(0.05, 0.9, size=2)
        amp = np.sqrt((1 - a) * (1 - b))
        s2 = a + b - a * b
        # keep the complemented extraction feasible: its cosine magnitude is
        # amp * |cos_target| / sqrt(a * b)
        cos_cap = min(1.0, np.sqrt(a * b) / amp) * 0.9
        cos_target = rng.uniform(-cos_cap, cos_cap)
        j = w.m_sq * s2 + w.n_sq * ((a + b) / 2 + amp * cos_target)
        if not (0.0 < j < 1.0) or not (0.0 < 1.0 - j < 1.0):
            continue
        beta_d = interference_angle_disjunction(a, b, j, w)
        beta_c = interference_angle_conjunction(1 - a, 1 - b, 1 - j, w)
        term_d = amp * np.cos(beta_d)
        term_c = np.sqrt(a * b) * np.cos(beta_c)
        assert term_d + term_c == pytest.approx(0.0, abs=1e-12)
        done += 1


# -------------------------------------------------------------- 3-d realization

def test_c3_vectors_reproduce_weights_and_cross_term():
    w = FockWeights(0.3, 0.7)
    beta = interference_angle_conjunction(0.87, 0.81, 0.90, w)
    vec_a, vec_b, proj = build_c3_vectors(0.87, 0.81, beta)
    assert vec_a.norm() == pytest.approx(1.0, abs=1e-12)
    assert vec_b.norm() == pytest.approx(1.0, abs=1e-12)
    assert born_probability(vec_a, proj) == pytest.approx(0.87, abs=1e-12)
    assert born_probability(vec_b, proj) == pytest.approx(0.81, abs=1e-12)
    cross = inner_product(vec_a, proj.apply(vec_b.components))
    expected = np.sqrt((1 - 0.87) * (1 - 0.81)) * np.cos(beta)
    assert cross.real == pytest.approx(expected, abs=1e-12)


def test_c3_precondition_is_enforced():
    with pytest.raises(ConstructionInapplicable) as exc_info:
        build_c3_vectors(0.0, 0.9, 0.5)
    assert "muA > 0" in str(exc_info.value)
    with pytest.raises(ConstructionInapplicable):
        build_c3_vectors(0.4, 0.5, 0.5)


# ------------------------------------------------------------------ complex sum

def test_complex_sum_interference_squared_magnitude():
    a = b = np.sqrt(40.0)
    sq = complex_sum_interference(a, 37.76 * DEG, b, -37.76 * DEG)
    assert sq == pytest.approx(100.00336332223058, abs=1e-9)
    assert np.sqrt(sq) == pytest.approx(10.00016816469756, abs=1e-9)


def test_complex_sum_interference_limits():
    assert complex_sum_interference(1.0, 0.3, 1.0, 0.3) == pytest.approx(4.0, abs=1e-12)
    assert complex_sum_interference(1.0, 0.0, 1.0, np.pi) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ModelError):
        complex_sum_interference(-1.0, 0.0, 1.0, 0.0)
