"""Delta/k/f diagnostics and extension classification."""
from __future__ import annotations

from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qconcepts.classicality import (
    ZERO_SLACK,
    ExtensionClass,
    batch_diagnose,
    conjunction_diagnostics,
    disjunction_diagnostics,
)


def test_conjunction_double_overextension_mint_weights():
    r = conjunction_diagnostics(0.87, 0.81, 0.9)
    assert r.delta == pytest.approx(0.09, abs=1e-12)
    assert r.kolmogorov_factor == pytest.approx(0.22, abs=1e-12)
    assert r.interference_need == pytest.approx(-0.06, abs=1e-12)
    assert not r.classical_representable
    assert r.extension_class is ExtensionClass.DOUBLE_OVEREXTENDED


def test_disjunction_mushroom_weights_break_additivity():
    r = disjunction_diagnostics(0.0, 0.5, 0.9)
    assert r.delta == pytest.approx(-0.4, abs=1e-12)
    assert r.kolmogorov_factor == pytest.approx(-0.4, abs=1e-12)
    assert r.interference_need == pytest.approx(-0.4, abs=1e-12)
    # joint above both components, yet still non-classical through k < 0
    assert not r.classical_representable
    assert r.extension_class is ExtensionClass.NONE


def test_disjunction_single_and_double_underextension():
    single = disjunction_diagnostics(0.9, 0.6, 0.8)
    assert single.extension_class is ExtensionClass.UNDEREXTENDED
    double = disjunction_diagnostics(0.5, 0.7, 0.4)
    assert double.extension_class is ExtensionClass.DOUBLE_UNDEREXTENDED


def test_conjunction_single_overextension():
    r = conjunction_diagnostics(0.56, 0.15, 0.21)
    assert r.extension_class is ExtensionClass.OVEREXTENDED
    assert r.delta == pytest.approx(0.06, abs=1e-12)


def test_exact_boundary_counts_as_classical():
    # mu_joint == min for conjunction, k == 0: on the classical boundary
    r = conjunction_diagnostics(1.0, 0.0, 0.0)
    assert r.classical_representable
    assert r.extension_class is ExtensionClass.NONE
    r = disjunction_diagnostics(1.0, 0.0, 1.0)
    assert r.classical_representable


def test_double_takes_precedence_over_single():
    r = conjunction_diagnostics(0.3, 0.4, 0.5)
    assert r.delta > 0
    assert r.extension_class is ExtensionClass.DOUBLE_OVEREXTENDED


def test_diagnose_dispatches_on_connective():
    # Mint under "and" and Mushroom under "or", marked as the classicality verb marks them
    cols = batch_diagnose([0.87, 0.0], [0.81, 0.5], [0.9, 0.9],
                          [c == "and" for c in ("and", "or")])
    assert cols.delta.tolist() == pytest.approx([0.09, -0.4], abs=1e-12)


def test_batch_diagnose_preserves_order():
    cols = batch_diagnose([0.5, 0.5], [0.5, 0.5], [0.25, 0.75], [True, False])
    assert cols.classical_representable.tolist() == [True, True]
    assert cols.delta.tolist() == [0.25 - 0.5, 0.5 - 0.75]
    assert cols.kolmogorov_factor.tolist() == [0.25, 0.25]


def test_classical_joint_distributions_always_pass():
    # weights read off a genuine joint distribution satisfy all inequalities
    rng = np.random.default_rng(7)
    for _ in range(2000):
        p11, p10, p01, p00 = rng.dirichlet(np.ones(4))
        mu_a, mu_b = p11 + p10, p11 + p01
        r_and = conjunction_diagnostics(mu_a, mu_b, p11)
        r_or = disjunction_diagnostics(mu_a, mu_b, p11 + p10 + p01)
        assert r_and.classical_representable
        assert r_or.classical_representable
        assert r_and.extension_class is ExtensionClass.NONE
        assert r_or.extension_class is ExtensionClass.NONE


def test_interference_need_matches_definitions():
    rng = np.random.default_rng(8)
    for _ in range(500):
        a, b, j = rng.uniform(size=3)
        r = conjunction_diagnostics(a, b, j)
        assert r.interference_need == pytest.approx(min((a + b) / 2 - j, j - a * b), abs=0)
        r = disjunction_diagnostics(a, b, j)
        assert r.interference_need == pytest.approx(min(j - (a + b) / 2, a + b - a * b - j), abs=0)


# ------------------------------------- array-first core against the scalar formulas

def _reference_conjunction(mu_a, mu_b, mu_joint, slack=ZERO_SLACK):
    """The per-row diagnostics on Python floats, as written before the array core."""
    delta = mu_joint - min(mu_a, mu_b)
    k = 1.0 - mu_a - mu_b + mu_joint
    f = min((mu_a + mu_b) / 2.0 - mu_joint, mu_joint - mu_a * mu_b)
    classical = delta <= slack and k >= -slack
    ext = ExtensionClass.NONE
    if mu_joint > max(mu_a, mu_b) + slack:
        ext = ExtensionClass.DOUBLE_OVEREXTENDED
    elif delta > slack:
        ext = ExtensionClass.OVEREXTENDED
    return delta, k, f, classical, ext


def _reference_disjunction(mu_a, mu_b, mu_joint, slack=ZERO_SLACK):
    delta = max(mu_a, mu_b) - mu_joint
    k = mu_a + mu_b - mu_joint
    f = min(mu_joint - (mu_a + mu_b) / 2.0, mu_a + mu_b - mu_a * mu_b - mu_joint)
    classical = delta <= slack and k >= -slack
    ext = ExtensionClass.NONE
    if mu_joint < min(mu_a, mu_b) - slack:
        ext = ExtensionClass.DOUBLE_UNDEREXTENDED
    elif delta > slack:
        ext = ExtensionClass.UNDEREXTENDED
    return delta, k, f, classical, ext


def _hex_row(delta, k, f, classical, ext):
    # float.hex tells -0.0 from 0.0 and shows every bit of the mantissa
    return float(delta).hex(), float(k).hex(), float(f).hex(), bool(classical), ext


_weight = st.one_of(st.sampled_from([-0.0, 0.0, 1.0, 0.5]), st.floats(0.0, 1.0))
_offset = st.sampled_from([0.0, -0.0, ZERO_SLACK, -ZERO_SLACK, ZERO_SLACK / 2, -ZERO_SLACK / 2,
                           2 * ZERO_SLACK, -2 * ZERO_SLACK, 5e-324, -5e-324])


@st.composite
def _triples(draw):
    """Weights with ties and joints within ZERO_SLACK of every classicality boundary."""
    mu_a = draw(_weight)
    mu_b = draw(st.one_of(st.just(mu_a), _weight))
    anchor = draw(st.sampled_from(["free", "a", "b", "min", "max", "k_and", "k_or"]))
    base = {
        "free": draw(_weight), "a": mu_a, "b": mu_b,
        "min": min(mu_a, mu_b), "max": max(mu_a, mu_b),
        "k_and": mu_a + mu_b - 1.0, "k_or": mu_a + mu_b,
    }[anchor]
    return mu_a, mu_b, base + draw(_offset)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(triple=_triples())
def test_scalar_wrappers_match_the_reference_bitwise(triple):
    assert _hex_row(*astuple(conjunction_diagnostics(*triple))) == \
        _hex_row(*_reference_conjunction(*triple))
    assert _hex_row(*astuple(disjunction_diagnostics(*triple))) == \
        _hex_row(*_reference_disjunction(*triple))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(rows=st.lists(st.tuples(_triples(), st.booleans()), max_size=40))
def test_batch_diagnose_matches_the_reference_bitwise_on_mixed_tables(rows):
    mu_a = [t[0] for t, _ in rows]
    mu_b = [t[1] for t, _ in rows]
    mu_joint = [t[2] for t, _ in rows]
    is_and = [c for _, c in rows]
    cols = batch_diagnose(mu_a, mu_b, mu_joint, is_and)
    got = [_hex_row(*row) for row in zip(
        cols.delta.tolist(), cols.kolmogorov_factor.tolist(),
        cols.interference_need.tolist(), cols.classical_representable.tolist(),
        [list(ExtensionClass)[c] for c in cols.extension_code.tolist()])]
    want = [_hex_row(*(_reference_conjunction if c else _reference_disjunction)(*t))
            for t, c in rows]
    assert got == want
