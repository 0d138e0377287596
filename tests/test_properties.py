"""Property suites: each model claim checked against an independent oracle.

Examples are derandomized so every run draws the same cases, and there is
no deadline because a shared host's speed varies too much for one.
"""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qconcepts.classicality import ZERO_SLACK, conjunction_diagnostics, disjunction_diagnostics
from qconcepts.datasets import (
    COINCIDENCE_HEADER,
    EXEMPLAR_HEADER,
    MEMBERSHIP_HEADER,
    load_coincidence_csv,
    load_exemplar_csv,
    load_membership_csv,
    parse_coincidence_csv,
    parse_exemplar_csv,
    parse_membership_csv,
)
from qconcepts.errors import ModelError
from qconcepts.fock import (
    FockWeights,
    fock_conjunction,
    fock_disjunction,
    interference_angle_conjunction,
    interference_angle_disjunction,
)

SETTINGS = settings(derandomize=True, deadline=None)
unit = st.floats(0.0, 1.0)

# ------------------------------------------------------ forward(extract(mu)) = mu

CONNECTIVES = {
    "and": (fock_conjunction, interference_angle_conjunction, lambda a, b: a * b),
    "or": (fock_disjunction, interference_angle_disjunction, lambda a, b: a + b - a * b),
}


@pytest.mark.filterwarnings("ignore:.*prediction outside")
@SETTINGS
@given(connective=st.sampled_from(sorted(CONNECTIVES)), mu_a=st.floats(0.0, 0.99),
       mu_b=st.floats(0.0, 0.99), m2=st.floats(0.0, 0.9), share=unit)
def test_forward_of_extracted_angle_returns_the_joint_weight(connective, mu_a, mu_b, m2,
                                                               share):
    forward, extract, sector2 = CONNECTIVES[connective]
    weights = FockWeights(m2, 1.0 - m2)
    # the weights the angle can reach, cut to [0, 1]; share picks one of them
    centre = m2 * sector2(mu_a, mu_b) + (1.0 - m2) * (mu_a + mu_b) / 2.0
    swing = (1.0 - m2) * math.sqrt((1.0 - mu_a) * (1.0 - mu_b))
    lo, hi = max(0.0, centre - swing), min(1.0, centre + swing)
    mu_joint = lo + share * (hi - lo)
    beta = extract(mu_a, mu_b, mu_joint, weights)
    assert 0.0 <= beta <= math.pi
    assert forward(mu_a, mu_b, beta, weights) == pytest.approx(mu_joint, abs=1e-9)


# ----------------------------------------------- classical <=> Frechet bounds

# weights nearer a bound than this are left to the boundary unit tests: the
# diagnostics allow ZERO_SLACK there, and they and the oracle round differently
BOUNDARY_BAND = 1e3 * ZERO_SLACK


@SETTINGS
@given(mu_a=unit, mu_b=unit, mu_joint=unit)
def test_conjunction_is_classical_exactly_inside_the_frechet_bounds(mu_a, mu_b, mu_joint):
    lower, upper = max(0.0, mu_a + mu_b - 1.0), min(mu_a, mu_b)
    assume(abs(mu_joint - lower) > BOUNDARY_BAND and abs(mu_joint - upper) > BOUNDARY_BAND)
    report = conjunction_diagnostics(mu_a, mu_b, mu_joint)
    assert report.classical_representable == (lower <= mu_joint <= upper)


@SETTINGS
@given(mu_a=unit, mu_b=unit, mu_joint=unit)
def test_disjunction_is_classical_exactly_inside_the_dual_bounds(mu_a, mu_b, mu_joint):
    lower, upper = max(mu_a, mu_b), min(1.0, mu_a + mu_b)
    assume(abs(mu_joint - lower) > BOUNDARY_BAND and abs(mu_joint - upper) > BOUNDARY_BAND)
    report = disjunction_diagnostics(mu_a, mu_b, mu_joint)
    assert report.classical_representable == (lower <= mu_joint <= upper)


# ------------------------------------------------ parsers raise only ModelError

# cells that reach every branch: numbers in and out of range, non-finite
# values, non-numbers, quoting, and stray separators
cells = st.one_of(
    st.sampled_from(["0", "0.5", "1", "1.5", "-0.2", "81", "nan", "-inf", "inf", "1e309",
                     "", " ", "x", '"', '"a,b"', "and", "or", "and ", "#", "AB", "A'B",
                     "A'B'", "AB'", "\x00", " "]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-10, 10**6).map(str),
    st.text(max_size=6),
)


def _edited(fields, edits):
    fields = list(fields)
    for position, cell in edits:
        fields[position % len(fields)] = cell
    return ",".join(fields)


def _csv_text(header, valid_row):
    # a valid row with a few cells replaced reaches the model checks that
    # wholly random lines stop short of
    line = st.one_of(
        st.lists(cells, max_size=8).map(",".join),
        st.lists(st.tuples(st.integers(0, 7), cells), max_size=3).map(
            lambda edits: _edited(valid_row.split(","), edits)),
    )
    with_header = st.tuples(st.sampled_from([",".join(header), ",".join(header) + ",phi_deg"]),
                            st.lists(line, max_size=6))
    return st.one_of(with_header.map(lambda h: "\n".join([h[0], *h[1]]) + "\n"), st.text())


PARSERS = {
    "membership": (parse_membership_csv, load_membership_csv, MEMBERSHIP_HEADER,
                   "Mint,Food,Plant,0.87,0.81,0.9,and"),
    "exemplar": (parse_exemplar_csv, load_exemplar_csv, EXEMPLAR_HEADER,
                 "1,Almond,0.0359,0.0133,0.0269,83.8854"),
    "coincidence": (parse_coincidence_csv, load_coincidence_csv, COINCIDENCE_HEADER,
                    "AB,4,51,21,5"),
}


def _numbers(row):
    if hasattr(row, "probabilities"):
        return list(row.probabilities)
    values = [row.mu_a, row.mu_b]
    values.append(row.mu_joint if hasattr(row, "mu_joint") else row.mu_a_or_b)
    if getattr(row, "phi_deg", None) is not None:
        values.append(row.phi_deg)
    return values


def _parse_or_model_error(parse, source):
    try:
        rows = parse(source)
    except ModelError:
        return
    # whatever parses carries only finite numbers, so no NaN reaches JSON
    assert all(np.isfinite(v) for row in rows for v in _numbers(row))


@pytest.mark.parametrize("kind", sorted(PARSERS))
def test_parsers_raise_only_model_errors_on_fuzzed_text(kind):
    parse, _, header, valid_row = PARSERS[kind]

    @SETTINGS
    @given(text=_csv_text(header, valid_row))
    def check(text):
        _parse_or_model_error(parse, text)

    check()


# the columns a row's numbers come from, phi_deg included
NUMERIC_COLUMNS = {"membership": (3, 4, 5), "exemplar": (2, 3, 4, 5),
                   "coincidence": (1, 2, 3, 4)}


@pytest.mark.parametrize("kind", sorted(PARSERS))
def test_a_non_finite_cell_never_parses(kind):
    parse, _, header, valid_row = PARSERS[kind]
    header = ",".join(header) + (",phi_deg" if kind == "exemplar" else "")

    @SETTINGS
    @given(column=st.sampled_from(NUMERIC_COLUMNS[kind]),
           value=st.one_of(st.floats().map(repr), st.sampled_from(["NaN", "-inf", "1e309"])))
    def check(column, value):
        fields = valid_row.split(",")
        fields[column] = value
        _parse_or_model_error(parse, f"{header}\n{','.join(fields)}\n")

    check()


@pytest.mark.parametrize("kind", sorted(PARSERS))
def test_loaders_raise_only_model_errors_on_fuzzed_bytes(kind, tmp_path):
    _, load, header, valid_row = PARSERS[kind]
    path = tmp_path / "fuzzed.csv"
    text_bytes = _csv_text(header, valid_row).map(lambda t: t.encode("utf-8", "surrogatepass"))

    @SETTINGS
    @given(data=st.one_of(st.binary(max_size=200), text_bytes,
                          st.tuples(text_bytes, st.binary(min_size=1, max_size=4))
                          .map(lambda p: p[0] + p[1])))
    def check(data):
        path.write_bytes(data)
        _parse_or_model_error(load, path)

    check()
