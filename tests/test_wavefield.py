"""Wavefield construction: width fit, placement, phase surface, rasters, export."""
from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import qconcepts
from conftest import exemplar_columns
from qconcepts import wavefield
from qconcepts.datasets import load_dataset
from qconcepts.disjunction_model import ExemplarColumns, ExemplarRow, build_model
from qconcepts.errors import ModelError, PlacementError
from qconcepts.wavefield import (
    CENTER_B,
    DEFAULT_EXTENT,
    INTENSITY_TOL,
    MARGIN_FLOOR,
    PHASE_FIT_TOL,
    _BLOCK_PIXELS,
    _CSV_LINES,
    _CURVE_SAMPLES,
    _ROOT_SAMPLES,
    _SCAN_POINTS,
    GridKind,
    GridPattern,
    PhasePolynomial,
    WaveFieldConfig,
    _block_rows,
    _cos_phase,
    _curve_point,
    _fit_widths,
    _gaussian,
    _log_ratios,
    default_config,
    evaluate_at,
    evaluate_patterns,
    export_grid,
    fit_phase_field,
    lowest_monomials,
    place_exemplars,
)

E1 = float(np.exp(-1.0))
SQ2INV = float(1.0 / np.sqrt(2.0))

# a raster width and its rows per block, so block-edge grids track the constant
BLOCK_NX = 512
BLOCK = _block_rows(BLOCK_NX)

# CPU counts the raster is checked under: the caller alone, one and two
# helpers, and more CPUs than any grid here has blocks
CPU_COUNTS = (1, 2, 3, 64)


@pytest.fixture(scope="module")
def table2():
    rows = load_dataset("fruits-vegetables-table2").rows
    config = default_config(rows)
    phases = build_model(rows).phases
    poly = fit_phase_field(config.positions, phases)
    return rows, config, phases, poly


def _circular_config(center=(1.5, 0.0)):
    # sigma = 1/sqrt(2) makes the quadratic coefficient exactly 1, so a level
    # curve at weight a * exp(-L) is the circle of radius sqrt(L)
    return WaveFieldConfig(1.0, 1.0, SQ2INV, SQ2INV, SQ2INV, SQ2INV, center)


def test_config_validation():
    with pytest.raises(ModelError, match="sigma_bx"):
        WaveFieldConfig(1.0, 1.0, 1.0, 1.0, -2.0, 1.0, (0.0, 1.0))
    with pytest.raises(ModelError, match="plane point"):
        WaveFieldConfig(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, (0.0, 1.0, 2.0))


def test_default_config_width_pins(table2):
    _, config, _, _ = table2
    assert config.sigma_ax == config.sigma_ay
    assert config.sigma_ax == pytest.approx(5.23818830280524, abs=1e-12)
    assert config.sigma_bx == pytest.approx(7.201556994189866, abs=1e-12)
    assert config.sigma_by == pytest.approx(2.637268261824106, abs=1e-12)
    assert config.amplitude_a == 0.1184
    assert config.amplitude_b == 0.1284
    assert config.center_b == (10.0, 4.0)


@pytest.mark.parametrize("row", [7, 5])    # Apple, the muA peak, and Raisin
def test_a_nan_weight_is_refused_by_the_width_fit_and_the_placement(table2, row):
    rows, config, _, _ = table2
    mu_a = rows.mu_a.copy()
    mu_a[row] = np.nan
    bad = dataclasses.replace(rows, mu_a=mu_a)
    with pytest.raises(ModelError, match="muA weights must be positive"):
        default_config(bad)
    with pytest.raises(ModelError, match="muA weights must be positive"):
        place_exemplars(bad, config)


def test_placement_refuses_a_peak_below_the_largest_weight(table2):
    rows, config, _, _ = table2
    low = dataclasses.replace(config, amplitude_a=float(rows.mu_a.max()) / 2)
    with pytest.raises(ModelError, match="peak amplitude 0.0592 below max muA weight"):
        place_exemplars(rows, low)


def test_peak_rows_anchor_the_two_centers(table2):
    rows, config, _, _ = table2
    ia = int(np.argmax([r.mu_a for r in rows]))
    ib = int(np.argmax([r.mu_b for r in rows]))
    assert rows[ia].name == "Apple" and rows[ib].name == "Broccoli"
    assert tuple(config.positions[ia]) == (0.0, 0.0)
    assert tuple(config.positions[ib]) == (10.0, 4.0)


def test_position_envelope_pins(table2):
    _, config, _, _ = table2
    pos = config.positions
    assert pos.shape == (24, 2)
    assert pos[:, 0].min() == pytest.approx(-4.550059201914406, abs=1e-9)
    assert pos[:, 0].max() == pytest.approx(11.703972248868611, abs=1e-9)
    assert pos[:, 1].min() == pytest.approx(-1.7833134840377889, abs=1e-9)
    assert pos[:, 1].max() == pytest.approx(8.578387277787577, abs=1e-9)
    diffs = pos[:, None, :] - pos[None, :, :]
    dist = np.sqrt((diffs ** 2).sum(-1))
    dist[np.diag_indices(24)] = np.inf
    assert dist.min() == pytest.approx(0.10613293105271526, abs=1e-12)


def test_field_values_at_positions_reproduce_weights(table2):
    rows, config, phases, poly = table2
    assert poly.fallback_used is False
    fit = poly.evaluate(config.positions[:, 0], config.positions[:, 1])
    assert np.max(np.abs(fit - phases)) <= 1e-6
    i_a, i_b, sup, _ = evaluate_at(config, poly, config.positions)
    assert np.max(np.abs(i_a - [r.mu_a for r in rows])) <= 1e-9
    assert np.max(np.abs(i_b - [r.mu_b for r in rows])) <= 1e-9
    assert np.max(np.abs(sup - [r.mu_a_or_b for r in rows])) <= 1e-6


def test_placement_parity_alternates_sides():
    # equal-radius unit circles about (0,0) and (1.5,0) cross at x = 0.75,
    # y = +-sqrt(1 - 0.75^2); odd index takes +y, even takes -y
    rows = exemplar_columns([
        ExemplarRow(1, "Up", E1, E1, 0.3),
        ExemplarRow(2, "Down", E1, E1, 0.3),
    ])
    pos = place_exemplars(rows, _circular_config())
    y_mag = float(np.sqrt(1.0 - 0.75 ** 2))
    assert pos[0] == pytest.approx((0.75, y_mag), abs=1e-6)
    assert pos[1] == pytest.approx((0.75, -y_mag), abs=1e-6)


@pytest.mark.parametrize("odd, even", [(-3, 10 ** 20), (10 ** 20 + 1, -4)])
def test_placement_parity_holds_for_negative_and_huge_indices(odd, even):
    # the same crossings as above; indices are Python ints, beyond int64 too
    rows = exemplar_columns([ExemplarRow(odd, "Up", E1, E1, 0.3),
                             ExemplarRow(even, "Down", E1, E1, 0.3)])
    want = place_exemplars(exemplar_columns([ExemplarRow(1, "Up", E1, E1, 0.3),
                                             ExemplarRow(2, "Down", E1, E1, 0.3)]),
                           _circular_config())
    assert place_exemplars(rows, _circular_config()).tobytes() == want.tobytes()


def test_placement_ties_in_y_follow_the_parity_rule():
    # B centred on the y-axis: the two crossings mirror each other, and for
    # some centres their y values agree bit for bit. Then the odd row keeps
    # the first in t order (+x) and the even row the last (-x), as a stable
    # sort on -y does
    rows = exemplar_columns([ExemplarRow(1, "Up", E1, E1, 0.3),
                             ExemplarRow(2, "Down", E1, E1, 0.3)])
    ties = 0
    for c in np.linspace(0.3, 1.9, 161):
        config = _circular_config(center=(0.0, float(c)))
        pos = place_exemplars(rows, config)
        if pos[0, 1] == pos[1, 1]:
            ties += 1
            assert pos[0, 0] > 0.0 > pos[1, 0]
            assert pos.tobytes() == _place_exemplars_loop(rows, config).tobytes()
    assert ties > 0


def test_degenerate_level_curve_snaps_to_center():
    # muA at the peak collapses the A-curve to the origin; the B level must
    # pass through it exactly
    mu_b_at_origin = float(np.exp(-1.5 ** 2))
    rows = exemplar_columns([ExemplarRow(1, "Origin", 1.0, mu_b_at_origin, 0.3)])
    pos = place_exemplars(rows, _circular_config())
    assert tuple(pos[0]) == (0.0, 0.0)
    with pytest.raises(PlacementError, match="'Origin'"):
        place_exemplars(exemplar_columns([ExemplarRow(1, "Origin", 1.0, E1, 0.3)]),
                        _circular_config())


def test_disjoint_circles_raise_with_name():
    small = float(np.exp(-0.01))
    rows = exemplar_columns([ExemplarRow(1, "Gap", small, small, 0.3)])
    with pytest.raises(PlacementError, match="circles disjoint for exemplar 'Gap'"):
        place_exemplars(rows, _circular_config())


def test_exact_tangency_is_rescued():
    # radii 1 and 0.5 about centers 1.5 apart: externally tangent at (1, 0)
    rows = exemplar_columns([ExemplarRow(1, "Touch", E1, float(np.exp(-0.25)), 0.3)])
    pos = place_exemplars(rows, _circular_config())
    assert pos[0] == pytest.approx((1.0, 0.0), abs=1e-3)
    assert np.hypot(*(pos[0] - (1.0, 0.0))) <= 1e-12
    # the same pair turned about the origin: the touching point falls
    # between samples of t, where h has an interior minimum
    for angle in (0.3, 2.5):
        touch = np.array([np.cos(angle), np.sin(angle)])
        pos = place_exemplars(rows, _circular_config(center=tuple(1.5 * touch)))
        assert np.hypot(*(pos[0] - touch)) <= 1e-12


@pytest.mark.parametrize("clearance", [0.5, 0.99, -0.5, -0.99, 1.01, 2.0])
def test_near_tangency_is_kept_within_the_intensity_tolerance(clearance):
    # B's level curve moved off the tangent radius so that h, the log-gap
    # along A's curve, has the extremum clearance * INTENSITY_TOL at the
    # touching point: inside the tolerance the point is placed there
    touch = np.array([np.cos(0.3), np.sin(0.3)])
    config = _circular_config(center=tuple(1.5 * touch))
    mu_b = float(np.exp(-(0.25 - clearance * INTENSITY_TOL)))
    rows = exemplar_columns([ExemplarRow(1, "Near", E1, mu_b, 0.3)])
    if abs(clearance) <= 1.0:
        assert np.hypot(*(place_exemplars(rows, config)[0] - touch)) <= 1e-12
    else:
        with pytest.raises(PlacementError,
                           match="'Near': intensity level curves do not intersect"):
            place_exemplars(rows, config)


@pytest.mark.parametrize("overlap", [1e-5, 1e-7, 2e-9])
def test_crossings_within_one_sample_step_are_both_found(overlap):
    # B's level curve pushed past the tangent radius by ``overlap``: the curves
    # cross twice near the touching point, within one sample step of t for
    # the two smaller overlaps, and h never changes sign between samples
    touch = np.array([np.cos(0.3), np.sin(0.3)])
    config = _circular_config(center=tuple(1.5 * touch))
    mu_b = float(np.exp(-(0.25 + overlap)))
    rows = exemplar_columns([ExemplarRow(1, "Upper", E1, mu_b, 0.3),
                             ExemplarRow(2, "Lower", E1, mu_b, 0.3)])
    pos = place_exemplars(rows, config)
    # on A's circle of radius 1 and on B's of radius sqrt(0.25 + overlap)
    assert np.abs(np.sum(pos ** 2, axis=1) - 1.0).max() <= INTENSITY_TOL
    assert np.abs(np.sum((pos - config.center_b) ** 2, axis=1)
                  - (0.25 + overlap)).max() <= INTENSITY_TOL
    # two distinct crossings, one either side of the touching point
    side = touch[0] * pos[:, 1] - touch[1] * pos[:, 0]
    assert side[0] > 0 > side[1]
    assert pos[0, 1] > pos[1, 1]


def test_the_first_unplaceable_row_in_input_order_raises():
    small = float(np.exp(-0.01))
    failing = {"PeakA": (1.0, E1, "peak of A misses its B level"),
               "PeakB": (E1, 1.0, "peak of B misses its A level"),
               "Gap": (small, small, "intensity level curves do not intersect")}
    for names in itertools.permutations(failing):
        rows = exemplar_columns([ExemplarRow(1, "Up", E1, E1, 0.3)] + [
            ExemplarRow(i + 2, name, *failing[name][:2], 0.3) for i, name in enumerate(names)])
        with pytest.raises(PlacementError,
                           match=f"exemplar '{names[0]}': {failing[names[0]][2]}"):
            place_exemplars(rows, _circular_config())


def test_width_fit_requires_distinct_peaks_and_offset_center():
    rows = exemplar_columns([
        ExemplarRow(1, "X", 0.30, 0.25, 0.3),
        ExemplarRow(2, "Y", 0.20, 0.20, 0.2),
    ])
    with pytest.raises(PlacementError, match="distinct peak rows"):
        default_config(rows)
    rows = exemplar_columns([
        ExemplarRow(1, "X", 0.30, 0.10, 0.3),
        ExemplarRow(2, "Y", 0.20, 0.25, 0.2),
    ])
    # the fit divides by both of B's centre coordinates
    assert 0.0 not in CENTER_B
    # no row besides the two peaks: every scanned u keeps an infinite margin,
    # so the bisection runs up to u_max = lb[ia] / a^2
    fit = _fit_widths(rows)
    assert fit == _fit_widths_loop(rows)
    u_max = np.log(0.25 / 0.10) / CENTER_B[0] ** 2
    assert fit[1] == pytest.approx(1.0 / np.sqrt(2.0 * u_max), rel=1e-12)


def _fit_widths_loop(rows, scan=None):
    """Reference width fit: every margin recomputes each row's curve from t.
    A dict ``scan`` receives the scanned widths' worst margins."""
    mu_a, mu_b = rows.mu_a, rows.mu_b
    ia, ib = int(np.argmax(mu_a)), int(np.argmax(mu_b))
    if ia == ib:
        raise PlacementError("width fit needs distinct peak rows for the two concepts")
    a, b = CENTER_B
    d = np.hypot(a, b)
    la = _log_ratios(float(mu_a[ia]), mu_a, "muA")
    lb = _log_ratios(float(mu_b[ib]), mu_b, "muB")
    if la[ib] <= 0 or lb[ia] <= 0:
        raise PlacementError("anchor rows must differ in weight from the peaks")
    sigma_a = d / np.sqrt(2.0 * la[ib])
    r_a = sigma_a * np.sqrt(2.0 * la)
    u_max = lb[ia] / a ** 2
    others = [k for k in range(len(rows)) if k not in (ia, ib)]
    t = np.linspace(0.0, 2.0 * np.pi, _CURVE_SAMPLES, endpoint=False)

    def worst_margin(u):
        v = (lb[ia] - a ** 2 * u) / b ** 2
        if v <= 0.0:
            return -np.inf
        worst = np.inf
        for k in others:
            g = u * (r_a[k] * np.cos(t) - a) ** 2 + v * (r_a[k] * np.sin(t) - b) ** 2
            worst = min(worst, lb[k] - g.min(), g.max() - lb[k])
        return worst

    grid = [u_max * (i + 0.5) / _SCAN_POINTS for i in range(_SCAN_POINTS)]
    margins = [worst_margin(u) for u in grid]
    if scan is not None:
        scan["margins"] = margins
    eligible = [i for i, m in enumerate(margins) if m >= MARGIN_FLOOR]
    if eligible:
        i0 = max(eligible)
        lo = grid[i0]
        hi = grid[i0 + 1] if i0 + 1 < _SCAN_POINTS else u_max
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if worst_margin(mid) >= MARGIN_FLOOR:
                lo = mid
            else:
                hi = mid
        u_star = lo
    else:
        best = int(np.argmax(margins))
        if margins[best] <= 0.0:
            raise PlacementError(
                "circles disjoint: no width assignment intersects every level-curve pair"
            )
        u_star = grid[best]
    v_star = (lb[ia] - a ** 2 * u_star) / b ** 2
    return sigma_a, 1.0 / np.sqrt(2.0 * u_star), 1.0 / np.sqrt(2.0 * v_star), ia, ib


def _perturbed(rows, seed, scale, keep=()):
    """The table with each weight scaled by a seeded log-normal factor, the
    rows at the positions in ``keep`` left as they are."""
    rng = np.random.default_rng(seed)
    factors = np.exp(scale * rng.standard_normal((len(rows), 2)))
    return exemplar_columns([r if k in keep else dataclasses.replace(
        r, mu_a=float(min(r.mu_a * fa, 1.0)), mu_b=float(min(r.mu_b * fb, 1.0)))
        for k, (r, (fa, fb)) in enumerate(zip(rows, factors))])


def test_width_fit_matches_per_row_loop(table2):
    rows = table2[0]
    assert _fit_widths(rows) == _fit_widths_loop(rows)
    for seed in (0, 1):
        pert = _perturbed(rows, seed, 0.1)
        assert _fit_widths(pert) == _fit_widths_loop(pert)
    # a 0.18 spread with seed 1: no scanned width reaches MARGIN_FLOOR, but
    # one keeps a positive margin, so the fit takes the best scanned width
    pert, scan = _perturbed(rows, 1, 0.18), {}
    assert _fit_widths(pert) == _fit_widths_loop(pert, scan)
    assert 0.0 < max(scan["margins"]) < MARGIN_FLOOR
    # a 0.2 spread with seed 0 leaves no width assignment that fits
    pert = _perturbed(rows, 0, 0.2)
    with pytest.raises(PlacementError, match="no width assignment"):
        _fit_widths_loop(pert)
    with pytest.raises(PlacementError, match="no width assignment"):
        _fit_widths(pert)


def _dirichlet_table(seed, n):
    """The exemplar table perfbench's ``exemplar_csv(seed, n)`` writes, as
    columns: flat Dirichlet muA and muB, and muAorB by the Born relation for
    a phase drawn from [0, pi]."""
    rng = np.random.default_rng(seed)
    mu_a, mu_b = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))
    phi = rng.uniform(0.0, np.pi, n)
    mu_or = np.maximum(0.5 * (mu_a + mu_b) + np.sqrt(mu_a * mu_b) * np.cos(phi), 0.0)
    return ExemplarColumns(list(range(1, n + 1)), [f"x{i:04d}" for i in range(1, n + 1)],
                           mu_a, mu_b, mu_or, None)


def _fit_or_error(fit, rows):
    try:
        return fit(rows)
    except PlacementError as exc:
        return str(exc)


@settings(max_examples=10, deadline=None)
@given(st.one_of(st.tuples(st.just("seeded"), st.integers(0, 2 ** 32 - 1), st.integers(3, 12)),
                 st.tuples(st.just("table2"), st.integers(0, 2 ** 32 - 1),
                           st.sampled_from((0.02, 0.1, 0.18, 0.3)))))
# tables where the last sample of some row's front sets that row's extreme of g
@example(("seeded", 42, 5))
@example(("seeded", 37, 12))
def test_width_fit_matches_per_row_loop_on_drawn_tables(table2, draw):
    kind, seed, size = draw
    rows = _dirichlet_table(seed, size) if kind == "seeded" else _perturbed(table2[0], seed, size)
    assert _fit_or_error(_fit_widths, rows) == _fit_or_error(_fit_widths_loop, rows)


def _resampled(rows, phases, seed, scale):
    """Table 2 with each weight column scaled by seeded log-normal factors
    and brought back to its sum, and muAorB set by the Born relation at
    Table 2's phases, so the table stays a choose-one experiment."""
    rng = np.random.default_rng(seed)
    mu_a, mu_b = (col * np.exp(scale * rng.standard_normal(len(rows)))
                  for col in (rows.mu_a, rows.mu_b))
    mu_a, mu_b = mu_a * (rows.mu_a.sum() / mu_a.sum()), mu_b * (rows.mu_b.sum() / mu_b.sum())
    mu_or = np.clip(0.5 * (mu_a + mu_b) + np.sqrt(mu_a * mu_b) * np.cos(phases), 0.0, 1.0)
    return dataclasses.replace(rows, mu_a=mu_a, mu_b=mu_b, mu_a_or_b=mu_or)


def _born_at(config, terms, x, y):
    """I_A, I_B and phi at one point, in scalar math: the squared packets of
    the module docstring from the config's fields, and the polynomial's
    terms summed exactly."""
    i_a = config.amplitude_a * math.exp(-x * x / (2.0 * config.sigma_ax ** 2)
                                        - y * y / (2.0 * config.sigma_ay ** 2))
    dx, dy = x - config.center_b[0], y - config.center_b[1]
    i_b = config.amplitude_b * math.exp(-dx * dx / (2.0 * config.sigma_bx ** 2)
                                        - dy * dy / (2.0 * config.sigma_by ** 2))
    return i_a, i_b, math.fsum(coef * x ** mx * y ** my for mx, my, coef in terms)


@settings(derandomize=True, deadline=None, max_examples=30)
@given(st.one_of(st.tuples(st.just("seeded"), st.integers(0, 2 ** 32 - 1), st.integers(3, 12)),
                 st.tuples(st.just("table2"), st.integers(0, 2 ** 32 - 1),
                           st.sampled_from((0.02, 0.1, 0.3)))))
def test_superposed_pattern_reproduces_the_disjunction_at_every_exemplar(table2, draw):
    """On a drawn placeable table, I_A, I_B and phi recomputed apart from the
    kernel give 1/2 (I_A + I_B) + sqrt(I_A I_B) cos phi = muAorB at every
    placed exemplar, within what placement (INTENSITY_TOL in log intensity)
    and the phase fit (PHASE_FIT_TOL) guarantee; evaluate_at agrees."""
    kind, seed, size = draw
    rows = (_dirichlet_table(seed, size) if kind == "seeded"
            else _resampled(table2[0], table2[2], seed, size))
    try:
        phases = build_model(rows).phases
        config = default_config(rows)
        poly = fit_phase_field(config.positions, phases)
    except ModelError:
        assume(False)
    rel = math.expm1(INTENSITY_TOL) + 1e-12      # an intensity's relative error
    kernel = evaluate_at(config, poly, config.positions)
    for k, (x, y) in enumerate(config.positions.tolist()):
        mu_a, mu_b, mu_or = rows.mu_a[k], rows.mu_b[k], rows.mu_a_or_b[k]
        i_a, i_b, phi = _born_at(config, poly.terms, x, y)
        assert abs(i_a - mu_a) <= rel * mu_a and abs(i_b - mu_b) <= rel * mu_b
        assert abs(phi - phases[k]) <= PHASE_FIT_TOL + 1e-12
        superposed = 0.5 * (i_a + i_b) + math.sqrt(i_a * i_b) * math.cos(phi)
        bound = (0.5 * (mu_a + mu_b) * rel + math.sqrt(mu_a * mu_b) * (rel + PHASE_FIT_TOL)
                 + 1e-12)
        assert abs(superposed - mu_or) <= bound, (k, superposed - mu_or, bound)
        k_a, k_b, k_sup, k_cla = (v[k] for v in kernel)
        assert (k_a, k_b, k_cla) == pytest.approx((i_a, i_b, 0.5 * (i_a + i_b)), rel=1e-12)
        # phi's terms summed in another order round differently
        assert k_sup == pytest.approx(max(superposed, 0.0), abs=1e-9)


@pytest.mark.parametrize("seed, n", [(9, 30), (10, 12)])
def test_width_fit_bisects_up_to_u_max_from_the_top_grid_width(seed, n):
    # the top scanned width is eligible, so the bisection's bracket ends at
    # u_max, and lo climbs up to it: a search that stops once mid == hi
    # returns a smaller u_B here
    rows, scan = _dirichlet_table(seed, n), {}
    fit = _fit_widths(rows)
    assert fit == _fit_widths_loop(rows, scan)
    assert scan["margins"][-1] >= MARGIN_FLOOR
    lb_peak = np.log(rows.mu_b.max() / rows.mu_b[fit[3]])
    assert fit[1] == pytest.approx(1.0 / np.sqrt(2.0 * lb_peak / CENTER_B[0] ** 2), rel=1e-12)


def _place_exemplars_loop(rows, config):
    """Reference placement: walks every sample of h and bisects each bracket
    as a scalar. It squares with np.square, as the array code does: ``** 2``
    on a numpy scalar calls libm pow, which can differ from x * x by an ulp.
    """
    mu_a = np.array([r.mu_a for r in rows])
    mu_b = np.array([r.mu_b for r in rows])
    la = _log_ratios(config.amplitude_a, mu_a, "muA")
    lb = _log_ratios(config.amplitude_b, mu_b, "muB")
    ua, va = 1.0 / (2.0 * config.sigma_ax ** 2), 1.0 / (2.0 * config.sigma_ay ** 2)
    ub, vb = 1.0 / (2.0 * config.sigma_bx ** 2), 1.0 / (2.0 * config.sigma_by ** 2)
    a, b = float(config.center_b[0]), float(config.center_b[1])

    def g_b(x, y):
        return ub * np.square(x - a) + vb * np.square(y - b)

    def disjoint(row, why):
        return PlacementError(f"circles disjoint for exemplar {row.name!r}: {why}")

    positions = np.zeros((len(rows), 2))
    for k, row in enumerate(rows):
        if la[k] == 0.0:
            if abs(ub * a ** 2 + vb * b ** 2 - lb[k]) > INTENSITY_TOL:
                raise disjoint(row, "peak of A misses its B level")
            positions[k] = (0.0, 0.0)
            continue
        if lb[k] == 0.0:
            if abs(ua * a ** 2 + va * b ** 2 - la[k]) > INTENSITY_TOL:
                raise disjoint(row, "peak of B misses its A level")
            positions[k] = (a, b)
            continue
        p, q = np.sqrt(la[k] / ua), np.sqrt(la[k] / va)
        t = np.linspace(0.0, 2.0 * np.pi, _ROOT_SAMPLES + 1)
        h = g_b(*_curve_point(p, q, t)) - lb[k]
        roots = []
        for i in range(_ROOT_SAMPLES):
            if h[i] == 0.0:
                roots.append(t[i])
            elif h[i] * h[i + 1] < 0:
                lo, hi, f_lo = t[i], t[i + 1], h[i]
                for _ in range(100):
                    mid = 0.5 * (lo + hi)
                    f_mid = g_b(*_curve_point(p, q, mid)) - lb[k]
                    if f_lo * f_mid <= 0:
                        hi = mid
                    else:
                        lo, f_lo = mid, f_mid
                roots.append(0.5 * (lo + hi))
        # no curve pair below touches within INTENSITY_TOL without crossing
        if not roots:
            raise disjoint(row, "intensity level curves do not intersect; enlarge the widths")
        pts = sorted((_curve_point(p, q, tt) for tt in roots), key=lambda pt: -pt[1])
        positions[k] = pts[0] if row.index % 2 == 1 else pts[-1]
    return positions


def _placed(place, rows, config):
    """Positions as bytes, or the PlacementError's type and message."""
    try:
        return place(rows, config).tobytes()
    except PlacementError as exc:
        return type(exc), str(exc)


def test_placement_brackets_match_the_per_sample_loop(table2):
    rows, config = table2[0], table2[1]
    cases = [(rows, config)]
    for seed in range(12):
        pert = _perturbed(rows, seed, 0.1)
        cases.append((pert, default_config(pert)))
    # Table 2's widths, its two peak rows kept and the rest perturbed: a
    # row that overtakes a peak misses it, and some curve pairs do not meet,
    # so the errors are compared too
    peaks = [int(np.argmax([getattr(r, mu) for r in rows])) for mu in ("mu_a", "mu_b")]
    for seed in range(100):
        pert = _perturbed(rows, seed, (0.02, 0.1, 0.2, 0.5)[seed % 4], keep=peaks)
        cases.append((pert, dataclasses.replace(
            config, amplitude_a=max(r.mu_a for r in pert),
            amplitude_b=max(r.mu_b for r in pert))))
    # a B level curve through the A-curve's t = 0 sample (p, 0), so h is exactly 0
    # there; B is centred off the axis, so the curves cross rather than touch
    config = _circular_config(center=(1.5, 1.0))
    u = 1.0 / (2.0 * SQ2INV ** 2)
    p = float(np.sqrt(_log_ratios(1.0, [E1], "muA")[0] / u))
    on_sample = float(np.exp(-(u * (p - 1.5) ** 2 + u * (0.0 - 1.0) ** 2)))
    crossing = exemplar_columns([ExemplarRow(1, "Above", E1, on_sample, 0.3),
                                 ExemplarRow(2, "OnSample", E1, on_sample, 0.3)])
    assert tuple(place_exemplars(crossing, config)[1]) == (p, 0.0)
    cases.append((crossing, config))
    outcomes = [_placed(place_exemplars, *case) for case in cases]
    assert outcomes == [_placed(_place_exemplars_loop, *case) for case in cases]
    reasons = {o[1].split(": ")[-1] for o in outcomes if isinstance(o, tuple)}
    assert reasons == set(wavefield._MISSES[1:])
    assert sum(isinstance(o, bytes) for o in outcomes) > 40


def test_lowest_monomials_order():
    assert lowest_monomials(6) == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
    assert len(lowest_monomials(24)) == 24


def test_fit_phase_field_recovers_exact_polynomial():
    positions = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
    target = {(0, 0): 0.3, (0, 1): -0.1, (1, 0): 0.2}
    phases = [0.3, 0.5, 0.2]
    poly = fit_phase_field(positions, phases)
    assert poly.fallback_used is False
    got = {(mx, my): c for mx, my, c in poly.terms}
    assert got.keys() == target.keys()
    for key, value in target.items():
        assert got[key] == pytest.approx(value, abs=1e-12)


def test_fit_phase_field_scale_covariance():
    # same fit at coordinates 1000x larger: coefficients shrink by the
    # monomial degree, values at the points are unchanged
    positions = np.array([(0.0, 0.0), (1000.0, 0.0), (0.0, 1000.0)])
    phases = np.array([0.3, 0.5, 0.2])
    poly = fit_phase_field(positions, phases)
    got = {(mx, my): c for mx, my, c in poly.terms}
    assert got[(1, 0)] == pytest.approx(0.2e-3, abs=1e-15)
    assert got[(0, 1)] == pytest.approx(-0.1e-3, abs=1e-15)
    fit = poly.evaluate(positions[:, 0], positions[:, 1])
    assert np.max(np.abs(fit - phases)) <= 1e-9


def test_fit_phase_field_duplicate_positions_rejected():
    with pytest.raises(ModelError, match="coincide"):
        fit_phase_field([(1.0, 2.0), (1.0, 2.0)], [0.1, 0.2])
    with pytest.raises(ModelError, match="length"):
        fit_phase_field([(1.0, 2.0)], [0.1, 0.2])


def test_fit_phase_field_needs_a_position():
    with pytest.raises(ModelError, match="at least one position"):
        fit_phase_field(np.zeros((0, 2)), np.zeros(0))


def test_fit_phase_field_singular_square_system_falls_back():
    # two points sharing y: the square system on (1, y) is singular, the
    # least-squares fallback over 30 monomials still interpolates
    positions = [(0.0, 1.0), (2.0, 1.0)]
    phases = [0.4, 0.9]
    poly = fit_phase_field(positions, phases)
    assert poly.fallback_used is True
    fit = poly.evaluate(np.array([0.0, 2.0]), np.array([1.0, 1.0]))
    assert np.max(np.abs(fit - phases)) <= 1e-6


def test_fit_phase_field_singular_square_system_at_30_points_fails_without_lstsq(monkeypatch):
    # 30 collinear points: the square system on 30 monomials is singular, and
    # the 30 lowest monomials the fallback would use are the same system
    calls = []
    real = np.linalg.lstsq
    monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **k: calls.append(a) or real(*a, **k))
    positions = [(float(k), float(k)) for k in range(30)]
    with pytest.raises(ModelError, match=r"interpolation failed: singular 30x30 system"):
        fit_phase_field(positions, np.sin(np.arange(30.0)))
    assert calls == []
    # below 30 points the fallback still runs, over a wider basis
    with pytest.raises(ModelError, match=r"interpolation failed: residual"):
        fit_phase_field(positions[:29], np.sin(np.arange(29.0)))
    assert len(calls) == 1


@pytest.mark.parametrize("positions, phases", [
    ([(0.0, 0.0), (1.0, 1.0)], [np.nan, 0.2]),
    ([(0.0, 0.0), (1.0, 1.0)], [0.1, np.inf]),
    ([(0.0, 0.0), (1.0, np.nan)], [0.1, 0.2]),
])
def test_fit_phase_field_refuses_non_finite_input_before_any_solve(capfd, positions, phases):
    # a NaN position reaching LAPACK would print a parameter error on stderr
    with pytest.raises(ModelError, match="positions and phases must be finite"):
        fit_phase_field(positions, phases)
    assert capfd.readouterr().err == ""


def test_fit_phase_field_lstsq_failure_is_a_model_error(monkeypatch):
    # the shared-y pair of the fallback test, with the fallback solver failing too
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")

    monkeypatch.setattr(np.linalg, "lstsq", fail)
    with pytest.raises(ModelError, match=r"interpolation failed: singular 2x2 system"):
        fit_phase_field([(0.0, 1.0), (2.0, 1.0)], [0.4, 0.9])


def test_phase_polynomial_scalar_and_array_evaluate():
    poly = PhasePolynomial(((0, 0, 1.0), (1, 1, 2.0)))
    value = poly.evaluate(3.0, 0.5)
    assert isinstance(value, float) and value == 4.0
    arr = poly.evaluate(np.array([0.0, 3.0]), np.array([1.0, 0.5]))
    assert arr.shape == (2,) and arr.tolist() == [1.0, 4.0]


def _term_by_term(terms, x, y):
    """Reference phi: every term's full product, added to the total in order."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    out = np.zeros(np.broadcast(x, y).shape)
    for mx, my, coef in terms:
        out += np.multiply(coef * x ** mx, y ** my)
    return out if out.shape else float(out)


def _assert_same_bits(got, want):
    """Finite and infinite values equal byte for byte, NaN at the same places."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


EDGE_FLOATS = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1.1e-308, -1.1e-308]
COORDS = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(-30.0, 30.0), st.floats())
TERMS = st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6), st.one_of(
    st.sampled_from([0.0, -0.0]), st.floats(-1e3, 1e3), st.floats(allow_nan=False,
                                                                  allow_infinity=False))),
    max_size=12)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(data=st.data())
def test_evaluate_matches_the_term_by_term_loop(data):
    terms = data.draw(TERMS)
    if data.draw(st.booleans(), label="leading constant"):
        terms = [(0, 0, data.draw(COORDS.filter(np.isfinite))), *terms]
    terms = tuple(terms + terms[:data.draw(st.integers(0, 3), label="repeats")])
    layout = data.draw(st.sampled_from(["scalar", "row x column", "same shape"]))
    m, n = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
    if layout == "scalar":
        x, y = data.draw(COORDS), data.draw(COORDS)
    else:
        shapes = [(1, n), (m, 1)] if layout == "row x column" else [(m, n), (m, n)]
        x, y = (data.draw(arrays(float, shape, elements=COORDS)) for shape in shapes)
    poly = PhasePolynomial(terms)
    with np.errstate(all="ignore"):
        want = _term_by_term(terms, x, y)
        got = poly.evaluate(x, y)
        _assert_same_bits(got, want)
        assert isinstance(got, float) == (layout == "scalar")


@settings(derandomize=True, deadline=None, max_examples=300)
@given(peak=st.floats(1e-3, 1.0), u=st.floats(1e-3, 10.0), v=st.floats(1e-3, 10.0),
       dx=arrays(float, st.tuples(st.just(1), st.integers(1, 6)), elements=st.one_of(
           st.sampled_from([0.0, -0.0, 27.0, -30.0]), st.floats(-40.0, 40.0),
           st.floats(allow_nan=False, allow_infinity=False))),
       dy=arrays(float, st.tuples(st.integers(1, 6), st.just(1)), elements=st.one_of(
           st.sampled_from([0.0, -0.0, 27.0, -30.0]), st.floats(-40.0, 40.0))))
# exp(-729) is subnormal and exp(-900) is 0
@example(peak=1.0, u=1.0, v=1.0, dx=np.array([[27.0, -0.0]]), dy=np.array([[0.0], [-30.0]]))
def test_gaussian_matches_the_negated_sum(peak, u, v, dx, dy):
    with np.errstate(over="ignore", under="ignore"):
        want = peak * np.exp(-(u * dx ** 2 + v * dy ** 2))
        _assert_same_bits(_gaussian(peak, u, dx, v, dy), want)
        out = np.full(want.shape, np.nan)
        assert _gaussian(peak, u, dx, v, dy, out=out) is out
    _assert_same_bits(out, want)


def test_evaluate_patterns_shapes_and_keys(table2):
    _, config, _, poly = table2
    patterns = evaluate_patterns(config, poly, grid=(64, 48))
    assert set(patterns) == set(GridKind)
    for kind, pattern in patterns.items():
        assert pattern.kind is kind
        assert pattern.values.shape == (48, 64)
        assert pattern.nx == 64 and pattern.ny == 48
        assert pattern.extent == (-15.0, 25.0, -15.0, 20.0)


def test_evaluate_patterns_validates_grid_and_extent(table2):
    _, config, _, poly = table2
    with pytest.raises(ModelError, match="2x2"):
        evaluate_patterns(config, poly, grid=(1, 8))
    # one exemplar moved past the right edge of DEFAULT_EXTENT
    outside = config.positions.copy()
    outside[0, 0] = DEFAULT_EXTENT[1] + 1.0
    with pytest.raises(ModelError, match="does not cover"):
        evaluate_patterns(dataclasses.replace(config, positions=outside), poly)


def test_evaluate_patterns_refuses_a_grid_too_large_to_allocate(table2):
    # numpy refuses an axis of 2**62 points before allocating anything
    _, config, _, poly = table2
    with pytest.raises(ModelError, match=f"grid 2x{2 ** 62} is too large to allocate"):
        evaluate_patterns(config, poly, grid=(2, 2 ** 62))


def test_ninety_degree_phase_degenerates_to_classical(table2):
    _, config, _, _ = table2
    assert _cos_phase(np.pi / 2.0) == 0.0
    quarter = PhasePolynomial(((0, 0, float(np.pi / 2.0)),))
    # one block, then two full blocks and a partial last one
    for grid in [(128, 128), (BLOCK_NX, 2 * BLOCK + 1)]:
        patterns = evaluate_patterns(config, quarter, grid=grid)
        sup = patterns[GridKind.SUPERPOSED]
        cla = patterns[GridKind.CLASSICAL_AVERAGE]
        assert np.array_equal(sup.values, cla.values), grid
        assert sup.clamp_count == 0


def test_superposed_clamp_count_zero_on_bundled_data(table2):
    _, config, _, poly = table2
    patterns = evaluate_patterns(config, poly)
    assert patterns[GridKind.SUPERPOSED].clamp_count == 0
    # interference really moves intensity around relative to the average
    delta = patterns[GridKind.SUPERPOSED].values - patterns[GridKind.CLASSICAL_AVERAGE].values
    assert (delta > 0).any() and (delta < 0).any()


def _dense_patterns(config, phase, grid):
    """Reference raster: full (ny, nx) coordinate grids, one new total per term."""
    x_min, x_max, y_min, y_max = DEFAULT_EXTENT
    x, y = np.meshgrid(np.linspace(x_min, x_max, grid[0]), np.linspace(y_min, y_max, grid[1]))
    # the field formulas spelled out, with none of the raster's helpers
    ua, va = 1.0 / (2.0 * config.sigma_ax ** 2), 1.0 / (2.0 * config.sigma_ay ** 2)
    ub, vb = 1.0 / (2.0 * config.sigma_bx ** 2), 1.0 / (2.0 * config.sigma_by ** 2)
    a, b = config.center_b
    i_a = config.amplitude_a * np.exp(-(ua * x ** 2 + va * y ** 2))
    i_b = config.amplitude_b * np.exp(-(ub * (x - a) ** 2 + vb * (y - b) ** 2))
    phi = np.zeros(x.shape)
    for mx, my, coef in phase.terms:
        phi = phi + coef * x ** mx * y ** my
    classical = 0.5 * (i_a + i_b)
    raw = classical + np.sqrt(i_a * i_b) * np.sin(np.pi / 2.0 - phi)
    sup = np.maximum(raw, 0.0)
    values = {GridKind.INTENSITY_A: i_a, GridKind.INTENSITY_B: i_b,
              GridKind.SUPERPOSED: sup, GridKind.CLASSICAL_AVERAGE: classical}
    counts = (int(np.sum(raw < 0.0)), int(np.sum(sup > classical)), int(np.sum(sup < classical)))
    return values, counts


def _check_raster(set_cpus, config, phase, grid):
    """The raster under every CPU count equals the dense one, counts included,
    and leaves no helper thread behind."""
    values, counts = _dense_patterns(config, phase, grid)
    threads = set(threading.enumerate())
    for cpus in CPU_COUNTS:
        set_cpus(cpus)
        patterns = evaluate_patterns(config, phase, grid=grid)
        assert set(threading.enumerate()) == threads, cpus
        for kind in GridKind:
            assert np.array_equal(patterns[kind].values, values[kind]), (cpus, kind)
        sup = patterns[GridKind.SUPERPOSED]
        assert (sup.clamp_count, sup.constructive_count, sup.destructive_count) == counts, cpus
    return values, counts


@pytest.mark.parametrize("grid", [
    (512, 512), (37, 23), (7, 1001), (1001, 7),
    # ny at the block edges: one block, a block short by a row, exactly one
    # block, one row into the next, and a one-row last block after two
    (BLOCK_NX, 2), (BLOCK_NX, BLOCK - 1), (BLOCK_NX, BLOCK), (BLOCK_NX, BLOCK + 1),
    (BLOCK_NX, 2 * BLOCK + 1),
    # a row wider than the block budget still makes a block of one row
    (_BLOCK_PIXELS + 1, 2),
])
def test_raster_matches_dense_grid(table2, grid, set_cpus):
    _, config, _, poly = table2
    _check_raster(set_cpus, config, poly, grid)


def test_raster_clamp_count_adds_up_over_blocks(set_cpus):
    # coincident identical sources at phase pi: raw = I - sqrt(I * I), which
    # goes negative where I * I is subnormal, so clamps fall in every block
    config = WaveFieldConfig(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, (0.0, 0.0))
    poly = PhasePolynomial(((0, 0, float(np.pi)),))
    grid = (BLOCK_NX, 2 * BLOCK + 1)
    values, (clamps, _, _) = _check_raster(set_cpus, config, poly, grid)
    zeroed = values[GridKind.SUPERPOSED] == 0.0
    assert all(zeroed[start:start + BLOCK].any() for start in range(0, grid[1], BLOCK))
    assert clamps > 0


def test_raster_blocks_survive_thread_switches(table2, set_cpus, monkeypatch):
    # one-row blocks, up to 63 helpers and a thread switch every microsecond:
    # every block runs exactly once, and the raster stays exact
    _, config, _, poly = table2
    monkeypatch.setattr(wavefield, "_BLOCK_PIXELS", 64)
    first_rows = []
    fields = wavefield._intensity_fields

    def recorded(config, x, y, out):
        first_rows.append(float(y[0, 0]))
        return fields(config, x, y, out)

    monkeypatch.setattr(wavefield, "_intensity_fields", recorded)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _check_raster(set_cpus, config, poly, (64, 300))
    finally:
        sys.setswitchinterval(interval)
    ys = np.linspace(DEFAULT_EXTENT[2], DEFAULT_EXTENT[3], 300).tolist()
    assert sorted(first_rows) == sorted(ys * len(CPU_COUNTS))


def test_a_helper_error_reaches_the_caller_and_no_helper_outlives_it(
        table2, fail_in_a_helper):
    _, config, _, poly = table2
    before = set(threading.enumerate())
    with pytest.raises(ModelError, match="in a helper") as info:
        evaluate_patterns(config, poly, grid=(BLOCK_NX, 4 * BLOCK))
    # the object a helper raised, not a copy (two helpers may both have raised)
    assert any(info.value is exc for exc in fail_in_a_helper)
    assert set(threading.enumerate()) == before


def test_helpers_run_under_the_callers_numpy_error_state(table2, set_cpus):
    _, config, _, _ = table2
    # this x ** 4 term overflows at the raster's x edges, so in every row block
    poly, grid = PhasePolynomial(((4, 0, 1e305),)), (BLOCK_NX, 4 * BLOCK)
    reference = None
    for cpus in CPU_COUNTS:
        set_cpus(cpus)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            evaluate_patterns(config, poly, grid=grid)
        # a helper under the default state would warn, an error under pytest
        with np.errstate(all="ignore"):
            patterns = evaluate_patterns(config, poly, grid=grid)
        reference = patterns if reference is None else reference
        for kind in GridKind:
            assert np.array_equal(patterns[kind].values, reference[kind].values,
                                  equal_nan=True), (cpus, kind)
    assert np.isnan(reference[GridKind.SUPERPOSED].values).any()


def _csv_reference(pattern):
    """Reference CSV: one "{:.9g}" format per field, joined per pixel."""
    xs = np.linspace(pattern.extent[0], pattern.extent[1], pattern.nx)
    ys = np.linspace(pattern.extent[2], pattern.extent[3], pattern.ny)
    lines = ["x,y,value"]
    for iy in range(pattern.ny):
        for ix in range(pattern.nx):
            lines.append(f"{xs[ix]:.9g},{ys[iy]:.9g},{pattern.values[iy, ix]:.9g}")
    return ("\n".join(lines) + "\n").encode()


def _edge_values_pattern():
    # values that format as 1e-05, -0, inf, nan, 1 ulp past 1 and 1.23456789e+11
    values = np.array([[1e-05, -0.0, np.inf],
                       [np.nan, -np.inf, 0.0],
                       [np.nextafter(1.0, 2.0), 123456789012.0, -2.5e-300]])
    return GridPattern(3, 3, (-1.0, 1.0, -0.5, 1e-05), values, GridKind.SUPERPOSED)


def _values_pattern(values, nx, extent=DEFAULT_EXTENT):
    values = np.asarray(values, dtype=float).reshape(-1, nx)
    return GridPattern(nx, len(values), extent, values, GridKind.SUPERPOSED)


def _rounding_edge_patterns():
    rng = np.random.default_rng(22)
    # 10-digit decimals ending in 5: each lies within about 1e-7 of a half
    # once scaled to 9 digits, on either side of it or on it
    ties = [float(f"{m}5e{x}") for m, x in zip(rng.integers(10 ** 8, 10 ** 9, 3000).tolist(),
                                               rng.integers(-320, 300, 3000).tolist())]
    # 999999999 and a tenth digit: rounds up into the next decade, across the
    # fixed/exponent bounds at 1e-4 and 1e9 among others
    carries = [float(f"999999999{d}e{x}") for d in range(5, 10) for x in range(-25, 12)]
    carries += [9.9999999995e-5, 99999.99995, 999999999.5]
    # more lines than one block: whole blocks and a partial last one, and a
    # row longer than a block
    nx = _CSV_LINES // 8 + 24
    ny = 2 * (_CSV_LINES // nx) + 3
    wide = _CSV_LINES + 808
    count = ny * nx + 2 * wide
    scattered = rng.standard_normal(count) * 10.0 ** rng.uniform(-9, 12, count)
    return [_values_pattern(np.concatenate([ties, np.negative(ties)]), 6000),
            _values_pattern(carries, len(carries)),
            _values_pattern(scattered[:ny * nx], nx),
            _values_pattern(scattered[ny * nx:], wide)]


def test_export_csv_matches_per_pixel_format(tmp_path, table2):
    _, config, _, poly = table2
    patterns = list(evaluate_patterns(config, poly, grid=(7, 13)).values())
    patterns += list(evaluate_patterns(config, poly, grid=(2, 2)).values())
    edge = len(patterns)
    patterns += [_edge_values_pattern(), *_rounding_edge_patterns()]
    for i, pattern in enumerate(patterns):
        path = tmp_path / f"{i}.csv"
        export_grid(pattern, str(path), fmt="csv")
        assert path.read_bytes() == _csv_reference(pattern), (i, pattern.kind)
    text = (tmp_path / f"{edge}.csv").read_text()
    assert text.split("\n")[1:7] == ["-1,-0.5,1e-05", "0,-0.5,-0", "1,-0.5,inf",
                                      "-1,-0.249995,nan", "0,-0.249995,-inf",
                                      "1,-0.249995,0"]
    # 999999999.5 ties to even
    assert (tmp_path / f"{edge + 2}.csv").read_text().endswith(",1e+09\n")


_EXTENT_ENDS = st.floats(-1e300, 1e300)


@settings(derandomize=True, deadline=None, max_examples=300)
@example(values=np.array([[5e-324, -0.0, 0.0, np.inf], [-np.inf, np.nan, 2.2e-308, 1.8e308]]),
         extent=(-1.0, 1.0, -0.5, 1e-05))
@given(values=arrays(np.float64, st.tuples(st.integers(1, 5), st.integers(1, 8)),
                    elements=st.floats(width=64)),
       extent=st.tuples(_EXTENT_ENDS, _EXTENT_ENDS, _EXTENT_ENDS, _EXTENT_ENDS))
def test_export_csv_matches_per_pixel_format_on_any_doubles(tmp_path_factory, values, extent):
    # whole-range doubles: subnormals, zeros of both signs, inf and nan among them
    pattern = _values_pattern(values, values.shape[1], extent)
    path = tmp_path_factory.mktemp("csv") / "drawn.csv"
    export_grid(pattern, str(path), fmt="csv")
    assert path.read_bytes() == _csv_reference(pattern)


def test_export_csv_layout(tmp_path, table2):
    _, config, _, poly = table2
    pattern = evaluate_patterns(config, poly, grid=(3, 2))
    grid = pattern[GridKind.INTENSITY_A]
    path = tmp_path / "field.csv"
    written = export_grid(grid, str(path), fmt="csv")
    assert written == [str(path)]
    lines = path.read_text().splitlines()
    assert lines[0] == "x,y,value"
    assert len(lines) == 1 + 6
    # row-major, y outer ascending: the first three rows share the lowest y
    first = [line.split(",") for line in lines[1:4]]
    assert [row[0] for row in first] == ["-15", "5", "25"]
    assert all(row[1] == "-15" for row in first)
    assert float(first[1][2]) == pytest.approx(grid.values[0, 1], rel=1e-8)


def test_export_pgm_and_sidecar(tmp_path, table2):
    _, config, _, poly = table2
    patterns = evaluate_patterns(config, poly, grid=(16, 8))
    sup = patterns[GridKind.SUPERPOSED]
    path = tmp_path / "sup.pgm"
    written = export_grid(sup, str(path), fmt="pgm")
    assert written == [str(path), str(path) + ".json"]
    blob = path.read_bytes()
    header = b"P5\n16 8\n65535\n"
    assert blob.startswith(header)
    payload = np.frombuffer(blob[len(header):], dtype=">u2")
    assert payload.size == 16 * 8
    assert payload.min() == 0 and payload.max() == 65535
    meta = json.loads((tmp_path / "sup.pgm.json").read_text())
    assert meta["kind"] == "Superposed"
    assert meta["nx"] == 16 and meta["ny"] == 8
    assert meta["extent"] == [-15.0, 25.0, -15.0, 20.0]
    assert meta["rows"] == "ascending y"
    assert meta["value_min"] == float(sup.values.min())
    assert meta["value_max"] == float(sup.values.max())
    assert meta["clamp_count"] == sup.clamp_count
    # the census stays out of the sidecar
    assert set(meta) == {"kind", "nx", "ny", "extent", "value_min", "value_max", "rows",
                         "clamp_count"}


def test_export_pgm_flat_pattern_is_all_zero(tmp_path):
    flat = GridPattern(4, 2, (0.0, 1.0, 0.0, 1.0), np.full((2, 4), 0.25),
                       GridKind.CLASSICAL_AVERAGE)
    path = tmp_path / "flat.pgm"
    export_grid(flat, str(path), fmt="pgm")
    blob = path.read_bytes()
    payload = np.frombuffer(blob[b"P5\n4 2\n65535\n".__len__():], dtype=">u2")
    assert (payload == 0).all()


def _pgm_reference(pattern):
    """Reference PGM: the header, then the whole-array normalization."""
    v = pattern.values
    vmin, vmax = float(v.min()), float(v.max())
    if vmax > vmin:
        norm = np.round((v - vmin) / (vmax - vmin) * 65535.0).astype(">u2")
    else:
        norm = np.zeros(v.shape, dtype=">u2")
    return f"P5\n{pattern.nx} {pattern.ny}\n65535\n".encode() + norm.tobytes()


def _ulp_pattern():
    # signed zeros, subnormals, and values 1 ulp inside vmin and vmax
    lo, hi = -1.0, 3.0
    values = np.array([[np.nextafter(lo, hi), -0.0, 0.0, np.nextafter(hi, lo)],
                       [hi, 5e-324, -5e-324, lo],
                       [0.5, -0.0, np.nextafter(-0.0, hi), np.nextafter(0.0, lo)]])
    return GridPattern(4, 3, (0.0, 1.0, 0.0, 1.0), values, GridKind.SUPERPOSED)


def _half_level_pattern():
    # values half a level apart, where a reordered normalization such as
    # (v - vmin) * (65535 / (vmax - vmin)) rounds thousands of them the other way
    lo, hi = 0.0, 0.1184
    mids = lo + (np.arange(65534) + 0.5) / 65535.0 * (hi - lo)
    values = np.concatenate(([lo], mids, [hi])).reshape(256, 256)
    return GridPattern(256, 256, (0.0, 1.0, 0.0, 1.0), values, GridKind.INTENSITY_A)


def test_export_pgm_matches_whole_array_normalization(tmp_path, table2, set_cpus):
    _, config, _, poly = table2
    for cpus in CPU_COUNTS:
        set_cpus(cpus)
        patterns = list(evaluate_patterns(config, poly, grid=(37, 23)).values())
        partial = evaluate_patterns(config, poly, grid=(BLOCK_NX, 2 * BLOCK + 1))
        assert partial[GridKind.SUPERPOSED].ny % BLOCK == 1
        patterns += list(partial.values())
        patterns.append(GridPattern(5, 3, (0.0, 1.0, 0.0, 1.0), np.zeros((3, 5)),
                                    GridKind.CLASSICAL_AVERAGE))
        patterns.append(_ulp_pattern())
        patterns.append(_half_level_pattern())
        for i, pattern in enumerate(patterns):
            path = tmp_path / f"{i}.pgm"
            export_grid(pattern, str(path), fmt="pgm")
            assert path.read_bytes() == _pgm_reference(pattern), (cpus, i, pattern.kind)
    payload = np.frombuffer(_pgm_reference(_ulp_pattern())[len(b"P5\n4 3\n65535\n"):],
                            dtype=">u2")
    assert payload[[0, 3, 4, 7]].tolist() == [0, 65535, 65535, 0]


@pytest.mark.parametrize("columns", [(3, 3), (0, 1), (1, 0)])
@pytest.mark.parametrize("first", [0.0, -0.0])
@pytest.mark.parametrize("bound", ["min", "max"])
def test_pgm_sidecar_bounds_keep_the_whole_array_zero_sign(tmp_path, bound, first, columns):
    # a zero of each sign, in different row blocks, ties for the bound.
    # numpy's whole-array reduction picks the sign by its own lane order
    # ([0.0, -0.0].min() is -0.0, [-0.0, 0.0].min() is 0.0), so bounds
    # reduced by row blocks could write the other sign into the sidecar
    rest = 0.5 if bound == "min" else -0.5
    values = np.full((2 * BLOCK + 1, BLOCK_NX), rest)
    values[1, columns[0]] = first
    values[BLOCK + 1, columns[1]] = -first
    pattern = GridPattern(BLOCK_NX, 2 * BLOCK + 1, (0.0, 1.0, 0.0, 1.0), values,
                          GridKind.SUPERPOSED)
    path = tmp_path / "zeros.pgm"
    export_grid(pattern, str(path), fmt="pgm")
    assert path.read_bytes() == _pgm_reference(pattern)
    meta = json.loads((tmp_path / "zeros.pgm.json").read_text())
    assert repr(meta["value_min"]) == repr(float(values.min()))
    assert repr(meta["value_max"]) == repr(float(values.max()))


def test_atomic_write_passes_other_errors_through_and_leaves_no_temp_file(tmp_path):
    # only an OSError becomes a ModelError; any other error of the chunks
    # reaches the caller as it was raised
    error = KeyError("chunk")

    def chunks():
        yield b"partial text"
        raise error

    with pytest.raises(KeyError) as info:
        wavefield.atomic_write(tmp_path / "out.txt", chunks())
    assert info.value is error
    assert list(tmp_path.iterdir()) == []


def test_export_rejects_unknown_format(tmp_path, table2):
    _, config, _, poly = table2
    pattern = evaluate_patterns(config, poly, grid=(4, 4))[GridKind.INTENSITY_A]
    with pytest.raises(ModelError, match="unknown export format"):
        export_grid(pattern, str(tmp_path / "x.bin"), fmt="npz")


def test_export_is_byte_identical_across_runs(tmp_path, table2):
    _, config, _, poly = table2
    pattern = evaluate_patterns(config, poly, grid=(32, 32))[GridKind.SUPERPOSED]
    p1, p2 = tmp_path / "one.csv", tmp_path / "two.csv"
    export_grid(pattern, str(p1), fmt="csv")
    export_grid(pattern, str(p2), fmt="csv")
    assert p1.read_bytes() == p2.read_bytes()
    q1, q2 = tmp_path / "one.pgm", tmp_path / "two.pgm"
    export_grid(pattern, str(q1), fmt="pgm")
    export_grid(pattern, str(q2), fmt="pgm")
    assert q1.read_bytes() == q2.read_bytes()
    assert (tmp_path / "one.pgm.json").read_bytes() == (tmp_path / "two.pgm.json").read_bytes()


# the sha256 of np.exp over 257 points, printed by a child process
_EXP_BITS = ("import hashlib, numpy as np; print(hashlib.sha256("
             "np.exp(np.linspace(-30.0, 3.0, 257)).tobytes()).hexdigest())")


@pytest.fixture(scope="module")
def other_dispatch_env():
    """Environment for a child process with numpy's AVX-512 group (X86_V4)
    switched off; skips unless numpy accepts that and np.exp then changes.
    The probe runs once per module: pytest keeps a module fixture's value,
    or its skip, for every test that asks for it."""
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES="X86_V4",
               PYTHONPATH=str(Path(qconcepts.__file__).parents[1]))
    probe = subprocess.run([sys.executable, "-c", _EXP_BITS], capture_output=True, text=True,
                           env=env, check=False)
    if probe.returncode != 0 or probe.stderr:
        pytest.skip(f"numpy rejects NPY_DISABLE_CPU_FEATURES=X86_V4: {probe.stderr.strip()}")
    here = hashlib.sha256(np.exp(np.linspace(-30.0, 3.0, 257)).tobytes()).hexdigest()
    if probe.stdout.strip() == here:
        pytest.skip("np.exp takes the same kernel with X86_V4 off on this CPU")
    return env


def test_criterion_7_holds_under_another_numpy_cpu_dispatch(tmp_path, other_dispatch_env):
    # numpy picks its exp, log and arccos kernels by CPU feature at run time,
    # and their last bits differ between kernels: artifact bytes belong to one
    # numpy build on one CPU feature set. The census and residual bounds must
    # hold under either, here with numpy's AVX-512 group (X86_V4) switched off
    proc = subprocess.run(
        [sys.executable, "-m", "qconcepts.cli", "wavefield", "--dataset",
         "fruits-vegetables-table2", "--out-dir", str(tmp_path), "--json"],
        capture_output=True, text=True, env=other_dispatch_env, check=False)
    assert proc.returncode == 0 and proc.stderr == ""
    params = json.loads(proc.stdout)["manifest"]["parameters"]
    residuals = params["residuals"]
    for name in ("placement_a", "placement_b", "phase_fit", "superposed_vs_observed"):
        assert residuals[name] <= 1e-6, name
    assert (residuals["constructive_pixels"], residuals["destructive_pixels"]) == (130883, 131261)
    assert params["clamp_count"] == 0


def test_export_csv_matches_per_pixel_format_under_another_numpy_cpu_dispatch(other_dispatch_env):
    # the raster CSV text takes only a first guess of each exponent from
    # log10, whose kernel follows the CPU features; its bytes must not
    tests = [f"{__file__}::{name}" for name in (
        "test_export_csv_matches_per_pixel_format",
        "test_export_csv_matches_per_pixel_format_on_any_doubles")]
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *tests],
                          capture_output=True, text=True, env=other_dispatch_env,
                          cwd=Path(__file__).parents[1], check=False)
    assert proc.returncode == 0, proc.stdout[-2000:]
    assert "2 passed" in proc.stdout
