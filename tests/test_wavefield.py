"""Wavefield construction: width fit, placement, phase surface, rasters, export."""
from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from qconcepts.datasets import load_dataset
from qconcepts.disjunction_model import ExemplarRow, build_model
from qconcepts.errors import ModelError, PlacementError
from qconcepts.wavefield import (
    DEFAULT_EXTENT,
    MARGIN_FLOOR,
    _BLOCK_PIXELS,
    _CURVE_SAMPLES,
    _SCAN_POINTS,
    GridKind,
    GridPattern,
    PhasePolynomial,
    WaveFieldConfig,
    _block_rows,
    _cos_phase,
    _fit_widths,
    _intensity_fields,
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
    rows = [
        ExemplarRow(1, "Up", E1, E1, 0.3),
        ExemplarRow(2, "Down", E1, E1, 0.3),
    ]
    pos = place_exemplars(rows, _circular_config())
    y_mag = float(np.sqrt(1.0 - 0.75 ** 2))
    assert pos[0] == pytest.approx((0.75, y_mag), abs=1e-6)
    assert pos[1] == pytest.approx((0.75, -y_mag), abs=1e-6)


def test_degenerate_level_curve_snaps_to_center():
    # muA at the peak collapses the A-curve to the origin; the B level must
    # pass through it exactly
    mu_b_at_origin = float(np.exp(-1.5 ** 2))
    rows = [ExemplarRow(1, "Origin", 1.0, mu_b_at_origin, 0.3)]
    pos = place_exemplars(rows, _circular_config())
    assert tuple(pos[0]) == (0.0, 0.0)
    with pytest.raises(PlacementError, match="'Origin'"):
        place_exemplars([ExemplarRow(1, "Origin", 1.0, E1, 0.3)], _circular_config())


def test_disjoint_circles_raise_with_name():
    small = float(np.exp(-0.01))
    rows = [ExemplarRow(1, "Gap", small, small, 0.3)]
    with pytest.raises(PlacementError, match="circles disjoint for exemplar 'Gap'"):
        place_exemplars(rows, _circular_config())


def test_exact_tangency_is_rescued():
    # radii 1 and 0.5 about centers 1.5 apart: externally tangent at (1, 0)
    rows = [ExemplarRow(1, "Touch", E1, float(np.exp(-0.25)), 0.3)]
    pos = place_exemplars(rows, _circular_config())
    assert pos[0] == pytest.approx((1.0, 0.0), abs=1e-3)


def test_width_fit_requires_distinct_peaks_and_offset_center():
    rows = [
        ExemplarRow(1, "X", 0.30, 0.25, 0.3),
        ExemplarRow(2, "Y", 0.20, 0.20, 0.2),
    ]
    with pytest.raises(PlacementError, match="distinct peak rows"):
        default_config(rows)
    rows = [
        ExemplarRow(1, "X", 0.30, 0.10, 0.3),
        ExemplarRow(2, "Y", 0.20, 0.25, 0.2),
    ]
    with pytest.raises(PlacementError, match="off both coordinate axes"):
        default_config(rows, center_b=(10.0, 0.0))
    # no row besides the two peaks: every scanned u keeps an infinite margin,
    # so the bisection runs up to u_max = lb[ia] / a^2
    fit = _fit_widths(rows, (10.0, 4.0))
    assert fit == _fit_widths_loop(rows, (10.0, 4.0))
    u_max = np.log(0.25 / 0.10) / 10.0 ** 2
    assert fit[1] == pytest.approx(1.0 / np.sqrt(2.0 * u_max), rel=1e-12)


def _fit_widths_loop(rows, center_b):
    """Reference width fit: every margin recomputes each row's curve from t."""
    mu_a = np.array([r.mu_a for r in rows])
    mu_b = np.array([r.mu_b for r in rows])
    ia, ib = int(np.argmax(mu_a)), int(np.argmax(mu_b))
    a, b = float(center_b[0]), float(center_b[1])
    d = np.hypot(a, b)
    la = _log_ratios(float(mu_a[ia]), mu_a, "muA")
    lb = _log_ratios(float(mu_b[ib]), mu_b, "muB")
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


def _perturbed(rows, seed, scale):
    rng = np.random.default_rng(seed)
    factors = np.exp(scale * rng.standard_normal((len(rows), 2)))
    return [dataclasses.replace(r, mu_a=float(min(r.mu_a * fa, 1.0)),
                                mu_b=float(min(r.mu_b * fb, 1.0)))
            for r, (fa, fb) in zip(rows, factors)]


def test_width_fit_matches_per_row_loop(table2):
    rows = table2[0]
    assert _fit_widths(rows, (10.0, 4.0)) == _fit_widths_loop(rows, (10.0, 4.0))
    for seed in (0, 1):
        pert = _perturbed(rows, seed, 0.1)
        assert _fit_widths(pert, (10.0, 4.0)) == _fit_widths_loop(pert, (10.0, 4.0))
    # a 0.2 spread with seed 0 leaves no width assignment that fits
    pert = _perturbed(rows, 0, 0.2)
    with pytest.raises(PlacementError, match="no width assignment"):
        _fit_widths_loop(pert, (10.0, 4.0))
    with pytest.raises(PlacementError, match="no width assignment"):
        _fit_widths(pert, (10.0, 4.0))


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


def test_fit_phase_field_singular_square_system_falls_back():
    # two points sharing y: the square system on (1, y) is singular, the
    # least-squares fallback over 30 monomials still interpolates
    positions = [(0.0, 1.0), (2.0, 1.0)]
    phases = [0.4, 0.9]
    poly = fit_phase_field(positions, phases)
    assert poly.fallback_used is True
    fit = poly.evaluate(np.array([0.0, 2.0]), np.array([1.0, 1.0]))
    assert np.max(np.abs(fit - phases)) <= 1e-6


def test_phase_polynomial_scalar_and_array_evaluate():
    poly = PhasePolynomial(((0, 0, 1.0), (1, 1, 2.0)))
    value = poly.evaluate(3.0, 0.5)
    assert isinstance(value, float) and value == 4.0
    arr = poly.evaluate(np.array([0.0, 3.0]), np.array([1.0, 0.5]))
    assert arr.shape == (2,) and arr.tolist() == [1.0, 4.0]


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
    with pytest.raises(ModelError, match="non-degenerate"):
        evaluate_patterns(config, poly, extent=(5.0, 5.0, -1.0, 1.0))
    with pytest.raises(ModelError, match="does not cover"):
        evaluate_patterns(config, poly, extent=(-1.0, 1.0, -1.0, 1.0))


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
    i_a, i_b = _intensity_fields(config, x, y)
    phi = np.zeros(x.shape)
    for mx, my, coef in phase.terms:
        phi = phi + coef * x ** mx * y ** my
    classical = 0.5 * (i_a + i_b)
    raw = classical + np.sqrt(i_a * i_b) * _cos_phase(phi)
    values = {GridKind.INTENSITY_A: i_a, GridKind.INTENSITY_B: i_b,
              GridKind.SUPERPOSED: np.maximum(raw, 0.0), GridKind.CLASSICAL_AVERAGE: classical}
    return values, int(np.sum(raw < 0.0))


@pytest.mark.parametrize("grid", [
    (512, 512), (37, 23), (7, 1001), (1001, 7),
    # ny at the block edges: one block, a block short by a row, exactly one
    # block, one row into the next, and a one-row last block after two
    (BLOCK_NX, 2), (BLOCK_NX, BLOCK - 1), (BLOCK_NX, BLOCK), (BLOCK_NX, BLOCK + 1),
    (BLOCK_NX, 2 * BLOCK + 1),
    # a row wider than the block budget still makes a block of one row
    (_BLOCK_PIXELS + 1, 2),
])
def test_raster_matches_dense_grid(table2, grid):
    _, config, _, poly = table2
    patterns = evaluate_patterns(config, poly, grid=grid)
    values, clamps = _dense_patterns(config, poly, grid)
    for kind in GridKind:
        assert np.array_equal(patterns[kind].values, values[kind]), kind
    assert patterns[GridKind.SUPERPOSED].clamp_count == clamps


def test_raster_clamp_count_adds_up_over_blocks():
    # coincident identical sources at phase pi: raw = I - sqrt(I * I), which
    # goes negative where I * I is subnormal, so clamps fall in every block
    config = WaveFieldConfig(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, (0.0, 0.0))
    poly = PhasePolynomial(((0, 0, float(np.pi)),))
    grid = (BLOCK_NX, 2 * BLOCK + 1)
    patterns = evaluate_patterns(config, poly, grid=grid)
    values, clamps = _dense_patterns(config, poly, grid)
    for kind in GridKind:
        assert np.array_equal(patterns[kind].values, values[kind]), kind
    assert patterns[GridKind.SUPERPOSED].clamp_count == clamps
    zeroed = values[GridKind.SUPERPOSED] == 0.0
    assert all(zeroed[start:start + BLOCK].any() for start in range(0, grid[1], BLOCK))
    assert clamps > 0


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


def test_export_csv_matches_per_pixel_format(tmp_path, table2):
    _, config, _, poly = table2
    patterns = list(evaluate_patterns(config, poly, grid=(7, 13)).values())
    patterns += list(evaluate_patterns(config, poly, grid=(2, 2)).values())
    patterns.append(_edge_values_pattern())
    for i, pattern in enumerate(patterns):
        path = tmp_path / f"{i}.csv"
        export_grid(pattern, str(path))
        assert path.read_bytes() == _csv_reference(pattern), (i, pattern.kind)
    text = (tmp_path / f"{len(patterns) - 1}.csv").read_text()
    assert text.split("\n")[1:7] == ["-1,-0.5,1e-05", "0,-0.5,-0", "1,-0.5,inf",
                                      "-1,-0.249995,nan", "0,-0.249995,-inf",
                                      "1,-0.249995,0"]


def test_export_csv_layout(tmp_path, table2):
    _, config, _, poly = table2
    # positions fall outside this tiny extent, so strip them for the raster
    bare = WaveFieldConfig(config.amplitude_a, config.amplitude_b, config.sigma_ax,
                           config.sigma_ay, config.sigma_bx, config.sigma_by,
                           config.center_b)
    pattern = evaluate_patterns(bare, poly, grid=(3, 2), extent=(0.0, 2.0, 0.0, 1.0))
    grid = pattern[GridKind.INTENSITY_A]
    path = tmp_path / "field.csv"
    written = export_grid(grid, str(path))
    assert written == [str(path)]
    lines = path.read_text().splitlines()
    assert lines[0] == "x,y,value"
    assert len(lines) == 1 + 6
    # row-major, y outer ascending: first three rows share y = 0
    first = [line.split(",") for line in lines[1:4]]
    assert [row[0] for row in first] == ["0", "1", "2"]
    assert all(row[1] == "0" for row in first)
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


def test_export_pgm_matches_whole_array_normalization(tmp_path, table2):
    _, config, _, poly = table2
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
        assert path.read_bytes() == _pgm_reference(pattern), (i, pattern.kind)
    payload = np.frombuffer(_pgm_reference(_ulp_pattern())[len(b"P5\n4 3\n65535\n"):],
                            dtype=">u2")
    assert payload[[0, 3, 4, 7]].tolist() == [0, 65535, 65535, 0]


def test_export_rejects_unknown_format(tmp_path, table2):
    _, config, _, poly = table2
    pattern = evaluate_patterns(config, poly, grid=(4, 4))[GridKind.INTENSITY_A]
    with pytest.raises(ModelError, match="unknown export format"):
        export_grid(pattern, str(tmp_path / "x.bin"), fmt="npz")


def test_export_is_byte_identical_across_runs(tmp_path, table2):
    _, config, _, poly = table2
    pattern = evaluate_patterns(config, poly, grid=(32, 32))[GridKind.SUPERPOSED]
    p1, p2 = tmp_path / "one.csv", tmp_path / "two.csv"
    export_grid(pattern, str(p1))
    export_grid(pattern, str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    q1, q2 = tmp_path / "one.pgm", tmp_path / "two.pgm"
    export_grid(pattern, str(q1), fmt="pgm")
    export_grid(pattern, str(q2), fmt="pgm")
    assert q1.read_bytes() == q2.read_bytes()
    assert (tmp_path / "one.pgm.json").read_bytes() == (tmp_path / "two.pgm.json").read_bytes()
