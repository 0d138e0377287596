"""Two-source Gaussian wavefield with a polynomial phase surface.

Two planar wave packets

    psi_A(x, y) = sqrt(D_A) exp(-(x^2/(4 s_Ax^2) + y^2/(4 s_Ay^2))) e^{i S_A}
    psi_B centered at center_b with widths s_Bx, s_By and phase S_B

carry intensities I = |psi|^2, so each exemplar's two membership weights
pin it to one level curve of I_A (about the origin) and one of I_B (about
center_b). Exemplars are placed on intersections of those curves, the
phase difference phi = S_A - S_B is interpolated over the placed points by
a low-order polynomial, and the superposed intensity

    1/2 (I_A + I_B) + sqrt(I_A I_B) cos phi(x, y)

reproduces every disjunction weight at its exemplar's position. A classical
(phase-free) average pattern is evaluated alongside for contrast.

cos phi is computed as sin(pi/2 - phi): identical in exact arithmetic,
within one ulp numerically, and exactly zero when phi equals the float
pi/2, so a 90-degree phase field degenerates the superposed pattern to the
classical average bit for bit.

Rasters are built and normalized in blocks of rows of about _BLOCK_PIXELS
pixels, so each step's temporaries stay in cache; every pixel goes through
the same elementwise operations as on the whole grid.

Everything here is deterministic: fixed sample counts, fixed scan grids,
bisection refinement.
"""
from __future__ import annotations

import enum
import json
import os
import tempfile
from dataclasses import dataclass, replace

import numpy as np

from .errors import ModelError, PlacementError

INTENSITY_TOL = 1e-9        # log-space agreement required at placed points
PHASE_FIT_TOL = 1e-6        # radians, interpolation residual bound
MARGIN_FLOOR = 0.05         # log-intensity clearance kept by the width fit
DEFAULT_EXTENT = (-15.0, 25.0, -15.0, 20.0)
DEFAULT_GRID = (512, 512)

_SCAN_POINTS = 512          # width-fit scan resolution
_CURVE_SAMPLES = 2048       # samples along a level curve for min/max scans
_ROOT_SAMPLES = 4096        # samples along a level curve for root bracketing
_BLOCK_PIXELS = 1 << 16     # float64 pixels per raster row block (512 KB)


class GridKind(enum.Enum):
    INTENSITY_A = "IntensityA"
    INTENSITY_B = "IntensityB"
    SUPERPOSED = "Superposed"
    CLASSICAL_AVERAGE = "ClassicalAverage"


@dataclass(frozen=True, eq=False)
class WaveFieldConfig:
    """Amplitudes, widths, second center, and (once placed) exemplar positions."""

    amplitude_a: float
    amplitude_b: float
    sigma_ax: float
    sigma_ay: float
    sigma_bx: float
    sigma_by: float
    center_b: tuple
    positions: np.ndarray | None = None

    def __post_init__(self):
        for name in ("amplitude_a", "amplitude_b", "sigma_ax", "sigma_ay",
                     "sigma_bx", "sigma_by"):
            if getattr(self, name) <= 0:
                raise ModelError(f"{name} must be positive")
        if len(self.center_b) != 2:
            raise ModelError("center_b must be a plane point")


@dataclass(frozen=True)
class PhasePolynomial:
    """phi(x, y) as a list of (exponent_x, exponent_y, coefficient) terms."""

    terms: tuple
    fallback_used: bool = False

    def evaluate(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        total = np.zeros(np.broadcast(x, y).shape)
        for mx, my, coef in self.terms:
            total += coef * x ** mx * y ** my
        return total if total.shape else float(total)


@dataclass(frozen=True, eq=False)
class GridPattern:
    nx: int
    ny: int
    extent: tuple                 # (x_min, x_max, y_min, y_max)
    values: np.ndarray            # shape (ny, nx), rows ordered by ascending y
    kind: GridKind
    clamp_count: int = 0


def _block_rows(nx):
    """Rows per raster block: about _BLOCK_PIXELS pixels, at least one row."""
    return max(1, _BLOCK_PIXELS // nx)


def _cos_phase(phi):
    # sin(pi/2 - phi) == cos(phi), but exactly 0.0 at phi == float(pi/2)
    return np.sin(np.pi / 2.0 - phi)


def _log_ratios(amplitude, mu, label):
    mu = np.asarray(mu, dtype=float)
    if np.any(mu <= 0):
        raise ModelError(f"{label} weights must be positive to take log ratios")
    if amplitude < mu.max():
        raise ModelError(f"peak amplitude {amplitude!r} below max {label} weight")
    return np.log(amplitude / mu)


def _curve_point(p, q, t):
    return p * np.cos(t), q * np.sin(t)


def place_exemplars(rows, config: WaveFieldConfig) -> np.ndarray:
    """Intersect each exemplar's two intensity level curves.

    Row k must satisfy I_A = mu(A)_k on an ellipse about the origin and
    I_B = mu(B)_k on one about center_b. Of the (generically two) crossing
    points, odd rows (1-based index) take the larger-y solution and even
    rows the smaller-y one, spreading exemplars over both sides. Degenerate
    curves (weight equal to the peak) collapse to the corresponding center.
    """
    mu_a = np.array([r.mu_a for r in rows])
    mu_b = np.array([r.mu_b for r in rows])
    la = _log_ratios(config.amplitude_a, mu_a, "muA")
    lb = _log_ratios(config.amplitude_b, mu_b, "muB")
    ua, va = 1.0 / (2.0 * config.sigma_ax ** 2), 1.0 / (2.0 * config.sigma_ay ** 2)
    ub, vb = 1.0 / (2.0 * config.sigma_bx ** 2), 1.0 / (2.0 * config.sigma_by ** 2)
    a, b = float(config.center_b[0]), float(config.center_b[1])

    def g_b(x, y):
        return ub * (x - a) ** 2 + vb * (y - b) ** 2

    positions = np.zeros((len(rows), 2))
    for k, row in enumerate(rows):
        if la[k] == 0.0:
            # A-curve degenerates to the origin
            if abs(g_b(0.0, 0.0) - lb[k]) > INTENSITY_TOL:
                raise PlacementError(
                    f"circles disjoint for exemplar {row.name!r}: peak of A misses its B level"
                )
            positions[k] = (0.0, 0.0)
            continue
        if lb[k] == 0.0:
            ga = ua * a ** 2 + va * b ** 2
            if abs(ga - la[k]) > INTENSITY_TOL:
                raise PlacementError(
                    f"circles disjoint for exemplar {row.name!r}: peak of B misses its A level"
                )
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
        if not roots:
            # tangency rescue: refine the closest approach of h to zero
            i0 = int(np.argmin(np.abs(h[:-1])))
            sgn = 1.0 if h[i0] > 0 else -1.0
            lo, hi = t[max(i0 - 1, 0)], t[min(i0 + 1, _ROOT_SAMPLES)]
            phi_ratio = (np.sqrt(5.0) - 1.0) / 2.0
            c1, c2 = hi - phi_ratio * (hi - lo), lo + phi_ratio * (hi - lo)
            f1 = sgn * (g_b(*_curve_point(p, q, c1)) - lb[k])
            f2 = sgn * (g_b(*_curve_point(p, q, c2)) - lb[k])
            for _ in range(200):
                if f1 < f2:
                    hi, c2, f2 = c2, c1, f1
                    c1 = hi - phi_ratio * (hi - lo)
                    f1 = sgn * (g_b(*_curve_point(p, q, c1)) - lb[k])
                else:
                    lo, c1, f1 = c1, c2, f2
                    c2 = lo + phi_ratio * (hi - lo)
                    f2 = sgn * (g_b(*_curve_point(p, q, c2)) - lb[k])
            t_best = 0.5 * (lo + hi)
            if abs(g_b(*_curve_point(p, q, t_best)) - lb[k]) > INTENSITY_TOL:
                raise PlacementError(
                    f"circles disjoint for exemplar {row.name!r}: "
                    "intensity level curves do not intersect; enlarge the widths"
                )
            roots.append(t_best)
        pts = sorted((_curve_point(p, q, tt) for tt in roots), key=lambda pt: -pt[1])
        positions[k] = pts[0] if row.index % 2 == 1 else pts[-1]
    return positions


def _fit_widths(rows, center_b):
    """One-parameter width fit: circular A pinned by B's anchor, elliptical B.

    The A-peak row sits at the origin and the B-peak row at center_b, which
    pins sigma_A and one linear combination of B's axis weights. The loose
    parameter u_B = 1/(2 sigma_Bx^2) is chosen as the largest value whose
    worst-row log-intensity clearance still reaches MARGIN_FLOOR, keeping B
    as round as the data allows while every level-curve pair intersects
    robustly. Fully circular B is infeasible for data whose mid-weight rows
    have short level-curve radii, hence the free axis.
    """
    mu_a = np.array([r.mu_a for r in rows])
    mu_b = np.array([r.mu_b for r in rows])
    ia, ib = int(np.argmax(mu_a)), int(np.argmax(mu_b))
    if ia == ib:
        raise PlacementError("width fit needs distinct peak rows for the two concepts")
    a, b = float(center_b[0]), float(center_b[1])
    if a == 0.0 or b == 0.0:
        raise PlacementError("width fit needs center_b off both coordinate axes")
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
    # along each remaining row's A-curve g = u * p_sq + v * q_sq; only u, v vary
    r_o, lb_o = r_a[others, None], lb[others]
    p_sq = (r_o * np.cos(t) - a) ** 2
    q_sq = (r_o * np.sin(t) - b) ** 2

    def worst_margin(u):
        v = (lb[ia] - a ** 2 * u) / b ** 2
        if v <= 0.0:
            return -np.inf
        g = u * p_sq + v * q_sq
        return min(np.min(lb_o - g.min(axis=1), initial=np.inf),
                   np.min(g.max(axis=1) - lb_o, initial=np.inf))

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


def default_config(rows, center_b=(10.0, 4.0)) -> WaveFieldConfig:
    """Fit widths to the data, place all exemplars, and return the full config."""
    rows = tuple(rows)
    sigma_a, sigma_bx, sigma_by, ia, ib = _fit_widths(rows, center_b)
    config = WaveFieldConfig(
        amplitude_a=float(max(r.mu_a for r in rows)),
        amplitude_b=float(max(r.mu_b for r in rows)),
        sigma_ax=float(sigma_a), sigma_ay=float(sigma_a),
        sigma_bx=float(sigma_bx), sigma_by=float(sigma_by),
        center_b=(float(center_b[0]), float(center_b[1])),
    )
    return replace(config, positions=place_exemplars(rows, config))


def lowest_monomials(n):
    """First n exponent pairs ordered by total degree, then by x-exponent."""
    out, deg = [], 0
    while len(out) < n:
        for mx in range(deg + 1):
            out.append((mx, deg - mx))
            if len(out) == n:
                break
        deg += 1
    return out


def fit_phase_field(positions, phases) -> PhasePolynomial:
    """Interpolate signed phases (radians) over the positions.

    Solves the square system on the n lowest monomials (coordinates scaled
    to unit box for conditioning, coefficients mapped back). A singular or
    ill-conditioned system falls back to a minimum-norm least squares fit
    over the 30 lowest monomials, flagged on the result.
    """
    pos = np.asarray(positions, dtype=float)
    phi = np.asarray(phases, dtype=float)
    n = pos.shape[0]
    if pos.shape != (n, 2) or phi.shape != (n,):
        raise ModelError("positions must be (n, 2) and phases length n")
    if n == 0:
        raise ModelError("need at least one position")
    seen = {}
    for i, (x, y) in enumerate(pos):
        key = (float(x), float(y))
        if key in seen:
            raise ModelError(f"positions {seen[key]} and {i} coincide")
        seen[key] = i
    scale = max(float(np.max(np.abs(pos))), 1.0)
    scaled = pos / scale

    def build(mons):
        return np.column_stack([scaled[:, 0] ** mx * scaled[:, 1] ** my for mx, my in mons])

    def to_poly(mons, coefs, fallback):
        terms = tuple(
            (mx, my, float(c / scale ** (mx + my))) for (mx, my), c in zip(mons, coefs)
        )
        return PhasePolynomial(terms, fallback_used=fallback)

    mons = lowest_monomials(n)
    poly = None
    try:
        coefs = np.linalg.solve(build(mons), phi)
        candidate = to_poly(mons, coefs, False)
        if np.max(np.abs(candidate.evaluate(pos[:, 0], pos[:, 1]) - phi)) <= PHASE_FIT_TOL:
            poly = candidate
    except np.linalg.LinAlgError:
        pass
    if poly is None:
        mons = lowest_monomials(max(30, n))
        coefs, *_ = np.linalg.lstsq(build(mons), phi, rcond=None)
        poly = to_poly(mons, coefs, True)
        resid = np.max(np.abs(poly.evaluate(pos[:, 0], pos[:, 1]) - phi))
        if resid > PHASE_FIT_TOL:
            raise ModelError(f"phase field interpolation failed: residual {resid!r} rad")
    return poly


def _intensity_fields(config: WaveFieldConfig, x, y):
    ua, va = 1.0 / (2.0 * config.sigma_ax ** 2), 1.0 / (2.0 * config.sigma_ay ** 2)
    ub, vb = 1.0 / (2.0 * config.sigma_bx ** 2), 1.0 / (2.0 * config.sigma_by ** 2)
    a, b = config.center_b
    i_a = config.amplitude_a * np.exp(-(ua * x ** 2 + va * y ** 2))
    i_b = config.amplitude_b * np.exp(-(ub * (x - a) ** 2 + vb * (y - b) ** 2))
    return i_a, i_b


def evaluate_at(config: WaveFieldConfig, phase: PhasePolynomial, points):
    """Pointwise field values: (intensity_a, intensity_b, superposed, classical).

    Same per-point arithmetic as the raster path; the superposed value is
    clamped at zero.
    """
    pts = np.asarray(points, dtype=float)
    x, y = pts[..., 0], pts[..., 1]
    i_a, i_b = _intensity_fields(config, x, y)
    classical = 0.5 * (i_a + i_b)
    superposed = classical + np.sqrt(i_a * i_b) * _cos_phase(phase.evaluate(x, y))
    return i_a, i_b, np.maximum(superposed, 0.0), classical


def evaluate_patterns(config: WaveFieldConfig, phase: PhasePolynomial,
                      grid=DEFAULT_GRID, extent=DEFAULT_EXTENT):
    """Rasterize the four patterns; returns a dict keyed by GridKind.

    The raster must cover every placed exemplar so the patterns actually
    witness the data they were built from.
    """
    nx, ny = int(grid[0]), int(grid[1])
    if nx < 2 or ny < 2:
        raise ModelError("grid must be at least 2x2")
    x_min, x_max, y_min, y_max = (float(v) for v in extent)
    if x_min >= x_max or y_min >= y_max:
        raise ModelError("extent must be non-degenerate")
    if config.positions is not None:
        px, py = config.positions[:, 0], config.positions[:, 1]
        if (px.min() < x_min or px.max() > x_max or py.min() < y_min or py.max() > y_max):
            raise ModelError("raster extent does not cover all exemplar positions")
    xs = np.linspace(x_min, x_max, nx)
    ys = np.linspace(y_min, y_max, ny)
    # each block broadcasts the x row against its ys column: one-axis terms
    # cost nx or (block rows) operations, every pixel gets the same
    # arithmetic as on the whole grid, and the temporaries stay in cache
    x = xs[None, :]
    i_a, i_b, superposed, classical = (np.empty((ny, nx)) for _ in range(4))
    clamps = 0
    step = _block_rows(nx)
    for start in range(0, ny, step):
        rows = slice(start, start + step)
        y = ys[rows, None]
        a, b = _intensity_fields(config, x, y)
        cla = 0.5 * (a + b)
        i_a[rows], i_b[rows], classical[rows] = a, b, cla
        raw = cla + np.sqrt(a * b) * _cos_phase(phase.evaluate(x, y))
        clamps += int(np.count_nonzero(raw < 0.0))
        np.maximum(raw, 0.0, out=superposed[rows])
    ext = (x_min, x_max, y_min, y_max)
    return {
        GridKind.INTENSITY_A: GridPattern(nx, ny, ext, i_a, GridKind.INTENSITY_A),
        GridKind.INTENSITY_B: GridPattern(nx, ny, ext, i_b, GridKind.INTENSITY_B),
        GridKind.SUPERPOSED: GridPattern(nx, ny, ext, superposed,
                                         GridKind.SUPERPOSED, clamp_count=clamps),
        GridKind.CLASSICAL_AVERAGE: GridPattern(nx, ny, ext, classical,
                                                GridKind.CLASSICAL_AVERAGE),
    }


def atomic_write(path, data: bytes):
    """Write bytes to a temp file beside ``path``, then rename it into place.

    The file gets mode 0o666 less the process umask, as ``open()`` would
    give it. An OSError becomes a ModelError naming the path; no temp file
    is left.
    """
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                                   prefix=".tmp-out-")
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        # mkstemp creates 0o600; the umask can only be read by setting it
        umask = os.umask(0o077)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise ModelError(f"cannot write {path}: {exc.strerror or exc}") from None
        raise


def export_grid(pattern: GridPattern, path: str, fmt: str = "csv"):
    """Write one pattern to disk; returns the list of files written.

    csv: `x,y,value` rows in row-major order (y outer, x inner), 9
    significant digits. pgm: binary 16-bit graymap, min-max normalized,
    with extent and normalization bounds in a sidecar JSON next to it.
    Writes go to a temp file first and are renamed into place.
    """
    xs = np.linspace(pattern.extent[0], pattern.extent[1], pattern.nx)
    ys = np.linspace(pattern.extent[2], pattern.extent[3], pattern.ny)
    if fmt == "csv":
        # a row's text is its "y," joined between the pieces, then one
        # %-format of its values ('%.9g' writes what '{:.9g}' does)
        xcol = [f"{x:.9g}," for x in xs.tolist()]
        pieces = xcol[:1] + [f"%.9g\n{x}" for x in xcol[1:]] + ["%.9g\n"]
        lines = ["x,y,value\n"]
        for y, row in zip(ys.tolist(), pattern.values):
            lines.append(f"{y:.9g},".join(pieces) % tuple(row.tolist()))
        atomic_write(path, "".join(lines).encode())
        return [path]
    if fmt == "pgm":
        values = pattern.values
        vmin = float(values.min())
        vmax = float(values.max())
        norm = np.zeros(values.shape, dtype=">u2")
        if vmax > vmin:
            step = _block_rows(pattern.nx)
            for start in range(0, pattern.ny, step):
                rows = slice(start, start + step)
                norm[rows] = np.round((values[rows] - vmin) / (vmax - vmin) * 65535.0)
        header = f"P5\n{pattern.nx} {pattern.ny}\n65535\n".encode()
        atomic_write(path, header + norm.tobytes())
        sidecar = path + ".json"
        meta = {
            "kind": pattern.kind.value,
            "nx": pattern.nx,
            "ny": pattern.ny,
            "extent": list(pattern.extent),
            "value_min": vmin,
            "value_max": vmax,
            "rows": "ascending y",
            "clamp_count": pattern.clamp_count,
        }
        atomic_write(sidecar, (json.dumps(meta, sort_keys=True, indent=2) + "\n").encode())
        return [path, sidecar]
    raise ModelError(f"unknown export format {fmt!r}")
