"""Two-source Gaussian wavefield with a polynomial phase surface.

Two planar wave packets

    psi_A(x, y) = sqrt(D_A) exp(-(x^2/(4 s_Ax^2) + y^2/(4 s_Ay^2))) e^{i S_A}
    psi_B centered at CENTER_B with widths s_Bx, s_By and phase S_B

carry intensities I = |psi|^2, so each exemplar's two membership weights
pin it to one level curve of I_A (about the origin) and one of I_B (about
CENTER_B). Exemplars are placed on intersections of those curves, the
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
pixels, so each step's temporaries stay in cache; each pixel gets the same
values as on the whole grid. The phase's power 0 is the scalar 1.0, so a
one-axis term costs only an x row or a y column. The blocks are shared by
the calling thread and helper threads, one per further CPU the process may
use (limit them with ``taskset``); the output is identical for any count.
Only the rasters are written in place (see _map_blocks).

Everything here is deterministic: fixed sample counts, fixed scan grids,
and one array bisection that places exemplars at crossings and tangencies.
"""
from __future__ import annotations

import contextvars
import enum
import functools
import itertools
import json
import os
import tempfile
from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from .errors import ModelError, PlacementError

INTENSITY_TOL = 1e-9        # log-space agreement required at placed points
PHASE_FIT_TOL = 1e-6        # radians, interpolation residual bound
MARGIN_FLOOR = 0.05         # log-intensity clearance kept by the width fit
DEFAULT_EXTENT = (-15.0, 25.0, -15.0, 20.0)    # every raster's window
# B's centre; it must lie off both coordinate axes for the width fit
CENTER_B = (10.0, 4.0)
DEFAULT_GRID = (512, 512)
MAX_GRID_PIXELS = 1 << 26   # 8192x8192: 2.3 GB at the measured 34 bytes a pixel

_SCAN_POINTS = 512          # width-fit scan resolution
_CURVE_SAMPLES = 2048       # samples along a level curve for min/max scans
_ROOT_SAMPLES = 4096        # samples along a level curve for root bracketing
_BLOCK_PIXELS = 1 << 16     # float64 pixels per raster row block (512 KB)
_CSV_LINES = 8192           # raster CSV lines built per block of text


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
        """phi at (x, y), the terms summed in order. Each distinct power of x
        and of y is taken once, and power 0 is the scalar 1.0: a one-axis
        term costs only its x row (y column), and its product by 1.0 is
        exact."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        out = np.zeros(np.broadcast(x, y).shape)
        xp = {mx: x ** mx if mx else 1.0 for mx in {mx for mx, _, _ in self.terms}}
        yp = {my: y ** my if my else 1.0 for my in {my for _, my, _ in self.terms}}
        for mx, my, coef in self.terms:
            out += coef * xp[mx] * yp[my]
        return out if out.shape else float(out)


@dataclass(frozen=True, eq=False)
class GridPattern:
    nx: int
    ny: int
    extent: tuple                 # (x_min, x_max, y_min, y_max)
    values: np.ndarray            # shape (ny, nx), rows ordered by ascending y
    kind: GridKind
    clamp_count: int = 0
    # superposed pattern only: pixels above / below the classical average
    constructive_count: int = 0
    destructive_count: int = 0


def _block_rows(nx):
    """Rows per raster block: about _BLOCK_PIXELS pixels, at least one row."""
    return max(1, _BLOCK_PIXELS // nx)


def _cpu_count():
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _map_blocks(fn, nx, ny):
    """Run fn(rows) over the row blocks of an (ny, nx) raster; returns the
    results in block order.

    The calling thread and min(blocks, CPUs) - 1 helper threads take blocks
    from one shared queue; each helper runs in a copy of the caller's
    context, so numpy's error state holds there too. A block that raises
    stops the others from starting new blocks, and its exception is raised
    here once every helper has finished. numpy allocates fn's temporaries;
    ``out=`` writes only into the rasters, as copying each block into them
    cost about 7% of a 2048x2048 raster's time and 3 MB of peak memory
    (2-CPU host).
    """
    from concurrent.futures import ThreadPoolExecutor

    step = _block_rows(nx)
    pending = deque(enumerate(range(0, ny, step)))
    results = [None] * len(pending)
    helpers = min(len(pending), _cpu_count()) - 1

    def drain():
        while True:
            try:
                i, start = pending.popleft()
            except IndexError:      # every block is taken
                return
            rows = slice(start, min(start + step, ny))
            try:
                results[i] = fn(rows)
            except BaseException:
                pending.clear()     # start no further blocks
                raise

    # no thread starts unless a task is submitted
    with ThreadPoolExecutor(max(helpers, 1)) as pool:
        futures = [pool.submit(contextvars.copy_context().run, drain)
                   for _ in range(helpers)]
        drain()
    for future in futures:
        future.result()
    return results


def _cos_phase(phi):
    # sin(pi/2 - phi) == cos(phi), but exactly 0.0 at phi == float(pi/2)
    return np.sin(np.pi / 2.0 - phi)


def _log_ratios(amplitude, mu, label):
    mu = np.asarray(mu, dtype=float)
    if not np.all(mu > 0):
        raise ModelError(f"{label} weights must be positive to take log ratios")
    if amplitude < mu.max():
        raise ModelError(f"peak amplitude {amplitude!r} below max {label} weight")
    with np.errstate(over="ignore"):
        ratio = amplitude / mu
    if np.isinf(ratio).any():
        raise ModelError(f"{label} weight {float(mu.min())!r} is too small:"
                         f" its ratio to the peak {amplitude!r} overflows")
    return np.log(ratio)


def _curve_point(p, q, t):
    return p * np.cos(t), q * np.sin(t)


def _bisect(f, lo, hi):
    """Halve every bracket [lo, hi] of the elementwise f 100 times, keeping
    the half where f(lo) * f(mid) <= 0; returns the final midpoints."""
    f_lo = f(lo)
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        left = f_lo * f_mid <= 0
        lo, hi, f_lo = (np.where(left, lo, mid), np.where(left, mid, hi),
                        np.where(left, f_lo, f_mid))
    return 0.5 * (lo + hi)


# why a row cannot be placed, by failure code
_MISSES = (None, "peak of A misses its B level", "peak of B misses its A level",
           "intensity level curves do not intersect; enlarge the widths")


def place_exemplars(rows, config: WaveFieldConfig) -> np.ndarray:
    """Intersect the two intensity level curves of each ``ExemplarColumns`` row.

    Row k must satisfy I_A = mu(A)_k on an ellipse about the origin and
    I_B = mu(B)_k on one about center_b. Of the (generically two) crossing
    points, odd rows (1-based index) take the larger-y solution and even
    rows the smaller-y one, spreading exemplars over both sides. Degenerate
    curves (weight equal to the peak) collapse to the corresponding center.

    All rows are solved at once: h(t) = g_B - lb along each A-curve is
    sampled, each sign change bisected, and a row with none (a tangency)
    bisects dh/dt about its least |h|, kept if that |h| <= INTENSITY_TOL.
    Where h there has the other sign, both crossings fell within one sample
    step; each side of the extremum is then bisected.
    The first row in input order that cannot be placed raises.
    """
    la = _log_ratios(config.amplitude_a, rows.mu_a, "muA")
    lb = _log_ratios(config.amplitude_b, rows.mu_b, "muB")
    ua, va = 1.0 / (2.0 * config.sigma_ax ** 2), 1.0 / (2.0 * config.sigma_ay ** 2)
    ub, vb = 1.0 / (2.0 * config.sigma_bx ** 2), 1.0 / (2.0 * config.sigma_by ** 2)
    a, b = float(config.center_b[0]), float(config.center_b[1])
    p, q = np.sqrt(la / ua), np.sqrt(la / va)

    def gap(k, t):      # h of rows k at t (the arrays broadcast)
        return ub * np.square(p[k] * np.cos(t) - a) + vb * np.square(q[k] * np.sin(t) - b) - lb[k]

    def slope(k, t):    # dh/dt / 2
        x, y = _curve_point(p[k], q[k], t)
        return vb * (y - b) * q[k] * np.cos(t) - ub * (x - a) * p[k] * np.sin(t)

    positions = np.zeros((len(rows), 2))
    at_a = la == 0.0                    # A-curve degenerates to the origin
    at_b = (lb == 0.0) & ~at_a          # B-curve degenerates to center_b
    fail = np.zeros(len(rows), dtype=int)
    fail[at_a & (np.abs(ub * a ** 2 + vb * b ** 2 - lb) > INTENSITY_TOL)] = 1
    fail[at_b & (np.abs(ua * a ** 2 + va * b ** 2 - la) > INTENSITY_TOL)] = 2
    positions[at_b] = (a, b)

    live = np.flatnonzero(~(at_a | at_b))
    t = np.linspace(0.0, 2.0 * np.pi, _ROOT_SAMPLES + 1)
    h = gap(live[:, None], t)
    crossing = (h[:, :-1] == 0.0) | (h[:, :-1] * h[:, 1:] < 0)
    r, i = np.nonzero(crossing)
    k = live[r]
    roots = np.where(h[r, i] == 0.0, t[i], _bisect(lambda s: gap(k, s), t[i], t[i + 1]))
    flat = ~crossing.any(axis=1)
    if flat.any():      # tangencies: the extremum of h nearest its smallest |h|
        kt = live[flat]
        i0 = np.argmin(np.abs(h[flat, :-1]), axis=1)
        t_lo, t_hi = t[np.maximum(i0 - 1, 0)], t[np.minimum(i0 + 1, _ROOT_SAMPLES)]
        touch = _bisect(lambda s: slope(kt, s), t_lo, t_hi)
        h_touch = gap(kt, touch)
        off = np.abs(h_touch) > INTENSITY_TOL
        # h changes sign twice within one sample step: bisect either side of the extremum
        dip = off & (h_touch * h[flat, i0] < 0)
        fail[kt[off & ~dip]] = 3
        kd = np.tile(kt[dip], 2)
        sides = _bisect(lambda s: gap(kd, s), np.concatenate((t_lo[dip], touch[dip])),
                        np.concatenate((touch[dip], t_hi[dip])))
        k = np.concatenate((k, kt[~dip], kd))
        roots = np.concatenate((roots, touch[~dip], sides))
    if fail.any():
        first = int(np.flatnonzero(fail)[0])
        raise PlacementError(f"circles disjoint for exemplar {rows.name[first]!r}: "
                             + _MISSES[fail[first]])

    # each row keeps one point: odd rows the largest y (first in t order
    # among ties), even rows the smallest y (last among ties)
    x, y = _curve_point(p[k], q[k], roots)
    odd = np.array([index % 2 == 1 for index in rows.index])[k]
    n = np.arange(k.size)
    order = np.lexsort((np.where(odd, n, -n), np.where(odd, -y, y), k))
    pick = order[np.unique(k[order], return_index=True)[1]]
    positions[k[pick]] = np.column_stack((x[pick], y[pick]))
    return positions


def _fit_widths(rows):
    """Width fit to ``ExemplarColumns``: circular A pinned by B's anchor, elliptical B.

    The A-peak row sits at the origin and the B-peak row at CENTER_B, which
    pins sigma_A and one linear combination of B's axis weights. The loose
    parameter u_B = 1/(2 sigma_Bx^2) is chosen as the largest value whose
    worst-row log-intensity clearance still reaches MARGIN_FLOOR, keeping B
    as round as the data allows while every level-curve pair intersects
    robustly. Fully circular B is infeasible for data whose mid-weight rows
    have short level-curve radii, hence the free axis.

    The scan runs down from the top of its grid to the first eligible width
    (with none, every margin is known and the best is used). A margin reads
    only each row's two Pareto fronts in (p_sq, q_sq): u, v > 0 and rounding
    is monotone, so a sample that another beats in both (both <=, or both
    >=) is never the row's minimum (maximum) of g. The bisection stops once
    mid == lo, as neither branch then moves lo; at mid == hi lo can still rise.
    """
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
    # along each remaining row's A-curve g = u * p_sq + v * q_sq; only u, v vary
    r_o, lb_o = r_a[others, None], lb[others]
    p_sq = (r_o * np.cos(t) - a) ** 2
    q_sq = (r_o * np.sin(t) - b) ** 2
    order = np.argsort(p_sq, axis=1, kind="stable")
    p_sq, q_sq = np.take_along_axis(p_sq, order, 1), np.take_along_axis(q_sq, order, 1)
    low, high = np.ones_like(p_sq, dtype=bool), np.ones_like(p_sq, dtype=bool)
    low[:, 1:] = q_sq[:, 1:] < np.minimum.accumulate(q_sq, axis=1)[:, :-1]
    high[:, :-1] = q_sq[:, :-1] > np.maximum.accumulate(q_sq[:, ::-1], axis=1)[:, -2::-1]
    # the lower fronts, then the upper ones, each row's samples contiguous
    p_f, q_f = (np.concatenate((s[low], s[high])) for s in (p_sq, q_sq))
    sizes = np.concatenate((low.sum(axis=1), high.sum(axis=1)))
    starts, split, m = np.cumsum(sizes) - sizes, int(low.sum()), len(others)
    g, vq = np.empty_like(p_f), np.empty_like(q_f)      # reused by every call

    def worst_margin(u):
        v = (lb[ia] - a ** 2 * u) / b ** 2
        if v <= 0.0:
            return -np.inf
        np.multiply(u, p_f, out=g)
        np.multiply(v, q_f, out=vq)
        np.add(g, vq, out=g)
        return min(np.min(lb_o - np.minimum.reduceat(g[:split], starts[:m]), initial=np.inf),
                   np.min(np.maximum.reduceat(g, starts[m:]) - lb_o, initial=np.inf))

    grid = [u_max * (i + 0.5) / _SCAN_POINTS for i in range(_SCAN_POINTS)]
    margins = np.empty(_SCAN_POINTS)
    for i0 in reversed(range(_SCAN_POINTS)):
        margins[i0] = worst_margin(grid[i0])
        if margins[i0] >= MARGIN_FLOOR:
            lo = grid[i0]
            hi = grid[i0 + 1] if i0 + 1 < _SCAN_POINTS else u_max
            break
    else:
        best = int(np.argmax(margins))
        if margins[best] <= 0.0:
            raise PlacementError("circles disjoint: no width assignment intersects"
                                 " every level-curve pair")
        lo = hi = grid[best]        # the bisection below stops at once
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if mid == lo:
            break
        if worst_margin(mid) >= MARGIN_FLOOR:
            lo = mid
        else:
            hi = mid
    u_star = lo
    v_star = (lb[ia] - a ** 2 * u_star) / b ** 2
    return sigma_a, 1.0 / np.sqrt(2.0 * u_star), 1.0 / np.sqrt(2.0 * v_star), ia, ib


def default_config(rows) -> WaveFieldConfig:
    """Fit widths to an ``ExemplarColumns`` table with B centred at CENTER_B,
    place all exemplars, and return the full config."""
    sigma_a, sigma_bx, sigma_by, ia, ib = _fit_widths(rows)
    config = WaveFieldConfig(
        amplitude_a=float(rows.mu_a.max()),
        amplitude_b=float(rows.mu_b.max()),
        sigma_ax=float(sigma_a), sigma_ay=float(sigma_a),
        sigma_bx=float(sigma_bx), sigma_by=float(sigma_by),
        center_b=CENTER_B,
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
    to unit box for conditioning, coefficients mapped back). For n < 30 a
    singular or ill-conditioned system falls back to a minimum-norm least
    squares fit over the 30 lowest monomials, flagged on the result; for
    n >= 30 those are the square system's own monomials, so the fit fails.
    Both take one rule: the first fit within PHASE_FIT_TOL of every phase is
    returned. Non-finite positions or phases are refused before any solve.
    """
    pos = np.asarray(positions, dtype=float)
    phi = np.asarray(phases, dtype=float)
    n = pos.shape[0]
    if pos.shape != (n, 2) or phi.shape != (n,):
        raise ModelError("positions must be (n, 2) and phases length n")
    if not (np.isfinite(pos).all() and np.isfinite(phi).all()):
        raise ModelError("positions and phases must be finite")
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
    attempts = [(lowest_monomials(n), np.linalg.solve)]
    if n < 30:
        attempts.append((lowest_monomials(30), lambda a, b: np.linalg.lstsq(a, b, rcond=None)[0]))
    for attempt, (mons, solve) in enumerate(attempts):
        try:
            coefs = solve(np.column_stack(
                [scaled[:, 0] ** mx * scaled[:, 1] ** my for mx, my in mons]), phi)
        except np.linalg.LinAlgError:
            failure = f"singular {n}x{n} system"
            continue
        terms = ((mx, my, float(c / scale ** (mx + my))) for (mx, my), c in zip(mons, coefs))
        poly = PhasePolynomial(tuple(terms), fallback_used=attempt > 0)
        resid = np.max(np.abs(poly.evaluate(pos[:, 0], pos[:, 1]) - phi))
        if resid <= PHASE_FIT_TOL:
            return poly
        failure = f"residual {float(resid)!r} rad"
    raise ModelError(f"phase field interpolation failed: {failure}")


def _gaussian(peak, u, dx, v, dy, out=None):
    """peak * exp(-(u dx^2 + v dy^2)), computed in out when given. The sum is
    negated as (-(u dx^2)) + (-(v dy^2)), on dx's and dy's own shapes:
    round-to-nearest is symmetric, so the bits are those of -(a + b)."""
    g = np.add(-(u * dx ** 2), -(v * dy ** 2), out=out)
    return np.multiply(peak, np.exp(g, out=out), out=out)


def _intensity_fields(config: WaveFieldConfig, x, y, out=(None, None)):
    ua, va = 1.0 / (2.0 * config.sigma_ax ** 2), 1.0 / (2.0 * config.sigma_ay ** 2)
    ub, vb = 1.0 / (2.0 * config.sigma_bx ** 2), 1.0 / (2.0 * config.sigma_by ** 2)
    a, b = config.center_b
    return (_gaussian(config.amplitude_a, ua, x, va, y, out[0]),
            _gaussian(config.amplitude_b, ub, x - a, vb, y - b, out[1]))


def _fields(config, phase, x, y, out=(None,) * 3):
    """(I_A, I_B, classical average, unclamped superposed) at (x, y), the
    first three in ``out`` if given."""
    i_a, i_b = _intensity_fields(config, x, y, out=out[:2])
    classical = np.multiply(0.5, np.add(i_a, i_b, out=out[2]), out=out[2])
    cos = _cos_phase(phase.evaluate(x, y))
    return i_a, i_b, classical, classical + np.sqrt(i_a * i_b) * cos


def evaluate_at(config: WaveFieldConfig, phase: PhasePolynomial, points):
    """Pointwise field values: (intensity_a, intensity_b, superposed, classical).

    The raster's kernel (``_fields``); the superposed value is clamped at
    zero.
    """
    pts = np.asarray(points, dtype=float)
    i_a, i_b, classical, raw = _fields(config, phase, pts[..., 0], pts[..., 1])
    return i_a, i_b, np.maximum(raw, 0.0), classical


def evaluate_patterns(config: WaveFieldConfig, phase: PhasePolynomial, grid=DEFAULT_GRID):
    """Rasterize the four patterns over DEFAULT_EXTENT; returns a dict keyed
    by GridKind.

    The raster must cover every placed exemplar so the patterns actually
    witness the data they were built from.
    """
    nx, ny = int(grid[0]), int(grid[1])
    if nx < 2 or ny < 2:
        raise ModelError("grid must be at least 2x2")
    x_min, x_max, y_min, y_max = ext = DEFAULT_EXTENT
    if config.positions is not None:
        px, py = config.positions[:, 0], config.positions[:, 1]
        if (px.min() < x_min or px.max() > x_max or py.min() < y_min or py.max() > y_max):
            raise ModelError("raster extent does not cover all exemplar positions")
    try:
        xs = np.linspace(x_min, x_max, nx)
        ys = np.linspace(y_min, y_max, ny)
        i_a, i_b, superposed, classical = (np.empty((ny, nx)) for _ in range(4))
    except (MemoryError, ValueError):   # numpy's "array is too big" is a ValueError
        raise ModelError(f"grid {nx}x{ny} is too large to allocate") from None
    # each block broadcasts the x row against its ys column: one-axis terms
    # cost nx or (block rows) operations, every pixel gets the same values
    # as on the whole grid, and the temporaries stay in cache
    x = xs[None, :]

    def block(rows):
        _, _, cla, raw = _fields(config, phase, x, ys[rows, None],
                                 (i_a[rows], i_b[rows], classical[rows]))
        sup = np.maximum(raw, 0.0, out=superposed[rows])
        return (int(np.count_nonzero(raw < 0.0)), int(np.count_nonzero(sup > cla)),
                int(np.count_nonzero(sup < cla)))

    clamps, above, below = (sum(c) for c in zip(*_map_blocks(block, nx, ny)))
    census = {GridKind.SUPERPOSED: dict(clamp_count=clamps, constructive_count=above,
                                        destructive_count=below)}
    return {kind: GridPattern(nx, ny, ext, values, kind, **census.get(kind, {}))
            for kind, values in zip(GridKind, (i_a, i_b, superposed, classical))}


def _words(texts, width=None):
    """Byte strings as rows of NUL-padded 8-byte words, as wide as the longest."""
    width = width or -(-max(map(len, texts)) // 8) * 8
    return np.array(texts, dtype=f"S{width}").view(np.uint64).reshape(len(texts), -1)


@functools.cache
def _g9_tables():
    """_csv_text's tables, by a value's decimal exponent e (at e + 300), its
    3-digit groups g and whether a nonzero digit follows group j (later):
    pow10[k + 293] is the double nearest 10**k; sign[neg * 601 + e + 300] and
    suffix[e + 300] the texts around the digits; digits[code[j, e + 300] +
    later * 5000 + g] the text of group j."""
    later, c, g, k = np.ix_(range(2), range(-1, 4), range(1000), range(8))
    q = np.maximum(c, 0)    # digits before the point: c, or none at c = -1
    end = np.where(later, 3, np.maximum(3 - sum(g % 10 ** j == 0 for j in (1, 2, 3)), q))
    dot = (c >= 0) & (c < 3) & (end > q)    # a '.' before digit q
    i = k - (dot & (k > q))                 # the digit written at byte k
    digit = np.where(i < end, g // 10 ** (2 - np.minimum(i, 2)) % 10 + ord("0"), 0)
    e = np.arange(-300, 301)
    point = np.where((e < -4) | (e > 8), 1, np.where(e < 0, -1, e + 1))    # digits before it
    head = [b"0." + b"0" * (-x - 1) if -4 <= x < 0 else b"" for x in e.tolist()]
    return (np.array([float(f"1e{k}") for k in range(-293, 309)]),
            _words(head + [b"-" + h for h in head]).ravel(),
            (np.clip(point - [[0], [3], [6]], -1, 3) + 1) * 1000,
            np.where(dot & (k == q), ord("."), digit).astype(np.uint8).view(np.uint64).ravel(),
            _words([b"\n" if -4 <= x < 9 else b"e%+03d\n" % x for x in e.tolist()]).ravel())


def _csv_text(values, xw, yw):
    """The CSV text of a block of raster rows: each line's x and y texts
    (given as words) and '%.9g' % value, as NUL-padded words (see _words),
    written out without the NULs.

    A finite |value| in [1e-300, 1e300] is scaled by a correctly rounded power
    of ten into [1e8, 1e9), the exponent taken from log10 and corrected by the
    scaled value. That lies within 2.3e-7 of the exact product, so rint rounds
    it right unless it lies within 1e-5 of a half: those, and non-finite and
    extreme values, are formatted by Python. A zero is written as 0 or -0.
    """
    pow10, sign, code, digits, suffix = _g9_tables()
    lines = np.empty((*values.shape, xw.shape[1] + yw.shape[1] + 5), np.uint64)
    lines[..., :xw.shape[1]] = xw
    lines[..., xw.shape[1]:-5] = yw[:, None]
    out, v = lines[..., -5:].reshape(-1, 5), values.ravel()
    a = np.abs(v)
    zero = a == 0.0
    ok = (a >= 1e-300) & (a <= 1e300) | zero
    a[~ok | zero] = 1.0
    e = np.clip(np.floor(np.log10(a)), -299, 300).astype(np.intp)
    s = a * pow10[301 - e]
    e += (s >= 1e9) * 1 - (s < 1e8)     # log10 may miss by one
    m = np.rint(np.multiply(a, pow10[301 - e], out=s))
    ok &= np.abs(s - m) < 0.5 - 1e-5
    e += (m == 1e9) + 300               # m rounds up into the next decade
    m[m == 1e9] = 1e8
    m[zero] = 0.0                       # "0", signed by the sign bit
    m = m.astype(np.intp)
    out[:, 0] = sign[np.signbit(v) * 601 + e]
    for j, later in enumerate((m % 1000000 > 0, m % 1000 > 0, 0)):
        out[:, j + 1] = digits[code[j][e] + later * 5000 + m // 1000 ** (2 - j) % 1000]
    out[:, 4] = suffix[e]
    if not ok.all():
        out[~ok] = _words([b"%.9g\n" % x for x in v[~ok].tolist()], 40)
    return lines.tobytes().translate(None, b"\0")


def atomic_write(path, chunks):
    """Write a sequence of byte chunks to a temp file beside ``path``, then
    rename it into place.

    The file gets mode 0o666 less the process umask, as ``open()`` would
    give it. An OSError becomes a ModelError naming the path; no temp file
    is left.
    """
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                                   prefix=".tmp-out-")
        with os.fdopen(fd, "wb") as fh:
            fh.writelines(chunks)
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


def export_grid(pattern: GridPattern, path: str, fmt: str):
    """Write one pattern to disk; returns the list of files written.

    csv: `x,y,value` rows in row-major order (y outer, x inner), each number
    as '%.9g' writes it, built _CSV_LINES lines at a time (see _csv_text).
    pgm: binary 16-bit graymap, min-max normalized, with extent and
    normalization bounds in a sidecar JSON next to it.
    Writes go to a temp file first and are renamed into place.
    """
    xs = np.linspace(pattern.extent[0], pattern.extent[1], pattern.nx)
    ys = np.linspace(pattern.extent[2], pattern.extent[3], pattern.ny)
    if fmt == "csv":
        xw, yw = (_words([b"%.9g," % c for c in axis.tolist()]) for axis in (xs, ys))
        step = max(1, _CSV_LINES // pattern.nx)
        blocks = (_csv_text(pattern.values[i:i + step], xw, yw[i:i + step])
                  for i in range(0, pattern.ny, step))
        atomic_write(path, itertools.chain([b"x,y,value\n"], blocks))
        return [path]
    if fmt == "pgm":
        values = pattern.values
        vmin = float(values.min())
        vmax = float(values.max())
        norm = np.zeros(values.shape, dtype=">u2")
        if vmax > vmin:
            def block(rows):
                norm[rows] = np.round((values[rows] - vmin) / (vmax - vmin) * 65535.0)

            _map_blocks(block, pattern.nx, pattern.ny)
        header = f"P5\n{pattern.nx} {pattern.ny}\n65535\n".encode()
        atomic_write(path, [header, memoryview(norm)])
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
        atomic_write(sidecar, [(json.dumps(meta, sort_keys=True, indent=2) + "\n").encode()])
        return [path, sidecar]
    raise ModelError(f"unknown export format {fmt!r}")
