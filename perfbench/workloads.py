"""The benchmark's workloads: seeded input generators, verb argv and output checks.

Each workload is one ``qconcepts`` verb. ``prepare`` writes the inputs
(from the seed only) and returns the list of ``Case``s the calls cycle
through; ``check`` verifies one call's stdout and files against values
recomputed here with numpy, never with the package's own functions, and
raises ``CheckError`` on a mismatch.
"""
from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
HAMPTON_CSV = ROOT / "src" / "qconcepts" / "datasets" / "hampton_membership.csv"

TABLE_ROWS = 100_000
# Published weights carry 2-3 decimals; a 0.02 jitter moves a row across a
# classicality boundary only when it already sits near one, so the resampled
# table keeps the real mix of classical and non-classical rows.
JITTER_SD = 0.02
EXEMPLARS = 3000
# The sign search's descent runs one to five O(n^2) passes, and the count
# depends on the input: over 200 seeds, 10% of inputs take one pass, 70% two,
# 18% three and 2% more, so one call costs 0.6-1.5 s on the same host. With
# one input per run, a run's wall_s would be a draw from that mix (ten seeds
# spread 0.17 to 0.34); cycling each run's calls through a pool of inputs
# puts the mix itself into every run.
EXEMPLAR_INPUTS = 16

ZERO_SLACK = 1e-12          # the slack the classicality report documents
RESIDUAL_TOL = 1e-6         # acceptance criterion 7
BORN_TOL = 1e-9
CENSUS_512 = (130883, 131261)   # frozen constructive/destructive pixel census


class CheckError(Exception):
    """A call's output disagrees with the independently recomputed values."""


@dataclass
class Case:
    """One prepared workload: the argv to run and what its output must show."""

    argv: list
    out_dir: Path | None = None
    expected: dict = field(default_factory=dict)


# ------------------------------------------------------------------ generators

def _hampton_rows():
    lines = [ln for ln in HAMPTON_CSV.read_text(encoding="utf-8").splitlines()
             if ln.strip() and not ln.startswith("#")]
    return list(csv.reader(lines))[1:]


def membership_csv(seed: int, rows: int = TABLE_ROWS):
    """Synthetic membership table: published Hampton rows, resampled and jittered.

    Resampling the 39 published rows keeps both connectives in their real
    25:14 proportion and every over/underextension class they contain; the
    seeded jitter makes the rows distinct, so the load scales like a real
    survey table rather than 2,500 copies of one. Weights are written with
    four decimals, as survey frequencies are. Returns the CSV bytes and the
    columns as the program will parse them.
    """
    base = _hampton_rows()
    rng = np.random.default_rng(seed)
    pick = rng.integers(len(base), size=rows)
    published = np.array([[float(v) for v in r[3:6]] for r in base])
    mu = np.clip(published[pick] + rng.normal(0.0, JITTER_SD, (rows, 3)), 0.0, 1.0)
    cells = np.char.mod("%.4f", mu)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["exemplar", "conceptA", "conceptB", "muA", "muB", "muJoint",
                     "connective"])
    for i, k in enumerate(pick):
        r = base[k]
        writer.writerow([r[0], r[1], r[2], *cells[i], r[6]])
    columns = {
        "mu": cells.astype(float),
        "is_and": np.array([base[k][6] == "and" for k in pick]),
    }
    return buf.getvalue().encode(), columns


def exemplar_csv(seed: int, n: int = EXEMPLARS):
    """Synthetic exemplar list with no phi column, so the sign search runs.

    muA and muB are independent flat Dirichlet draws, so each column sums to
    1 as choose-one data must, and each muAorB follows the Born relation
    (muA + muB)/2 + sqrt(muA muB) cos(phi) for a phase drawn uniformly from
    [0, pi], so every row has a phase solution. Values are written at full
    precision (repr) so the file pins the exact doubles. Returns the CSV
    bytes and the three weight columns.
    """
    rng = np.random.default_rng(seed)       # an int or a tuple of ints
    mu_a = rng.dirichlet(np.ones(n))
    mu_b = rng.dirichlet(np.ones(n))
    phi = rng.uniform(0.0, np.pi, n)
    mu_or = np.maximum(0.5 * (mu_a + mu_b) + np.sqrt(mu_a * mu_b) * np.cos(phi), 0.0)
    lines = ["index,name,muA,muB,muAorB"]
    for i in range(n):
        lines.append(f"{i + 1},x{i + 1:04d},{float(mu_a[i])!r},{float(mu_b[i])!r},"
                     f"{float(mu_or[i])!r}")
    return ("\n".join(lines) + "\n").encode(), {"mu_a": mu_a, "mu_b": mu_b, "mu_or": mu_or}


# ---------------------------------------------------------------------- checks

def _require(ok: bool, message: str):
    if not ok:
        raise CheckError(message)


def _payload(stdout: str) -> dict:
    try:
        return json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise CheckError(f"stdout is not JSON: {exc}") from None


def expected_classicality(mu, is_and):
    """delta, k, f and the classical flag per row, over numpy columns."""
    a, b, j = mu[:, 0], mu[:, 1], mu[:, 2]
    delta = np.where(is_and, j - np.minimum(a, b), np.maximum(a, b) - j)
    k = np.where(is_and, 1.0 - a - b + j, a + b - j)
    f = np.where(is_and,
                 np.minimum((a + b) / 2.0 - j, j - a * b),
                 np.minimum(j - (a + b) / 2.0, a + b - a * b - j))
    classical = (delta <= ZERO_SLACK) & (k >= -ZERO_SLACK)
    return delta, k, f, classical


def check_classicality(case: Case, stdout: str):
    rows = _payload(stdout)["rows"]
    delta, k, f, classical = case.expected["diagnostics"]
    n = delta.size
    _require(len(rows) == n, f"{len(rows)} rows reported, {n} generated")
    for key, want in (("delta", delta), ("k", k), ("f", f)):
        got = np.fromiter((r[key] for r in rows), float, n)
        worst = float(np.max(np.abs(got - want)))
        _require(worst <= ZERO_SLACK, f"{key} off by {worst!r}")
    got_flags = np.fromiter((r["classical"] for r in rows), bool, n)
    _require(np.array_equal(got_flags, classical),
             f"classical flag differs on {int(np.sum(got_flags != classical))} rows")
    with open(case.out_dir / "classicality.csv", "rb") as fh:
        lines = sum(1 for _ in fh)
    _require(lines == n + 1, f"classicality.csv has {lines} lines, expected {n + 1}")


def _wavefield_parameters(stdout: str) -> dict:
    params = _payload(stdout)["manifest"]["parameters"]
    for key in ("placement_a", "placement_b", "phase_fit", "superposed_vs_observed"):
        value = params["residuals"][key]
        _require(value <= RESIDUAL_TOL, f"residual {key} = {value!r} > {RESIDUAL_TOL}")
    return params


def _pattern_files(case: Case, suffix: str):
    files = sorted(case.out_dir.glob(f"wavefield_*.{suffix}"))
    _require(len(files) == 4, f"{len(files)} .{suffix} patterns written, expected 4")
    return files


def check_field_csv(case: Case, stdout: str):
    params = _wavefield_parameters(stdout)
    res = params["residuals"]
    census = (res["constructive_pixels"], res["destructive_pixels"])
    _require(census == CENSUS_512, f"census {census}, expected {CENSUS_512}")
    _require(params["clamp_count"] == 0, f"clamp_count {params['clamp_count']}")
    nx, ny = case.expected["grid"]
    for path in _pattern_files(case, "csv"):
        with open(path, "rb") as fh:
            lines = sum(1 for _ in fh)
        _require(lines == nx * ny + 1, f"{path.name} has {lines} lines, expected {nx * ny + 1}")


def check_field_pgm(case: Case, stdout: str):
    _wavefield_parameters(stdout)
    nx, ny = case.expected["grid"]
    header = f"P5\n{nx} {ny}\n65535\n".encode()
    for path in _pattern_files(case, "pgm"):
        with open(path, "rb") as fh:
            head = fh.read(len(header))
        size = path.stat().st_size
        _require(head == header, f"{path.name} header {head!r}")
        _require(size == len(header) + 2 * nx * ny,
                 f"{path.name} is {size} bytes, expected {len(header) + 2 * nx * ny}")


def expected_predictions(mu_a, mu_b, mu_or):
    """Born weights |A_k + B_k|^2 / ||A + B||^2 of the model built from the columns.

    |A_k + B_k| does not depend on the sign chosen for phi_k, so the
    recomputation needs only the phase magnitudes.
    """
    arg = np.clip((2.0 * mu_or - mu_a - mu_b) / (2.0 * np.sqrt(mu_a * mu_b)), -1.0, 1.0)
    vec_a = np.append(np.sqrt(mu_a), np.sqrt(max(0.0, 1.0 - mu_a.sum())))
    vec_b = np.append(np.sqrt(mu_b) * np.exp(1j * np.arccos(arg)),
                      np.sqrt(max(0.0, 1.0 - mu_b.sum())))
    weight = np.abs(vec_a + vec_b) ** 2
    return weight[:-1] / weight.sum()


def check_disjunction(case: Case, stdout: str):
    payload = _payload(stdout)
    want = case.expected["predictions"]
    _require(payload["sign_source"] == "search",
             f"sign_source {payload['sign_source']!r}, expected 'search'")
    rows = payload["rows"]
    _require(len(rows) == want.size, f"{len(rows)} rows reported, {want.size} generated")
    got = np.fromiter((r["prediction"] for r in rows), float, want.size)
    worst = float(np.max(np.abs(got - want)))
    _require(worst <= BORN_TOL, f"prediction off the Born recomputation by {worst!r}")


# ------------------------------------------------------------------- workloads

def prepare_table(seed: int, work: Path) -> list:
    data, cols = membership_csv(seed)
    path = work / "membership.csv"
    path.write_bytes(data)
    out = work / "out"
    return [Case(["classicality", "--input", str(path), "--out-dir", str(out), "--json"],
                 out, {"diagnostics": expected_classicality(cols["mu"], cols["is_and"])})]


def prepare_field_csv(seed: int, work: Path) -> list:
    # the bundled table pins the census, so this input ignores the seed
    out = work / "out"
    return [Case(["wavefield", "--dataset", "fruits-vegetables-table2", "--format", "csv",
                  "--out-dir", str(out), "--json"], out, {"grid": (512, 512)})]


def prepare_field_pgm(seed: int, work: Path) -> list:
    out = work / "out"
    return [Case(["wavefield", "--dataset", "fruits-vegetables-table2",
                  "--grid", "2048x2048", "--out-dir", str(out), "--json"],
                 out, {"grid": (2048, 2048)})]


def prepare_exemplars(seed: int, work: Path) -> list:
    cases = []
    for j in range(EXEMPLAR_INPUTS):
        data, cols = exemplar_csv((seed, j))
        path = work / f"exemplars-{j:02d}.csv"
        path.write_bytes(data)
        cases.append(Case(["disjunction-model", "--input", str(path), "--json"], None,
                          {"predictions": expected_predictions(
                              cols["mu_a"], cols["mu_b"], cols["mu_or"])}))
    return cases


# name -> (prepare, check)
WORKLOADS = {
    "table-100k": (prepare_table, check_classicality),
    "field-512-csv": (prepare_field_csv, check_field_csv),
    "field-2048-pgm": (prepare_field_pgm, check_field_pgm),
    "exemplars-3000": (prepare_exemplars, check_disjunction),
}
