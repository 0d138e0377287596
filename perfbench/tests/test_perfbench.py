"""Tests of the benchmark itself: generators, output checks, tracing, result shape.

    python3 -m pytest perfbench/tests -q
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Case, CheckError  # noqa: E402

import qconcepts  # noqa: E402
from qconcepts import cli, wavefield  # noqa: E402


def _run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([str(a) for a in argv])
    assert code == 0
    return out.getvalue()


# ------------------------------------------------------------------ generators

@pytest.mark.parametrize("generate, size", [
    (workloads.membership_csv, 300),
    (workloads.exemplar_csv, 40),
])
def test_generators_are_deterministic_per_seed(generate, size):
    first, _ = generate(7, size)
    again, _ = generate(7, size)
    other, _ = generate(8, size)
    assert first == again
    assert first != other


def test_exemplar_pool_is_distinct_inputs_fixed_by_the_seed(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    cases = workloads.prepare_exemplars(7, tmp_path / "a")
    again = workloads.prepare_exemplars(7, tmp_path / "b")
    files = [Path(c.argv[2]).read_bytes() for c in cases]
    assert len(set(files)) == len(cases) == workloads.EXEMPLAR_INPUTS
    assert files == [Path(c.argv[2]).read_bytes() for c in again]


def test_membership_table_keeps_both_connectives_and_the_classical_mix():
    _, cols = workloads.membership_csv(3, 2000)
    _, _, _, classical = workloads.expected_classicality(cols["mu"], cols["is_and"])
    assert 0 < cols["is_and"].mean() < 1
    assert 0 < classical.mean() < 1


# ---------------------------------------------------------------------- checks

def _table_case(tmp_path, rows=200):
    data, cols = workloads.membership_csv(5, rows)
    (tmp_path / "m.csv").write_bytes(data)
    out = tmp_path / "out"
    case = Case(["classicality", "--input", tmp_path / "m.csv", "--out-dir", out, "--json"],
                out, {"diagnostics": workloads.expected_classicality(cols["mu"], cols["is_and"])})
    return case, _run_cli(case.argv)


def test_table_check_accepts_real_output_and_rejects_a_changed_delta(tmp_path):
    case, stdout = _table_case(tmp_path)
    workloads.check_classicality(case, stdout)
    payload = json.loads(stdout)
    payload["rows"][17]["delta"] += 1e-9
    with pytest.raises(CheckError, match="delta"):
        workloads.check_classicality(case, json.dumps(payload))


def test_table_check_rejects_a_truncated_csv(tmp_path):
    case, stdout = _table_case(tmp_path)
    path = case.out_dir / "classicality.csv"
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))
    with pytest.raises(CheckError, match="lines"):
        workloads.check_classicality(case, stdout)


def test_exemplar_check_accepts_real_output_and_rejects_a_moved_prediction(tmp_path):
    data, cols = workloads.exemplar_csv(2, 40)
    (tmp_path / "x.csv").write_bytes(data)
    case = Case(["disjunction-model", "--input", tmp_path / "x.csv", "--json"], None,
                {"predictions": workloads.expected_predictions(
                    cols["mu_a"], cols["mu_b"], cols["mu_or"])})
    stdout = _run_cli(case.argv)
    workloads.check_disjunction(case, stdout)
    payload = json.loads(stdout)
    payload["rows"][3]["prediction"] += 2e-9
    with pytest.raises(CheckError, match="Born"):
        workloads.check_disjunction(case, json.dumps(payload))


def _field_csv_case(tmp_path, census=workloads.CENSUS_512):
    nx, ny = 3, 2
    out = tmp_path / "out"
    out.mkdir(parents=True)
    for stem in ("intensity_a", "intensity_b", "superposed", "classical_average"):
        (out / f"wavefield_{stem}.csv").write_text("x,y,value\n" + "0,0,0\n" * (nx * ny))
    residuals = {"placement_a": 0.0, "placement_b": 0.0, "phase_fit": 1e-9,
                 "superposed_vs_observed": 0.0,
                 "constructive_pixels": census[0], "destructive_pixels": census[1]}
    stdout = json.dumps({"manifest": {"parameters": {"residuals": residuals,
                                                     "clamp_count": 0}}})
    return Case([], out, {"grid": (nx, ny)}), stdout


def test_field_csv_check_rejects_a_census_off_by_one(tmp_path):
    case, stdout = _field_csv_case(tmp_path)
    workloads.check_field_csv(case, stdout)
    case, stdout = _field_csv_case(tmp_path / "b", census=(130884, 131261))
    with pytest.raises(CheckError, match="census"):
        workloads.check_field_csv(case, stdout)


def test_field_csv_check_rejects_a_truncated_csv(tmp_path):
    case, stdout = _field_csv_case(tmp_path)
    path = case.out_dir / "wavefield_superposed.csv"
    path.write_text(path.read_text()[:-len("0,0,0\n")])
    with pytest.raises(CheckError, match="lines"):
        workloads.check_field_csv(case, stdout)


def test_field_pgm_check_accepts_real_output_and_rejects_a_short_file(tmp_path):
    out = tmp_path / "out"
    case = Case(["wavefield", "--dataset", "fruits-vegetables-table2", "--grid", "16x12",
                 "--out-dir", out, "--json"], out, {"grid": (16, 12)})
    stdout = _run_cli(case.argv)
    workloads.check_field_pgm(case, stdout)
    path = out / "wavefield_classical_average.pgm"
    path.write_bytes(path.read_bytes()[:-2])
    with pytest.raises(CheckError, match="bytes"):
        workloads.check_field_pgm(case, stdout)


# --------------------------------------------------------------------- tracing

def _namespace_snapshot():
    mods = [m for name, m in sys.modules.items()
            if name == "qconcepts" or name.startswith("qconcepts.")]
    snap = {(m.__name__, k): v for m in mods for k, v in vars(m).items()}
    snap[("PhasePolynomial", "evaluate")] = vars(wavefield.PhasePolynomial)["evaluate"]
    return snap


def test_traced_calls_restore_every_wrapped_attribute(tmp_path):
    before = _namespace_snapshot()
    data, _ = workloads.exemplar_csv(4, 30)
    (tmp_path / "x.csv").write_bytes(data)
    tracer = tracing.Tracer()
    with tracer.installed():
        assert qconcepts.hilbert.born_probability is not before[("qconcepts.hilbert",
                                                                 "born_probability")]
        assert (qconcepts.disjunction_model.born_probability
                is qconcepts.hilbert.born_probability)
        _run_cli(["disjunction-model", "--input", tmp_path / "x.csv", "--json"])
        _run_cli(["wavefield", "--dataset", "fruits-vegetables-table2", "--grid", "8x8",
                  "--out-dir", tmp_path / "f", "--json"])
    after = _namespace_snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)

    assert tracer.spans["hilbert.born_probability"]["calls"] == 30
    assert tracer.counts["wavefield.phase_eval.points"] >= 64
    assert tracer.counts["wavefield.export_grid.bytes"] > 4 * 2 * 64
    roots = tracer.spans["cli.main"]["total"]
    assert tracer.self_total() == pytest.approx(roots, rel=1e-9)


def test_tracer_restores_attributes_when_a_call_raises():
    before = _namespace_snapshot()
    tracer = tracing.Tracer()
    with pytest.raises(qconcepts.ModelError):
        with tracer.installed():
            qconcepts.disjunction_model.build_model([])
    assert tracer.counts["disjunction_model.errors"] == 1
    after = _namespace_snapshot()
    assert all(after[k] is before[k] for k in before)


# ---------------------------------------------------------------- result shape

def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail(list(range(30))) == (19, pytest.approx(100 * 20 / 30))
    assert run.tail([3.0, 1.0, 2.0, 5.0, 4.0]) == (3.0, 60.0)


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["per_layer"]} == (
        set(tracing.METRICS) | {"trace.wall_s", "trace.overhead_s"})
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS) == set(
        workloads.WORKLOADS)
