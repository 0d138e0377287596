"""End-to-end CLI behavior: verbs, JSON payloads, exit codes, manifests."""
from __future__ import annotations

import json
import os

import numpy as np
import pytest

COUNTS_CSV = """\
experiment,outcome11,outcome12,outcome21,outcome22
AB,4,51,21,5
A'B,63,7,7,4
AB',48,2,24,7
A'B',12,7,8,54
"""

MEMBERSHIP_CSV = """\
exemplar,conceptA,conceptB,muA,muB,muJoint,connective
Mint,Food,Plant,0.87,0.81,0.9,and
Mushroom,Fruits,Vegetables,0.0,0.5,0.9,or
"""


def test_no_arguments_is_a_usage_error(run_cli):
    with pytest.raises(SystemExit) as exc_info:
        run_cli()
    assert exc_info.value.code == 2


def test_unknown_subcommand_is_a_usage_error(run_cli):
    with pytest.raises(SystemExit) as exc_info:
        run_cli("interpolate")
    assert exc_info.value.code == 2


def test_bad_grid_spec_is_a_usage_error(run_cli):
    with pytest.raises(SystemExit) as exc_info:
        run_cli("wavefield", "--dataset", "fruits-vegetables-table2", "--grid", "1x8")
    assert exc_info.value.code == 2
    with pytest.raises(SystemExit) as exc_info:
        run_cli("wavefield", "--dataset", "fruits-vegetables-table2", "--grid", "512")
    assert exc_info.value.code == 2


def test_datasets_verb_lists_catalog(run_cli_json):
    code, payload, err = run_cli_json("datasets")
    assert code == 0 and err == ""
    ids = [entry["id"] for entry in payload["datasets"]]
    assert ids == sorted(ids) and "hampton-table3" in ids
    code2, payload2, _ = run_cli_json("datasets")
    assert payload2 == payload


def test_datasets_verb_human_mode(run_cli):
    code, out, err = run_cli("datasets")
    assert code == 0
    assert "fruits-vegetables-table2" in out
    assert "(exemplar, 24 rows)" in out


def test_classicality_writes_reports_and_manifest(run_cli_json, tmp_path):
    code, payload, err = run_cli_json(
        "classicality", "--dataset", "hampton-table3", "--out-dir", tmp_path)
    assert code == 0 and err == ""
    assert len(payload["rows"]) == 39
    assert payload["outputs"] == ["classicality.csv", "classicality.json"]

    rows_on_disk = json.loads((tmp_path / "classicality.json").read_text())
    assert rows_on_disk == payload["rows"]
    csv_lines = (tmp_path / "classicality.csv").read_text().splitlines()
    assert len(csv_lines) == 40
    assert csv_lines[0].startswith("exemplar,conceptA,conceptB,")
    assert "Mushroom,Fruits,Vegetables,0.0,0.5,0.9,or,-0.4,-0.4,-0.4,false,None" in csv_lines

    manifest = json.loads((tmp_path / "classicality_manifest.json").read_text())
    assert set(manifest) == {"command", "inputs", "parameters", "outputs", "tool_version"}
    assert manifest["outputs"] == ["classicality.csv", "classicality.json"]
    digest = manifest["inputs"]["hampton-table3"]
    assert digest.startswith("sha256:") and len(digest) == len("sha256:") + 64
    assert manifest["parameters"]["dataset"] == "hampton-table3"
    assert "time" not in json.dumps(manifest).lower()


def test_classicality_rerun_is_byte_identical(run_cli_json, tmp_path):
    d1, d2 = tmp_path / "one", tmp_path / "two"
    for d in (d1, d2):
        code, _, _ = run_cli_json("classicality", "--dataset", "hampton-table3",
                                  "--out-dir", d)
        assert code == 0
    for name in ("classicality.json", "classicality.csv"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
    # manifests differ only in the out-dir they record
    m1 = json.loads((d1 / "classicality_manifest.json").read_text())
    m2 = json.loads((d2 / "classicality_manifest.json").read_text())
    assert m1["inputs"] == m2["inputs"] and m1["outputs"] == m2["outputs"]


def test_classicality_accepts_input_file(run_cli_json, tmp_path):
    path = tmp_path / "rows.csv"
    path.write_text(MEMBERSHIP_CSV)
    code, payload, _ = run_cli_json("classicality", "--input", path,
                                    "--out-dir", tmp_path / "out")
    assert code == 0
    assert [r["exemplar"] for r in payload["rows"]] == ["Mint", "Mushroom"]
    mint = payload["rows"][0]
    assert mint["extension_class"] == "DoubleOverextended"
    assert mint["delta"] == pytest.approx(0.09, abs=1e-12)
    manifest = json.loads((tmp_path / "out" / "classicality_manifest.json").read_text())
    assert str(path) in manifest["inputs"]


def test_classicality_dataset_kind_mismatch_errors(run_cli):
    code, out, err = run_cli("classicality", "--dataset", "fruits-vegetables-table2",
                             "--json")
    assert code == 1 and out == ""
    info = json.loads(err)["error"]
    assert info["type"] == "ModelError"
    assert "membership" in info["message"]


def test_fock_human_and_json(run_cli, run_cli_json):
    argv = ("fock", "--mu-a", 0.87, "--mu-b", 0.81, "--mu-joint", 0.9,
            "--connective", "and")
    code, out, err = run_cli(*argv)
    assert code == 0
    assert "interference angle: 23.89 deg" in out
    assert "3-d realization: included" in out

    code, payload, _ = run_cli_json(*argv)
    assert payload["beta_deg"] == 23.8877
    assert payload["prediction_roundtrip"] == pytest.approx(0.9, abs=1e-9)
    assert payload["weights"] == {"m2": 0.3, "n2": 0.7}
    vec_a = payload["c3"]["vector_a"]
    assert len(vec_a) == 3 and len(vec_a[0]) == 2
    assert vec_a[0][0] == pytest.approx(np.sqrt(0.87), abs=1e-12)


def test_fock_infeasible_reports_machine_readable_error(run_cli):
    code, out, err = run_cli("fock", "--mu-a", 0, "--mu-b", 0.5, "--mu-joint", 0.9,
                             "--connective", "or")
    assert code == 1 and out == ""
    info = json.loads(err)["error"]
    assert info["type"] == "NoInterferenceSolution"
    assert info["argument"] == pytest.approx(1.1616754262350422, abs=1e-12)
    assert "outside [-1, 1]" in info["message"]


def test_chsh_json_payload(run_cli_json):
    code, payload, _ = run_cli_json("chsh", "--dataset", "animal-acts-table1")
    assert code == 0
    assert payload["expectations"]["AB"] == pytest.approx(-0.778, abs=1e-12)
    assert payload["s"] == pytest.approx(2.421, abs=1e-12)
    assert payload["classification"] == "QuantumViolation"
    assert payload["local_deterministic_bound"] == 2.0
    assert payload["tsirelson_bound"] == pytest.approx(2 * np.sqrt(2), abs=1e-15)
    labels = [t["label"] for t in payload["tables"]]
    assert labels == ["AB", "A'B", "AB'", "A'B'"]
    apb = payload["tables"][1]
    assert apb["normalization_deficit"] == pytest.approx(0.001, abs=1e-12)
    assert apb["count_total"] is None
    assert payload["tables"][0]["outcomes"][0] == "Horse Growls"


def test_chsh_counts_dataset_pin(run_cli_json):
    code, payload, _ = run_cli_json("chsh", "--dataset", "animal-acts-table1-counts")
    assert code == 0
    assert payload["s"] == pytest.approx(2.419753086419753, abs=1e-12)
    assert all(t["count_total"] == 81.0 for t in payload["tables"])


def test_chsh_accepts_counts_file(run_cli_json, tmp_path):
    path = tmp_path / "counts.csv"
    path.write_text(COUNTS_CSV)
    code, payload, _ = run_cli_json("chsh", "--input", path)
    assert code == 0
    assert payload["s"] == pytest.approx(2.419753086419753, abs=1e-12)


def test_chsh_missing_block_errors(run_cli, tmp_path):
    path = tmp_path / "partial.csv"
    path.write_text("\n".join(COUNTS_CSV.splitlines()[:3]) + "\n")
    code, out, err = run_cli("chsh", "--input", path, "--json")
    assert code == 1
    info = json.loads(err)["error"]
    assert "missing coincidence blocks" in info["message"]
    assert "AB'" in info["message"]


def test_disjunction_model_json(run_cli_json):
    code, payload, _ = run_cli_json("disjunction-model", "--dataset",
                                    "fruits-vegetables-table2")
    assert code == 0
    assert payload["dim"] == 25
    assert payload["sign_source"] == "supplied"
    assert payload["max_abs_prediction_error"] < 1e-5
    assert payload["sign_residual"] == pytest.approx(0.015448574874252562, abs=1e-12)
    assert "vectors" not in payload
    tomato = next(r for r in payload["rows"] if r["name"] == "Tomato")
    assert tomato["phi_deg_supplied"] == 100.7557
    # the used angle comes from the weights, not the supplied magnitude
    assert tomato["phi_deg"] == pytest.approx(96.8315, abs=1e-3)


def test_disjunction_model_emit_vectors(run_cli_json):
    code, payload, _ = run_cli_json("disjunction-model", "--dataset",
                                    "fruits-vegetables-table2", "--emit-vectors")
    assert code == 0
    for key in ("A", "B"):
        vec = payload["vectors"][key]
        assert len(vec) == 25
        assert all(len(pair) == 2 for pair in vec)
    # vector A is real throughout
    assert all(pair[1] == 0.0 for pair in payload["vectors"]["A"])


def test_wavefield_pgm_run(run_cli_json, tmp_path):
    code, payload, err = run_cli_json(
        "wavefield", "--dataset", "fruits-vegetables-table2",
        "--grid", "64x64", "--out-dir", tmp_path)
    assert code == 0 and err == ""
    names = sorted(os.listdir(tmp_path))
    assert names == [
        "wavefield_classical_average.pgm", "wavefield_classical_average.pgm.json",
        "wavefield_intensity_a.pgm", "wavefield_intensity_a.pgm.json",
        "wavefield_intensity_b.pgm", "wavefield_intensity_b.pgm.json",
        "wavefield_manifest.json", "wavefield_superposed.pgm",
        "wavefield_superposed.pgm.json",
    ]
    manifest = payload["manifest"]
    assert manifest == json.loads((tmp_path / "wavefield_manifest.json").read_text())
    params = manifest["parameters"]
    assert params["sigma_ax"] == pytest.approx(5.23818830280524, abs=1e-12)
    assert params["sigma_bx"] == pytest.approx(7.201556994189866, abs=1e-12)
    assert params["sigma_by"] == pytest.approx(2.637268261824106, abs=1e-12)
    assert params["grid"] == [64, 64]
    assert params["clamp_count"] == 0
    assert params["polynomial"]["fallback_used"] is False
    assert len(params["positions"]) == 24
    assert params["residuals"]["superposed_vs_observed"] < 1e-6
    assert params["residuals"]["constructive_pixels"] > 0
    assert params["residuals"]["destructive_pixels"] > 0


def test_wavefield_csv_format(run_cli_json, tmp_path):
    code, _, _ = run_cli_json(
        "wavefield", "--dataset", "fruits-vegetables-table2",
        "--grid", "16x16", "--format", "csv", "--out-dir", tmp_path)
    assert code == 0
    names = sorted(os.listdir(tmp_path))
    assert names == [
        "wavefield_classical_average.csv", "wavefield_intensity_a.csv",
        "wavefield_intensity_b.csv", "wavefield_manifest.json",
        "wavefield_superposed.csv",
    ]
    lines = (tmp_path / "wavefield_superposed.csv").read_text().splitlines()
    assert lines[0] == "x,y,value" and len(lines) == 1 + 16 * 16


def test_wavefield_rerun_is_byte_identical(run_cli_json, tmp_path):
    d1, d2 = tmp_path / "one", tmp_path / "two"
    for d in (d1, d2):
        code, _, _ = run_cli_json("wavefield", "--dataset", "fruits-vegetables-table2",
                                  "--grid", "32x32", "--out-dir", d)
        assert code == 0
    for name in os.listdir(d1):
        if name == "wavefield_manifest.json":
            continue    # records the differing out-dir
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


@pytest.mark.parametrize("umask", [0o022, 0o027])
def test_artifacts_honour_the_umask(run_cli_json, tmp_path, umask):
    old = os.umask(umask)
    try:
        code, _, _ = run_cli_json("classicality", "--dataset", "hampton-table3",
                                  "--out-dir", tmp_path)
        assert code == 0
        code, _, _ = run_cli_json("wavefield", "--dataset", "fruits-vegetables-table2",
                                  "--grid", "16x16", "--out-dir", tmp_path)
        assert code == 0
    finally:
        os.umask(old)
    for name in ("classicality.json", "classicality_manifest.json",
                 "wavefield_superposed.pgm", "wavefield_superposed.pgm.json"):
        assert (tmp_path / name).stat().st_mode & 0o777 == 0o666 & ~umask, name


def test_out_dir_env_fallback_and_flag_precedence(run_cli_json, tmp_path, monkeypatch):
    env_dir = tmp_path / "from-env"
    flag_dir = tmp_path / "from-flag"
    monkeypatch.setenv("QCONCEPTS_OUT_DIR", str(env_dir))
    code, _, _ = run_cli_json("classicality", "--dataset", "hampton-table3-conjunction")
    assert code == 0
    assert (env_dir / "classicality.json").exists()
    code, _, _ = run_cli_json("classicality", "--dataset", "hampton-table3-conjunction",
                              "--out-dir", flag_dir)
    assert code == 0
    assert (flag_dir / "classicality.json").exists()
    rows = json.loads((flag_dir / "classicality.json").read_text())
    assert len(rows) == 14


def test_version_flag(run_cli):
    with pytest.raises(SystemExit) as exc_info:
        run_cli("--version")
    assert exc_info.value.code == 0


def test_missing_input_file_is_a_data_error(run_cli, tmp_path):
    code, out, err = run_cli("classicality", "--input", tmp_path / "absent.csv",
                             "--out-dir", tmp_path, "--json")
    assert code == 1
    info = json.loads(err)["error"]
    assert info["type"] == "DataError"
    assert "cannot read" in info["message"]


def test_out_dir_naming_a_file_is_a_model_error(run_cli, tmp_path):
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory")
    code, out, err = run_cli("classicality", "--dataset", "hampton-table3",
                             "--out-dir", blocker, "--json")
    assert code == 1 and out == ""
    info = json.loads(err)["error"]
    assert info["type"] == "ModelError"
    assert str(blocker) in info["message"] and "File exists" in info["message"]


def test_unwritable_output_is_a_model_error_and_leaves_no_temp_file(run_cli, tmp_path):
    # a directory squatting on the report's name makes the final rename fail
    (tmp_path / "classicality.json").mkdir()
    code, out, err = run_cli("classicality", "--dataset", "hampton-table3",
                             "--out-dir", tmp_path, "--json")
    assert code == 1 and out == ""
    info = json.loads(err)["error"]
    assert info["type"] == "ModelError"
    assert "cannot write" in info["message"] and "classicality.json" in info["message"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["classicality.json"]


def test_non_utf8_input_is_a_data_error(run_cli, tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(MEMBERSHIP_CSV.replace("Mint", "Mint\xff").encode("latin-1"))
    code, out, err = run_cli("classicality", "--input", path, "--out-dir", tmp_path,
                             "--json")
    assert code == 1 and out == ""
    info = json.loads(err)["error"]
    assert info["type"] == "DataError"
    assert "UTF-8" in info["message"] and str(path) in info["message"]


def test_fock_nan_weight_is_rejected_not_printed(run_cli):
    code, out, err = run_cli("fock", "--mu-a", 0.87, "--mu-b", 0.81, "--mu-joint", 0.9,
                             "--connective", "and", "--m2", "nan", "--json")
    assert code == 1 and out == ""
    assert "finite" in json.loads(err)["error"]["message"]


def test_exemplar_nan_phase_is_rejected_not_printed(run_cli, tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("index,name,muA,muB,muAorB,phi_deg\n"
                    "1,Almond,0.0359,0.0133,0.0269,83.8854\n"
                    "2,Acorn,0.0425,0.0108,0.0249,nan\n")
    code, out, err = run_cli("disjunction-model", "--input", path, "--json")
    assert code == 1 and out == ""
    info = json.loads(err)["error"]
    assert info["type"] == "DataError" and info["line"] == 3
    assert "phi" in info["message"]
