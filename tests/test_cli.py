"""End-to-end CLI behavior: verbs, JSON payloads, exit codes, manifests."""
from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qconcepts
from qconcepts import classicality, cli, datasets, disjunction_model, wavefield

COUNTS_CSV = """\
experiment,outcome11,outcome12,outcome21,outcome22
AB,4,51,21,5
A'B,63,7,7,4
AB',48,2,24,7
A'B',12,7,8,54
"""

LOCAL_BOUND_CSV = """\
experiment,outcome11,outcome12,outcome21,outcome22
AB,0.18,0.19,0.13,0.5
A'B,0.66,0.12,0,0.22
AB',0.09,0.01,0.16,0.74
A'B',0.44,0.03,0,0.53
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


# sha256 of bundled outputs that are pure IEEE arithmetic (no libm exp, sin
# or arccos, whose last bit may vary by platform); these bytes are frozen
BUNDLED_DIGESTS = {
    ("classicality", "--dataset", "hampton-table3", "--out-dir", "out", "--json"): {
        "stdout": "58e62f33c6c70a0088e7ba5203756b0077923dfcf528021146ce6e63e2518d7e",
        "out/classicality.json":
            "16fea0d20c3c7a7230ca4becf23f82248b27032b2eac7adc1dd09f597288410e",
        "out/classicality.csv":
            "8454715c2f07415c5bbd5a69272a3091c789b063038f87f2a73bf6a44b8da823",
        "out/classicality_manifest.json":
            "5ebe1d2af21fd9ba2b18e34ec9460b825bc822c63e365786395570c908e814b6",
    },
    ("classicality", "--dataset", "hampton-table3-conjunction", "--out-dir", "out", "--json"): {
        "stdout": "dd21d63766e2732134ebacd8aa123d87aec556fc5b4833211c4d38fccf9f8b52",
        "out/classicality.json":
            "665144a21c4d737c0d7e5ed92115ba6d6f79a1de2d1a8c6953254ea16470282e",
        "out/classicality.csv":
            "2a48a1d0bebdfe25e97a7407cbf107784b451bd93bc382c4cee26050c54688e0",
        "out/classicality_manifest.json":
            "5cc349cfe95854b459f862bbdd3c2ce6325fc3ddccfd522209c47be7bea7b3d9",
    },
    ("chsh", "--dataset", "animal-acts-table1", "--json"): {
        "stdout": "81f9daf2567659cfb4cd81622655c7641ebddfabacf990be98a8298ca89f78bd",
    },
    ("datasets", "--json"): {
        "stdout": "882e72456203ac996f11470e0a36e6e86c8dbca18d7468f481f77bca60cde287",
    },
}


def _digest_id(argv):
    """The verb, and for a Table 3 connective view the view's suffix."""
    return argv[0] + (argv[2].removeprefix("hampton-table3") if argv[0] == "classicality" else "")


@pytest.mark.parametrize("argv", list(BUNDLED_DIGESTS), ids=_digest_id)
def test_bundled_outputs_keep_their_bytes(run_cli, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)     # fixes the argv and out_dir the manifest records
    code, out, err = run_cli(*argv)
    assert code == 0 and err == ""
    data = {"stdout": out.encode()}
    data.update((name, (tmp_path / name).read_bytes())
                for name in BUNDLED_DIGESTS[argv] if name != "stdout")
    digests = {name: hashlib.sha256(blob).hexdigest() for name, blob in data.items()}
    assert digests == BUNDLED_DIGESTS[argv]


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


def test_classicality_skips_a_byte_order_mark_and_hashes_the_bytes_read(run_cli_json,
                                                                         tmp_path):
    path = tmp_path / "rows.csv"
    data = b"\xef\xbb\xbf" + MEMBERSHIP_CSV.encode()
    path.write_bytes(data)
    code, payload, err = run_cli_json("classicality", "--input", path,
                                      "--out-dir", tmp_path / "out")
    assert code == 0, err
    assert [r["exemplar"] for r in payload["rows"]] == ["Mint", "Mushroom"]
    manifest = json.loads((tmp_path / "out" / "classicality_manifest.json").read_text())
    assert manifest["inputs"] == {str(path): "sha256:" + hashlib.sha256(data).hexdigest()}


CLASSICALITY_HEADER = ["exemplar", "conceptA", "conceptB", "muA", "muB", "muJoint",
                       "connective", "delta", "k", "f", "classical", "extension_class"]


def _membership_input(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["exemplar", "conceptA", "conceptB", "muA", "muB", "muJoint", "connective"])
    writer.writerows(rows)
    return buf.getvalue()


def _odd_membership_rows():
    """Seeded rows whose names hold non-ASCII text, backslashes, quotes and commas,
    and whose weights repr in exponent form or as a signed zero."""
    rng = np.random.default_rng(11)
    alphabet = list('ab Zé日☃\\",%{}') + ["\u00e9t\u00e9", "\\n", "\U0001f600"]
    weights = [1e-05, 2.5e-07, 0.0, -0.0, 1.0, 0.5, 0.1 + 0.2]

    def name():
        return "x" + "".join(rng.choice(alphabet, size=rng.integers(0, 6)))

    rows = []
    for _ in range(60):
        mu = [repr(weights[i]) if i < len(weights) else repr(round(rng.random(), 4))
              for i in rng.integers(0, 2 * len(weights), size=3)]
        rows.append([name(), name(), name(), *mu, rng.choice(["and", "or"])])
    return rows


def _row_tuples(cols):
    """The rows of ``MembershipColumns`` as 7-tuples of str and float."""
    names = np.array(cols.names, dtype=object)
    return list(zip(*(names[c].tolist() for c in (cols.exemplar, cols.concept_a, cols.concept_b)),
                    cols.mu_a.tolist(), cols.mu_b.tolist(), cols.mu_joint.tolist(),
                    np.where(cols.is_and, "and", "or").tolist()))


def _reference_classicality(rows):
    """The records, CSV and payload as json.dumps and csv.writer write them."""
    records = []
    for exemplar, concept_a, concept_b, mu_a, mu_b, mu_joint, connective in rows:
        diagnostics = (classicality.conjunction_diagnostics if connective == "and"
                       else classicality.disjunction_diagnostics)
        r = diagnostics(mu_a, mu_b, mu_joint)
        records.append({
            "exemplar": exemplar, "conceptA": concept_a, "conceptB": concept_b,
            "muA": mu_a, "muB": mu_b, "muJoint": mu_joint, "connective": connective,
            "delta": r.delta, "k": r.kolmogorov_factor, "f": r.interference_need,
            "classical": r.classical_representable,
            "extension_class": r.extension_class.value,
        })
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CLASSICALITY_HEADER)
    for rec in records:
        writer.writerow([rec[key] if isinstance(rec[key], str) else repr(rec[key])
                         for key in CLASSICALITY_HEADER[:-2]]
                        + ["true" if rec["classical"] else "false", rec["extension_class"]])
    payload = {"rows": records, "outputs": ["classicality.csv", "classicality.json"]}
    return (json.dumps(records, indent=2, sort_keys=True) + "\n", buf.getvalue(),
            json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _large_membership_rows(quoted, n=5000):
    """``n`` seeded rows drawing names and weights from small pools, as a survey
    table repeats them; with ``quoted`` some names need CSV quotes."""
    rng = np.random.default_rng(23)
    names = ["Mint", "Root Ginger", "Synagoge", "Deck Chair", "é日", "a\\b"]
    if quoted:
        names += ["Tomato, cherry", 'Say "hi"']
    weights = [repr(round(x, 4)) for x in rng.random(40).tolist()] + [
        "0.0", "-0.0", "1.0", "1e-05", "5e-324", repr(0.1 + 0.2)]
    pick = rng.integers(0, [len(names)] * 3 + [len(weights)] * 3 + [2], size=(n, 7))
    return [[names[i] for i in p[:3]] + [weights[i] for i in p[3:6]] + [("and", "or")[p[6]]]
            for p in pick.tolist()]


# table sizes about the chunk size of the streamed text: one row, exactly
# one chunk, and one chunk and one row
_CHUNK_EDGES = {f"table-{n}": n for n in (1, cli.ROWS_PER_CHUNK, cli.ROWS_PER_CHUNK + 1)}


@pytest.mark.parametrize("source", ["hampton-table3", "no-rows", "odd-names", *_CHUNK_EDGES,
                                    "table-5000", "table-5000-quoted"])
def test_classicality_outputs_match_json_dumps_and_csv_writer(run_cli, tmp_path, source):
    if source == "hampton-table3":
        args = ("--dataset", source)
        rows = _row_tuples(datasets.load_dataset(source).rows)
    elif source.startswith("table-"):
        rows = _large_membership_rows(quoted=source.endswith("quoted"),
                                      n=_CHUNK_EDGES.get(source, 5000))
        path = tmp_path / "in.csv"
        path.write_text(_membership_input(rows), encoding="utf-8")
        args = ("--input", path)
        rows = [(*r[:3], *map(float, r[3:6]), r[6]) for r in rows]
    else:
        path = tmp_path / "in.csv"
        path.write_text(_membership_input(_odd_membership_rows() if source == "odd-names"
                                          else []), encoding="utf-8")
        args = ("--input", path)
        rows = _row_tuples(datasets.load_membership_csv(path))
    code, out, err = run_cli("classicality", *args, "--out-dir", tmp_path / "out", "--json")
    assert code == 0 and err == ""
    want_json, want_csv, want_stdout = _reference_classicality(rows)
    assert (tmp_path / "out" / "classicality.json").read_bytes() == want_json.encode()
    got_csv = (tmp_path / "out" / "classicality.csv").read_bytes().decode("utf-8")
    assert got_csv == want_csv
    assert out == want_stdout
    # numpy 2 scalars repr as np.float64(...); only plain float reprs may reach the CSV
    assert "np." not in got_csv
    if source == "hampton-table3":
        # no bundled name needs quoting, so the CSV is the plain comma join
        assert '"' not in got_csv
    if source in ("odd-names", "table-5000-quoted"):
        assert "1e-05" in got_csv and "-0.0" in got_csv and '"' in got_csv


_float_pool = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e16,
                               -1e16, 1e-05, 0.1 + 0.2, math.nan, math.inf, -math.inf])


@settings(derandomize=True, deadline=None)
@given(values=st.lists(st.one_of(_float_pool, _float_pool, st.floats()), max_size=40))
@example(values=[0.0, -0.0, 0.0, 5e-324, -5e-324, 1e16, -0.0, 1e-05])
@example(values=[-0.0, 0.0, math.nan, math.inf, -math.inf, 0.0])
def test_memoised_float_text_equals_json_floats(values):
    want = [json.dumps(v) for v in values]
    assert cli._json_float_column(values) == want
    assert cli._json_float_column(np.array(values, dtype=float)) == want
    # a strided view, as the parts of a complex vector are
    assert cli._json_float_column(np.array(values, dtype=complex).real) == want
    finite = [v for v in values if math.isfinite(v)]
    assert cli._json_float_column(np.array(finite + finite[::-1])) == \
        [json.dumps(v) for v in finite + finite[::-1]]


def test_classicality_csv_quotes_fields_that_need_it(run_cli, tmp_path):
    path = tmp_path / "in.csv"
    path.write_text(MEMBERSHIP_CSV + '"Tomato, cherry",Fruits,Vegetables,0.7,0.7,0.9,or\n'
                    'Say "hi",A\\B,"""Big"" apple",0.5,0.5,0.25,and\n', encoding="utf-8")
    code, _, _ = run_cli("classicality", "--input", path, "--out-dir", tmp_path, "--json")
    assert code == 0
    with open(tmp_path / "classicality.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == CLASSICALITY_HEADER
    assert all(len(row) == len(CLASSICALITY_HEADER) for row in rows)
    assert [row[:3] for row in rows[1:]] == [
        ["Mint", "Food", "Plant"], ["Mushroom", "Fruits", "Vegetables"],
        ["Tomato, cherry", "Fruits", "Vegetables"], ['Say "hi"', "A\\B", '"Big" apple']]
    r = classicality.disjunction_diagnostics(0.7, 0.7, 0.9)
    assert rows[3][3:] == ["0.7", "0.7", "0.9", "or", repr(r.delta), repr(r.kolmogorov_factor),
                           repr(r.interference_need), "true", "None"]


def test_classicality_json_call_holds_its_rows_text_once(tmp_path):
    # the rows text is kept once, as chunks, for the JSON file and stdout;
    # the CSV and the re-indented stdout are streamed chunk by chunk
    path = tmp_path / "in.csv"
    path.write_text(_membership_input(_large_membership_rows(quoted=True, n=20000)),
                    encoding="utf-8")
    argv = ["classicality", "--input", str(path), "--out-dir", str(tmp_path / "out"), "--json"]
    with open(tmp_path / "stdout.txt", "w", encoding="utf-8") as out, \
            contextlib.redirect_stdout(out):
        tracemalloc.start()
        try:
            code = cli.main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0
    size = (tmp_path / "out" / "classicality.json").stat().st_size
    assert peak < 4 * size, f"peak {peak} bytes against a {size}-byte classicality.json"


@pytest.mark.parametrize("mode", ["--json", "human"])
def test_closed_stdout_is_one_json_error_and_no_traceback(tmp_path, mode):
    # far more than a pipe buffer of stdout (5 MiB of JSON, 1.2 MiB of human
    # report), read by nobody: the first write that does not fit fails with EPIPE
    path = tmp_path / "in.csv"
    path.write_text(_membership_input(_large_membership_rows(quoted=False, n=15000)),
                    encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(Path(qconcepts.__file__).parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "qconcepts.cli", "classicality", "--input", str(path),
         "--out-dir", str(tmp_path / "out"), *([mode] if mode == "--json" else [])],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == 1
    assert (tmp_path / "out" / "classicality.json").stat().st_size > 2 ** 20
    assert "Traceback" not in err and "Exception ignored" not in err
    assert json.loads(err)["error"]["type"] == "BrokenPipeError"


def _with_signed_zero_imaginary_parts(build, built):
    """build_model, then every 7th component of vector B gets imaginary part -0.0;
    each model returned is appended to ``built``."""
    def wrapped(rows):
        model = build(rows)
        vector_b = model.vector_b.copy()
        vector_b.imag[::7] = -0.0
        built.append(dataclasses.replace(model, vector_b=vector_b))
        return built[-1]
    return wrapped


@pytest.mark.parametrize("source", ["table2", "table2-vectors", "searched-signs",
                                    "vectors-3000", "vectors-one-chunk"])
def test_disjunction_model_stdout_is_json_dumps_of_its_payload(run_cli, tmp_path, monkeypatch,
                                                              source):
    # one chunk of rows, and vectors of one chunk and one element
    n_rows = {"searched-signs": 40, "vectors-3000": 3000,
              "vectors-one-chunk": cli.ROWS_PER_CHUNK}.get(source, 24)
    if source.startswith("vectors-"):
        rng = np.random.default_rng(8)
        mu_a, mu_b = rng.dirichlet(np.ones(n_rows)), rng.dirichlet(np.ones(n_rows))
        phi = rng.uniform(-np.pi, np.pi, n_rows)
        mu_or = 0.5 * (mu_a + mu_b) + np.sqrt(mu_a * mu_b) * np.cos(phi)
        path = tmp_path / "x.csv"
        path.write_text("index,name,muA,muB,muAorB,phi_deg\n" + "".join(
            f"{i + 1},x{i},{a!r},{b!r},{o!r},{p!r}\n" for i, (a, b, o, p) in enumerate(zip(
                mu_a.tolist(), mu_b.tolist(), mu_or.tolist(), np.degrees(phi).tolist()))))
        args = ["--input", path, "--emit-vectors"]
        # the model itself never yields -0.0 (a real times e^{i phi} adds +0.0), so
        # put some in to pin that the encoder keeps them apart from 0.0
        monkeypatch.setattr(disjunction_model, "build_model", _with_signed_zero_imaginary_parts(
            disjunction_model.build_model, built := []))
    elif source == "searched-signs":
        rng = np.random.default_rng(5)
        mu_a, mu_b = rng.dirichlet(np.ones(40)), rng.dirichlet(np.ones(40))
        mu_or = 0.5 * (mu_a + mu_b) + np.sqrt(mu_a * mu_b) * np.cos(rng.uniform(0, np.pi, 40))
        path = tmp_path / "x.csv"
        path.write_text("index,name,muA,muB,muAorB\n" + "".join(
            f"{i + 1},x\u00e9{i},{a!r},{b!r},{max(o, 0.0)!r}\n"
            for i, (a, b, o) in enumerate(zip(mu_a.tolist(), mu_b.tolist(), mu_or.tolist()))))
        args = ["--input", path]
    else:
        args = ["--dataset", "fruits-vegetables-table2"]
        if source == "table2-vectors":
            args.append("--emit-vectors")
    code, out, err = run_cli("disjunction-model", *args, "--json")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert len(payload["rows"]) == n_rows
    # each row's angle and error as one phase and one prediction give them
    table = (datasets.load_exemplar_csv(args[1]) if args[0] == "--input"
             else datasets.load_dataset(args[1]).rows)
    phases = disjunction_model.build_model(table).phases
    rows = payload["rows"]
    assert [r["phi_deg"] for r in rows] == cli._deg_json(phases)
    assert [r["abs_error"] for r in rows] == [abs(r["prediction"] - r["muAorB"]) for r in rows]
    assert payload["max_abs_prediction_error"] == max(r["abs_error"] for r in rows)
    if source.startswith("vectors-"):
        vectors = {label: [[z.real, z.imag] for z in vec.tolist()]
                   for label, vec in (("A", built[0].vector_a), ("B", built[0].vector_b))}
        assert payload["vectors"] == vectors
        signs = [[math.copysign(1.0, x) for pair in vectors[label] for x in pair]
                 for label in ("A", "B")]
        assert [[math.copysign(1.0, x) for pair in payload["vectors"][label] for x in pair]
                for label in ("A", "B")] == signs
        assert any(im == 0.0 and math.copysign(1.0, im) < 0 for _, im in vectors["B"])


def test_classicality_loads_its_table_through_one_named_loader(run_cli, tmp_path, monkeypatch):
    """``--input`` and ``--dataset`` each call one public loader once, so a span
    wrapped around the loaders by name times every table the verb reads."""
    calls = Counter()

    def counting(name):
        original = getattr(datasets, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in ("load_membership_csv", "load_dataset"):
        monkeypatch.setattr(datasets, name, counting(name))
    path = tmp_path / "rows.csv"
    path.write_text(MEMBERSHIP_CSV)
    for source, loader in ((("--input", path), "load_membership_csv"),
                           (("--dataset", "hampton-table3"), "load_dataset")):
        calls.clear()
        code, _, _ = run_cli("classicality", *source, "--out-dir", tmp_path / "out", "--json")
        assert code == 0 and calls == {loader: 1}


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


def test_fock_without_c3_realization(run_cli, run_cli_json):
    # muA + muB < 1: the angle exists, the 3-d vectors do not
    argv = ("fock", "--mu-a", 0.3, "--mu-b", 0.4, "--mu-joint", 0.45, "--connective", "or")
    code, out, err = run_cli(*argv)
    assert code == 0 and err == ""
    assert out.endswith("3-d realization: not applicable (needs muA > 0 and muA + muB >= 1)\n")

    code, payload, _ = run_cli_json(*argv)
    assert code == 0
    assert payload["c3"] is None
    assert payload["prediction_roundtrip"] == pytest.approx(0.45, abs=1e-12)


def test_fock_refuses_c3_where_the_weights_only_round_up_to_one(run_cli, run_cli_json):
    # muA + muB is 1.0 as a float but short of 1 by 1.5e-3 of muA: no 3-d
    # vectors, rather than an unnormalized |B>
    argv = ("fock", "--mu-a", 8.087501613431206e-15, "--mu-b", 0.9999999999999919,
            "--mu-joint", 0.35, "--connective", "and")
    code, out, err = run_cli(*argv)
    assert code == 0 and err == ""
    assert out.endswith("3-d realization: not applicable (needs muA > 0 and muA + muB >= 1)\n")
    code, payload, err = run_cli_json(*argv)
    assert code == 0 and err == ""
    assert payload["c3"] is None and payload["beta_deg"] == 90.0


def test_fock_prediction_outside_the_unit_interval_prints_no_warning(tmp_path):
    # the round trip lands a few ulps below 0; a fresh process shows anything
    # Python's default warning filters would print on stderr
    env = dict(os.environ, PYTHONPATH=str(Path(qconcepts.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "qconcepts.cli", "fock", "--mu-a", "0.01", "--mu-b", "0.01",
         "--mu-joint", "0", "--connective", "or", "--json"],
        capture_output=True, text=True, env=env, cwd=tmp_path, check=False)
    assert proc.returncode == 0 and proc.stderr == ""
    assert json.loads(proc.stdout)["prediction_roundtrip"] == pytest.approx(0.0, abs=1e-12)


def test_chsh_tables_at_the_local_bound_are_classical(run_cli_json, tmp_path):
    # s = 0.94 + 0.76 + 0.66 - 0.36 = 2 in decimal; the float sum is one ulp above
    path = tmp_path / "boundary.csv"
    path.write_text(LOCAL_BOUND_CSV)
    code, payload, _ = run_cli_json("chsh", "--input", path)
    assert code == 0
    assert payload["s"] == pytest.approx(2.0, abs=1e-12)
    assert payload["classification"] == "Classical"


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


@pytest.mark.parametrize("rows, message", [
    (["AB,4,51,21,5"], "duplicate coincidence block 'AB'"),
    (["ZZ,2,2,2,2", "AA,2,2,2,2"], "unexpected coincidence blocks: AA, ZZ"),
])
def test_chsh_block_rule_errors(run_cli, tmp_path, rows, message):
    path = tmp_path / "blocks.csv"
    path.write_text(COUNTS_CSV + "\n".join(rows) + "\n")
    code, out, err = run_cli("chsh", "--input", path, "--json")
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": {"type": "ModelError", "message": message}}


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


def test_disjunction_model_formats_its_human_report_only_when_printed(run_cli, monkeypatch):
    calls = Counter()
    sig = cli._sig
    monkeypatch.setattr(cli, "_sig", lambda x: calls.update(["sig"]) or sig(x))
    code, out, _ = run_cli("disjunction-model", "--dataset", "fruits-vegetables-table2", "--json")
    assert code == 0 and json.loads(out)["dim"] == 25 and calls["sig"] == 0
    code, out, _ = run_cli("disjunction-model", "--dataset", "fruits-vegetables-table2")
    lines = out.splitlines()
    assert code == 0 and len(lines) == 4 + 24 and calls["sig"] == 3 + 2 * 24
    assert lines[0] == "25-dimensional model over 24 exemplars"
    assert lines[4].split()[1] == "Almond"


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


def test_disjunction_model_prints_any_integer_index_verbatim(run_cli, tmp_path):
    # Python ints throughout: 10**20 is beyond int64
    path = tmp_path / "x.csv"
    path.write_text("index,name,muA,muB,muAorB\n"
                    "100000000000000000000,X,0.3,0.2,0.3\n-3,Y,0.25,0.3,0.2\n")
    code, out, err = run_cli("disjunction-model", "--input", path, "--json")
    assert code == 0 and err == ""
    assert [r["index"] for r in json.loads(out)["rows"]] == [10 ** 20, -3]
    assert '"index": 100000000000000000000,' in out and '"index": -3,' in out
    code, out, err = run_cli("disjunction-model", "--input", path)
    assert code == 0 and err == ""
    assert [line.split()[0] for line in out.splitlines()[4:]] == ["100000000000000000000", "-3"]


def _table2_without_comments(tmp_path):
    """Table 2's file with its comment lines dropped: a plain comma table."""
    text = datasets.dataset_file_bytes("fruits-vegetables-table2").decode("utf-8")
    path = tmp_path / "table2.csv"
    path.write_text("".join(line for line in text.splitlines(keepends=True)
                            if not line.startswith("#")), encoding="utf-8")
    return path


def test_a_plain_table2_input_gives_the_bundled_outputs(run_cli, tmp_path):
    path = _table2_without_comments(tmp_path)
    runs = {}
    for source in (("--input", path), ("--dataset", "fruits-vegetables-table2")):
        code, out, err = run_cli("disjunction-model", *source, "--json", "--emit-vectors")
        assert code == 0 and err == ""
        out_dir = tmp_path / source[0].strip("-")
        code, _, err = run_cli("wavefield", *source, "--grid", "64x48", "--format", "csv",
                               "--out-dir", out_dir, "--json")
        assert code == 0 and err == ""
        runs[source[0]] = out, {p.name: p.read_bytes() for p in out_dir.glob("*.csv")}
    assert len(runs["--input"][1]) == 4
    assert runs["--input"] == runs["--dataset"]


@pytest.mark.parametrize("col, cell, message, column", [
    (2, "abc", "muA is not a number: 'abc'", "muA"),
    (2, "1.5", "Raisin: muA must lie in [0, 1], got 1.5", "muA"),
    (5, "200", "Raisin: phi must lie in [-180, 180] degrees", "phi_deg"),
    # a quoted name longer than the csv module's field limit
    (1, '"' + "x" * (csv.field_size_limit() + 1) + '"',
     f"malformed CSV: field larger than field limit ({csv.field_size_limit()})", None),
], ids=["weight-not-a-number", "weight-out-of-range", "phi-out-of-range",
        "name-over-the-field-limit"])
def test_a_bad_sixth_row_is_a_data_error_at_its_line(run_cli, tmp_path, col, cell, message,
                                                      column):
    # field col of the sixth row (line 7) of Table 2 without its comments
    path = _table2_without_comments(tmp_path)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    fields = lines[6].rstrip("\n").split(",")
    lines[6] = ",".join([*fields[:col], cell, *fields[col + 1:]]) + "\n"
    path.write_text("".join(lines), encoding="utf-8")
    code, out, err = run_cli("disjunction-model", "--input", path, "--json")
    assert code == 1 and out == ""
    want = {"type": "DataError", "message": f"{path}: {message}", "line": 7}
    if column is not None:
        want["column"] = column
    assert json.loads(err) == {"error": want}


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


@pytest.mark.parametrize("grid", [(), ("--grid", "48x32")], ids=["default", "48x32"])
def test_wavefield_manifest_extent_is_the_rasters_own(run_cli_json, tmp_path, grid):
    code, payload, _ = run_cli_json("wavefield", "--dataset", "fruits-vegetables-table2",
                                    *grid, "--out-dir", tmp_path)
    assert code == 0
    sidecar = json.loads((tmp_path / "wavefield_superposed.pgm.json").read_text())
    assert payload["manifest"]["parameters"]["extent"] == sidecar["extent"]
    assert [sidecar["nx"], sidecar["ny"]] == payload["manifest"]["parameters"]["grid"]


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


def test_fock_weight_out_of_range_is_a_model_error_with_no_column(run_cli):
    code, out, err = run_cli("fock", "--mu-a", 1.5, "--mu-b", 0.5, "--mu-joint", 0.5,
                             "--connective", "or", "--json")
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": {"type": "ModelError",
                                         "message": "muA must lie in [0, 1], got 1.5"}}


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


def _reject_constant(name):
    raise ValueError(f"not valid JSON: {name}")


@pytest.mark.parametrize("verb", ["disjunction-model", "wavefield"])
@pytest.mark.parametrize("weights", ["1e-320,1e-05,5e-06", "1e-200,1e-200,1e-200"])
def test_underflowing_weight_product_is_a_json_model_error(run_cli, tmp_path, verb, weights):
    # muA * muB rounds to 0, so no phase solves the Born relation for the row
    path = tmp_path / "x.csv"
    path.write_text(f"index,name,muA,muB,muAorB\n1,Tiny,{weights}\n2,Big,0.5,0.5,0.5\n")
    out_dir = ("--out-dir", tmp_path / "out") if verb == "wavefield" else ()
    code, out, err = run_cli(verb, "--input", path, *out_dir, "--json")
    assert code == 1 and out == ""
    info = json.loads(err, parse_constant=_reject_constant)["error"]
    assert info["type"] == "ModelError"
    assert info["message"] == "Tiny: phase undefined: muA * muB underflows to 0"


def test_a_b_peak_tied_with_the_a_peak_is_a_json_placement_error(run_cli, tmp_path):
    # the row with the largest muB ties the first row with the largest muA,
    # so B's anchor sits on A's peak level and pins no width
    path = tmp_path / "x.csv"
    path.write_text("index,name,muA,muB,muAorB\n1,Apex,0.4,0.1,0.25\n"
                    "2,Twin,0.4,0.5,0.45\n3,Low,0.2,0.4,0.3\n")
    code, out, err = run_cli("wavefield", "--input", path, "--out-dir", tmp_path / "out", "--json")
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": {
        "type": "PlacementError", "message": "anchor rows must differ in weight from the peaks"}}
    assert not (tmp_path / "out").exists()


def test_overflowing_peak_ratio_is_one_json_error_on_stderr(tmp_path):
    # the model builds, but the width fit's 0.5 / 1e-320 overflows; a fresh
    # process shows whatever numpy would print on stderr besides the error
    path = tmp_path / "x.csv"
    path.write_text("index,name,muA,muB,muAorB\n1,Tiny,1e-320,0.5,0.25\n2,Big,0.5,0.4,0.45\n")
    env = dict(os.environ, PYTHONPATH=str(Path(qconcepts.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "qconcepts.cli", "wavefield", "--input", str(path),
         "--out-dir", str(tmp_path / "out"), "--json"],
        capture_output=True, text=True, env=env, check=False)
    assert proc.returncode == 1 and proc.stdout == ""
    assert json.loads(proc.stderr) == {"error": {
        "type": "ModelError",
        "message": "muA weight 1e-320 is too small: its ratio to the peak 0.5 overflows"}}


def test_wavefield_error_in_a_raster_helper_is_one_json_error(run_cli, tmp_path,
                                                             fail_in_a_helper):
    code, out, err = run_cli("wavefield", "--dataset", "fruits-vegetables-table2",
                             "--out-dir", tmp_path, "--json")
    assert fail_in_a_helper and code == 1 and out == ""
    assert json.loads(err) == {"error": {"type": "ModelError",
                                         "message": "block failed in a helper"}}


def test_oversize_grid_is_a_json_model_error(run_cli, tmp_path):
    # numpy refuses an axis of 2**62 points before allocating anything
    code, out, err = run_cli("wavefield", "--dataset", "fruits-vegetables-table2",
                             "--grid", f"2x{2 ** 62}", "--out-dir", tmp_path, "--json")
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": {
        "type": "ModelError", "message": f"grid 2x{2 ** 62} is too large to allocate"}}
    assert list(tmp_path.iterdir()) == []


def test_grid_over_the_pixel_limit_is_refused_before_any_work(run_cli, tmp_path, monkeypatch):
    # a table load or a raster allocation would fail the test; a grid this
    # size is never allocated here, since it may fit in memory or not
    def refuse(*args, **kwargs):
        raise AssertionError("a grid over the limit reached past the check")

    monkeypatch.setattr(np, "empty", refuse)
    monkeypatch.setattr(cli, "_dataset_rows", refuse)
    nx, ny = 8192, wavefield.MAX_GRID_PIXELS // 8192 + 1
    code, out, err = run_cli("wavefield", "--dataset", "fruits-vegetables-table2",
                             "--grid", f"{nx}x{ny}", "--out-dir", tmp_path, "--json")
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": {
        "type": "ModelError", "message": f"grid {nx}x{ny} is too large to allocate"}}
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("verb", ["disjunction-model", "wavefield"])
def test_column_sum_error_prints_a_plain_float(run_cli, tmp_path, verb):
    path = tmp_path / "x.csv"
    path.write_text("index,name,muA,muB,muAorB\n1,A,0.5,0.5,0.5\n2,B,0.8,0.5,0.5\n")
    out_dir = ("--out-dir", tmp_path / "out") if verb == "wavefield" else ()
    code, out, err = run_cli(verb, "--input", path, *out_dir, "--json")
    assert code == 1 and out == ""
    assert json.loads(err)["error"]["message"] == \
        "muA column sums to 1.3; not a choose-one experiment"


# cells the argv fuzz puts in place of Table 2's: non-finite, extreme, signed
# zero, out of range and not a number
FUZZ_CELLS = ("nan", "inf", "5e-324", "1e308", "-0.0", "-1", "2", "abc", "")


def _fuzz_argv(rng, verb, lines, tmp_path, case):
    """One seeded argv for verb: a table of 1-6 Table 2 rows (fock: one row's
    weights) with up to two cells replaced from FUZZ_CELLS."""
    rows = [line.split(",") for line in rng.sample(lines[1:], rng.randint(1, 6))]
    if verb == "fock":
        rows = [rows[0][2:5]]       # muA, muB, muAorB
    for _ in range(rng.choice((0, 0, 1, 2))):
        row = rng.choice(rows)
        row[rng.randrange(len(row))] = rng.choice(FUZZ_CELLS)
    flags = ("--json",) if rng.random() < 0.5 else ()
    if verb == "fock":
        mu_a, mu_b, mu_or = rows[0]
        return ("fock", "--mu-a", mu_a, "--mu-b", mu_b, "--mu-joint", mu_or,
                "--connective", "or", *flags)
    path = tmp_path / f"{case}.csv"
    path.write_text("".join(",".join(row) + "\n" for row in [lines[0].split(","), *rows]),
                    encoding="utf-8")
    if verb == "disjunction-model":
        return verb, "--input", path, *flags
    grid = f"{rng.randint(2, 64)}x{rng.randint(2, 64)}"
    return (verb, "--input", path, "--grid", grid, "--format", rng.choice(("pgm", "csv")),
            "--out-dir", tmp_path / str(case), *flags)


@pytest.mark.parametrize("verb", ["fock", "disjunction-model", "wavefield"])
def test_argv_fuzz_keeps_the_cli_contract(capfd, tmp_path, verb):
    # exit 0 with nothing on stderr, 1 with one JSON error object on stderr,
    # or 2 for a usage error; any other exception fails the test. capfd also
    # holds what native code (LAPACK, say) prints on file descriptor 2
    lines = _table2_without_comments(tmp_path).read_text(encoding="utf-8").splitlines()
    rng = random.Random(f"argv fuzz {verb}")
    codes = Counter()
    for case in range(100):
        argv = [str(a) for a in _fuzz_argv(rng, verb, lines, tmp_path, case)]
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        err = capfd.readouterr().err
        codes[code] += 1
        assert code in (0, 1, 2), argv
        if code == 0:
            assert err == "", argv
        elif code == 1:
            assert list(json.loads(err, parse_constant=_reject_constant)) == ["error"], argv
    assert codes[0] > 0, codes
