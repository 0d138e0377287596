"""Print the sha256 of everything a fixed list of qconcepts verb calls writes.

    python tools/artifact_digests.py ROOT

Imports ``qconcepts`` from ROOT/src and runs each call below in-process, once
as listed and once with ``--json``, in a fresh working directory and with
every warning shown, as a fresh process would show it. Each run prints one
line: its argv, its exit code, and the sha256 of its stdout, its
stderr and every file it wrote, with the temporary directory's path replaced
by ``<tmp>`` before hashing. The inputs come from this checkout's perfbench
generators at fixed seeds, so running this script on two checkouts and
comparing the outputs with ``diff`` shows whether any artifact changed.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import os
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

BLOCKS = {"AB": "4,51,21,5", "A'B": "63,7,7,4", "AB'": "48,2,24,7", "A'B'": "12,7,8,54"}
ONE = "0.5,0,0,0.5"         # E = 1
WIDTH_FIT_TABLES = ((1, 5), (3, 30), (1, 8))    # (seed, n) of perfbench exemplar tables
COINCIDENCE_FILES = {       # name -> rows under the experiment header
    "duplicate": [*BLOCKS.items(), ("AB", BLOCKS["AB"])],
    "missing": list(BLOCKS.items())[:2],
    "unexpected": [*BLOCKS.items(), ("ZZ", "2,2,2,2"), ("AA", "2,2,2,2")],
    "classical": [(label, ONE) for label in BLOCKS],
    "beyond-quantum": [("AB", "0,0.5,0.5,0"), *((label, ONE) for label in list(BLOCKS)[1:])],
    # s = 0.94 + 0.76 + 0.66 - 0.36 = 2 in decimal, one ulp above 2 as a float sum
    "local-bound": [("AB", "0.18,0.19,0.13,0.5"), ("A'B", "0.66,0.12,0,0.22"),
                    ("AB'", "0.09,0.01,0.16,0.74"), ("A'B'", "0.44,0.03,0,0.53")],
}


def _fock(mu_a, mu_b, mu_joint, connective, *extra):
    return ["fock", "--mu-a", str(mu_a), "--mu-b", str(mu_b), "--mu-joint", str(mu_joint),
            "--connective", connective, *extra]


def _calls(inputs: Path) -> list:
    table2 = ["--dataset", "fruits-vegetables-table2"]
    return [
        [], ["--help"], *([verb, "--help"] for verb in
                          ("classicality", "fock", "chsh", "disjunction-model", "wavefield",
                           "datasets")),
        ["datasets"],
        ["classicality", "--dataset", "hampton-table3"],
        ["classicality", "--input", str(inputs / "membership.csv")],
        ["classicality", "--input", str(inputs / "membership-bom.csv")],
        ["classicality", "--input", str(inputs / "membership-quoted.csv")],
        ["classicality", "--input", str(inputs / "membership-out-of-range.csv")],
        ["classicality", *table2],
        _fock(0.87, 0.81, 0.90, "and"),
        _fock(0.3, 0.4, 0.45, "or"),
        _fock(0, 0.5, 0.4, "or"),
        _fock(0, 0.5, 0.9, "or"),
        _fock(0.87, 0.81, 0.90, "and", "--m2", "1"),
        _fock(0.01, 0.01, 0, "or"),     # its round trip lands a few ulps below 0
        _fock(0.3, 0.4, 0.45, "xor"),
        ["chsh", "--dataset", "animal-acts-table1"],
        ["chsh", "--dataset", "animal-acts-table1-counts"],
        *(["chsh", "--input", str(inputs / f"{name}.csv")] for name in COINCIDENCE_FILES),
        ["chsh", "--input", str(inputs / "commented.csv")],
        ["disjunction-model", *table2],
        ["disjunction-model", *table2, "--emit-vectors"],
        ["disjunction-model", "--input", str(inputs / "exemplars.csv"), "--emit-vectors"],
        ["disjunction-model", "--input", str(inputs / "exemplars-phi.csv")],
        ["disjunction-model", "--input", str(inputs / "exemplars-quoted.csv")],
        ["wavefield", *table2],
        ["wavefield", *table2, "--grid", "64x48", "--format", "csv"],
        ["wavefield", "--input", str(inputs / "table2-plain.csv"), "--grid", "64x48",
         "--format", "csv"],
        # a partial last row block, and a width that is not a power of two
        ["wavefield", *table2, "--grid", "333x517"],
        ["wavefield", *table2, "--grid", "37x23", "--format", "csv"],
        # a sixth row the reader rejects: at its muA, and as malformed CSV
        *(["disjunction-model", "--input", str(inputs / f"table2-{name}.csv")]
          for name in ("bad-weight", "long-name")),
        # the connective views, and names shared across columns or padded
        ["classicality", "--dataset", "hampton-table3-conjunction"],
        ["classicality", "--dataset", "hampton-table3-disjunction"],
        ["classicality", "--input", str(inputs / "membership-shared.csv")],
        # raster CSV text of 21,000 lines per pattern: 11 rows per 8192-line
        # block, so two whole blocks and a partial last one
        ["wavefield", *table2, "--grid", "700x30", "--format", "csv"],
        # the width fit's outcomes Table 2 never reaches: the top scanned
        # width is eligible; no width reaches MARGIN_FLOOR, so the best
        # scanned one is used; no width assignment exists
        *(["wavefield", "--input", str(inputs / f"exemplars-{seed}-{n}.csv"), "--grid", "64x48"]
          for seed, n in WIDTH_FIT_TABLES),
        # muA + muB rounds up to 1 but is short of it by 1.5e-3 of muA: no C3 vectors
        _fock(8.087501613431206e-15, 0.9999999999999919, 0.35, "and"),
        # the benchmark's raster: 64 row blocks, shared by every thread
        ["wavefield", *table2, "--grid", "2048x2048"],
        # the largest muB ties the largest muA: the width fit has no B anchor
        ["wavefield", "--input", str(inputs / "exemplars-tied-peak.csv")],
        # 9,000 rows of classicality text: two whole 4096-row text blocks and
        # a partial third
        ["classicality", "--input", str(inputs / "membership-9000.csv")],
    ]


def _sha(data: bytes, tmp: str) -> str:
    return hashlib.sha256(data.replace(tmp.encode(), b"<tmp>")).hexdigest()


def _run(cli, argv: list, cwd: Path, tmp: str) -> str:
    out, err = io.StringIO(), io.StringIO()
    os.chdir(cwd)
    # every warning shows in every run, as it would in a fresh process
    with (contextlib.redirect_stdout(out), contextlib.redirect_stderr(err),
          warnings.catch_warnings()):
        warnings.simplefilter("always")
        try:
            code = cli.main(argv)
        except SystemExit as exc:       # --help and usage errors
            code = exc.code
    files = sorted(p for p in cwd.rglob("*") if p.is_file())
    digests = [f"stdout {_sha(out.getvalue().encode(), tmp)}",
               f"stderr {_sha(err.getvalue().encode(), tmp)}",
               *(f"{p.relative_to(cwd)} {_sha(p.read_bytes(), tmp)}" for p in files)]
    return " ".join(argv).replace(tmp, "<tmp>") + f" -> exit {code}; " + "; ".join(digests)


def main(root: str) -> None:
    src = Path(root).resolve() / "src"
    sys.path.insert(0, str(src))
    from qconcepts import cli, datasets
    assert Path(cli.__file__).resolve().is_relative_to(src), f"qconcepts from {cli.__file__}"
    sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import workloads

    start = os.getcwd()
    os.environ.pop("QCONCEPTS_OUT_DIR", None)
    os.environ["COLUMNS"] = "80"        # argparse wraps --help text to the terminal width
    with tempfile.TemporaryDirectory() as tmp:
        inputs = Path(tmp, "inputs")
        inputs.mkdir()
        membership = workloads.membership_csv(1, 2000)[0]
        (inputs / "membership.csv").write_bytes(membership)
        (inputs / "membership-bom.csv").write_bytes(b"\xef\xbb\xbf" + membership)
        (inputs / "membership-9000.csv").write_bytes(workloads.membership_csv(1, 9000)[0])
        # the same table with a quoted name and a comment line after the
        # header, read row by row, and with one weight out of range, which
        # fails the comma split's check and then the row loop's
        lines = membership.decode().splitlines(keepends=True)
        (inputs / "membership-quoted.csv").write_text("".join(
            [lines[0], "# a comment in the body\n", *lines[1:9], '"Spoon, quoted"'
             + lines[9][lines[9].index(","):], *lines[10:]]))
        cells = lines[1000].split(",")
        (inputs / "membership-out-of-range.csv").write_text("".join(
            [*lines[:1000], ",".join([*cells[:3], "1.5", *cells[4:]]), *lines[1001:]]))
        # every seventh exemplar renamed to one of its row's concepts, and one
        # exemplar and one concept padded with spaces: one vocabulary for
        # three columns, and names the reader must strip
        shared = [line.split(",") for line in lines]
        for i in range(7, len(shared), 7):
            shared[i][0] = shared[i][1 + i % 2]
        shared[5][0], shared[6][2] = f"  {shared[5][0]} ", f" {shared[6][2]}  "
        (inputs / "membership-shared.csv").write_text("".join(map(",".join, shared)))
        exemplars = workloads.exemplar_csv(1)[0]
        for seed, n in WIDTH_FIT_TABLES:
            (inputs / f"exemplars-{seed}-{n}.csv").write_bytes(workloads.exemplar_csv(seed, n)[0])
        (inputs / "exemplars.csv").write_bytes(exemplars)
        (inputs / "exemplars-tied-peak.csv").write_text(
            "index,name,muA,muB,muAorB\n1,Apex,0.4,0.1,0.25\n2,Twin,0.4,0.5,0.45\n"
            "3,Low,0.2,0.4,0.3\n")
        (inputs / "exemplars-quoted.csv").write_bytes(exemplars.replace(b",x0010,", b',"x0010",'))
        # the same kind of table with a seeded signed angle on every row
        lines = workloads.exemplar_csv(2)[0].decode().splitlines()
        angles = np.random.default_rng(2).uniform(-180.0, 180.0, len(lines) - 1).tolist()
        (inputs / "exemplars-phi.csv").write_text("".join(
            f"{line},{phi}\n" for line, phi in zip(lines, ["phi_deg", *angles])))
        # Table 2 without its comment lines; then with a word for the sixth
        # row's muA, and with a quoted name there over the csv field limit
        table2 = datasets.dataset_file_bytes("fruits-vegetables-table2").decode()
        plain = [line for line in table2.splitlines(keepends=True) if not line.startswith("#")]
        (inputs / "table2-plain.csv").write_text("".join(plain))
        cells = plain[6].split(",")
        for name, col, cell in (("bad-weight", 2, "abc"),
                                ("long-name", 1, '"' + "x" * (csv.field_size_limit() + 1) + '"')):
            (inputs / f"table2-{name}.csv").write_text("".join(
                [*plain[:6], ",".join([*cells[:col], cell, *cells[col + 1:]]), *plain[7:]]))
        for name, rows in COINCIDENCE_FILES.items():
            (inputs / f"{name}.csv").write_text(
                "experiment,outcome11,outcome12,outcome21,outcome22\n"
                + "".join(f"{label},{values}\n" for label, values in rows))
        (inputs / "commented.csv").write_text(
            "experiment,outcome11,outcome12,outcome21,outcome22\n" + "".join(
                f"{label},{values}\n" + "# a comment between blocks\n" * (label == "A'B")
                for label, values in BLOCKS.items()))
        for i, argv in enumerate(_calls(inputs)):
            for j, run_argv in enumerate((argv, [*argv, "--json"])):
                cwd = Path(tmp, f"run-{i:02d}-{j}")
                cwd.mkdir()
                print(_run(cli, run_argv, cwd, tmp), flush=True)
        os.chdir(start)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    main(sys.argv[1])
