"""Print the sha256 of everything a fixed list of qconcepts verb calls writes.

    python tools/artifact_digests.py ROOT

Imports ``qconcepts`` from ROOT/src and runs each call below in-process, once
as listed and once with ``--json``, in a fresh working directory. Each run
prints one line: its argv, its exit code, and the sha256 of its stdout, its
stderr and every file it wrote, with the temporary directory's path replaced
by ``<tmp>`` before hashing. The inputs come from this checkout's perfbench
generators at fixed seeds, so running this script on two checkouts and
comparing the outputs with ``diff`` shows whether any artifact changed.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

BLOCKS = {"AB": "4,51,21,5", "A'B": "63,7,7,4", "AB'": "48,2,24,7", "A'B'": "12,7,8,54"}
ONE = "0.5,0,0,0.5"         # E = 1
COINCIDENCE_FILES = {       # name -> rows under the experiment header
    "duplicate": [*BLOCKS.items(), ("AB", BLOCKS["AB"])],
    "missing": list(BLOCKS.items())[:2],
    "unexpected": [*BLOCKS.items(), ("ZZ", "2,2,2,2"), ("AA", "2,2,2,2")],
    "classical": [(label, ONE) for label in BLOCKS],
    "beyond-quantum": [("AB", "0,0.5,0.5,0"), *((label, ONE) for label in list(BLOCKS)[1:])],
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
        ["classicality", *table2],
        _fock(0.87, 0.81, 0.90, "and"),
        _fock(0.3, 0.4, 0.45, "or"),
        _fock(0, 0.5, 0.4, "or"),
        _fock(0, 0.5, 0.9, "or"),
        _fock(0.87, 0.81, 0.90, "and", "--m2", "1"),
        _fock(0.3, 0.4, 0.45, "xor"),
        ["chsh", "--dataset", "animal-acts-table1"],
        ["chsh", "--dataset", "animal-acts-table1-counts"],
        *(["chsh", "--input", str(inputs / f"{name}.csv")] for name in COINCIDENCE_FILES),
        ["disjunction-model", *table2],
        ["disjunction-model", *table2, "--emit-vectors"],
        ["disjunction-model", "--input", str(inputs / "exemplars.csv"), "--emit-vectors"],
        ["wavefield", *table2],
        ["wavefield", *table2, "--grid", "64x48", "--format", "csv"],
    ]


def _sha(data: bytes, tmp: str) -> str:
    return hashlib.sha256(data.replace(tmp.encode(), b"<tmp>")).hexdigest()


def _run(cli, argv: list, cwd: Path, tmp: str) -> str:
    out, err = io.StringIO(), io.StringIO()
    os.chdir(cwd)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
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
    from qconcepts import cli
    assert Path(cli.__file__).resolve().is_relative_to(src), f"qconcepts from {cli.__file__}"
    sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import workloads

    start = os.getcwd()
    os.environ.pop("QCONCEPTS_OUT_DIR", None)
    os.environ["COLUMNS"] = "80"        # argparse wraps --help text to the terminal width
    with tempfile.TemporaryDirectory() as tmp:
        inputs = Path(tmp, "inputs")
        inputs.mkdir()
        (inputs / "membership.csv").write_bytes(workloads.membership_csv(1, 2000)[0])
        (inputs / "exemplars.csv").write_bytes(workloads.exemplar_csv(1)[0])
        for name, rows in COINCIDENCE_FILES.items():
            (inputs / f"{name}.csv").write_text(
                "experiment,outcome11,outcome12,outcome21,outcome22\n"
                + "".join(f"{label},{values}\n" for label, values in rows))
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
