"""The README's command examples run, and its Library table names real surface."""
from __future__ import annotations

import importlib
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import qconcepts

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _section(title):
    """The README text from the heading ``## title`` to the next ``##`` heading."""
    return README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def _commands():
    """Every ``qconcepts ...`` line of the Command line section's sh block."""
    block = _section("Command line").split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("qconcepts ")]


def _library_rows():
    """(module, [backticked names]) for each row of the Library table."""
    rows = re.findall(r"^\| `(qconcepts\.\w+)` \| (.*) \|$", _section("Library"), re.M)
    return [(module, re.findall(r"`([^`]+)`", contents)) for module, contents in rows]


COMMANDS, LIBRARY = _commands(), _library_rows()


def test_readme_lists_commands_and_library_rows():
    assert len(COMMANDS) == 6
    assert len(LIBRARY) == 7


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: argv[0])
def test_readme_command_runs(argv, run_cli, tmp_path, monkeypatch):
    argv = list(argv)
    if "--out-dir" in argv:
        i = argv.index("--out-dir") + 1
        argv[i] = str(tmp_path / argv[i])
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("QCONCEPTS_OUT_DIR", raising=False)
    code, _, err = run_cli(*argv)
    assert code == 0, err


@pytest.mark.parametrize("module, names", LIBRARY, ids=[module for module, _ in LIBRARY])
def test_readme_library_names_exist(module, names):
    mod = importlib.import_module(module)
    submodules = {info.name for info in pkgutil.iter_modules(qconcepts.__path__)}
    for name in names:
        assert name in submodules or hasattr(mod, name), f"{module} has no {name}"
