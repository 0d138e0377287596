"""Shared helpers: an in-process CLI runner, the raster's CPU count, a
raster helper thread that fails, and exemplar columns from hand-built rows."""
from __future__ import annotations

import json
import threading

import numpy as np
import pytest

from qconcepts import cli, wavefield
from qconcepts.disjunction_model import ExemplarColumns
from qconcepts.errors import ModelError


def exemplar_columns(rows):
    """The ``ExemplarColumns`` of a list of ``ExemplarRow``s; the angles are
    kept only if every row supplies one."""
    phi = [r.phi_deg for r in rows]
    return ExemplarColumns([r.index for r in rows], [r.name for r in rows],
                           *(np.array([getattr(r, f) for r in rows], dtype=float)
                             for f in ("mu_a", "mu_b", "mu_a_or_b")),
                           np.array(phi, dtype=float) if phi and None not in phi else None)


@pytest.fixture
def run_cli(capsys):
    """Invoke the CLI in-process; returns (exit_code, stdout, stderr)."""

    def run(*argv):
        code = cli.main([str(a) for a in argv])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return run


@pytest.fixture
def run_cli_json(run_cli):
    """CLI runner that parses stdout as JSON (adds --json)."""

    def run(*argv):
        code, out, err = run_cli(*argv, "--json")
        return code, (json.loads(out) if out.strip() else None), err

    return run


@pytest.fixture
def set_cpus(monkeypatch):
    """Set the CPU count the raster sees: set_cpus(n)."""

    def set_count(cpus):
        monkeypatch.setattr(wavefield, "_cpu_count", lambda: cpus)

    return set_count


@pytest.fixture
def fail_in_a_helper(monkeypatch, set_cpus):
    """Three CPUs, and the first raster block a helper thread runs raises a
    ModelError; the caller's blocks wait until it has. Returns the list the
    raised exception lands in."""
    set_cpus(3)
    caller, helper_started, raised = threading.get_ident(), threading.Event(), []
    cos_phase = wavefield._cos_phase

    def cos_or_fail(phi):
        if threading.get_ident() == caller:
            helper_started.wait(10.0)
            return cos_phase(phi)
        helper_started.set()
        raised.append(ModelError("block failed in a helper"))
        raise raised[-1]

    monkeypatch.setattr(wavefield, "_cos_phase", cos_or_fail)
    return raised
