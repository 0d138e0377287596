"""Print the executable statements of ROOT/src that no tier-1 test runs.

    python tools/unrun_lines.py ROOT

Imports ``qconcepts`` from ROOT/src and runs ROOT's tier-1 tests in this
process under ``sys.settrace`` and ``threading.settrace``, recording each
line of ROOT/src that any thread runs. Then it prints each executable
statement that no test ran, as ``path:line: text``, then their count per
file and in all. An executable statement is the first line of a statement
that compiles to code, so a function's docstring is not one.

Code run only in child processes is not seen: ``cli``'s BrokenPipeError
branch, for one, runs only in tests that start ``qconcepts`` as a process,
and so do the lines under ``if __name__ == "__main__":``. The count shows
which checks no test reaches; a check is not dead only because it is
listed. The exit status is pytest's.
"""
from __future__ import annotations

import ast
import os
import sys
import threading
import types
from collections import Counter, defaultdict
from pathlib import Path


def executable_lines(path: Path) -> set:
    """First lines of the statements in a source file that compile to code."""
    text = path.read_text()
    code_lines, stack = set(), [compile(text, str(path), "exec")]
    while stack:
        code = stack.pop()
        code_lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    starts = {node.lineno for node in ast.walk(ast.parse(text)) if isinstance(node, ast.stmt)}
    return starts & code_lines


def main(root: str) -> int:
    root = Path(root).resolve()
    src = root / "src"
    prefix = str(src) + os.sep
    hits = defaultdict(set)     # file name -> lines run

    def trace_lines(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return trace_lines

    def trace_calls(frame, event, arg):
        return trace_lines if frame.f_code.co_filename.startswith(prefix) else None

    sys.path.insert(0, str(src))
    os.chdir(root)
    import pytest

    threading.settrace(trace_calls)
    sys.settrace(trace_calls)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    import qconcepts
    assert Path(qconcepts.__file__).resolve().is_relative_to(src), qconcepts.__file__

    counts = Counter()
    for path in sorted(src.rglob("*.py")):
        lines = path.read_text().splitlines()
        for n in sorted(executable_lines(path) - hits[str(path)]):
            counts[path.relative_to(root)] += 1
            print(f"{path.relative_to(root)}:{n}: {lines[n - 1].strip()}")
    for name, count in sorted(counts.items()):
        print(f"{name}: {count}")
    print(f"{sum(counts.values())} executable statements of src/ unrun by tier-1")
    return int(status)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1]))
