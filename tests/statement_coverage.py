"""Statement coverage of the tilegroups package under the tier-1 tests,
from the standard library alone.

Runs pytest in this process under a line tracer (``sys.settrace`` and
``threading.settrace``), then compares the lines executed in each module
of ``src/tilegroups`` with the statements of its syntax tree, docstrings
left out.  A statement counts as executed when a line of its header ran:
the whole of a simple statement, and for a compound one the lines before
its body, decorators included.  Exits 1 naming every statement that never
ran, apart from the entry point's ``sys.exit(main())``; exits with
pytest's code when a test fails.  Arguments go to pytest:

    PYTHONPATH=src:tests python tests/statement_coverage.py -q --hypothesis-seed 0
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tilegroups"
NEVER_RUN_IN_PROCESS = {"sys.exit(main())"}


def statement_lines(source: str) -> dict[int, tuple[range, str]]:
    """First line -> (header lines, source text) of each statement."""
    found = {}
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str):
            continue  # a docstring
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if body else node.end_lineno
        found[node.lineno] = (range(first, max(first, last) + 1), ast.get_source_segment(source, node) or "")
    return found


def run_traced(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    prefix = str(PACKAGE) + "/"
    executed: dict[str, set[int]] = {}

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        lines = executed.setdefault(filename, set())

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), executed


def main(argv: list[str]) -> int:
    code, executed = run_traced(argv)
    if code != 0:
        print(f"statement coverage: pytest exited {code}")
        return code
    total, unrun = 0, []
    for path in sorted(PACKAGE.glob("*.py")):
        ran = executed.get(str(path), set())
        for lineno, (header, text) in sorted(statement_lines(path.read_text()).items()):
            total += 1
            if ran.isdisjoint(header):
                unrun.append((f"{path.relative_to(PACKAGE.parent)}:{lineno}", text))
    missed = [(where, text) for where, text in unrun if text not in NEVER_RUN_IN_PROCESS]
    print(f"statement coverage: {total - len(unrun)} of {total} statements executed, "
          f"{len(unrun) - len(missed)} never run in process ({', '.join(sorted(NEVER_RUN_IN_PROCESS))})")
    for where, text in missed:
        print(f"  never executed: {where}: {text.splitlines()[0]}")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
