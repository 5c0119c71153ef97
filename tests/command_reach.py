"""The functions of the tilegroups package that no command reaches, from
the standard library alone.

Runs, in this process under a call tracer (``sys.settrace`` and
``threading.settrace``, call events only): every job of the benchmark's
job lists (``perfbench/workloads.py``, ``JOB_LISTS``, at seed 7),
``verify --suite all``, ``present`` for each reference case, and
``generate`` from ``--case``, ``--spec`` and ``--builtin-scheme``.  Then
prints each function of ``src/tilegroups`` (methods and nested functions
included, lambdas left out) that none of them entered.  It exits 1,
naming each, where a function is unreached but not listed in
``tests/command_reach.txt`` (one ``module.qualified_name  # why it stays``
a line), or listed but reached or gone; else 0.  It takes no options:

    python tests/command_reach.py
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tilegroups"
LISTED = Path(__file__).resolve().with_suffix(".txt")
FIB_SPEC = '{"kind": "substitution", "rule": {"a": "ab", "b": "a"}, "seed": "a"}'


def functions(source: str) -> dict[int, str]:
    """First line (the first decorator's, as a code object counts it) ->
    qualified name of each function defined in the source."""
    found = {}

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[first] = prefix + child.name
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(ast.parse(source), "")
    return found


def run_commands(tmp: str) -> None:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import tilegroups
    import tilegroups.cli
    from workloads import JOB_LISTS

    for make_jobs in JOB_LISTS.values():
        for job in make_jobs(tilegroups, tmp, 7):
            job.run()
    spec = os.path.join(tmp, "fib-spec.json")
    with open(spec, "w") as fh:
        fh.write(FIB_SPEC)
    argvs = [["verify", "--suite", "all"]]
    argvs += [["present", "--case", case] for case in tilegroups.cli.reference_cases()]
    argvs += [["generate", "--case", "fib"],
              ["generate", "--spec", spec, "--lengths", "a=1/2+1/2*sqrt(5),b=1"],
              ["generate", "--builtin-scheme", "--radius", "50"]]
    for argv in argvs:
        with contextlib.redirect_stdout(io.StringIO()):
            tilegroups.cli.main(argv)


def main() -> int:
    prefix = str(PACKAGE) + "/"
    entered: set[tuple[str, int]] = set()

    def tracer(frame, event, arg):
        code = frame.f_code
        if code.co_filename.startswith(prefix):
            entered.add((code.co_filename, code.co_firstlineno))
        return None

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            run_commands(tmp)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    names, unreached = set(), []
    for path in sorted(PACKAGE.glob("*.py")):
        for first, name in sorted(functions(path.read_text()).items()):
            names.add(f"{path.stem}.{name}")
            if (str(path), first) not in entered:
                unreached.append(f"{path.stem}.{name}")
    print(f"command reach: {len(names) - len(unreached)} of {len(names)} functions entered; never entered:")
    for name in unreached:
        print(f"  {name}")
    listed = {line.partition("#")[0].strip() for line in LISTED.read_text().splitlines()} - {""}
    problems = [f"unreached but not listed: {name}" for name in unreached if name not in listed]
    problems += [f"listed but {'reached' if name in names else 'gone'}: {name}"
                 for name in sorted(listed - set(unreached))]
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
