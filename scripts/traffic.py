#!/usr/bin/env python3
"""The functions of the potlab package that no CLI run of the configs enters.

Usage: python scripts/traffic.py CONFIG...

For each config, runs `potlab verify`, `potlab solve` and, when the config
has a [measure] section, `potlab potential` in this process (default seed,
reports into a temporary directory, their own output on stderr), traced
with `sys.settrace`: every Python call counts its function as entered.
Then prints each function that a `def` in a module of the package defines
and that no run entered, one `path:line name` per line, sorted; `name` is
qualified by its classes and enclosing functions.

What the trace does not cover: `perfbench/`, the tests and the other
scripts.  A function listed here may still be reached by them, and only
by them; the package is read from wherever `import potlab` finds it.
Exit status 1 when a config cannot be loaded or a run exits nonzero
(an `error:` line on stderr).
"""

import ast
import contextlib
import os
import sys
import tempfile
from pathlib import Path

import potlab
from potlab.errors import PotlabError
from potlab.harness import load_config
from potlab.harness.cli import main as potlab_main

PACKAGE = Path(potlab.__file__).resolve().parent


def defined_functions() -> dict:
    """``(path, first line) -> (def line, qualified name)`` of every ``def``
    in the package; the first line is the first decorator's, as in the
    function's ``co_firstlineno``."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                found[(path, first)] = (child.lineno, prefix + child.name)
                visit(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for path in sorted(PACKAGE.rglob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), str(path), "")
    return found


def entered_in(runs) -> tuple[set, list]:
    """The ``(resolved path, first line)`` of every function the CLI runs
    ``runs`` (argument lists) enter, and the runs that exit nonzero."""
    calls = set()

    def tracer(frame, event, arg):
        calls.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    failed = []
    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        for argv in runs:
            with contextlib.redirect_stdout(sys.stderr):
                code = potlab_main(argv)
            if code != 0:
                failed.append((argv, code))
    finally:
        sys.settrace(previous)
    resolved = {name: str(Path(name).resolve()) for name, _ in calls}
    return {(resolved[name], line) for name, line in calls}, failed


def runs_of(path, out: Path) -> list[list[str]]:
    """The CLI runs of one config: verify, solve and, with a measure, potential."""
    commands = ["verify", "solve"] + (["potential"] if load_config(path).measure else [])
    return [[cmd, "--config", str(path), "--out", str(out / cmd)] for cmd in commands]


def main(argv=None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if not paths:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        try:
            runs = [run for i, path in enumerate(paths)
                    for run in runs_of(path, Path(tmp) / str(i))]
        except PotlabError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        entered, failed = entered_in(runs)
    for argv, code in failed:
        print(f"error: potlab {' '.join(argv)} exited {code}", file=sys.stderr)
    root = PACKAGE.parent.parent
    for (path, first), (line, name) in sorted(defined_functions().items()):
        if (path, first) not in entered:
            print(f"{os.path.relpath(path, root)}:{line} {name}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
