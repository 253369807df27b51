#!/usr/bin/env python3
"""List the statements of the moeeqi package that no test runs.

usage: python3 tools/unrun_lines.py [pytest arguments]   (default: tests -q)

Runs pytest in this process under a ``sys.settrace`` line tracer that
follows only frames of ``src/moeeqi/*.py``, then prints ``file:line
statement`` for each statement that has bytecode and never ran, and exits
with pytest's status. Standard library only: it stands in for a coverage
tool where none is installed. Code run in another thread or process is
not seen. The tracer makes the suite slower, by about half again.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "moeeqi"


def _code_lines(code) -> set:
    """Line numbers that carry bytecode in ``code`` and its nested code."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _own_lines(node: ast.stmt) -> range:
    """The lines of a statement outside the statements nested in it: all of
    a simple statement, the header of a compound one."""
    inner = [child.lineno for field in ("body", "orelse", "handlers", "finalbody")
             for child in getattr(node, field, [])]
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
    return range(first, min(inner) if inner else node.end_lineno + 1)


def unrun_statements(path: Path, ran: set) -> list:
    """(line, source) of each statement of ``path`` with bytecode on its own
    lines, none of which is in ``ran``."""
    source = path.read_text()
    code_lines = _code_lines(compile(source, str(path), "exec"))
    text = source.splitlines()
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.stmt):
            own = set(_own_lines(node))
            if own & code_lines and not own & ran:
                out.append((node.lineno, text[node.lineno - 1].strip()))
    return sorted(out)


def main(argv: list) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    files = {str(p): p for p in sorted(PACKAGE.glob("*.py"))}
    ran = {name: set() for name in files}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename in ran else None

    sys.settrace(tracer)
    try:
        status = pytest.main(argv or ["tests", "-q"])
    finally:
        sys.settrace(None)
    for name, path in files.items():
        for line, statement in unrun_statements(path, ran[name]):
            print(f"{path.relative_to(ROOT)}:{line} {statement}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
