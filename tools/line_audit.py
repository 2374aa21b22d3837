"""Statements of ``src/uqfv`` that no Tier-1 test reaches.

    python3 tools/line_audit.py                       # the whole Tier-1 suite
    python3 tools/line_audit.py tests/test_config.py  # any pytest arguments

Runs pytest in this process under ``sys.settrace`` (and
``threading.settrace``, for the dual solve's worker threads), with the
``src/`` tree of the checkout this script sits in, and records every line
of ``src/uqfv`` that executes. It then prints, per module, each statement
none of whose own lines ran: a compound statement's own lines are its
header, a simple statement's all of its lines. Statements directly in a
module or class body run at import and are not audited, nor are
docstrings or lines without bytecode. Standard library only; the exit
status is pytest's.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "uqfv"
sys.path.insert(0, str(PACKAGE.parent))


def _code_lines(code) -> set:
    """Lines that carry bytecode in ``code`` and every code object nested in it."""
    lines = {line for *_, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _is_docstring(node, parent) -> bool:
    return (
        node is parent.body[0]
        and isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def _own_lines(node) -> range:
    """The statement's header if it has a body, else all of its lines."""
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
    body = getattr(node, "body", None)
    if isinstance(body, list) and body:
        return range(first, max(body[0].lineno, node.lineno + 1))
    return range(first, node.end_lineno + 1)


def audited_statements(path: Path) -> list:
    """(own lines, first line of source) of each statement the audit checks."""
    source = path.read_text()
    executable = _code_lines(compile(source, str(path), "exec"))
    text = source.splitlines()
    found = []

    def visit(parent, import_time):
        for field in ("body", "orelse", "finalbody", "handlers"):
            for node in getattr(parent, field, ()):
                if isinstance(node, ast.stmt) and not (
                    import_time or _is_docstring(node, parent)
                ):
                    lines = _own_lines(node)
                    if executable.intersection(lines):
                        found.append((lines, text[node.lineno - 1].strip()))
                # only a module's and a class's own bodies run at import
                inner = isinstance(node, ast.ClassDef) and import_time
                visit(node, inner)

    visit(ast.parse(source), True)
    return found


def main(args: list[str]) -> int:
    import pytest

    files = {str(path): path for path in sorted(PACKAGE.glob("*.py"))}
    hits = {name: set() for name in files}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename in hits else None

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *(args or [str(ROOT / "tests")])])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = missed = 0
    for name, path in files.items():
        statements = audited_statements(path)
        unreached = [(s, t) for s, t in statements if not hits[name].intersection(s)]
        total += len(statements)
        missed += len(unreached)
        print(f"{path.name}: {len(unreached)} of {len(statements)} statements unreached")
        for lines, first in unreached:
            print(f"    {lines.start}: {first}")
    print(f"src/uqfv: {missed} of {total} statements unreached")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
