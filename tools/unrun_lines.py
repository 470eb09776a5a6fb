"""The statement lines of ``src/`` that no tier-1 test executes.

Run from the repository root:

    python3 tools/unrun_lines.py
    python3 tools/unrun_lines.py --root ../parent-checkout

It runs the checkout's tier-1 suite (``pytest -q --continue-on-collection-errors``
with ``--hypothesis-seed=0``) in this process, with ``sys.settrace``
recording the lines executed in files under the checkout's ``src/``; frames
of other files are not traced line by line. Tests that run the package in a
child process are not seen. A statement counts as run when a line of its
head ran (a decorator, or the lines before its body) or, for a compound
statement, when a statement inside it ran, since some heads (``try:``)
execute no line of their own. Docstrings are not statements here.

It prints, per module, the line numbers of the statements that did not
run, then the total; any further arguments are passed on to pytest.
"""

from __future__ import annotations

import argparse
import ast
import os
import sys
import threading
from pathlib import Path

_BODIES = ("body", "orelse", "finalbody", "handlers")


def _is_docstring(parent: ast.AST, index: int, stmt: ast.stmt) -> bool:
    return (index == 0 and isinstance(parent, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
            and isinstance(stmt.value.value, str))


def _children(node: ast.AST) -> list[ast.AST]:
    """The statements (and except handlers) directly inside ``node``."""
    return [child for field in _BODIES for child in getattr(node, field, ())]


def _head(node: ast.AST) -> set[int]:
    """The lines of ``node`` outside its nested statements: its decorators and the lines before its body."""
    children = _children(node)
    last = min(c.lineno for c in children) - 1 if children else node.end_lineno
    first = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", ()))])
    return set(range(first, max(last, node.lineno) + 1))


def unrun(source: str, ran: set[int]) -> list[int]:
    """The first lines of the statements in ``source`` that ran none of their lines, in order."""
    missed: list[int] = []

    def visit(node: ast.AST) -> bool:
        """Record the unrun statements inside ``node``; return whether any of them ran."""
        any_ran = False
        for i, child in enumerate(_children(node)):
            if _is_docstring(node, i, child):
                continue
            inner = visit(child)
            ran_here = inner or bool(_head(child) & ran)
            if not ran_here:
                missed.append(child.lineno)
            any_ran |= ran_here
        return any_ran

    visit(ast.parse(source))
    return sorted(missed)


def trace_tier1(root: Path, pytest_args: list[str]) -> dict[str, set[int]]:
    """Run tier-1 in this process; return {file under src/: the lines executed in it}."""
    src = str(root / "src") + os.sep
    lines: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            lines[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):  # a call: trace the frame's lines if its code is under src/
        name = frame.f_code.co_filename
        if not name.startswith(src):
            return None
        lines.setdefault(name, set())
        return local

    os.chdir(root)
    sys.path.insert(0, str(root / "src"))
    import pytest

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        pytest.main(["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider", *pytest_args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=".", help="the checkout whose tier-1 suite and src/ are traced")
    args, rest = parser.parse_known_args(argv)
    root = Path(args.root).resolve()
    lines = trace_tier1(root, ["--hypothesis-seed=0", *rest])
    total = 0
    report = []
    for path in sorted((root / "src").rglob("*.py")):
        missed = unrun(path.read_text(), lines.get(str(path), set()))
        total += len(missed)
        report.append(f"{path.relative_to(root / 'src')}: {len(missed)} {' '.join(map(str, missed))}".rstrip())
    print("\n".join(["unrun statement lines per module:", *report, f"total: {total}"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
