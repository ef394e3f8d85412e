"""List every executable line of ``src/glmmfp`` that no tier-1 test reaches.

    python tests/trace_lines.py [PYTEST_ARGS...]

runs the tests in this process under ``sys.settrace``, tracing only frames
whose code lies in ``src/glmmfp`` (the package must be imported from there,
as pyproject's pytest ``pythonpath`` arranges), and prints each executable
line that no test ran as ``file.py:line``, sorted, then a count.  A module
that no test imports in process is printed as ``file.py`` alone.  The
expected output is ``__main__.py`` and the two lines of ``cli.entry`` and
its ``__main__`` guard, which only the subprocess tests run.

It then prints, as ``module.function`` and then a count, each public
top-level function of the package that no module but ``__init__`` names:
found with ``ast``, a function is named where its name is read as a
variable or an attribute, be it called or passed as a value.  Such a
function is reached from the tests, the benchmark or the demos alone.

A module's executable lines are the line numbers of its code objects'
instructions (``co_lines``), less each function's ``def`` line, which the
enclosing code runs.  The arguments go to pytest after ``-q -rfE -p
no:cacheprovider``; with none it runs ``tests/``, the tier-1 suite.
Tracing slows the suite by a fifth to a third (2 shared cores).  Pytest
does not collect this file, and it needs nothing beyond the test
dependencies.
"""

import ast
import sys
import threading
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "glmmfp"


def executable_lines(path: Path) -> set:
    """The line numbers of ``path``'s instructions, less each function's def line."""
    lines, stack = set(), [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        stack += [c for c in code.co_consts if isinstance(c, types.CodeType)]
        own = {line for _, _, line in code.co_lines() if line}  # 0: the module's start
        if code.co_name != "<module>":
            own.discard(code.co_firstlineno)
        lines |= own
    return lines


def unnamed_functions() -> list:
    """``module.function`` for each public top-level function of the package whose
    name no module but ``__init__`` reads, as a variable or an attribute."""
    defined, named = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        defined += [
            f"{path.stem}.{node.name}" for node in tree.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
        ]
        if path.stem != "__init__":
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    named.add(node.id)
                elif isinstance(node, ast.Attribute):
                    named.add(node.attr)
    return [name for name in defined if name.split(".")[1] not in named]


def main(argv) -> int:
    prefix = str(PACKAGE) + "/"
    reached = {}  # file -> the lines run in it

    def local(frame, event, arg):
        if event == "line":
            reached[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        reached.setdefault(filename, set())
        return local

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(
            ["-q", "-rfE", "-p", "no:cacheprovider", *(argv or [str(ROOT / "tests")])]
        )
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        if str(path) not in reached:
            print(path.name)
            missed += 1
            continue
        for line in sorted(executable_lines(path) - reached[str(path)]):
            print(f"{path.name}:{line}")
            missed += 1
    print(f"{missed} unreached (pytest exit code {int(code)})")
    unnamed = unnamed_functions()
    for name in unnamed:
        print(name)
    print(f"{len(unnamed)} public functions that no module but __init__ names")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
