"""Reachability gate: tier-1 must enter every function defined in ``src/``.

Runs the tier-1 suite in this process (``pytest.main``) under one
cProfile that stays live across the whole session, lists every ``def``
under ``src/`` from the AST, and fails on any function that was never
entered and that the allowlist does not name.  Only ``def`` statements
are listed (no lambdas, no comprehensions), so Python 3.12's inlined
comprehensions do not change the list.

A test that runs its own ``cProfile.Profile`` (the hook-cost checks in
``tests/test_import_footprint.py``) takes the profiler over for its
duration: this script pauses its own profile when another one is
enabled (Python 3.12 admits one profiling tool at a time), restarts it
after that test, and counts what the test's profiler saw as entered.

Each line of the allowlist, ``tools/reachability_allow.txt``, is
``<path>:<qualname> <reason>``, where the path is relative to ``src/``
and the reason is one of ``REASONS``.  A line with any other reason, or
one that names no function, fails the gate too.

Usage, from the repository root::

    PYTHONPATH=src python tools/reachability.py

Exit status: pytest's own when the suite fails; otherwise 1 when a
function is unreached and not allowlisted or the allowlist is malformed,
and 0 when every function is accounted for.  The pass took 8.5 min on a
2-vCPU Linux container with CPython 3.11.7 (tier-1 alone: ~3 min).
"""

from __future__ import annotations

import ast
import cProfile
import os
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Set, Tuple

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ALLOWLIST = Path(__file__).resolve().with_name("reachability_allow.txt")

#: Why a function may stay unentered by tier-1.
REASONS = {
    "child-process": "runs only in a spawned worker process",
    "repr": "a __repr__ debugging aid",
    "protocol-stub": "an interface method every implementation overrides",
    "nightly-only": "runs only at the nightly claim check's full scale",
    "check-job": "a live scenario of CI's `python -m repro check` job",
}

#: (absolute path, first line, name): what cProfile and the AST both key on.
FuncKey = Tuple[str, int, str]


def defined_functions(src: Path = SRC) -> Dict[FuncKey, str]:
    """Every ``def`` under ``src``, keyed as cProfile reports it, mapped
    to ``<path relative to src>:<dotted qualname>``.

    A decorated function's code starts at its first decorator line.
    """
    found: Dict[FuncKey, str] = {}
    for path in sorted(src.rglob("*.py")):
        rel = path.relative_to(src).as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))

        def walk(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min((d.lineno for d in child.decorator_list),
                                default=child.lineno)
                    qualname = prefix + child.name
                    found[(str(path), first, child.name)] = \
                        f"{rel}:{qualname}"
                    walk(child, qualname + ".")
                elif isinstance(child, ast.ClassDef):
                    walk(child, prefix + child.name + ".")
                else:
                    walk(child, prefix)

        walk(tree, "")
    return found


def entered_functions(profilers: Iterable[cProfile.Profile]) -> Set[FuncKey]:
    """Every Python function any of ``profilers`` saw entered."""
    entered: Set[FuncKey] = set()
    for profiler in profilers:
        for entry in profiler.getstats():
            code = entry.code
            if isinstance(code, str):  # a built-in
                continue
            path = str((ROOT / code.co_filename).resolve())
            entered.add((path, code.co_firstlineno, code.co_name))
    return entered


def load_allowlist(path: Path = ALLOWLIST
                   ) -> Tuple[Dict[str, str], List[str]]:
    """``{path:qualname: reason}`` and one error line per malformed entry."""
    allowed: Dict[str, str] = {}
    errors: List[str] = []
    for number, raw in enumerate(path.read_text(encoding="utf-8")
                                 .splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2 or parts[1] not in REASONS:
            errors.append(f"{path.name}:{number}: want '<path>:<qualname> "
                          f"<reason>' with a reason in {sorted(REASONS)}")
            continue
        allowed[parts[0]] = parts[1]
    return allowed, errors


class LiveProfile:
    """pytest plugin: keep one cProfile live across the whole session."""

    def __init__(self) -> None:
        self.profiler = cProfile.Profile()
        #: Profilers the tests ran themselves; what they saw counts too.
        self.foreign: List[cProfile.Profile] = []
        self.restarts = 0
        self._paused = False
        self._enable = cProfile.Profile.enable

    def start(self) -> None:
        plugin = self

        def enable(profile, *args, **kwargs):
            if profile is not plugin.profiler:
                if not plugin._paused:
                    plugin.profiler.disable()
                    plugin._paused = True
                plugin.foreign.append(profile)
            return plugin._enable(profile, *args, **kwargs)

        cProfile.Profile.enable = enable
        self.profiler.enable()

    def stop(self) -> None:
        self.profiler.disable()
        cProfile.Profile.enable = self._enable

    def pytest_runtest_logfinish(self, nodeid, location):
        if self._paused:
            self._paused = False
            self.restarts += 1
            self.profiler.enable()


def main() -> int:
    os.chdir(ROOT)
    functions = defined_functions()
    allowed, errors = load_allowlist()
    plugin = LiveProfile()
    plugin.start()
    try:
        status = pytest.main([str(ROOT / "tests")], plugins=[plugin])
    finally:
        plugin.stop()
    if status != 0:
        print(f"reachability: tier-1 failed (exit {int(status)}); "
              "no verdict", file=sys.stderr)
        return int(status)
    entered = entered_functions([plugin.profiler] + plugin.foreign)
    names = set(functions.values())
    errors += [f"{ALLOWLIST.name}: {name} names no function in src/"
               for name in sorted(set(allowed) - names)]
    unreached = sorted({name for key, name in functions.items()
                        if key not in entered})
    failing = [name for name in unreached if name not in allowed]
    print(f"reachability: tier-1 entered {len(functions) - len(unreached)} "
          f"of {len(functions)} functions in src/; {len(unreached)} "
          f"unreached, {len(unreached) - len(failing)} allowlisted; "
          f"profile restarted after {plugin.restarts} test(s)")
    for name in failing:
        print(f"unreached: {name}")
    for error in errors:
        print(f"allowlist: {error}")
    return 1 if failing or errors else 0


if __name__ == "__main__":
    sys.exit(main())
