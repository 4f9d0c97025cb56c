"""Nondeterminism linter: an AST pass over the simulation sources.

The whole repo rests on seeded, bit-identical runs; the golden hashes can
only catch nondeterminism *after* it ships.  This linter catches the four
ways it usually sneaks in, at review time:

- ``unseeded-random`` — ``random.Random()`` with no seed, or any call into
  the module-global RNG (``random.random()``, ``random.choice`` …), whose
  state is shared across the process and ruined by import order.
- ``wall-clock`` — ``time.time()`` / ``monotonic()`` / ``perf_counter()``
  / ``datetime.now()``: real time leaking into a simulated clock.
- ``unordered-iteration`` — iterating a ``set`` (literal, ``set()`` call,
  or an attribute annotated ``Set[...]``) anywhere, or ``.keys()`` /
  ``.values()`` / ``.items()`` inside a function whose name marks it as a
  scheduling or merge decision (``select``, ``merge``, ``dispatch`` …).
  Set order is salted per process; feeding it into a decision makes the
  decision unreproducible.
- ``refcount-dependence`` — any use of ``sys.getrefcount``: its counts
  are an interpreter detail (3.12's immortal objects changed them), so
  behaviour gated on one may differ across Python versions.

Findings are suppressed by ``allowlist.txt`` (same directory), one
``fnmatch`` pattern per line matched against ``path:rule:qualname`` — the
reviewed-and-deliberate cases, each with a comment saying why.
"""

from __future__ import annotations

import ast
import fnmatch
import re
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

__all__ = [
    "Finding",
    "lint_source",
    "lint_paths",
    "load_allowlist",
    "default_allowlist_path",
    "RULES",
]

RULES = {
    "unseeded-random":
        "module-global or seedless RNG (state not controlled by the run)",
    "wall-clock":
        "real-time clock call inside simulated code",
    "unordered-iteration":
        "set/dict iteration order feeding a scheduling or merge decision",
    "refcount-dependence":
        "sys.getrefcount use (counts differ across Python versions)",
}

#: Function names that mark scheduling / merge decision points.
_DECISION_RE = re.compile(
    r"sched|select|merge|dispatch|choose|pick|route|assign|balanc", re.I)

_GLOBAL_RNG_FNS = frozenset({
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "gauss", "expovariate", "betavariate", "seed",
    "getrandbits", "triangular", "paretovariate",
})
_WALL_CLOCK_TIME_FNS = frozenset({
    "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
    "perf_counter_ns", "process_time",
})
_WALL_CLOCK_DATETIME_FNS = frozenset({"now", "utcnow", "today"})


@dataclass(frozen=True)
class Finding:
    path: str
    line: int
    rule: str
    qualname: str
    message: str

    @property
    def key(self) -> str:
        """The string allowlist patterns match against."""
        return f"{self.path}:{self.rule}:{self.qualname}"

    def __str__(self) -> str:
        return (f"{self.path}:{self.line}: [{self.rule}] {self.message} "
                f"(in {self.qualname})")


def _annotation_is_set(node: ast.expr) -> bool:
    """True for ``Set[...]``/``set[...]``/``FrozenSet[...]`` annotations."""
    if isinstance(node, ast.Subscript):
        return _annotation_is_set(node.value)
    if isinstance(node, ast.Name):
        return node.id in ("Set", "set", "FrozenSet", "frozenset",
                           "MutableSet", "AbstractSet")
    if isinstance(node, ast.Attribute):
        return node.attr in ("Set", "FrozenSet", "MutableSet", "AbstractSet")
    return False


class _ModuleLinter(ast.NodeVisitor):

    def __init__(self, path: str):
        self.path = path
        self.findings: List[Finding] = []
        self._scope: List[str] = []
        #: Names imported from `random` / `time` / `datetime` directly.
        self._from_random: set = set()
        self._from_time: set = set()
        self._from_datetime: set = set()
        #: Attribute / variable names annotated as sets anywhere in the
        #: module (best-effort: one namespace per file is plenty here).
        self._set_names: set = set()

    # -- bookkeeping ------------------------------------------------------
    @property
    def qualname(self) -> str:
        return ".".join(self._scope) if self._scope else "<module>"

    def _in_decision_context(self) -> bool:
        return any(_DECISION_RE.search(name) for name in self._scope)

    def _flag(self, node: ast.AST, rule: str, message: str) -> None:
        self.findings.append(Finding(
            self.path, getattr(node, "lineno", 0), rule, self.qualname,
            message))

    def _push(self, node) -> None:
        self._scope.append(node.name)
        self.generic_visit(node)
        self._scope.pop()

    visit_FunctionDef = _push
    visit_AsyncFunctionDef = _push
    visit_ClassDef = _push

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        targets = {"random": self._from_random, "time": self._from_time,
                   "datetime": self._from_datetime}
        bucket = targets.get(node.module or "")
        if bucket is not None:
            for alias in node.names:
                bucket.add(alias.asname or alias.name)
        if node.module == "sys" and any(alias.name == "getrefcount"
                                        for alias in node.names):
            self._flag(node, "refcount-dependence",
                       "getrefcount imported from sys")
        self.generic_visit(node)

    # -- rule: refcount-dependence ----------------------------------------
    def visit_Attribute(self, node: ast.Attribute) -> None:
        # Any reference, not just a call: ``f = sys.getrefcount`` counts.
        if attr_chain(node) == "sys.getrefcount":
            self._flag(node, "refcount-dependence", "sys.getrefcount use")
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if _annotation_is_set(node.annotation):
            target = node.target
            if isinstance(target, ast.Name):
                self._set_names.add(target.id)
            elif isinstance(target, ast.Attribute):
                self._set_names.add(target.attr)
        self.generic_visit(node)

    # -- rule: unseeded-random / wall-clock -------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and isinstance(func.value,
                                                          ast.Name):
            module, attr = func.value.id, func.attr
            if module == "random":
                if attr == "Random" and not node.args and not node.keywords:
                    self._flag(node, "unseeded-random",
                               "random.Random() constructed without a seed")
                elif attr in _GLOBAL_RNG_FNS:
                    self._flag(node, "unseeded-random",
                               f"random.{attr}() uses the process-global RNG")
            elif module == "time" and attr in _WALL_CLOCK_TIME_FNS:
                self._flag(node, "wall-clock", f"time.{attr}() call")
            elif (module == "datetime"
                  and attr in _WALL_CLOCK_DATETIME_FNS):
                self._flag(node, "wall-clock", f"datetime.{attr}() call")
        elif isinstance(func, ast.Attribute) and attr_chain(func) in (
                "datetime.datetime.now", "datetime.datetime.utcnow",
                "datetime.datetime.today"):
            self._flag(node, "wall-clock", f"{attr_chain(func)}() call")
        elif isinstance(func, ast.Name):
            name = func.id
            if (name in self._from_random and name == "Random"
                    and not node.args and not node.keywords):
                self._flag(node, "unseeded-random",
                           "Random() constructed without a seed")
            elif name in self._from_time and name in _WALL_CLOCK_TIME_FNS:
                self._flag(node, "wall-clock", f"{name}() call")
            elif (name in self._from_datetime
                  and name in _WALL_CLOCK_DATETIME_FNS):
                self._flag(node, "wall-clock", f"{name}() call")
        self.generic_visit(node)

    # -- rule: unordered-iteration ----------------------------------------
    def _check_iter(self, iter_node: ast.expr, where: ast.AST) -> None:
        if isinstance(iter_node, ast.Set):
            self._flag(where, "unordered-iteration",
                       "iteration over a set literal")
            return
        if isinstance(iter_node, ast.Call):
            func = iter_node.func
            if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
                self._flag(where, "unordered-iteration",
                           f"iteration over {func.id}(...)")
                return
            if (isinstance(func, ast.Attribute)
                    and func.attr in ("keys", "values", "items")
                    and self._in_decision_context()):
                self._flag(
                    where, "unordered-iteration",
                    f".{func.attr}() iteration inside a decision function")
                return
        name = None
        if isinstance(iter_node, ast.Name):
            name = iter_node.id
        elif isinstance(iter_node, ast.Attribute):
            name = iter_node.attr
        if name is not None and name in self._set_names:
            self._flag(where, "unordered-iteration",
                       f"iteration over set-annotated {name!r}")

    def visit_For(self, node: ast.For) -> None:
        self._check_iter(node.iter, node)
        self.generic_visit(node)

    def _visit_comp(self, node) -> None:
        for gen in node.generators:
            self._check_iter(gen.iter, node)
        self.generic_visit(node)

    visit_ListComp = _visit_comp
    visit_SetComp = _visit_comp
    visit_DictComp = _visit_comp
    visit_GeneratorExp = _visit_comp


def attr_chain(node: ast.expr) -> str:
    """Dotted source of a Name/Attribute chain ('' when not a chain)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return ""
    parts.append(node.id)
    return ".".join(reversed(parts))


def lint_source(source: str, path: str) -> List[Finding]:
    """Lint one module's source; ``path`` labels the findings."""
    tree = ast.parse(source, filename=path)
    linter = _ModuleLinter(path)
    # Two passes so Set annotations anywhere in the file (e.g. in
    # ``__init__``) cover loops that appear earlier.
    collector = _ModuleLinter(path)
    for node in ast.walk(tree):
        if isinstance(node, ast.AnnAssign):
            collector.visit_AnnAssign(node)
    linter._set_names = collector._set_names
    linter.visit(tree)
    return linter.findings


def default_allowlist_path() -> Path:
    return Path(__file__).with_name("allowlist.txt")


def load_allowlist(path: Optional[Path] = None) -> List[str]:
    """Read allowlist patterns; missing file means an empty allowlist."""
    path = path or default_allowlist_path()
    if not Path(path).exists():
        return []
    patterns = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            patterns.append(line)
    return patterns


def _allowed(finding: Finding, patterns: Sequence[str]) -> bool:
    return any(fnmatch.fnmatch(finding.key, pattern) for pattern in patterns)


def lint_paths(paths: Sequence[str],
               allowlist: Optional[Path] = None,
               ) -> Tuple[List[Finding], int]:
    """Lint every ``.py`` file under ``paths``.

    Returns ``(findings, suppressed)`` — findings surviving the allowlist,
    and the count the allowlist suppressed.  Paths in findings are
    relative to the common walk root when possible.
    """
    patterns = load_allowlist(allowlist)
    findings: List[Finding] = []
    suppressed = 0
    for root in paths:
        root_path = Path(root)
        files = ([root_path] if root_path.is_file()
                 else sorted(root_path.rglob("*.py")))
        for file in files:
            rel = file.as_posix()
            for finding in lint_source(file.read_text(), rel):
                if _allowed(finding, patterns):
                    suppressed += 1
                else:
                    findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line))
    return findings, suppressed
