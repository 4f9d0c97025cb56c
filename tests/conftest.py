"""Shared test configuration: hypothesis profiles and the pin table.

Property tests that leave ``max_examples`` unpinned (the chaos suite)
inherit it from the active profile, so CI can scale them without code
changes:

- ``default`` — quick: tier-1 runs everywhere, including laptops.
- ``chaos`` — the scheduled chaos job: ``HYPOTHESIS_PROFILE=chaos``
  raises ``max_examples`` (``CHAOS_MAX_EXAMPLES`` overrides the count)
  and prints reproduction blobs for any failure it digs up.

Every value captured from a seeded run — a golden hash, a smoke sweep
digest, an engine step count, a fingerprint, an exact count — lives in
one table, ``tests/pins.json`` (pin name -> value).  A test that checks
one carries ``@pytest.mark.pin`` and calls the ``pin`` fixture:
``pin("golden/cell", cell_fingerprint())``.  A value that differs from
the table fails its test, and the run ends with one line per moved pin::

    pin <name>: <old> -> <new>

so ``PYTHONPATH=src python -m pytest -m pin -q`` is the one recapture
run: re-pinning means copying the new values into ``tests/pins.json``.
A full run that passes every test but leaves a table entry unread fails
with one ``pin <name>: no test reads it`` line per entry.
"""

import functools
import json
import os
from pathlib import Path

import pytest
from hypothesis import settings

settings.register_profile("default", max_examples=25, deadline=None)
settings.register_profile(
    "chaos",
    max_examples=int(os.environ.get("CHAOS_MAX_EXAMPLES", "200")),
    deadline=None,
    print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

TESTS = Path(__file__).resolve().parent
_MOVED = pytest.StashKey[list]()


class PinTable:
    """``tests/pins.json`` and what one test session did with it."""

    def __init__(self, config):
        self.config = config
        self.values = json.loads((TESTS / "pins.json").read_text())
        self.read = set()
        self.moved = {}    # name -> (table value, run value), in order met
        self.unread = []
        self.every_pin_selected = False

    def check(self, item, name, value):
        value = json.loads(json.dumps(value))  # tuples -> lists, as stored
        self.read.add(name)
        if name not in self.values or self.values[name] != value:
            self.moved[name] = (self.values.get(name), value)
            item.stash.setdefault(_MOVED, []).append(name)

    @pytest.hookimpl(tryfirst=True)
    def pytest_collection_modifyitems(self, items):
        # Runs before -m/-k deselect anything.
        any_pinned = False
        for item in items:
            marked = item.get_closest_marker("pin") is not None
            if marked != ("pin" in getattr(item, "fixturenames", ())):
                raise pytest.UsageError(
                    f"{item.nodeid}: a test carries @pytest.mark.pin "
                    "exactly when it checks values through the pin fixture")
            any_pinned = any_pinned or marked
        here = self.config.invocation_params.dir
        self.every_pin_selected = any_pinned and all(
            TESTS.is_relative_to(Path(here, arg).resolve())
            for arg in self.config.args)

    def pytest_deselected(self, items):
        if any(item.get_closest_marker("pin") for item in items):
            self.every_pin_selected = False

    @pytest.hookimpl(wrapper=True)
    def pytest_runtest_makereport(self, item, call):
        report = yield
        moved = item.stash.get(_MOVED, None)
        if call.when == "call" and moved and report.passed:
            report.outcome = "failed"
            report.longrepr = "\n".join(
                f"{name} moved: tests/pins.json holds "
                f"{self.moved[name][0]!r}, this run gave "
                f"{self.moved[name][1]!r}" for name in moved)
        return report

    @pytest.hookimpl(wrapper=True)
    def pytest_runtestloop(self, session):
        result = yield
        if (self.every_pin_selected and not session.testsfailed
                and not self.config.option.collectonly):
            self.unread = [name for name in self.values
                           if name not in self.read]
            session.testsfailed += len(self.unread)
        return result

    def pytest_terminal_summary(self, terminalreporter):
        for name, (old, new) in self.moved.items():
            terminalreporter.write_line(
                f"pin {name}: {json.dumps(old)} -> {json.dumps(new)}")
        for name in self.unread:
            terminalreporter.write_line(f"pin {name}: no test reads it")


_TABLE = pytest.StashKey[PinTable]()


def pytest_configure(config):
    config.stash[_TABLE] = table = PinTable(config)
    config.pluginmanager.register(table, "pin-table")


@pytest.fixture
def pin(request):
    """``pin(name, value)``: check ``value`` against ``tests/pins.json``.

    A mismatch is recorded, not raised, so a test that checks several
    pins reports every one that moved; the test fails once it returns.
    """
    return functools.partial(request.config.stash[_TABLE].check,
                             request.node)
