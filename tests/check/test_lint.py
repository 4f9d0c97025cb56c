"""The nondeterminism linter: rule coverage, allowlisting, repo cleanliness."""

import textwrap

from repro.check.lint import (
    Finding,
    default_allowlist_path,
    lint_paths,
    lint_source,
    load_allowlist,
)


def _lint(code: str, path: str = "mod.py"):
    return lint_source(textwrap.dedent(code), path)


class TestUnseededRandom:
    def test_unseeded_random_flagged(self):
        findings = _lint("""
            import random
            rng = random.Random()
        """)
        assert [f.rule for f in findings] == ["unseeded-random"]

    def test_seeded_random_clean(self):
        assert _lint("""
            import random
            rng = random.Random(42)
        """) == []

    def test_global_rng_function_flagged(self):
        findings = _lint("""
            import random
            x = random.choice([1, 2])
        """)
        assert [f.rule for f in findings] == ["unseeded-random"]

    def test_imported_unseeded_random_flagged(self):
        findings = _lint("""
            from random import Random
            rng = Random()
        """)
        assert [f.rule for f in findings] == ["unseeded-random"]


class TestWallClock:
    def test_time_time_flagged(self):
        findings = _lint("""
            import time
            t = time.time()
        """)
        assert [f.rule for f in findings] == ["wall-clock"]

    def test_imported_monotonic_flagged(self):
        findings = _lint("""
            from time import monotonic
            t = monotonic()
        """)
        assert [f.rule for f in findings] == ["wall-clock"]

    def test_datetime_now_flagged(self):
        findings = _lint("""
            import datetime
            t = datetime.datetime.now()
        """)
        assert [f.rule for f in findings] == ["wall-clock"]

    def test_sim_clock_clean(self):
        assert _lint("""
            def sample(env):
                return env.now
        """) == []


class TestUnorderedIteration:
    def test_set_literal_iteration_flagged(self):
        findings = _lint("""
            def walk():
                for x in {1, 2, 3}:
                    yield x
        """)
        assert [f.rule for f in findings] == ["unordered-iteration"]

    def test_set_call_comprehension_flagged(self):
        findings = _lint("""
            def collect(items):
                return [x for x in set(items)]
        """)
        assert [f.rule for f in findings] == ["unordered-iteration"]

    def test_set_annotated_attribute_flagged(self):
        findings = _lint("""
            from typing import Set

            class Worker:
                def __init__(self):
                    self.socks: Set[int] = set()

                def drain(self):
                    for sock in self.socks:
                        sock.close()
        """)
        rules = [f.rule for f in findings]
        assert "unordered-iteration" in rules
        assert any(f.qualname == "Worker.drain" for f in findings)

    def test_dict_items_only_flagged_in_decision_functions(self):
        decision = _lint("""
            def select_worker(table):
                for k, v in table.items():
                    pass
        """)
        assert [f.rule for f in decision] == ["unordered-iteration"]
        plain = _lint("""
            def render(table):
                for k, v in table.items():
                    pass
        """)
        assert plain == []

    def test_sorted_iteration_clean(self):
        assert _lint("""
            def select_worker(workers):
                for w in sorted(workers):
                    pass
        """) == []


class TestRefcountDependence:
    def test_getrefcount_call_and_alias_flagged(self):
        findings = _lint("""
            import sys
            from sys import getrefcount
            def recycle(event, pool):
                count = sys.getrefcount
                if sys.getrefcount(event) == 2:
                    pool.append(event)
        """)
        assert [f.rule for f in findings] == ["refcount-dependence"] * 3


class TestAllowlist:
    def test_allowlist_suppresses(self, tmp_path):
        target = tmp_path / "clocky.py"
        target.write_text("import time\nt = time.time()\n")
        allow = tmp_path / "allow.txt"
        allow.write_text("# reviewed\n*clocky.py:wall-clock:*\n")
        findings, suppressed = lint_paths([str(target)], allowlist=allow)
        assert findings == []
        assert suppressed == 1

    def test_missing_allowlist_is_empty(self, tmp_path):
        assert load_allowlist(tmp_path / "nope.txt") == []

    def test_finding_key_shape(self):
        finding = Finding("a/b.py", 3, "wall-clock", "f", "msg")
        assert finding.key == "a/b.py:wall-clock:f"
        assert "a/b.py:3" in str(finding)


class TestRepoIsClean:
    def test_src_lints_clean_with_packaged_allowlist(self):
        findings, suppressed = lint_paths(
            ["src"], allowlist=default_allowlist_path())
        assert findings == [], "\n".join(str(f) for f in findings)
        # The allowlist is real: it suppresses reviewed exceptions.
        assert suppressed > 0
