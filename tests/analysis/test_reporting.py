"""Tests for paper-style reporting."""

from repro.analysis import mark_effectiveness, render_table


class TestRenderTable:
    def test_contains_headers_and_rows(self):
        out = render_table(["A", "B"], [[1, 2.5], ["x", 3.0]], title="T")
        assert "T" in out
        assert "A" in out and "B" in out
        assert "2.500" in out
        assert "x" in out

    def test_column_alignment(self):
        out = render_table(["name", "v"], [["longvaluehere", 1.0]])
        lines = out.splitlines()
        assert len(lines[0]) >= len("longvaluehere")

    def test_custom_float_format(self):
        out = render_table(["v"], [[1.23456]], float_fmt="{:.1f}")
        assert "1.2" in out
        assert "1.234" not in out


class TestMarkEffectiveness:
    def test_clear_winner_and_loser(self):
        results = {
            "good": {"avg": 1.0, "p99": 10.0, "thr": 100.0},
            "bad": {"avg": 3.0, "p99": 40.0, "thr": 50.0},
        }
        marks = mark_effectiveness(results)
        assert marks["good"] == "ok"
        assert marks["bad"] == "x"

    def test_single_weakness_is_tilde(self):
        results = {
            "best": {"avg": 1.0, "p99": 10.0, "thr": 100.0},
            "meh": {"avg": 2.0, "p99": 11.0, "thr": 99.0},
        }
        marks = mark_effectiveness(results)
        assert marks["meh"] == "~"

    def test_all_equal_all_ok(self):
        row = {"avg": 1.0, "p99": 2.0, "thr": 3.0}
        marks = mark_effectiveness({"a": dict(row), "b": dict(row)})
        assert set(marks.values()) == {"ok"}

    def test_empty(self):
        assert mark_effectiveness({}) == {}
