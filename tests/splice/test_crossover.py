"""The splice_crossover experiment: decisive regimes on both sides."""

import json

from repro.experiments import registry


def run_subset(keys, seed=7):
    registry.load_all()
    spec = registry.get("splice_crossover")
    return spec.run(seed=seed, overrides={"cells": list(keys)})


class TestGrid:
    def test_full_grid_enumerates_eight_cells(self):
        registry.load_all()
        spec = registry.get("splice_crossover")
        cells = spec.cells(7, {})
        assert len(cells) == 8
        keys = {cell.key for cell in cells}
        assert "small/short/hermes" in keys
        assert "large/long/splice" in keys

    def test_cells_override_subsets_the_grid(self):
        registry.load_all()
        spec = registry.get("splice_crossover")
        cells = spec.cells(7, {"cells": ["small/short/splice"]})
        assert [cell.key for cell in cells] == ["small/short/splice"]


class TestCrossover:
    def test_splice_loses_small_short(self):
        merged = run_subset(["small/short/hermes", "small/short/splice"])
        by_mode = {doc["mode"]: doc for doc in merged["cells"].values()}
        # Short connections splice too (2 requests clears splice_after=1),
        # yet setup burn + Charon's laggier weights lose the p99 here.
        assert by_mode["splice"]["splice"]["flows_spliced"] > 0
        assert by_mode["splice"]["p99_ms"] > by_mode["hermes"]["p99_ms"]

    def test_splice_wins_large_long(self):
        merged = run_subset(["large/long/hermes", "large/long/splice"])
        by_mode = {doc["mode"]: doc for doc in merged["cells"].values()}
        splice_doc = by_mode["splice"]
        # Long-lived large flows amortize setup over 15 forwarded requests.
        assert splice_doc["splice"]["requests_forwarded"] \
            > splice_doc["splice"]["flows_spliced"] * 10
        assert splice_doc["p99_ms"] < by_mode["hermes"]["p99_ms"]

    def test_verdict_needs_a_win_and_a_loss(self):
        # One winning and one losing regime together make the crossover
        # claim hold; either regime alone leaves it out.
        keys = ["small/short/hermes", "small/short/splice",
                "large/long/hermes", "large/long/splice"]
        claims = registry.get("splice_crossover").claims
        crossover = {c.name: c for c in claims(run_subset(keys))}[
            "splice_p99_crossover"]
        assert crossover.holds
        assert "wins p99 in large/long" in crossover.detail
        assert "loses in small/short" in crossover.detail
        alone = claims(run_subset(keys[2:]))
        assert [c.name for c in alone] == ["splice_wins_p99_large_long"]


class TestContract:
    def test_cells_are_json_safe_and_deterministic(self):
        first = run_subset(["small/short/splice"])
        second = run_subset(["small/short/splice"])
        assert json.dumps(first, sort_keys=True) \
            == json.dumps(second, sort_keys=True)
