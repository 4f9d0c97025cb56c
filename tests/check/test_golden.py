"""Tests for repro.check.golden's canonical JSON and fingerprints."""

from repro.check.golden import canonical_json, fingerprint


class TestGolden:
    def test_canonical_json_is_order_insensitive(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json(
            {"a": 2, "b": 1})

    def test_fingerprint_is_sha256_hex(self):
        fp = fingerprint({"x": 1})
        assert len(fp) == 64
        int(fp, 16)  # hex-parsable

    def test_fingerprint_differs_on_value_change(self):
        assert fingerprint({"x": 1}) != fingerprint({"x": 2})
