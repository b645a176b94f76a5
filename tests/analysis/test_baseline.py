"""Baseline round-trip, absorption, and staleness tests."""

import json

import pytest

from repro.analysis.baseline import BASELINE_VERSION, Baseline
from repro.analysis.findings import Finding


def make_finding(line=1, rule="timing-safe-compare", symbol="f"):
    return Finding(
        path="src/repro/crypto/hashing.py",
        module="crypto/hashing.py",
        line=line,
        col=1,
        rule=rule,
        message="m",
        symbol=symbol,
    )


class TestRoundTrip:
    def test_save_and_load(self, tmp_path):
        findings = [make_finding(line=5), make_finding(line=9)]
        path = tmp_path / "baseline.json"
        Baseline.from_findings(findings).save(str(path))
        loaded = Baseline.load(str(path))
        assert loaded.entries == {findings[0].baseline_key: 2}

    def test_file_is_versioned_and_sorted(self, tmp_path):
        path = tmp_path / "baseline.json"
        findings = [make_finding(symbol="b"), make_finding(symbol="a")]
        Baseline.from_findings(findings).save(str(path))
        payload = json.loads(path.read_text())
        assert payload["version"] == BASELINE_VERSION
        assert list(payload["entries"]) == sorted(payload["entries"])

    def test_version_mismatch_raises(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"version": 999, "entries": {}}))
        with pytest.raises(ValueError):
            Baseline.load(str(path))


class TestApply:
    def test_absorbs_up_to_count(self):
        baseline = Baseline.from_findings([make_finding(line=5)])
        fresh, absorbed, stale = baseline.apply(
            [make_finding(line=50), make_finding(line=60)]
        )
        assert absorbed == 1
        assert len(fresh) == 1
        assert stale == []

    def test_line_drift_still_matches(self):
        baseline = Baseline.from_findings([make_finding(line=5)])
        fresh, absorbed, stale = baseline.apply([make_finding(line=500)])
        assert (fresh, absorbed, stale) == ([], 1, [])

    def test_different_rule_is_fresh(self):
        baseline = Baseline.from_findings([make_finding(rule="determinism")])
        fresh, absorbed, stale = baseline.apply([make_finding(rule="crypto-hygiene")])
        assert absorbed == 0
        assert [f.rule for f in fresh] == ["crypto-hygiene"]
        assert len(stale) == 1

    def test_stale_keys_reported_when_fixed(self):
        baseline = Baseline.from_findings([make_finding()])
        fresh, absorbed, stale = baseline.apply([])
        assert (fresh, absorbed) == ([], 0)
        assert stale == [make_finding().baseline_key]
