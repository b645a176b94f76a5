"""Framework-level tests: suppressions, module keys, registry, findings."""

import pytest

from repro.analysis import lint_source, registered_rules
from repro.analysis.findings import Finding
from repro.analysis.framework import default_checkers, module_key_for

TIMING_BAD_LINE = "ok = stored_root == computed_root\n"

ALL_RULES = {
    "timing-safe-compare",
    "crypto-hygiene",
    "determinism",
    "verification-discipline",
    "gas-integrality",
    "lock-discipline",
}


class TestSuppressions:
    def test_same_line_disable(self):
        src = (
            "ok = stored_root == computed_root"
            "  # reprolint: disable=timing-safe-compare\n"
        )
        assert lint_source(src, module="crypto/hashing.py") == []

    def test_disable_next_line(self):
        src = (
            "# reprolint: disable-next-line=timing-safe-compare\n"
            + TIMING_BAD_LINE
        )
        assert lint_source(src, module="crypto/hashing.py") == []

    def test_disable_all(self):
        src = "ok = stored_root == computed_root  # reprolint: disable=all\n"
        assert lint_source(src, module="crypto/hashing.py") == []

    def test_unrelated_rule_does_not_suppress(self):
        src = (
            "ok = stored_root == computed_root"
            "  # reprolint: disable=determinism\n"
        )
        findings = lint_source(src, module="crypto/hashing.py")
        assert [f.rule for f in findings] == ["timing-safe-compare"]

    def test_multiple_rules_in_one_comment(self):
        src = (
            "ok = stored_root == computed_root"
            "  # reprolint: disable=determinism,timing-safe-compare\n"
        )
        assert lint_source(src, module="crypto/hashing.py") == []


class TestModuleKeys:
    def test_path_inside_repro_package(self):
        assert module_key_for("src/repro/crypto/hashing.py") == "crypto/hashing.py"
        assert (
            module_key_for("/root/repo/src/repro/core/query/verify.py")
            == "core/query/verify.py"
        )

    def test_path_outside_repro_keys_on_basename(self):
        assert module_key_for("/tmp/fixtures/check_me.py") == "check_me.py"


class TestRegistry:
    def test_all_six_rules_registered(self):
        default_checkers()  # import side effect registers the built-ins
        assert ALL_RULES <= set(registered_rules())

    def test_select_subset(self):
        checkers = default_checkers(["timing-safe-compare"])
        assert [c.rule for c in checkers] == ["timing-safe-compare"]

    def test_select_unknown_rule_raises(self):
        with pytest.raises(KeyError):
            default_checkers(["no-such-rule"])


class TestFindings:
    def test_baseline_key_is_line_independent(self):
        a = Finding(
            path="src/repro/crypto/hashing.py",
            module="crypto/hashing.py",
            line=10,
            col=5,
            rule="timing-safe-compare",
            message="m",
            symbol="verify_proof",
        )
        b = Finding(
            path="src/repro/crypto/hashing.py",
            module="crypto/hashing.py",
            line=99,
            col=1,
            rule="timing-safe-compare",
            message="m",
            symbol="verify_proof",
        )
        assert a.baseline_key == b.baseline_key

    def test_render_carries_location_and_rule(self):
        finding = Finding(
            path="x.py",
            module="x.py",
            line=3,
            col=7,
            rule="determinism",
            message="msg",
            symbol="f",
        )
        assert "x.py:3:7" in finding.render()
        assert "determinism" in finding.render()
