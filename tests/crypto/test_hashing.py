"""Unit tests for the hashing utilities."""

import pytest

from repro.crypto import hashing


class TestSha3:
    def test_digest_size(self):
        assert len(hashing.sha3(b"abc")) == hashing.DIGEST_SIZE

    def test_deterministic(self):
        assert hashing.sha3(b"x") == hashing.sha3(b"x")

    def test_different_inputs_differ(self):
        assert hashing.sha3(b"x") != hashing.sha3(b"y")


class TestHashConcat:
    def test_equals_manual_concatenation(self):
        assert hashing.hash_concat(b"ab", b"cd") == hashing.sha3(b"abcd")

    def test_empty_parts(self):
        assert hashing.hash_concat() == hashing.sha3(b"")


class TestTaggedHash:
    def test_tags_separate_domains(self):
        assert hashing.tagged_hash("leaf", b"m") != hashing.tagged_hash(
            "node", b"m"
        )

    def test_same_tag_same_payload(self):
        assert hashing.tagged_hash("t", b"a", b"b") == hashing.tagged_hash(
            "t", b"a", b"b"
        )

    def test_tag_not_confusable_with_payload(self):
        # tag digest is repeated twice, so a payload cannot emulate a tag.
        assert hashing.tagged_hash("t", b"") != hashing.sha3(b"t")


class TestHashInt:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            hashing.hash_int(-1)

    def test_zero_and_one_differ(self):
        assert hashing.hash_int(0) != hashing.hash_int(1)


class TestWordCount:
    @pytest.mark.parametrize(
        "length,expected",
        [(0, 0), (1, 1), (31, 1), (32, 1), (33, 2), (64, 2), (65, 3)],
    )
    def test_lengths(self, length, expected):
        assert hashing.word_count(length) == expected

    def test_accepts_bytes(self):
        assert hashing.word_count(b"a" * 40) == 2

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            hashing.word_count(-1)


class TestEmptyDigest:
    def test_is_all_zero(self):
        assert hashing.EMPTY_DIGEST == b"\x00" * 32
