"""Round-trip tests for the VO wire codec, both proof families."""

import pytest

from repro import DataObject, HybridStorageSystem, KeywordQuery
from repro.core.query.codec import VOCodec
from repro.core.query.verify import verify_query
from repro.errors import ReproError


def loaded(scheme, docs, **kwargs):
    system = HybridStorageSystem(
        scheme=scheme, cvc_modulus_bits=512, seed=5, **kwargs
    )
    system.add_objects(docs)
    return system


QUERIES = [
    "covid-19 AND symptom",
    "symptom",
    "covid-19 AND symptom AND vaccine",
    "covid-19 AND ghost",
    "(covid-19 AND vaccine) OR (sars-cov-2 AND vaccine)",
]


class TestRoundTrip:
    @pytest.mark.parametrize("scheme", ["smi", "ci", "ci*"])
    @pytest.mark.parametrize("text", QUERIES)
    def test_encode_decode_identity(self, scheme, text, small_docs):
        system = loaded(scheme, small_docs)
        codec = VOCodec(value_bytes=system.value_bytes)
        answer = system.process_query(KeywordQuery.parse(text))
        payload = codec.encode(answer.vo)
        assert codec.decode(payload) == answer.vo

    def test_decoded_vo_still_verifies(self, small_docs):
        system = loaded("ci", small_docs)
        codec = VOCodec(value_bytes=system.value_bytes)
        query = KeywordQuery.parse("covid-19 AND symptom")
        answer = system.process_query(query)
        answer.vo = codec.decode(codec.encode(answer.vo))
        ps = system.chain_proof_system(query.all_keywords())
        verified = verify_query(query, answer, ps)
        assert verified.ids == {4}

    def test_semijoin_plan_roundtrip(self, small_docs):
        system = loaded("smi", small_docs, join_plan="semijoin")
        codec = VOCodec(value_bytes=system.value_bytes)
        answer = system.process_query(
            KeywordQuery.parse("covid-19 AND symptom AND vaccine")
        )
        assert codec.decode(codec.encode(answer.vo)) == answer.vo


@pytest.fixture(scope="module")
def wide_systems():
    """All four schemes at a 1 024-bit modulus (128-byte group elements)."""
    docs = [
        DataObject(oid, kws, b"content-%d" % oid)
        for oid, kws in (
            (1, ("covid-19", "sars-cov-2")),
            (2, ("covid-19",)),
            (4, ("covid-19", "symptom", "vaccine")),
            (5, ("covid-19", "vaccine")),
            (6, ("symptom",)),
            (7, ("sars-cov-2", "vaccine")),
        )
    ]
    systems = {}
    for scheme in ("mi", "smi", "ci", "ci*"):
        system = HybridStorageSystem(scheme=scheme, cvc_modulus_bits=1024, seed=5)
        system.add_objects(docs)
        systems[scheme] = system
    return systems


class TestByteSizeExactness:
    """``byte_size()`` is the wire truth: it must equal ``len(encode())``."""

    @pytest.mark.parametrize("scheme", ["smi", "ci", "ci*"])
    @pytest.mark.parametrize("text", QUERIES)
    def test_vo_byte_size_matches_wire(self, scheme, text, small_docs):
        system = loaded(scheme, small_docs)
        codec = VOCodec(value_bytes=system.value_bytes)
        vo = system.process_query(KeywordQuery.parse(text)).vo
        assert vo.byte_size() == len(codec.encode(vo))

    @pytest.mark.parametrize("text", QUERIES)
    def test_v2_frame_byte_size_matches_wire(self, text, wide_systems):
        """Named for the second frame there once was; what varies now is
        the element width: all four schemes at a 1 024-bit modulus (the
        tables know their own width, no argument carries it)."""
        for system in wide_systems.values():
            assert system.value_bytes == (128 if system.uses_cvc else 32)
            codec = VOCodec(value_bytes=system.value_bytes)
            answer = system.process_query(KeywordQuery.parse(text))
            assert answer.vo.byte_size() == len(codec.encode(answer.vo))
            assert answer.vo_byte_size() == answer.vo.byte_size()

    def test_merkle_path_byte_size_matches_wire_delta(self, small_docs):
        """Dropping one table shrinks the frame by exactly its claimed
        ``byte_size()`` plus its kind tag — pins each table's size
        formula to the codec, not just the aggregate."""
        import dataclasses

        text = "(covid-19 AND vaccine) OR (sars-cov-2 AND vaccine)"
        for scheme in ("mi", "smi", "ci", "ci*"):
            system = loaded(scheme, small_docs)
            codec = VOCodec(value_bytes=system.value_bytes)
            vo = system.process_query(KeywordQuery.parse(text)).vo
            assert len(vo.multiproofs) == 3
            whole = len(codec.encode(vo))
            for index, table in enumerate(vo.multiproofs):
                rest = vo.multiproofs[:index] + vo.multiproofs[index + 1 :]
                # (the conjuncts then name a table too many: such bytes
                # encode, they just do not decode)
                stripped = dataclasses.replace(vo, multiproofs=rest)
                assert whole - len(codec.encode(stripped)) == 1 + table.byte_size()
            assert whole == vo.byte_size()
            assert vo.proof_byte_size() == sum(
                t.byte_size() - 40 * len(t.leaves) for t in vo.multiproofs
            )


class TestMalformedPayloads:
    def test_truncated(self, small_docs):
        system = loaded("smi", small_docs)
        codec = VOCodec(value_bytes=32)
        payload = codec.encode(
            system.process_query(KeywordQuery.parse("symptom")).vo
        )
        with pytest.raises(ReproError):
            codec.decode(payload[:-3])

    def test_trailing_garbage(self, small_docs):
        system = loaded("smi", small_docs)
        codec = VOCodec(value_bytes=32)
        payload = codec.encode(
            system.process_query(KeywordQuery.parse("symptom")).vo
        )
        with pytest.raises(ReproError):
            codec.decode(payload + b"\x00")

    def test_bad_value_bytes(self):
        with pytest.raises(ReproError):
            VOCodec(value_bytes=0)

    def test_unknown_proof_tag(self):
        codec = VOCodec(value_bytes=32)
        # One table of a kind nobody writes.
        with pytest.raises(ReproError, match="unknown table kind"):
            codec.decode(b"\xf6\x01\x09")
        # One conjunct of a kind nobody writes.
        with pytest.raises(ReproError, match="unknown conjunct kind"):
            codec.decode(b"\xf6\x00\x01" + b"\x01\x01a" + b"\x09")
        # A retired frame: the unmarked v2 layout, and the v5 marker.
        for retired in (b"\x01\x01\x01a\x00\x00\x00", b"\xf5\x00\x00"):
            with pytest.raises(ReproError, match="unsupported VO frame"):
                codec.decode(retired)

    def test_wire_size_used_by_system(self, small_docs):
        system = loaded("smi", small_docs)
        result = system.query("covid-19 AND symptom")
        codec = VOCodec(value_bytes=system.value_bytes)
        answer = system.process_query(KeywordQuery.parse("covid-19 AND symptom"))
        assert result.vo_sp_bytes == len(codec.encode(answer.vo))


class TestCodecFuzz:
    def test_random_bytes_never_crash_unexpectedly(self):
        """Decoding arbitrary bytes must fail cleanly (ReproError), never
        with an unhandled exception type."""
        import random

        from repro.errors import ReproError

        rng = random.Random(2024)
        codec = VOCodec(value_bytes=64)
        for _ in range(300):
            blob = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 80)))
            try:
                codec.decode(blob)
            except ReproError:
                pass
            except UnicodeDecodeError:
                pass  # keyword bytes may be invalid UTF-8: also a clean reject

    def test_bitflip_fuzz_on_valid_payload(self, small_docs):
        """Single-bit corruptions either fail to decode or decode to a VO
        that no longer verifies — never silently pass verification with
        altered content."""
        import random

        from repro.core.query.verify import verify_query
        from repro.errors import ReproError, VerificationError

        system = loaded("smi", small_docs)
        codec = VOCodec(value_bytes=system.value_bytes)
        query = KeywordQuery.parse("covid-19 AND symptom")
        answer = system.process_query(query)
        payload = bytearray(codec.encode(answer.vo))
        ps = system.chain_proof_system(query.all_keywords())
        rng = random.Random(7)
        flips = 0
        for _ in range(60):
            position = rng.randrange(len(payload))
            bit = 1 << rng.randrange(8)
            payload[position] ^= bit
            try:
                mutated = codec.decode(bytes(payload))
                answer.vo = mutated
                verified = verify_query(query, answer, ps)
                # A surviving decode+verify must mean the flip landed in
                # a part that decodes identically (e.g. it was flipped
                # back) — results must be unchanged.
                assert verified.ids == {4}
            except (ReproError, VerificationError, UnicodeDecodeError,
                    OverflowError, AssertionError):
                flips += 1
            finally:
                payload[position] ^= bit  # restore
        assert flips > 0
