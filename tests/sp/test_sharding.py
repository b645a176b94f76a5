"""Shard-transparency tests: sharding must be invisible above the SP.

The design invariant: each keyword's ADS receives exactly the insert
sequence a single-shard system applies, so answers, per-conjunct VO
encodings, gas receipts and verification outcomes are byte-identical
for any shard count.  These tests pin that down for every scheme and
both engines, plus a concurrent mixed insert/query load.
"""

import sys
import threading

import pytest

from repro.core.objects import DataObject
from repro.core.query.codec import VOCodec
from repro.core.query.parser import KeywordQuery
from repro.core.system import HybridStorageSystem

SCHEMES = ["mi", "smi", "ci", "ci*"]

QUERIES = [
    "alpha AND gamma",
    "alpha AND beta",
    "delta",
    "(alpha AND beta) OR (gamma AND delta)",
    "alpha AND missing",
]


def make_docs(count=10):
    keyword_sets = [
        ("alpha", "beta", "delta"),
        ("alpha", "gamma"),
        ("beta", "gamma", "delta"),
        ("alpha", "beta", "gamma", "delta"),
        ("gamma",),
    ]
    return [
        DataObject(i, keyword_sets[i % len(keyword_sets)], b"payload-%d" % i)
        for i in range(count)
    ]


def vo_frame(system, vo):
    """The VO's wire frame, as the system's SP server encodes it."""
    return VOCodec(value_bytes=system.value_bytes).encode(vo)


def build(scheme, shards, **kwargs):
    system = HybridStorageSystem(
        scheme=scheme, seed=13, shards=shards, cvc_modulus_bits=512, **kwargs
    )
    reports = [system.add_object(obj) for obj in make_docs()]
    return system, reports


@pytest.mark.parametrize("scheme", SCHEMES)
class TestShardTransparency:
    def test_answers_vo_and_gas_identical(self, scheme):
        base, base_reports = build(scheme, shards=1)
        sharded, sharded_reports = build(scheme, shards=8)

        # Gas receipts: the chain never sees the shard layout.
        assert [r.gas for r in base_reports] == [
            r.gas for r in sharded_reports
        ]

        for text in QUERIES:
            query = KeywordQuery.parse(text)
            answer_base = base.process_query(query)
            answer_sharded = sharded.process_query(query)
            assert answer_base.result_ids == answer_sharded.result_ids
            # Per-conjunct VOs, byte for byte through the wire codec.
            from repro.core.query.vo import QueryVO

            for vo_base, vo_sharded in zip(
                answer_base.vo.conjuncts, answer_sharded.vo.conjuncts
            ):
                assert vo_frame(base, QueryVO(conjuncts=(vo_base,))) == vo_frame(
                    sharded, QueryVO(conjuncts=(vo_sharded,))
                )

            result_base = base.query(text)
            result_sharded = sharded.query(text)
            assert result_base.result_ids == result_sharded.result_ids
            assert result_base.vo_sp_bytes == result_sharded.vo_sp_bytes
            assert result_base.vo_chain_bytes == result_sharded.vo_chain_bytes
        base.close()
        sharded.close()

    def test_objects_reachable_from_any_shard_count(self, scheme):
        system, _ = build(scheme, shards=8)
        assert len(system) == 10
        assert system.all_object_ids() == list(range(10))
        for object_id in system.all_object_ids():
            assert system.get_object(object_id).object_id == object_id
        system.close()

    def test_disk_engine_is_equally_transparent(self, scheme, tmp_path):
        base, _ = build(scheme, shards=1)
        sharded, _ = build(scheme, shards=4, engine="disk", engine_dir=tmp_path)
        for text in QUERIES[:3]:
            result_base = base.query(text)
            result_sharded = sharded.query(text)
            assert result_base.result_ids == result_sharded.result_ids
            assert result_base.vo_sp_bytes == result_sharded.vo_sp_bytes
        base.close()
        sharded.close()


class TestConcurrentMixedLoad:
    def test_one_writer_seven_readers(self):
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            system = HybridStorageSystem(scheme="mi", seed=3, shards=8)
            for obj in make_docs(6):
                system.add_object(obj)

            n_readers = 7
            barrier = threading.Barrier(n_readers + 1)
            errors = []

            def writer():
                barrier.wait()
                try:
                    for i in range(6, 30):
                        system.add_object(
                            DataObject(
                                i,
                                ("alpha", "hot%d" % (i % 3)),
                                b"w-%d" % i,
                            )
                        )
                except BaseException as exc:
                    errors.append(exc)

            def reader(index):
                barrier.wait()
                try:
                    for _ in range(12):
                        result = system.query("alpha AND beta")
                        # Snapshot isolation: whatever prefix of the
                        # write stream we see, the answer verifies and
                        # only complete objects appear.
                        for object_id in result.result_ids:
                            assert (
                                system.get_object(object_id).object_id
                                == object_id
                            )
                except BaseException as exc:
                    errors.append(exc)

            threads = [threading.Thread(target=writer)] + [
                threading.Thread(target=reader, args=(i,))
                for i in range(n_readers)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert errors == []
            assert len(system) == 30
            system.query("alpha AND beta")
            system.close()
        finally:
            sys.setswitchinterval(previous)
