"""Executor policy: resolution, equivalence with serial, error paths.

The contract of :mod:`repro.parallel` is that swapping ``serial`` for a
pool changes wall-clock time only: ordering, results and raised
exceptions are identical.  Pools serve the SP side; client verification
always runs in the caller.  Process pools are exercised sparingly
because of their per-worker start-up cost.
"""

from __future__ import annotations

import pytest

from repro import DataObject, HybridStorageSystem
from repro.errors import ParameterError, VerificationError
from repro.parallel import (
    EXECUTOR_KINDS,
    PoolExecutor,
    RemoteTraceback,
    SerialExecutor,
    make_executor,
)


def _square(x):
    return x * x


def _boom(x):
    raise ValueError(f"boom on {x}")


class TestMakeExecutor:
    def test_defaults_to_serial(self):
        assert make_executor(None).kind == "serial"
        assert make_executor("serial").kind == "serial"

    def test_passthrough_of_instances(self):
        ex = SerialExecutor()
        assert make_executor(ex) is ex

    def test_thread_pool(self):
        ex = make_executor("thread", workers=2)
        try:
            assert ex.kind == "thread"
            assert ex.map(_square, [1, 2, 3]) == [1, 4, 9]
        finally:
            ex.close()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ParameterError):
            make_executor("gpu")

    def test_kinds_registry(self):
        assert set(EXECUTOR_KINDS) == {"serial", "thread", "process"}


class TestExecutorSemantics:
    def test_order_preserved(self):
        ex = PoolExecutor("thread", workers=4)
        try:
            items = list(range(50))
            assert ex.map(_square, items) == [x * x for x in items]
        finally:
            ex.close()

    def test_first_error_propagates(self):
        for ex in (SerialExecutor(), PoolExecutor("thread", workers=2)):
            try:
                with pytest.raises(ValueError):
                    ex.map(_boom, [1, 2])
            finally:
                ex.close()

    def test_first_failing_item_in_input_order_wins(self):
        ex = PoolExecutor("thread", workers=4)
        try:
            with pytest.raises(ValueError, match="boom on 2"):
                ex.map(_boom_on_even, [1, 3, 2, 4, 6])
        finally:
            ex.close()


def _boom_on_even(x):
    if x % 2 == 0:
        raise ValueError(f"boom on {x}")
    return x


class TestRemoteTraceback:
    """Worker failures surface with their original type and traceback."""

    @pytest.mark.parametrize("kind", ["thread", "process"])
    def test_worker_traceback_chained_as_cause(self, kind):
        ex = PoolExecutor(kind, workers=2)
        try:
            with pytest.raises(ValueError, match="boom on 1") as info:
                ex.map(_boom, [1, 2])
        finally:
            ex.close()
        cause = info.value.__cause__
        assert isinstance(cause, RemoteTraceback)
        # The worker-side frame (the raise inside _boom) is preserved.
        assert "_boom" in cause.formatted
        assert "boom on 1" in cause.formatted
        assert "(worker traceback)" in str(cause)


class TestChunksize:
    def test_chunked_process_map_matches_serial(self):
        ex = PoolExecutor("process", workers=2, chunksize=5)
        try:
            items = list(range(20))
            assert ex.map(_square, items) == [x * x for x in items]
            # A per-call override beats the executor default.
            assert ex.map(_square, items, chunksize=3) == [
                x * x for x in items
            ]
        finally:
            ex.close()

    def test_invalid_chunksize_rejected(self):
        with pytest.raises(ParameterError):
            PoolExecutor("thread", chunksize=0)
        ex = PoolExecutor("thread", workers=1)
        try:
            with pytest.raises(ParameterError):
                ex.map(_square, [1], chunksize=0)
        finally:
            ex.close()

    def test_make_executor_forwards_chunksize(self):
        ex = make_executor("thread", workers=1, chunksize=4)
        try:
            assert ex.chunksize == 4
        finally:
            ex.close()


DOCS = [
    DataObject(1, ("covid-19", "sars-cov-2"), b"a"),
    DataObject(2, ("covid-19",), b"b"),
    DataObject(4, ("covid-19", "symptom", "vaccine"), b"c"),
    DataObject(5, ("covid-19", "vaccine"), b"d"),
    DataObject(6, ("symptom",), b"e"),
    DataObject(7, ("sars-cov-2", "vaccine"), b"f"),
]

QUERIES = (
    "(covid-19 AND vaccine) OR (sars-cov-2 AND vaccine) OR symptom",
    "covid-19 AND vaccine",
    "symptom OR missing-keyword",
    "covid-19",
)


@pytest.mark.parametrize("scheme", ["smi", "ci", "ci*"])
class TestParallelQueryEquivalence:
    def test_thread_executor_matches_serial(self, scheme):
        serial = HybridStorageSystem(
            scheme=scheme, cvc_modulus_bits=512, seed=21
        )
        threaded = HybridStorageSystem(
            scheme=scheme,
            cvc_modulus_bits=512,
            seed=21,
            executor="thread",
            executor_workers=3,
        )
        try:
            serial.add_objects(DOCS)
            threaded.add_objects(DOCS)
            for text in QUERIES:
                a = serial.query(text)
                b = threaded.query(text)
                assert a.result_ids == b.result_ids, (scheme, text)
                assert b.verified
        finally:
            threaded.close()

    def test_tampering_detected_under_parallel_verification(self, scheme):
        system = HybridStorageSystem(
            scheme=scheme,
            cvc_modulus_bits=512,
            seed=21,
            executor="thread",
            executor_workers=3,
        )
        try:
            system.add_objects(DOCS)
            answer = system.process_query(
                system.query("covid-19 OR symptom").query
            )
            answer.result_ids.pop()  # SP silently drops a result
            from repro.core.query.parser import KeywordQuery
            from repro.core.query.verify import verify_query

            query = KeywordQuery.parse("covid-19 OR symptom")
            ps = system.chain_proof_system(query.all_keywords())
            with pytest.raises(VerificationError):
                verify_query(query, answer, ps)
        finally:
            system.close()


class TestProcessExecutorSmoke:
    def test_process_pool_round_trip(self):
        """One end-to-end query through a process pool: results, the
        verification verdict and picklability of every task payload."""
        system = HybridStorageSystem(
            scheme="ci",
            cvc_modulus_bits=512,
            seed=21,
            executor="process",
            executor_workers=2,
        )
        try:
            system.add_objects(DOCS[:5])
            result = system.query("(covid-19 AND vaccine) OR symptom")
            assert result.verified
            assert result.result_ids == [4, 5, 6]
        finally:
            system.close()

    def test_tampered_opening_is_rejected_behind_a_process_pool(self):
        """Verification runs in the caller whatever pool serves the SP
        side: a deferred opening check recorded in a worker's copy of the
        proof system would never be settled, so none is made there."""
        from tests.node_tables import change, forge, rows_of, with_table

        system = HybridStorageSystem(
            scheme="ci",
            cvc_modulus_bits=512,
            seed=21,
            executor="process",
            executor_workers=2,
        )
        try:
            system.add_objects(DOCS[:5])
            honest = system._sp.process_query

            def flipping(query):
                answer = honest(query)
                table = answer.vo.multiproofs[0]
                victim = next(row for row in rows_of(table) if row.is_entry)
                with_table(
                    answer,
                    0,
                    forge(
                        table,
                        {victim.position: change(slot1_proof=victim.slot1_proof ^ 1)},
                    ),
                )
                return answer

            system._sp.process_query = flipping
            with pytest.raises(VerificationError, match="slot-1 opening"):
                system.query("(covid-19 AND vaccine) OR symptom")
            system._sp.process_query = honest
            assert system.query("(covid-19 AND vaccine) OR symptom").verified
        finally:
            system.close()


class TestReadWriteLock:
    def test_concurrent_readers(self):
        import threading

        from repro.parallel import ReadWriteLock

        lock = ReadWriteLock()
        inside = threading.Barrier(4, timeout=5)

        def reader():
            with lock.read():
                inside.wait()  # all 4 readers hold the lock together

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=5)
        assert not any(thread.is_alive() for thread in threads)

    def test_writer_excludes_readers(self):
        import threading

        from repro.parallel import ReadWriteLock

        lock = ReadWriteLock()
        order = []
        writer_in = threading.Event()

        def writer():
            with lock.write():
                writer_in.set()
                order.append("write")

        def reader():
            writer_in.wait(timeout=5)
            with lock.read():
                order.append("read")

        lock.acquire_read()
        w = threading.Thread(target=writer)
        w.start()
        # The writer queues behind the live reader; a new reader must
        # now wait for it (writer preference).
        r = threading.Thread(target=reader)
        r.start()
        lock.release_read()
        w.join(timeout=5)
        r.join(timeout=5)
        assert order == ["write", "read"]

    def test_reentrant_read(self):
        from repro.parallel import ReadWriteLock

        lock = ReadWriteLock()
        with lock.read():
            with lock.read():
                pass
        # Fully released: a writer can proceed inline.
        with lock.write():
            pass

    def test_write_then_nested_read(self):
        from repro.parallel import ReadWriteLock

        lock = ReadWriteLock()
        with lock.write():
            with lock.read():
                pass
            with lock.write():
                pass

    def test_upgrade_rejected(self):
        from repro.parallel import ReadWriteLock

        lock = ReadWriteLock()
        with lock.read():
            with pytest.raises(ParameterError):
                lock.acquire_write()

    def test_misuse_rejected(self):
        from repro.parallel import ReadWriteLock

        lock = ReadWriteLock()
        with pytest.raises(ParameterError):
            lock.release_read()
        with pytest.raises(ParameterError):
            lock.release_write()


# -- executor telemetry -------------------------------------------------------


def _traced_square(x):
    from repro import obs

    with obs.span("work.square", x=x):
        obs.inc("work.calls")
        obs.observe("work.input", float(x))
        return x * x


class TestExecutorTelemetry:
    @pytest.mark.parametrize("kind", ["thread", "process"])
    def test_labeled_task_spans_reach_the_parent_trace(self, kind):
        from repro import obs
        from repro.parallel import TASK_SPAN

        executor = PoolExecutor(kind, workers=2)
        try:
            with obs.collect() as col:
                with obs.span("dispatch") as root:
                    results = executor.map(
                        _traced_square,
                        [1, 2, 3],
                        labels=[{"shard": i} for i in range(3)],
                    )
        finally:
            executor.close()
        assert results == [1, 4, 9]
        tasks = sorted(
            (s for s in col.spans if s.name == TASK_SPAN),
            key=lambda s: s.attributes["task"],
        )
        assert [t.attributes["shard"] for t in tasks] == [0, 1, 2]
        assert all(t.parent_id == root.span_id for t in tasks)
        inner = [s for s in col.spans if s.name == "work.square"]
        assert len(inner) == 3
        task_ids = {t.span_id for t in tasks}
        assert all(s.parent_id in task_ids for s in inner)

    @pytest.mark.parametrize("kind", ["thread", "process"])
    def test_metric_totals_exact_after_worker_merge(self, kind):
        from repro import obs

        executor = PoolExecutor(kind, workers=2)
        try:
            with obs.collect() as col:
                executor.map(_traced_square, list(range(1, 9)))
        finally:
            executor.close()
        snap = col.metrics.snapshot()
        assert snap["work.calls"] == 8
        assert snap["work.input"]["count"] == 8
        assert snap["work.input"]["sum"] == pytest.approx(36.0)
        assert snap["work.input"]["min"] == pytest.approx(1.0)
        assert snap["work.input"]["max"] == pytest.approx(8.0)

    @pytest.mark.parametrize("kind", ["thread", "process"])
    def test_failing_task_still_records_a_complete_span(self, kind):
        from repro import obs
        from repro.parallel import TASK_SPAN

        executor = PoolExecutor(kind, workers=2)
        try:
            with obs.collect() as col:
                with pytest.raises(ValueError) as excinfo:
                    executor.map(_boom_on_even, [1, 2, 3])
        finally:
            executor.close()
        assert isinstance(excinfo.value.__cause__, RemoteTraceback)
        tasks = [s for s in col.spans if s.name == TASK_SPAN]
        assert tasks, "the failing task's span must still be recorded"
        assert all(t.end_s is not None for t in tasks)

    @pytest.mark.parametrize("kind", ["thread", "process"])
    def test_no_collector_means_no_task_spans(self, kind):
        from repro import obs

        executor = PoolExecutor(kind, workers=2)
        try:
            results = executor.map(_square, [1, 2, 3])
        finally:
            executor.close()
        assert results == [1, 4, 9]
        assert obs.current() is None

    def test_labels_length_mismatch_raises(self):
        from repro import obs

        executor = PoolExecutor("thread", workers=1)
        try:
            with obs.collect():
                with pytest.raises(ParameterError):
                    executor.map(_square, [1, 2], labels=[{"shard": 0}])
        finally:
            executor.close()

    def test_serial_executor_ignores_labels(self):
        from repro import obs

        with obs.collect() as col:
            results = SerialExecutor().map(
                _traced_square, [2, 3], labels=[{"shard": 0}, {"shard": 1}]
            )
        assert results == [4, 9]
        assert [s.name for s in col.spans] == ["work.square", "work.square"]
