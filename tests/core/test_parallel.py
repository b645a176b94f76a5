"""The readers-writer lock the facade serialises ingest against queries with.

(:class:`repro.parallel.RemoteTraceback`, the module's other export, is
exercised where it is raised: ``tests/sp/test_affine.py``.)
"""

from __future__ import annotations

import pytest

from repro.errors import ParameterError


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
