"""``numbers.modpow`` — the one exponentiation kernel — against builtin ``pow``.

Every exponentiation in ``repro`` goes through :func:`modpow`, which runs
OpenSSL's Montgomery exponentiation in the libcrypto ``_hashlib`` already
links and falls back to builtin ``pow`` for what Montgomery cannot take.
Whichever route a call takes, and on the public and the secret
(constant-time) entry alike, the result must be the one ``pow`` gives —
including its ``ValueError`` for a non-invertible base under a negative
exponent.  The kernel is stateless per call, so threads and a forked
child exponentiate with it as the parent does; loading it starts no
process (``ctypes.util.find_library`` would, and the e2e harness counts
its children's peak RSS); and a process that only hashes — the Merkle
schemes and their affine workers — never loads ``ctypes`` at all.

Every check raises on its own once pytest has rewritten it, so the file
holds under ``python -O`` too.
"""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from functools import cache
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.crypto import numbers
from repro.crypto.numbers import modpow
from repro.errors import CryptoError
from tests.reference_arithmetic import builtin_pow

SRC = str(Path(__file__).resolve().parents[2] / "src")


def odd_modulus(bits):
    return st.integers(1 << (bits - 1), (1 << bits) - 1).map(lambda n: n | 1)


moduli = st.one_of(
    st.integers(64, 2048).flatmap(odd_modulus),
    st.integers(2, 1 << 1024).map(lambda n: n & ~1),  # even: builtin pow
    st.just(1),
)


@st.composite
def operands(draw):
    modulus = draw(moduli)
    width = modulus.bit_length()
    base = draw(
        st.one_of(
            st.just(0),
            st.integers(0, modulus - 1),
            st.integers(modulus, modulus << 64),  # at or above the modulus
            st.integers(-(modulus << 64), -1),  # negative
        )
    )
    exponent = draw(
        st.one_of(
            st.sampled_from([0, 1, 2, 3]),
            st.integers(0, 1 << 64),
            st.integers(1 << width, 1 << (width + 64)),  # wider than the modulus
            st.integers(-(1 << 64), -1),  # an inverse, then a power
        )
    )
    return base, exponent, modulus


def pow_or_error(base, exponent, modulus):
    try:
        return pow(base, exponent, modulus)
    except ValueError:
        return ValueError


def modpow_or_error(base, exponent, modulus, secret):
    try:
        return modpow(base, exponent, modulus, secret=secret)
    except ValueError:
        return ValueError


@pytest.mark.parametrize("secret", [False, True], ids=["public", "secret"])
@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(case=operands())
def test_modpow_is_builtin_pow(secret, case):
    base, exponent, modulus = case
    assert modpow_or_error(base, exponent, modulus, secret) == pow_or_error(
        base, exponent, modulus
    )


@pytest.mark.parametrize("secret", [False, True], ids=["public", "secret"])
@pytest.mark.parametrize("bits", [64, 512, 1024, 2048])
def test_edge_operands(bits, secret):
    rng = random.Random(bits)
    odd = rng.getrandbits(bits) | 1 | (1 << (bits - 1))
    for modulus in (odd, odd + 1, 1):
        for base in (0, 1, 2, modulus - 1, modulus, modulus + 5, -1, -modulus - 3):
            for exponent in (0, 1, 2, 1 << bits, (1 << (2 * bits)) - 1, -1, -2):
                assert modpow_or_error(base, exponent, modulus, secret) == (
                    pow_or_error(base, exponent, modulus)
                ), (base, exponent, modulus)


def test_the_kernel_resolves():
    """On CPython with ``_hashlib`` the kernel loads: a silent fallback
    would keep every parity test green and every exponentiation slow."""
    assert callable(numbers._libcrypto())


def spy_on_the_kernel(monkeypatch):
    """Record every call :func:`modpow` hands to libcrypto."""
    calls = []
    kernel = numbers._libcrypto()
    monkeypatch.setattr(
        numbers,
        "_libcrypto",
        lambda: lambda *args: calls.append(args) or kernel(*args),
    )
    return calls


def unbound_kernel(monkeypatch):
    """A fresh, not yet bound :func:`numbers._libcrypto` for this test."""
    monkeypatch.setattr(numbers, "_libcrypto", cache(numbers._libcrypto.__wrapped__))


def test_reference_switch_takes_builtin_pow(monkeypatch):
    """The parity tests' reference scope (``builtin_pow``) is builtin
    ``pow``: the kernel is not called, and the result is the same."""
    calls = spy_on_the_kernel(monkeypatch)
    modulus = (1 << 1023) + 1155
    expected = pow(7, 1 << 300, modulus)
    with builtin_pow():
        assert modpow(7, 1 << 300, modulus) == expected
        assert modpow(7, 1 << 300, modulus, secret=True) == expected
    assert calls == []
    assert modpow(7, 1 << 300, modulus) == expected
    assert len(calls) == 1


def test_short_exponents_take_the_kernel(monkeypatch):
    """There is no route by operand size: with an odd modulus above 1 and
    a non-negative exponent, however short, every call is a kernel call."""
    calls = spy_on_the_kernel(monkeypatch)
    modulus = (1 << 1023) + 1155
    assert modpow(5, 2, modulus) == 25
    assert modpow(5, 2, modulus, secret=True) == 25
    assert modpow(5, 0, 7) == 1
    assert [args[3] for args in calls] == [False, True, False]


class TestFallback:
    def test_unresolved_library_falls_back_to_builtin_pow(self, monkeypatch):
        import _hashlib

        unbound_kernel(monkeypatch)
        monkeypatch.setattr(_hashlib, "__file__", "/nonexistent/_hashlib.so")
        modulus = (1 << 1023) + 1155
        for secret in (False, True):
            assert modpow(3, 1 << 500, modulus, secret=secret) == pow(
                3, 1 << 500, modulus
            )
        assert numbers._libcrypto() is None

    def test_missing_symbol_falls_back(self, monkeypatch):
        import ctypes

        class NoSymbols:
            def __init__(self, path):
                pass

            def __getattr__(self, name):
                raise AttributeError(name)

        unbound_kernel(monkeypatch)
        monkeypatch.setattr(ctypes, "CDLL", NoSymbols)
        modulus = (1155 << 900) | 1
        assert modpow(3, 1 << 500, modulus) == pow(3, 1 << 500, modulus)
        assert numbers._libcrypto() is None

    @pytest.mark.parametrize(
        "failing",
        ["BN_CTX_new", "BN_new", "BN_bin2bn", "BN_mod_exp_mont", "BN_bn2binpad"],
    )
    def test_a_failed_bignum_call_raises(self, monkeypatch, failing):
        """Every ``BN_*`` return code is checked: a 0 (or a NULL) is a
        :class:`~repro.errors.CryptoError`, never a wrong group element."""
        import ctypes

        class Function:
            def __init__(self, name):
                self.name = name

            def __call__(self, *args):
                if self.name == failing:
                    return 0 if self.restype is not None else None
                if self.name == "BN_bn2binpad":
                    return args[2]
                return 1 if self.restype is not None else None

        class FakeLibcrypto:
            def __init__(self, path):
                pass

            def __getattr__(self, name):
                return Function(name)

        unbound_kernel(monkeypatch)
        monkeypatch.setattr(ctypes, "CDLL", FakeLibcrypto)
        kernel = numbers._libcrypto()
        with pytest.raises(CryptoError):
            kernel(3, 1 << 100, (1 << 511) + 187, False)


def test_eight_threads_at_once():
    """No shared state between calls: eight threads exponentiating
    together each get ``pow``'s answers."""
    barrier = threading.Barrier(8)
    failures = []

    def work(seed):
        rng = random.Random(seed)
        barrier.wait()
        for _ in range(40):
            bits = rng.choice([512, 1024, 2048])
            modulus = rng.getrandbits(bits) | 1 | (1 << (bits - 1))
            base, exponent = rng.getrandbits(bits + 8), rng.getrandbits(300)
            secret = rng.random() < 0.5
            if modpow(base, exponent, modulus, secret=secret) != pow(
                base, exponent, modulus
            ):
                failures.append((base, exponent, modulus, secret))

    threads = [threading.Thread(target=work, args=(seed,)) for seed in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []


def test_forked_child_after_parent():
    """The parent loads and uses the kernel, then forks: the child's
    exponentiations still agree with ``pow``."""
    modulus = (1 << 1023) + 1155
    assert modpow(5, 1 << 400, modulus) == pow(5, 1 << 400, modulus)
    pid = os.fork()
    if pid == 0:  # pragma: no cover - runs in the child
        ok = all(
            modpow(base, 1 << 333, modulus, secret=secret)
            == pow(base, 1 << 333, modulus)
            for base in (2, 3, modulus - 2)
            for secret in (False, True)
        )
        os._exit(0 if ok else 1)
    deadline = time.monotonic() + 60
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done or time.monotonic() > deadline:
            break
        time.sleep(0.01)
    if not done:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    assert done, "the forked child did not finish"
    assert os.waitstatus_to_exitcode(status) == 0


def run_fresh(script):
    """Run ``script`` in a new interpreter over ``src/``; its JSON output.

    The runtime sanitizer is left out: it would write its own dump over
    the session's at the child's exit.
    """
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("REPRO_SANITIZE")
    }
    env["PYTHONPATH"] = SRC
    completed = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
        check=False,
    )
    if completed.returncode != 0:
        raise AssertionError(completed.stderr)
    return json.loads(completed.stdout.strip().splitlines()[-1])


LOAD_SCRIPT = """
import json, resource, subprocess, sys
started = []
class Spy(subprocess.Popen):
    def __init__(self, *args, **kwargs):
        started.append(repr(args))
        super().__init__(*args, **kwargs)
subprocess.Popen = Spy
before = resource.getrusage(resource.RUSAGE_CHILDREN)
from repro.crypto import numbers
numbers.modpow(3, (1 << 200) + 1, (1 << 1023) + 1155)
after = resource.getrusage(resource.RUSAGE_CHILDREN)
print(json.dumps({
    "loaded": callable(numbers._libcrypto()),
    "started": started,
    "children_before": list(before),
    "children_after": list(after),
}))
"""


def test_loading_the_kernel_starts_no_process():
    """``ctypes.util.find_library`` forks ``ldconfig``; its peak RSS then
    lands in ``RUSAGE_CHILDREN``, which the e2e harness adds to
    ``peak_rss_mb``.  The kernel resolves its symbols without it."""
    report = run_fresh(LOAD_SCRIPT)
    assert report["loaded"]
    assert report["started"] == []
    assert report["children_after"] == report["children_before"]


HASH_ONLY_SCRIPT = """
import json, multiprocessing, sys
from repro import DataObject, HybridStorageSystem
objects = [DataObject(i, ("a", "b") if i % 2 else ("a",), b"x%d" % i) for i in range(24)]
workers = []
for scheme, kwargs in (("mi", {}), ("smi", {}), ("smi", {"shards": 2, "pool": "affine"})):
    system = HybridStorageSystem(scheme=scheme, seed=3, **kwargs)
    system.add_objects_batched(objects)
    system.query("a AND b")
    for child in multiprocessing.active_children():
        with open("/proc/%d/maps" % child.pid) as maps:
            workers.append("_ctypes" in maps.read())
    system.close()
print(json.dumps({"ctypes": "ctypes" in sys.modules, "workers": workers}))
"""


@pytest.mark.skipif(not Path("/proc/self/maps").exists(), reason="needs /proc")
def test_merkle_processes_never_load_ctypes():
    """MI and SMI hash only: neither the system's process nor an affine
    worker imports ``ctypes`` (it alone costs ~1 MB of peak RSS)."""
    report = run_fresh(HASH_ONLY_SCRIPT)
    assert report["ctypes"] is False
    assert report["workers"] == [False, False]
