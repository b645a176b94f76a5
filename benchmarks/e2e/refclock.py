"""Reference-speed clock: wall time corrected for the host's speed right now.

The box this suite has to be steady on is a 2-vCPU microVM whose speed
drifts with its neighbours: identical single-threaded work runs 1x to 1.6x
as long for minutes at a time, whether measured on the wall or as CPU time,
so no minimum or median taken inside one run removes it (README, "The
clock", records the spreads of the same runs with and without the
correction).  Every timed operation is therefore bracketed by *probes*, a
fixed piece of work using only the standard library, and its wall time is
divided by how much slower than ``REFERENCE_PROBE_S`` the probes ran.

The probe mixes, in equal thirds of its time, the three kinds of work the
program does, because they do not slow down alike (hashing and interpreter
work suffer more from a busy neighbour than big-integer arithmetic):
interpreter loops that allocate, ``pow`` on 1024-bit integers (CVC
proofs), and SHA3 over short strings (Merkle proofs).  It shares no code
with the program, so no change to the program can move it; a change of
interpreter or OpenSSL build moves probe and program together and calls
for a fresh baseline, as it would with plain wall time.

Reported times read as "on this VM at its usual speed".  Every run also
prints the uncorrected wall-clock value of each timing beside it.
"""

from __future__ import annotations

import hashlib
import time

#: Wall seconds of one probe on the sizing box (Xeon @ 2.1 GHz VM) at its
#: usual speed.  Any constant would do; this one keeps reported times
#: close to wall time there.
REFERENCE_PROBE_S = 0.000520

#: A probe this fresh also serves the operation that starts next.
_FRESH_S = 0.0005

_MODULUS = (1 << 1024) - 159
_EXPONENT = (1 << 69) + 7
_BLOCK = bytes(range(64))


def _probe_work() -> None:
    # Strings and integers only: an allocation the garbage collector tracks
    # could start a collection whose length depends on the program's heap.
    table = {}
    for i in range(1650):
        table[i & 255] = str(i * 7)
    pow(3, _EXPONENT, _MODULUS)
    digest = b""
    for _ in range(240):
        digest = hashlib.sha3_256(digest + _BLOCK).digest()


def probe() -> float:
    """How many times slower than the reference the host runs right now.

    The faster of two timings: the first also pulls the probe back into
    the processor's caches after a long operation pushed it out.
    """
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        _probe_work()
        best = min(best, time.perf_counter() - start)
    return best / REFERENCE_PROBE_S


class ReferenceClock:
    """Times operations in reference seconds; one per run."""

    def __init__(self) -> None:
        self._slowdown = probe()
        self._probed_at = time.perf_counter()

    def measure(self, call):
        """Run ``call()``; returns ``(result, reference seconds, wall seconds)``.

        The slowdown applied is the mean of a probe just before and one
        just after, so ``call`` should last milliseconds to a second: long
        enough to dwarf the timer, short enough that the host's speed holds.
        Back-to-back operations share the probe between them.
        """
        if time.perf_counter() - self._probed_at > _FRESH_S:
            self._slowdown = probe()
        before = self._slowdown
        start = time.perf_counter()
        result = call()
        wall = time.perf_counter() - start
        self._slowdown = probe()
        self._probed_at = time.perf_counter()
        return result, 2.0 * wall / (before + self._slowdown), wall
