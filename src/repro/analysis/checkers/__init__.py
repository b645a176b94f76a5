"""Built-in domain checkers.

Importing this package registers every checker with the framework
registry; :func:`repro.analysis.framework.default_checkers` relies on
that side effect.
"""

from repro.analysis.checkers.crypto_hygiene import CryptoHygieneChecker
from repro.analysis.concurrency import (
    ForkSafetyChecker,
    LockOrderChecker,
    PipeProtocolChecker,
)
from repro.analysis.checkers.determinism import DeterminismChecker
from repro.analysis.checkers.flatbuf import FlatbufNodeStorageChecker
from repro.analysis.checkers.gas_integrality import GasIntegralityChecker
from repro.analysis.checkers.locks import LockDisciplineChecker
from repro.analysis.checkers.timing import TimingSafeCompareChecker
from repro.analysis.checkers.verification import VerificationDisciplineChecker
from repro.analysis.checkers.wallclock import WallClockChecker

__all__ = [
    "CryptoHygieneChecker",
    "DeterminismChecker",
    "FlatbufNodeStorageChecker",
    "ForkSafetyChecker",
    "GasIntegralityChecker",
    "LockDisciplineChecker",
    "LockOrderChecker",
    "PipeProtocolChecker",
    "TimingSafeCompareChecker",
    "VerificationDisciplineChecker",
    "WallClockChecker",
]
