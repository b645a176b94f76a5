"""The reference arithmetic the crypto fast paths are held to.

``modpow`` runs OpenSSL's Montgomery kernel and falls back to builtin
``pow`` when libcrypto's symbols do not resolve; :func:`builtin_pow`
takes that fallback on purpose, so one process can compare the two.
:func:`per_opening_verdict` is what ``vc.verify_batch`` answers when
each opening is checked alone with ``vc.verify_vector``.
"""

from __future__ import annotations

from contextlib import nullcontext
from unittest import mock

from repro.crypto import numbers, vc


def builtin_pow():
    """Scope in which every ``modpow`` is builtin ``pow``."""
    return mock.patch.object(numbers, "_libcrypto", lambda: None)


def arithmetic(kernel: bool):
    """The kernel as it resolves (``True``) or builtin ``pow``."""
    return nullcontext() if kernel else builtin_pow()


def per_opening_verdict(pp, statements) -> bool:
    """``all(vc.verify_vector(...))`` over a batch's statements."""
    return all(vc.verify_vector(pp, *statement) for statement in statements)


def per_opening_batches():
    """Scope in which ``vc.verify_batch`` is :func:`per_opening_verdict`."""
    return mock.patch.object(vc, "verify_batch", per_opening_verdict)
