"""Exception hierarchy for the repro library.

All errors raised by the library derive from :class:`ReproError` so callers
can catch library failures with a single ``except`` clause.  Verification
failures deliberately carry a human-readable reason: in an authenticated
query system the *reason* a proof was rejected is part of the audit trail.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library errors."""


class CryptoError(ReproError):
    """Base class for cryptographic failures."""


class ParameterError(CryptoError):
    """Invalid or inconsistent cryptographic parameters."""


class CommitmentError(CryptoError):
    """A vector-commitment operation was invoked with invalid inputs."""


class TrapdoorRequiredError(CommitmentError):
    """An operation requiring the CVC trapdoor was attempted without it."""


class VerificationError(ReproError):
    """A proof or verification object failed to verify.

    Raised by client-side verification when soundness or completeness
    checks fail.  The message states which check failed.
    """


class UnresolvedProofError(ReproError):
    """A located-but-unproven run reached a consumer of finished VOs.

    The Merkle-family join only *locates*: a conjunct leaves it naming,
    per tree, the keys it read, and stays that way until the prove step
    runs.  Encoding, sizing or verifying a VO that still holds such a
    run, or finishing one that lost its tree to pickling without a
    resolver, raises this.
    """


class StaleProofError(ReproError):
    """The prove step found a different tree than the locate step saw.

    Raised when a tree's current root differs from the root recorded at
    locate time (or the tree is gone), or a located key is absent.
    """


class IntegrityError(ReproError):
    """On-chain integrity check failed (e.g. a bad ``UpdVO``)."""


class GasError(ReproError):
    """Base class for gas-accounting failures."""


class OutOfGasError(GasError):
    """A transaction exceeded the block gas limit and was aborted."""


class StorageError(ReproError):
    """Invalid access to the simulated contract storage."""


class ChainError(ReproError):
    """Blockchain-level failure (bad block linkage, unknown tx, ...)."""


class QueryError(ReproError):
    """Malformed query expression or unsupported query shape."""


class QueryLimitError(QueryError):
    """A query exceeds a size limit of the parser (nesting, DNF width).

    The expression may be well formed; evaluating it is refused because
    its normal form — or the recursion needed to reach it — is not
    bounded by the request's length.  The SP answers with
    ``ERR_BAD_REQUEST``.
    """


class DatasetError(ReproError):
    """Workload generator was configured inconsistently."""
