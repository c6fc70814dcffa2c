"""Error taxonomy shared across the protocol modules.

Exceptions are for contract violations surfaced to callers. Message-level
rejections during normal operation (bad signature on a reply, reused id, and
so on) are silent drops counted in the run's `drops` tally; RejectReason
names them so the tally, the report and tests agree on spelling.
"""

from __future__ import annotations

from enum import Enum


class VGuardError(Exception):
    """Base class for all protocol errors."""


class ConfigInvalid(VGuardError):
    """A run or module configuration violates a structural constraint."""


# Metadata of a numeric config field that must be above zero, of one that
# must stay below one, and of one that may reach one but not pass it; every
# numeric field must be finite and at least zero (see `harness.check`,
# which reads these).
POSITIVE = {"positive": True}
BELOW_ONE = {"below": 1}
AT_MOST_ONE = {"at_most": 1}


# -- crypto --------------------------------------------------------------

class CryptoError(VGuardError):
    pass


class AggregationError(CryptoError):
    pass


class MixedDigests(AggregationError):
    """Partials over different payload digests cannot be aggregated."""


class UnknownSigner(AggregationError):
    """A partial's signer is not a member of the booth."""


class InsufficientPartials(AggregationError):
    """No partials to aggregate."""


class InvalidPartial(AggregationError):
    """A partial fails signature verification during aggregation."""


# -- ledger --------------------------------------------------------------

class LedgerError(VGuardError):
    pass


class DuplicateOrderingId(LedgerError):
    """Two log entries claim the same ordering id: a total-order violation."""


class WindowError(LedgerError):
    """Window bounds are malformed or not aligned to the window grid."""


# -- membership ----------------------------------------------------------

class MembershipError(VGuardError):
    pass


class UnknownNode(MembershipError):
    pass


# -- storage -------------------------------------------------------------

class StorageError(VGuardError):
    pass


class NotFound(StorageError):
    pass


class UnknownEndpoint(VGuardError):
    """Message addressed to a node the transport does not know."""


class VerificationFailed(VGuardError):
    """A post-run ledger audit found a violation on a correct node."""


class RejectReason(str, Enum):
    """Why a message was silently dropped: a key of `Network.drops`."""

    BAD_HASH = "bad_hash"
    BAD_SIG = "bad_sig"
    WRONG_DIGEST = "wrong_digest"
    BAD_CERT = "bad_cert"
    REUSED_ID = "reused_id"
    REUSED_WINDOW = "reused_window"
    QUORUM_MISMATCH = "quorum_mismatch"
    FOREIGN_QUORUM_MEMBER = "foreign_quorum_member"
    PIVOT_MISSING = "pivot_missing"
    NOT_PIVOT = "not_pivot"
    UNKNOWN_BOOTH = "unknown_booth"
    UNKNOWN_INSTANCE = "unknown_instance"
    UNKNOWN_COMMIT = "unknown_commit"
    STALE = "stale"
    LATE_REPLY = "late_reply"
    MALFORMED = "malformed"
    DUPLICATE = "duplicate"
    EXPIRED = "expired"
    NON_MONOTONE_LIFETIME = "non_monotone_lifetime"

    def __str__(self) -> str:  # keep tally keys terse
        return self.value
