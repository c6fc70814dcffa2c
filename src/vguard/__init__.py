"""V-Guard: permissioned consensus for dynamic memberships.

The package separates transaction ordering from consensus so that vehicles
with volatile connectivity can keep ordering data while commitment rounds
shuttle between membership snapshots (booths). A deterministic discrete-event
network ties the pieces together for testing and benchmarking.
"""

__version__ = "0.1.0"

from .errors import (
    AggregationError,
    ConfigInvalid,
    DuplicateOrderingId,
    InsufficientPartials,
    MixedDigests,
    RejectReason,
    UnknownNode,
    UnknownSigner,
    VGuardError,
)

__all__ = [
    "AggregationError",
    "ConfigInvalid",
    "DuplicateOrderingId",
    "InsufficientPartials",
    "MixedDigests",
    "RejectReason",
    "UnknownNode",
    "UnknownSigner",
    "VGuardError",
    "__version__",
]
