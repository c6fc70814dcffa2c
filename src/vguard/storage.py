"""Two-layer commit storage behind per-instance storage interfaces.

Each node runs one storage master. The master hands out storage instances
keyed by (consensus instance, role); a node holds at most one proposer
interface, one validator interface per instance it validates in, and one
gossiper interface per instance it overhears. Every interface keeps a
temporary layer for fresh commits and a permanent layer for archived ones;
a transaction lives in exactly one layer at a time. The temporary layer is
pruned by age or, optionally, by a FIFO cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import NotFound, StorageError
from .codec import record
from .ledger import CommitRecord, Transaction

PROPOSER = "proposer"
VALIDATOR = "validator"
GOSSIPER = "gossiper"
_ROLES = (PROPOSER, VALIDATOR, GOSSIPER)

DEFAULT_TEMP_TTL_US = 24 * 3600 * 1_000_000   # prune temp entries older than a day


@record
class StoredTx:
    tx_hash: bytes
    tx: Transaction
    record: Optional[CommitRecord]
    stored_at_us: int


@dataclass
class RetentionPolicy:
    """Age-based pruning with an optional FIFO cap on the temporary layer."""
    temp_ttl_us: int = DEFAULT_TEMP_TTL_US
    temp_cap: Optional[int] = None


class StorageInstance:
    def __init__(self, instance_id: int, role: str):
        if role not in _ROLES:
            raise StorageError(f"unknown storage role {role!r}")
        self.instance_id = instance_id
        self.role = role
        self.temp: dict[bytes, StoredTx] = {}
        self.perm: dict[bytes, StoredTx] = {}
        self.rejected_reinserts = 0

    def register_to_temp(self, tx: Transaction, record: Optional[CommitRecord],
                         now_us: int) -> bool:
        """Idempotent insert into the temporary layer. Returns False without
        touching anything when the transaction is already archived."""
        h = tx.tx_hash
        if h in self.perm:
            self.rejected_reinserts += 1
            return False
        if h not in self.temp:
            self.temp[h] = StoredTx(h, tx, record, now_us)
        return True

    def move_to_perm(self, tx_hash: bytes) -> None:
        item = self.temp.pop(tx_hash, None)
        if item is None:
            if tx_hash in self.perm:
                return
            raise NotFound(f"{tx_hash.hex()[:12]} not in temporary storage")
        self.perm[tx_hash] = item

    def delete_perm(self, tx_hash: bytes) -> None:
        if tx_hash not in self.perm:
            raise NotFound(f"{tx_hash.hex()[:12]} not in permanent storage")
        del self.perm[tx_hash]

    def cleanup_temp(self, now_us: int, policy: RetentionPolicy) -> int:
        """Drop expired temp entries; enforce the FIFO cap if one is set.
        Returns the number of entries removed."""
        expired = [h for h, item in self.temp.items()
                   if now_us - item.stored_at_us >= policy.temp_ttl_us]
        for h in expired:
            del self.temp[h]
        removed = len(expired)
        if policy.temp_cap is not None and len(self.temp) > policy.temp_cap:
            overflow = sorted(self.temp.values(),
                              key=lambda s: (s.stored_at_us, s.tx_hash))
            for item in overflow[:len(self.temp) - policy.temp_cap]:
                del self.temp[item.tx_hash]
                removed += 1
        return removed

    def lookup(self, tx_hash: bytes) -> Optional[StoredTx]:
        return self.temp.get(tx_hash) or self.perm.get(tx_hash)

    def layer_of(self, tx_hash: bytes) -> Optional[str]:
        if tx_hash in self.temp:
            return "temp"
        if tx_hash in self.perm:
            return "perm"
        return None


class StorageMaster:
    """Owns every storage instance on one node and runs their cleanup."""

    def __init__(self, node_id: int, policy: Optional[RetentionPolicy] = None):
        self.node_id = node_id
        self.policy = policy or RetentionPolicy()
        self.instances: dict[tuple[int, str], StorageInstance] = {}

    def get(self, instance_id: int, role: str) -> StorageInstance:
        key = (instance_id, role)
        smi = self.instances.get(key)
        if smi is None:
            if role == PROPOSER and any(r == PROPOSER for _, r in self.instances):
                raise StorageError(
                    f"node {self.node_id} already holds a proposer interface")
            smi = StorageInstance(instance_id, role)
            self.instances[key] = smi
        return smi

    def cleanup(self, now_us: int) -> int:
        return sum(smi.cleanup_temp(now_us, self.policy)
                   for smi in self.instances.values())

    def totals(self) -> dict[str, int]:
        return {
            "temp": sum(len(s.temp) for s in self.instances.values()),
            "perm": sum(len(s.perm) for s in self.instances.values()),
            "rejected_reinserts": sum(s.rejected_reinserts
                                      for s in self.instances.values()),
        }
