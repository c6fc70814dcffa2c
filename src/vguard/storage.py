"""Two-layer storage of the commits a node learned through gossip alone.

A node's ledger is its one record of the windows it committed; storage
keeps what the ledger cannot, the commits gossip brought. The gossip
agent is its one writer: it stores each transaction with the certified
commit it came with and the time it arrived. Each node runs one storage
master, which hands out one storage instance per consensus instance.
Every instance keeps a temporary layer for fresh commits and a permanent
layer for archived ones; a transaction lives in exactly one layer at a
time. The temporary layer is pruned by age or, optionally, by a FIFO cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import NotFound
from .codec import record
from .ledger import Transaction
from .messages import CertifiedCommit

DEFAULT_TEMP_TTL_US = 24 * 3600 * 1_000_000   # prune temp entries older than a day


@record
class StoredTx:
    """A stored transaction, the commit it came with, and when it came."""

    tx_hash: bytes
    tx: Transaction
    record: Optional[CertifiedCommit]
    stored_at_us: int


@dataclass
class RetentionPolicy:
    """Age-based pruning with an optional FIFO cap on the temporary layer."""
    temp_ttl_us: int = DEFAULT_TEMP_TTL_US
    temp_cap: Optional[int] = None


class StorageInstance:
    def __init__(self, instance_id: int):
        self.instance_id = instance_id
        self.temp: dict[bytes, StoredTx] = {}
        self.perm: dict[bytes, StoredTx] = {}

    def register_to_temp(self, tx: Transaction, record: Optional[CertifiedCommit],
                         now_us: int) -> bool:
        """Idempotent insert into the temporary layer. Returns False without
        touching anything when the transaction is already archived."""
        h = tx.tx_hash
        if h in self.perm:
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


class StorageMaster:
    """Owns every storage instance on one node and runs their cleanup."""

    def __init__(self, policy: Optional[RetentionPolicy] = None):
        self.policy = policy or RetentionPolicy()
        self.instances: dict[int, StorageInstance] = {}

    def get(self, instance_id: int) -> StorageInstance:
        smi = self.instances.get(instance_id)
        if smi is None:
            smi = self.instances[instance_id] = StorageInstance(instance_id)
        return smi

    def cleanup(self, now_us: int) -> int:
        return sum(smi.cleanup_temp(now_us, self.policy)
                   for smi in self.instances.values())

    def totals(self) -> dict[str, int]:
        return {
            "temp": sum(len(s.temp) for s in self.instances.values()),
            "perm": sum(len(s.perm) for s in self.instances.values()),
        }
