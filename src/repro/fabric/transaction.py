"""Transactions, read-write sets, statuses and types.

These are the nine-attribute records BlockOptR later extracts from the
ledger (Section 4.1 of the paper): client timestamp, activity name,
function arguments, endorsers, invoker, read-write set, status, derived
transaction type, and commit order.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, NamedTuple


class Version(NamedTuple):
    """A Fabric state version: the (block, tx-in-block) that last wrote a key."""

    block: int
    tx: int


class TxStatus(enum.Enum):
    """Validation outcome of a transaction.

    Mirrors the paper's status attribute: ``success``, ``MVCC read
    conflict``, ``phantom read conflict`` and ``endorsement policy
    failure``.  ``EARLY_ABORT`` is produced only by the FabricSharp-style
    scheduler (transactions dropped before validation) and by pruned smart
    contracts that abort anomalous transactions during endorsement.
    """

    SUCCESS = "success"
    MVCC_CONFLICT = "mvcc_read_conflict"
    PHANTOM_CONFLICT = "phantom_read_conflict"
    ENDORSEMENT_FAILURE = "endorsement_policy_failure"
    EARLY_ABORT = "early_abort"

    @property
    def is_failure(self) -> bool:
        """True for every status except ``SUCCESS``."""
        return self is not TxStatus.SUCCESS


class TxType(enum.Enum):
    """Transaction type, derived from the read-write set (paper attribute 8)."""

    READ = "read"
    WRITE = "write"
    UPDATE = "update"
    RANGE_READ = "range_read"
    DELETE = "delete"


@dataclass(frozen=True, slots=True)
class RangeQueryInfo:
    """Recorded result of a range read, used for phantom detection.

    ``results`` maps each key in ``[start, end)`` at execution time to the
    version that was read.  Validation re-scans the range: a changed key
    *membership* is a phantom read conflict; a changed *version* of a
    still-present key is an MVCC read conflict (how Fabric's validator
    distinguishes them).
    """

    start: str
    end: str
    results: tuple[tuple[str, Version], ...]

    def keys(self) -> tuple[str, ...]:
        """The keys observed by the range query, in scan order."""
        return tuple(key for key, _ in self.results)


#: Sentinel stored in a write set to mark a key deletion.
DELETED = "__deleted__"


@dataclass(slots=True)
class ReadWriteSet:
    """Reads (with versions), writes (with values) and range reads of one tx."""

    reads: dict[str, Version] = field(default_factory=dict)
    writes: dict[str, Any] = field(default_factory=dict)
    range_queries: list[RangeQueryInfo] = field(default_factory=list)

    @property
    def read_keys(self) -> frozenset[str]:
        """All keys read, including keys observed through range queries."""
        keys = set(self.reads)
        for query in self.range_queries:
            keys.update(query.keys())
        return frozenset(keys)

    @property
    def write_keys(self) -> frozenset[str]:
        """All keys written (deletions included)."""
        return frozenset(self.writes)

    @property
    def all_keys(self) -> frozenset[str]:
        """RWS(x): every key the transaction read or wrote."""
        return self.read_keys | self.write_keys

    def derive_type(self) -> TxType:
        """Classify the transaction from its read-write set.

        Priority: delete > range read > update (read-modify-write) >
        write > read — matching how the paper derives attribute 8.
        """
        if DELETED in self.writes.values():
            return TxType.DELETE
        if self.range_queries:
            return TxType.RANGE_READ
        if self.writes and self.reads:
            return TxType.UPDATE
        if self.writes:
            return TxType.WRITE
        return TxType.READ

    def estimated_bytes(self) -> int:
        """Rough payload size used by the block-bytes cutting rule."""
        size = 160  # envelope overhead: signatures, creator, channel header
        for key in self.reads:
            size += len(key) + 16
        for key, value in self.writes.items():
            size += len(key) + len(str(value))
        for query in self.range_queries:
            size += len(query.start) + len(query.end) + 24 * len(query.results)
        return size


@dataclass(slots=True)
class TxRequest:
    """A workload item: one transaction a client should issue.

    ``submit_time`` is the scheduled client-side generation time (the send
    rate lives entirely in these timestamps).  ``invoker_org`` pins the
    request to one organization's clients (``None`` = round-robin across
    all orgs), which is how *transaction distribution skew* is expressed.
    """

    submit_time: float
    activity: str
    args: tuple[Any, ...] = ()
    contract: str = "contract"
    invoker_org: str | None = None
    #: Attempt number of this submission (1 = original; >1 = client retry
    #: issued by the :class:`~repro.fabric.retry.RetryPolicy`).
    attempt: int = 1
    #: tx_id of the original (first-attempt) transaction this resubmits.
    retry_of: str | None = None


@dataclass(slots=True)
class Transaction:
    """One transaction's full lifecycle record.

    Created when the client issues the proposal; filled in as it moves
    through the pipeline; archived in the ledger regardless of outcome.
    """

    tx_id: str
    client_timestamp: float
    activity: str
    args: tuple[Any, ...]
    contract: str
    invoker_client: str
    invoker_org: str
    endorsers: tuple[str, ...] = ()
    missing_endorsements: tuple[str, ...] = ()
    rwset: ReadWriteSet = field(default_factory=ReadWriteSet)
    status: TxStatus | None = None
    endorse_time: float | None = None
    order_time: float | None = None
    commit_time: float | None = None
    block_number: int | None = None
    commit_order: int | None = None
    is_config: bool = False
    #: Where an EARLY_ABORT happened: "endorsement" (pruned contract; the
    #: transaction was never submitted, so Caliper-style success rates
    #: exclude it from the denominator), "ordering" (scheduler abort; the
    #: transaction was submitted and counts as a failure) or "stale_read"
    #: (the early-abort mitigation dropped it at packaging time because
    #: its read set was already stale; counts as a submitted failure).
    abort_stage: str | None = None
    #: Attempt number (1 = original submission, >1 = client retry).
    attempt: int = 1
    #: tx_id of the first attempt, when this transaction is a retry.
    retry_of: str | None = None
    #: The key the validator (or the early-abort mitigation) found in
    #: conflict — MVCC version mismatch, phantom membership change, or
    #: stale read.  ``None`` for successes and non-conflict failures.
    #: Forensics uses it for hot-key attribution (docs/FAILURES.md).
    conflict_key: str | None = None
    #: Why each org in ``missing_endorsements`` went missing, parallel to
    #: that tuple: "crashed" (every peer of the org was down) or "timeout"
    #: (the least-loaded peer's queue exceeded the endorsement timeout).
    missing_reasons: tuple[str, ...] = ()

    @property
    def tx_type(self) -> TxType:
        """Transaction type derived from the read-write set (attribute 8)."""
        return self.rwset.derive_type()

    @property
    def latency(self) -> float | None:
        """End-to-end latency: client submission to block commit."""
        if self.commit_time is None:
            return None
        return self.commit_time - self.client_timestamp

    def estimated_bytes(self) -> int:
        """Envelope size including args and endorsement signatures."""
        size = self.rwset.estimated_bytes()
        for arg in self.args:
            size += len(str(arg))
        size += 64 * max(1, len(self.endorsers))
        return size
