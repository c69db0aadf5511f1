"""The blockchain log: nine attributes per transaction (Section 4.1).

The preprocessed output of BlockOptR's data-preprocessing step.  Each
:class:`LogRecord` carries exactly the attributes the paper enumerates —
client timestamp, activity name, function arguments, endorsers, invoker,
read-write set, transaction status, derived transaction type, and commit
order — plus the block number needed for the block-size metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator

from repro.fabric.transaction import TxStatus, TxType

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fabric.transaction import Transaction


@dataclass(frozen=True)
class ChannelConfig:
    """Channel configuration recovered from config transactions."""

    block_count: int
    block_timeout: float
    block_bytes: int
    endorsement_policy: str


@dataclass(slots=True)
class LogRecord:
    """One transaction's entry in the blockchain log."""

    commit_order: int
    tx_id: str
    client_timestamp: float
    activity: str
    args: tuple[Any, ...]
    endorsers: tuple[str, ...]
    invoker: str
    invoker_org: str
    read_keys: tuple[str, ...]
    write_keys: tuple[str, ...]
    #: Written values, keyed like ``write_keys`` (needed by the delta-write
    #: detector: WS(x) +/- 1 == WS(y)).
    writes: dict[str, Any]
    #: Read versions as (block, tx) pairs, keyed like ``read_keys``.
    read_versions: dict[str, tuple[int, int]]
    #: Range-read bounds [start, end) (empty for non-range transactions);
    #: needed to attribute phantom conflicts to inserting/deleting writers.
    range_reads: tuple[tuple[str, str], ...]
    status: TxStatus
    tx_type: TxType
    block_number: int
    #: Position within the block; (block_number, block_position) is the
    #: state version a successful write created.
    block_position: int
    commit_time: float
    contract: str = "contract"
    #: Client attempt number: 1 = original submission, >1 = a retry issued
    #: under a :class:`~repro.fabric.retry.RetryPolicy`.  Carried in the
    #: JSON export; the pinned CSV schema omits it (attempt 1 assumed).
    attempt: int = 1
    #: Lazily computed cache behind :attr:`rw_keys` — the metrics pass reads
    #: it several times per record and the union is not free.
    _rw_keys: frozenset[str] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def rw_keys(self) -> frozenset[str]:
        """RWS(x): all keys accessed by the transaction (computed once)."""
        cached = self._rw_keys
        if cached is None:
            cached = frozenset(self.read_keys) | frozenset(self.write_keys)
            self._rw_keys = cached
        return cached

    @property
    def is_failure(self) -> bool:
        return self.status.is_failure


@dataclass
class BlockchainLog:
    """The cleaned, ordered blockchain log plus channel configuration."""

    records: list[LogRecord]
    config: ChannelConfig
    #: Interval size (seconds) used by the distribution metrics; the
    #: paper's user-configurable ``ins``.
    interval_seconds: float = 1.0

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[LogRecord]:
        return iter(self.records)

    def activities(self) -> list[str]:
        """Distinct activity names, sorted."""
        return sorted({record.activity for record in self.records})

    def failed(self) -> list[LogRecord]:
        return [record for record in self.records if record.is_failure]

    def by_status(self, status: TxStatus) -> list[LogRecord]:
        return [record for record in self.records if record.status is status]

    def duration(self) -> float:
        """Span of client timestamps covered by the log."""
        if not self.records:
            return 0.0
        stamps = [record.client_timestamp for record in self.records]
        return max(stamps) - min(stamps)

    def validate(self) -> None:
        """Sanity-check invariants; raises ``ValueError`` on violation."""
        last_order = -1
        for record in self.records:
            validate_record(record, last_order)
            last_order = record.commit_order


def validate_record(record: LogRecord, last_order: int = -1) -> None:
    """Check one record's invariants (shared by batch and streaming paths).

    ``last_order`` is the previous record's commit order; pass the default
    to skip the monotonicity check for an isolated record.
    """
    if record.commit_order <= last_order:
        raise ValueError(f"commit order not strictly increasing at tx {record.tx_id}")
    missing = record.writes.keys() - record.write_keys
    if missing:
        raise ValueError(f"write values without keys in tx {record.tx_id}: {missing}")
    unread = record.read_versions.keys() - record.read_keys
    if unread:
        raise ValueError(f"read versions without keys in tx {record.tx_id}: {unread}")


@dataclass
class LogSlice:
    """Records of one time interval (used by the distribution metrics)."""

    index: int
    start: float
    end: float
    records: list[LogRecord] = field(default_factory=list)

    @property
    def count(self) -> int:
        return len(self.records)


def record_from_transaction(tx: "Transaction", order: int, block_position: int) -> LogRecord:
    """Build one blockchain-log record from a committed (or aborted) transaction.

    Lives here rather than in :mod:`repro.logs.extract` so the streaming
    ledger path can convert blocks as they commit without importing the
    network layer.
    """
    rwset = tx.rwset
    reads = rwset.reads
    range_queries = rwset.range_queries
    read_versions = {key: (v.block, v.tx) for key, v in reads.items()}
    read_keys = reads.keys()
    range_reads: tuple[tuple[str, str], ...] = ()
    if range_queries:
        read_keys = set(read_keys)
        for query in range_queries:
            for key, version in query.results:
                read_keys.add(key)
                read_versions.setdefault(key, (version.block, version.tx))
        range_reads = tuple([(query.start, query.end) for query in range_queries])
    writes = rwset.writes
    return LogRecord(
        commit_order=order,
        tx_id=tx.tx_id,
        client_timestamp=tx.client_timestamp,
        activity=tx.activity,
        args=tuple(tx.args),
        endorsers=tuple(tx.endorsers),
        invoker=tx.invoker_client,
        invoker_org=tx.invoker_org,
        read_keys=tuple(sorted(read_keys)),
        write_keys=tuple(sorted(writes)),
        writes=dict(writes),
        read_versions=read_versions,
        range_reads=range_reads,
        status=tx.status,
        tx_type=rwset.derive_type(),
        block_number=tx.block_number if tx.block_number is not None else -1,
        block_position=block_position,
        commit_time=tx.commit_time if tx.commit_time is not None else -1.0,
        contract=tx.contract,
        attempt=tx.attempt,
    )


def interval_index(timestamp: float, start: float, ins: float) -> int:
    """Index of the ``[start + k*ins, start + (k+1)*ins)`` window holding ``timestamp``.

    The naive ``int((timestamp - start) / ins)`` mis-bins timestamps that
    sit exactly on a window boundary when the division rounds across it,
    so the estimate is nudged until the exact half-open comparisons hold.
    """
    index = int((timestamp - start) / ins)
    while index > 0 and timestamp < start + index * ins:
        index -= 1
    while timestamp >= start + (index + 1) * ins:
        index += 1
    return index


def slice_by_interval(log: BlockchainLog, interval_seconds: float | None = None) -> list[LogSlice]:
    """Partition the log into client-timestamp intervals of ``ins`` seconds."""
    ins = interval_seconds if interval_seconds is not None else log.interval_seconds
    if ins <= 0:
        raise ValueError(f"interval must be positive, got {ins}")
    if not log.records:
        return []
    start = min(record.client_timestamp for record in log.records)
    end = max(record.client_timestamp for record in log.records)
    count = interval_index(end, start, ins) + 1
    slices = [
        LogSlice(index=i, start=start + i * ins, end=start + (i + 1) * ins)
        for i in range(count)
    ]
    for record in log.records:
        index = min(interval_index(record.client_timestamp, start, ins), count - 1)
        slices[index].records.append(record)
    return slices
