"""Ledger extraction and cleaning (the paper's data-preprocessing step).

``BlockOptR registers as a client on the Fabric network, reads the entire
blockchain [...] the log is cleaned by removing the configuration and
setup-related transactions``.  Here the ledger object plays the role of
the fetched chain: configuration transactions yield the
:class:`~repro.logs.blockchain_log.ChannelConfig` (the paper extracts
block count/timeout from the log) and are then dropped from the records.
:class:`LedgerRecords` reads the same records without keeping them, for
analyses that fold each record in and move on.
"""

from __future__ import annotations

from typing import Iterator

from repro.fabric.ledger import Ledger
from repro.fabric.network import FabricNetwork
from repro.logs.blockchain_log import (
    BlockchainLog,
    ChannelConfig,
    LedgerReader,
    LogRecord,
)


def extract_blockchain_log(
    source: FabricNetwork | Ledger,
    interval_seconds: float = 1.0,
    include_early_aborts: bool = False,
) -> BlockchainLog:
    """Extract the nine-attribute blockchain log from a ledger or network.

    ``include_early_aborts`` additionally appends transactions that never
    reached the chain (endorsement-phase aborts); real Fabric ledgers do
    not contain them, so the default matches the paper.
    """
    if isinstance(source, FabricNetwork):
        ledger = source.ledger
        early_aborts = source.aborted if include_early_aborts else []
    else:
        ledger = source
        early_aborts = []

    reader = LedgerReader()
    records = [record for block in ledger for record, _ in reader.read_block(block)]
    records.extend(reader.record(tx, -1) for tx in early_aborts)
    return BlockchainLog(
        records=records, config=reader.require_config(), interval_seconds=interval_seconds
    )


class LedgerRecords:
    """A ledger read as a blockchain log in one pass, keeping no records.

    The streamed stand-in for :func:`extract_blockchain_log` that
    :func:`~repro.core.metrics.compute_metrics` accepts: iterating
    :attr:`records` yields the same numbered, validated records one at a
    time and lets each go once the consumer moves on; :attr:`config` is
    the channel configuration, known once the pass is done.
    """

    def __init__(self, ledger: Ledger, interval_seconds: float = 1.0) -> None:
        self.ledger = ledger
        self.interval_seconds = interval_seconds
        self._reader = LedgerReader()

    @property
    def records(self) -> Iterator[LogRecord]:
        """The records, in commit order (a fresh pass starts a fresh reader)."""
        self._reader = reader = LedgerReader()
        for block in self.ledger:
            for record, _ in reader.read_block(block):
                yield record

    @property
    def config(self) -> ChannelConfig:
        """The channel configuration read by the last pass over :attr:`records`."""
        return self._reader.require_config()
