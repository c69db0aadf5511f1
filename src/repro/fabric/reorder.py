"""Ordering-stage transaction schedulers (Fabric++ / FabricSharp models).

The paper evaluates BlockOptR *on top of* two published Fabric extensions
that reorder transactions inside the ordering service to mitigate MVCC read
conflicts:

* **Fabric++** (Sharma et al., SIGMOD'19) builds a conflict graph within
  each block, aborts transactions involved in dependency cycles, and
  serializes the rest so that readers precede conflicting writers —
  eliminating intra-block conflicts.
* **FabricSharp** (Ruan et al., SIGMOD'20) additionally tracks recent
  committed writes (an OCC-style window over the last ``window`` blocks)
  and early-aborts transactions whose reads are already stale, saving the
  wasted ordering/validation work.

Both are modeled as pluggable :class:`Scheduler` strategies applied at
block-cut time, which is where the real systems intervene.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Protocol

from repro.fabric.transaction import Transaction


class Scheduler(Protocol):
    """Rewrites a cut batch into (ordered transactions, early aborts)."""

    def schedule(
        self, batch: list[Transaction]
    ) -> tuple[list[Transaction], list[Transaction]]:
        """Return the batch to include in the block and the aborted txs."""
        ...


class FifoScheduler:
    """Vanilla Fabric: arrival order, no aborts."""

    def schedule(
        self, batch: list[Transaction]
    ) -> tuple[list[Transaction], list[Transaction]]:
        """Pass the batch through unchanged."""
        return list(batch), []


def _precedence(batch: list[Transaction]) -> tuple[list[set[int]], list[list[int]]]:
    """Reader-before-writer precedence graph of a batch, by arrival index.

    ``successors[i]`` holds every other transaction that writes a key
    ``i`` reads (``i`` must precede it); ``predecessors[j]`` lists the
    ``i`` whose successor set holds ``j``, so its length is ``j``'s
    in-degree.  A ``key -> writers`` index visits only pairs that share a
    key, and the sets collapse multi-key pairs to one edge.
    """
    writers: dict[str, list[int]] = {}
    for j, tx in enumerate(batch):
        for key in tx.rwset.writes:
            writers.setdefault(key, []).append(j)
    successors: list[set[int]] = []
    predecessors: list[list[int]] = [[] for _ in batch]
    for i, tx in enumerate(batch):
        after: set[int] = set()
        for key in tx.rwset.read_keys:
            if key in writers:
                after.update(writers[key])
        after.discard(i)
        for j in after:
            predecessors[j].append(i)
        successors.append(after)
    return successors, predecessors


class FabricPlusPlusScheduler:
    """Intra-block conflict-graph reordering with cycle aborts.

    Within a batch, transaction ``r`` must precede ``w`` whenever ``w``
    writes a key ``r`` reads (otherwise ``w``'s in-block commit bumps the
    version and invalidates ``r``).  We build that precedence graph and
    emit a topological order (Kahn's algorithm, always releasing the
    earliest-arrived ready transaction).  When no transaction is ready,
    a cycle remains: we abort the remaining transaction with the highest
    conflict degree (remaining successors plus remaining predecessors),
    the later arrival winning a tie.

    Cost: one step per (reader, writer, shared key) triple to build the
    graph, O(n log n + edges) for Kahn's algorithm, and an O(n) scan per
    abort to find the victim — O(n^2) on a hot-key clique, where every
    step is an abort.
    """

    def schedule(
        self, batch: list[Transaction]
    ) -> tuple[list[Transaction], list[Transaction]]:
        """Topologically order the batch, aborting cycle members."""
        if len(batch) <= 1:
            return list(batch), []

        successors, predecessors = _precedence(batch)
        n = len(batch)
        indegree = [len(before) for before in predecessors]
        degree = [len(after) + d for after, d in zip(successors, indegree)]
        alive = [True] * n
        ready = [i for i in range(n) if not indegree[i]]  # sorted: a heap
        order: list[int] = []
        aborted: list[int] = []
        for _ in range(n):
            if ready:
                node = heappop(ready)
                order.append(node)
            else:
                # Scanning latest-first makes max() keep the later arrival
                # on a degree tie.
                node = max(
                    filter(alive.__getitem__, range(n - 1, -1, -1)),
                    key=degree.__getitem__,
                )
                aborted.append(node)
                # A ready node has no remaining predecessors, so only a
                # victim lowers its predecessors' out-degrees.
                for pred in predecessors[node]:
                    if alive[pred]:
                        degree[pred] -= 1
            alive[node] = False
            for succ in successors[node]:
                if alive[succ]:
                    degree[succ] -= 1
                    indegree[succ] -= 1
                    if not indegree[succ]:
                        heappush(ready, succ)

        ordered_txs = [batch[i] for i in order]
        aborted_txs = [batch[i] for i in sorted(aborted)]
        return ordered_txs, aborted_txs


class ConflictAwareScheduler:
    """Intra-block conflict-aware reordering *without* aborts.

    The ``reorder`` mitigation (see docs/FAILURES.md): like
    :class:`FabricPlusPlusScheduler` it builds the reader-before-writer
    precedence graph and emits a topological order, always releasing the
    earliest-arrived ready transaction, so a transaction that merely
    *reads* a key written later in the same block validates against the
    pre-block version and survives.  Unlike Fabric++, nothing is aborted:
    when no transaction is ready (a dependency cycle remains, e.g. two
    updates of the same hot key), the earliest-arrived transaction still
    remaining is released as if it were ready.  That transaction may sit
    downstream of the cycle rather than on it.  The mitigation therefore
    removes avoidable intra-block MVCC conflicts while never rejecting
    work.

    Cost: one step per (reader, writer, shared key) triple to build the
    graph, O(n log n + edges) for Kahn's algorithm, and O(n) in total for
    the stalls.
    """

    def schedule(
        self, batch: list[Transaction]
    ) -> tuple[list[Transaction], list[Transaction]]:
        """Topologically order the batch, breaking cycles by arrival order."""
        if len(batch) <= 1:
            return list(batch), []

        successors, predecessors = _precedence(batch)
        n = len(batch)
        indegree = [len(before) for before in predecessors]
        alive = [True] * n
        ready = [i for i in range(n) if not indegree[i]]  # sorted: a heap
        earliest = 0  # every index below this one has been released
        order: list[int] = []
        for _ in range(n):
            if ready:
                node = heappop(ready)
            else:
                while not alive[earliest]:
                    earliest += 1
                node = earliest
            order.append(node)
            alive[node] = False
            for succ in successors[node]:
                if alive[succ]:
                    indegree[succ] -= 1
                    if not indegree[succ]:
                        heappush(ready, succ)
        return [batch[i] for i in order], []


class FabricSharpScheduler:
    """OCC-style early abort over a sliding window, then Fabric++ ordering.

    The orderer remembers which keys were written by blocks it recently
    ordered (``window`` blocks).  A transaction whose read version predates
    a remembered write can no longer validate, so it is aborted before
    consuming block space.  Like the real system this is an approximation —
    the orderer does not know whether those writes ultimately committed —
    which is why the paper observes FabricSharp trading MVCC conflicts for
    other failure classes.
    """

    def __init__(self, window: int = 5) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.window = window
        self._inner = FabricPlusPlusScheduler()
        #: key -> index of the scheduler batch that last ordered a write to it.
        self._recent_writes: dict[str, int] = {}
        #: key -> endorse time of that last ordered write.
        self._write_times: dict[str, float] = {}
        #: batch index -> keys written, for window expiry.
        self._by_batch: dict[int, list[str]] = {}
        self._next_batch = 0

    def schedule(
        self, batch: list[Transaction]
    ) -> tuple[list[Transaction], list[Transaction]]:
        """Early-abort stale transactions, then Fabric++-order the rest."""
        fresh: list[Transaction] = []
        aborted: list[Transaction] = []
        for tx in batch:
            if self._is_stale(tx):
                aborted.append(tx)
            else:
                fresh.append(tx)
        ordered, cycle_aborts = self._inner.schedule(fresh)
        aborted.extend(cycle_aborts)

        index = self._next_batch
        self._next_batch += 1
        written: list[str] = []
        for tx in ordered:
            endorsed_at = tx.endorse_time if tx.endorse_time is not None else 0.0
            for key in tx.rwset.write_keys:
                self._recent_writes[key] = index
                self._write_times[key] = endorsed_at
                written.append(key)
        self._by_batch[index] = written
        expired = index - self.window
        if expired in self._by_batch:
            for key in self._by_batch.pop(expired):
                if self._recent_writes.get(key) == expired:
                    del self._recent_writes[key]
                    del self._write_times[key]
        return ordered, aborted

    def _is_stale(self, tx: Transaction) -> bool:
        """A tx is doomed if a write to one of its read keys was ordered
        after the tx executed (endorsement snapshot is already stale)."""
        endorsed_at = tx.endorse_time
        if endorsed_at is None:
            return False
        for key in tx.rwset.read_keys:
            if key not in self._recent_writes:
                continue
            if self._write_times[key] >= endorsed_at:
                return True
        return False


def make_scheduler(name: str, window: int = 5) -> Scheduler:
    """Factory used by :class:`~repro.fabric.config.NetworkConfig.scheduler`."""
    if name == "fifo":
        return FifoScheduler()
    if name == "fabricpp":
        return FabricPlusPlusScheduler()
    if name == "fabricsharp":
        return FabricSharpScheduler(window=window)
    if name == "conflict_aware":
        return ConflictAwareScheduler()
    raise ValueError(f"unknown scheduler {name!r}")
