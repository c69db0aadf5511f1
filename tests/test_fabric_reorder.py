"""Unit + property tests for the Fabric++/FabricSharp schedulers."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.fabric.reorder import (
    ConflictAwareScheduler,
    FabricPlusPlusScheduler,
    FabricSharpScheduler,
    FifoScheduler,
    make_scheduler,
)
from repro.fabric.transaction import (
    RangeQueryInfo,
    ReadWriteSet,
    Transaction,
    Version,
)


def _tx(tx_id, reads=(), writes=(), endorse_time=0.0, scanned=()):
    rwset = ReadWriteSet(
        reads={key: Version(0, 0) for key in reads},
        writes={key: 1 for key in writes},
        range_queries=[
            RangeQueryInfo(
                start=min(keys, default=""),
                end=max(keys, default="") + "~",
                results=tuple((key, Version(0, 0)) for key in keys),
            )
            for keys in scanned
        ],
    )
    tx = Transaction(
        tx_id=tx_id,
        client_timestamp=0.0,
        activity="a",
        args=(),
        contract="c",
        invoker_client="cl",
        invoker_org="Org1",
        rwset=rwset,
    )
    tx.endorse_time = endorse_time
    return tx


class TestFifo:
    def test_passthrough(self):
        batch = [_tx("a"), _tx("b")]
        ordered, aborts = FifoScheduler().schedule(batch)
        assert [t.tx_id for t in ordered] == ["a", "b"]
        assert aborts == []


class TestFabricPlusPlus:
    def test_reader_moved_before_writer(self):
        writer = _tx("w", writes=["k"])
        reader = _tx("r", reads=["k"])
        ordered, aborts = FabricPlusPlusScheduler().schedule([writer, reader])
        assert [t.tx_id for t in ordered] == ["r", "w"]
        assert aborts == []

    def test_independent_txs_keep_arrival_order(self):
        batch = [_tx("a", writes=["x"]), _tx("b", writes=["y"]), _tx("c", reads=["z"])]
        ordered, aborts = FabricPlusPlusScheduler().schedule(batch)
        assert [t.tx_id for t in ordered] == ["a", "b", "c"]
        assert aborts == []

    def test_cycle_broken_with_abort(self):
        # a reads x writes y; b reads y writes x -> 2-cycle.
        a = _tx("a", reads=["x"], writes=["y"])
        b = _tx("b", reads=["y"], writes=["x"])
        ordered, aborts = FabricPlusPlusScheduler().schedule([a, b])
        assert len(ordered) == 1
        assert len(aborts) == 1

    def test_update_chain_orders_readers_first(self):
        u1 = _tx("u1", reads=["k"], writes=["k"])
        u2 = _tx("u2", reads=["k"], writes=["k"])
        ordered, aborts = FabricPlusPlusScheduler().schedule([u1, u2])
        # Two read-modify-writes of the same key form a cycle: one aborts.
        assert len(ordered) + len(aborts) == 2
        assert len(aborts) == 1

    def test_empty_and_single(self):
        assert FabricPlusPlusScheduler().schedule([]) == ([], [])
        single = [_tx("a")]
        ordered, aborts = FabricPlusPlusScheduler().schedule(single)
        assert ordered == single and aborts == []


class TestFabricSharp:
    def test_stale_read_aborted(self):
        sharp = FabricSharpScheduler(window=5)
        writer = _tx("w", writes=["k"], endorse_time=1.0)
        sharp.schedule([writer])
        stale = _tx("s", reads=["k"], endorse_time=0.5)  # endorsed before the write
        ordered, aborts = sharp.schedule([stale])
        assert ordered == []
        assert [t.tx_id for t in aborts] == ["s"]

    def test_fresh_read_passes(self):
        sharp = FabricSharpScheduler(window=5)
        sharp.schedule([_tx("w", writes=["k"], endorse_time=1.0)])
        fresh = _tx("f", reads=["k"], endorse_time=2.0)
        ordered, aborts = sharp.schedule([fresh])
        assert [t.tx_id for t in ordered] == ["f"]
        assert aborts == []

    def test_window_expiry_forgets_writes(self):
        sharp = FabricSharpScheduler(window=1)
        sharp.schedule([_tx("w", writes=["k"], endorse_time=1.0)])
        sharp.schedule([_tx("other", writes=["z"], endorse_time=2.0)])  # expires k
        stale = _tx("s", reads=["k"], endorse_time=0.5)
        ordered, aborts = sharp.schedule([stale])
        assert [t.tx_id for t in ordered] == ["s"]

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError):
            FabricSharpScheduler(window=0)


def test_factory():
    assert isinstance(make_scheduler("fifo"), FifoScheduler)
    assert isinstance(make_scheduler("fabricpp"), FabricPlusPlusScheduler)
    sharp = make_scheduler("fabricsharp", window=3)
    assert isinstance(sharp, FabricSharpScheduler)
    assert sharp.window == 3
    with pytest.raises(ValueError):
        make_scheduler("bogus")


_keys = st.sampled_from(["a", "b", "c", "d"])


@st.composite
def batches(draw):
    n = draw(st.integers(min_value=0, max_value=12))
    batch = []
    for i in range(n):
        reads = draw(st.sets(_keys, max_size=2))
        writes = draw(st.sets(_keys, max_size=2))
        batch.append(_tx(f"t{i}", reads=sorted(reads), writes=sorted(writes)))
    return batch


@given(batches())
def test_property_fabricpp_preserves_multiset(batch):
    ordered, aborts = FabricPlusPlusScheduler().schedule(list(batch))
    assert sorted(t.tx_id for t in ordered + aborts) == sorted(t.tx_id for t in batch)


@given(batches())
def test_property_fabricpp_output_conflict_free(batch):
    """No surviving tx reads a key written by an *earlier* surviving tx."""
    ordered, _ = FabricPlusPlusScheduler().schedule(list(batch))
    written: set[str] = set()
    for tx in ordered:
        assert not (tx.rwset.read_keys & written)
        written |= tx.rwset.write_keys


@given(batches())
def test_property_fabricsharp_accounts_everything(batch):
    sharp = FabricSharpScheduler(window=3)
    ordered, aborts = sharp.schedule(list(batch))
    assert len(ordered) + len(aborts) == len(batch)


# Reference formulations: the plain O(n^2) pairwise graph with a full
# re-sort per Kahn step.  The indexed schedulers must match them exactly,
# transaction for transaction.


def _reference_fabricpp(batch):
    if len(batch) <= 1:
        return list(batch), []
    successors = {i: set() for i in range(len(batch))}
    predecessors = {i: set() for i in range(len(batch))}
    reads = [tx.rwset.read_keys for tx in batch]
    writes = [tx.rwset.write_keys for tx in batch]
    for i in range(len(batch)):
        for j in range(len(batch)):
            if i != j and writes[j] & reads[i]:
                successors[i].add(j)
                predecessors[j].add(i)
    alive = set(range(len(batch)))
    aborted, order = [], []
    indegree = {i: len(predecessors[i] & alive) for i in alive}
    while alive:
        sources = sorted(i for i in alive if indegree[i] == 0)
        if sources:
            node = sources[0]
            order.append(node)
        else:
            node = max(
                alive, key=lambda i: (len(successors[i] & alive) + indegree[i], i)
            )
            aborted.append(node)
        alive.discard(node)
        for succ in successors[node]:
            if succ in alive:
                indegree[succ] -= 1
    return [batch[i] for i in order], [batch[i] for i in sorted(aborted)]


def _reference_conflict_aware(batch):
    if len(batch) <= 1:
        return list(batch), []
    successors = {i: set() for i in range(len(batch))}
    reads = [tx.rwset.read_keys for tx in batch]
    writes = [tx.rwset.write_keys for tx in batch]
    indegree = {i: 0 for i in range(len(batch))}
    for i in range(len(batch)):
        for j in range(len(batch)):
            if i != j and writes[j] & reads[i]:
                successors[i].add(j)
                indegree[j] += 1
    alive = set(range(len(batch)))
    order = []
    while alive:
        sources = sorted(i for i in alive if indegree[i] == 0)
        node = sources[0] if sources else min(alive)
        order.append(node)
        alive.discard(node)
        for succ in successors[node]:
            if succ in alive:
                indegree[succ] -= 1
    return [batch[i] for i in order], []


@st.composite
def scheduler_batches(draw):
    """0-60 tx over a small key pool: empty and self read-write sets,
    multi-key overlaps, range-scanned reads, or a dense hot-key clique."""
    pool = [f"k{i}" for i in range(draw(st.integers(min_value=1, max_value=8)))]
    keys = st.lists(st.sampled_from(pool), max_size=3, unique=True)
    clique = draw(st.booleans())
    batch = []
    for i in range(draw(st.integers(min_value=0, max_value=60))):
        reads, writes = draw(keys), draw(keys)
        if clique:
            # Every tx reads and writes the hot key: each step stalls.
            reads, writes = reads + ["hot"], writes + ["hot"]
        scanned = draw(st.lists(keys, max_size=1))
        batch.append(_tx(f"t{i}", reads=reads, writes=writes, scanned=scanned))
    return batch


def _ids(result):
    ordered, aborted = result
    return [id(tx) for tx in ordered], [id(tx) for tx in aborted]


@settings(max_examples=150, deadline=None)
@given(scheduler_batches())
def test_property_fabricpp_matches_reference(batch):
    expected = _ids(_reference_fabricpp(batch))
    assert _ids(FabricPlusPlusScheduler().schedule(batch)) == expected


@settings(max_examples=150, deadline=None)
@given(scheduler_batches())
def test_property_conflict_aware_matches_reference(batch):
    expected = _ids(_reference_conflict_aware(batch))
    assert _ids(ConflictAwareScheduler().schedule(batch)) == expected


def test_fabricpp_degree_tie_aborts_later_arrival():
    # A 2-cycle of equal degree: the later arrival is the victim.
    a = _tx("a", reads=["x"], writes=["y"])
    b = _tx("b", reads=["y"], writes=["x"])
    ordered, aborts = FabricPlusPlusScheduler().schedule([a, b])
    assert ordered == [a] and aborts == [b]


def test_conflict_aware_stall_releases_earliest_remaining_tx():
    # t1 <-> t2 is a cycle (both update k) and t1 must also precede t0,
    # which writes a key t1 reads.  No tx is ready, so the earliest
    # remaining one, t0, is released, although it sits downstream of the
    # cycle rather than on it.
    t0 = _tx("t0", writes=["a"])
    t1 = _tx("t1", reads=["a", "k"], writes=["k"])
    t2 = _tx("t2", reads=["k"], writes=["k"])
    ordered, aborts = ConflictAwareScheduler().schedule([t0, t1, t2])
    assert aborts == []
    assert [t.tx_id for t in ordered] == ["t0", "t1", "t2"]
