"""Tests for the Section 4.3 metrics derivation."""

import pytest

from repro.core.metrics import MetricsAccumulator, compute_metrics, increment_delta
from repro.fabric.transaction import TxStatus, TxType
from repro.logs import BlockchainLog, ChannelConfig, LogRecord

from tests.test_logs import make_log, make_record


def rec(
    order,
    activity="act",
    reads=None,
    writes=None,
    status=TxStatus.SUCCESS,
    read_versions=None,
    invoker_org="Org1",
    endorser="Org1-peer0",
    ts=None,
    block=None,
):
    reads = reads or []
    writes = writes or {}
    return LogRecord(
        commit_order=order,
        tx_id=f"tx{order}",
        client_timestamp=float(order) / 10.0 if ts is None else ts,
        activity=activity,
        args=(),
        endorsers=(endorser,),
        invoker=f"{invoker_org}-client0",
        invoker_org=invoker_org,
        read_keys=tuple(reads),
        write_keys=tuple(writes),
        writes=dict(writes),
        read_versions=read_versions or {k: (0, 0) for k in reads},
        range_reads=(),
        status=status,
        tx_type=(
            TxType.UPDATE if (writes and reads) else TxType.WRITE if writes else TxType.READ
        ),
        block_number=order // 10 if block is None else block,
        block_position=order % 10,
        commit_time=float(order) / 10.0 + 1.0,
    )


class TestRateMetrics:
    def test_tr_from_client_timestamps(self):
        log = make_log([make_record(i) for i in range(100)])  # 10 tx per second
        metrics = compute_metrics(log)
        assert metrics.tr == pytest.approx(100 / 9.9)

    def test_trd_intervals(self):
        log = make_log([make_record(i) for i in range(30)])  # ts 0..2.9
        metrics = compute_metrics(log, interval_seconds=1.0)
        assert metrics.trd == [10.0, 10.0, 10.0]

    def test_frd_counts_failures(self):
        records = [
            rec(i, status=TxStatus.MVCC_CONFLICT if i < 5 else TxStatus.SUCCESS)
            for i in range(30)
        ]
        metrics = compute_metrics(make_log(records), interval_seconds=1.0)
        assert metrics.frd[0] == 5.0
        assert metrics.frd[1] == 0.0

    def test_interval_must_be_positive(self):
        for bad in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="interval must be positive"):
                MetricsAccumulator(interval_seconds=bad)
        log = make_log([make_record(i) for i in range(30)])
        assert compute_metrics(log, interval_seconds=float("inf")).trd == [0.0]


class TestFailureMetrics:
    def test_tfr_and_counts(self):
        records = [rec(0), rec(1, status=TxStatus.MVCC_CONFLICT), rec(2, status=TxStatus.PHANTOM_CONFLICT)]
        metrics = compute_metrics(make_log(records))
        assert metrics.total_failures == 2
        assert metrics.tfr == pytest.approx(2 / 3)
        assert metrics.failure_counts[TxStatus.MVCC_CONFLICT] == 1


class TestBlockMetrics:
    def test_bsize_avg(self):
        records = [rec(i, block=i // 5) for i in range(20)]  # 4 blocks of 5
        metrics = compute_metrics(make_log(records))
        assert metrics.bsize_avg == 5.0
        assert metrics.bcount == 100
        assert metrics.btimeout == 1.0


class TestSignificance:
    def test_edsig_counts(self):
        records = [rec(i, endorser="Org1-peer0" if i < 7 else "Org2-peer0") for i in range(10)]
        metrics = compute_metrics(make_log(records))
        assert metrics.edsig_org == {"Org1": 7, "Org2": 3}

    def test_ivsig_counts(self):
        records = [rec(i, invoker_org="Org1" if i < 8 else "Org2") for i in range(10)]
        metrics = compute_metrics(make_log(records))
        assert metrics.ivsig_org == {"Org1": 8, "Org2": 2}


class TestKeyMetrics:
    def test_kfreq_counts_failed_accesses(self):
        records = [
            rec(0, reads=["hot"], status=TxStatus.MVCC_CONFLICT),
            rec(1, reads=["hot"], status=TxStatus.MVCC_CONFLICT),
            rec(2, reads=["hot"]),  # success: not counted
            rec(3, reads=["cold"], status=TxStatus.MVCC_CONFLICT),
        ]
        metrics = compute_metrics(make_log(records))
        assert metrics.kfreq == {"hot": 2, "cold": 1}

    def test_hotkey_thresholds(self):
        records = []
        order = 0
        for _ in range(30):
            records.append(rec(order, activity="u1", reads=["hot"], status=TxStatus.MVCC_CONFLICT))
            order += 1
        for _ in range(5):
            records.append(rec(order, reads=["cold"], status=TxStatus.MVCC_CONFLICT))
            order += 1
        metrics = compute_metrics(make_log(records), hotkey_failure_share=0.5, hotkey_min_failures=10)
        assert metrics.hotkeys == ["hot"]

    def test_ksig_counts_distinct_activities(self):
        records = [
            rec(0, activity="a", reads=["k"]),
            rec(1, activity="b", reads=["k"]),
            rec(2, activity="a", reads=["k"]),
        ]
        metrics = compute_metrics(make_log(records))
        assert metrics.ksig["k"] == 2

    def test_ksig_failed_filters_insignificant(self):
        records = []
        order = 0
        for _ in range(50):
            records.append(rec(order, activity="main", reads=["k"], status=TxStatus.MVCC_CONFLICT))
            order += 1
        records.append(rec(order, activity="rare", reads=["k"], status=TxStatus.MVCC_CONFLICT))
        metrics = compute_metrics(make_log(records))
        assert metrics.ksig_failed["k"] == 1
        assert metrics.key_failed_activities["k"] == frozenset({"main"})


class TestConflictPairs:
    def test_culprit_is_latest_writer(self):
        records = [
            rec(0, activity="w1", writes={"k": 1}),
            rec(1, activity="w2", writes={"k": 2}),
            rec(2, activity="r", reads=["k"], status=TxStatus.MVCC_CONFLICT),
        ]
        metrics = compute_metrics(make_log(records))
        assert len(metrics.conflict_pairs) == 1
        pair = metrics.conflict_pairs[0]
        assert pair.culprit_activity == "w2"
        assert pair.distance == 1
        assert pair.reorderable  # read-only failed tx

    def test_not_reorderable_when_write_sets_overlap(self):
        records = [
            rec(0, activity="u", reads=["k"], writes={"k": 1}),
            rec(1, activity="u", reads=["k"], writes={"k": 2}, status=TxStatus.MVCC_CONFLICT),
        ]
        metrics = compute_metrics(make_log(records))
        assert not metrics.conflict_pairs[0].reorderable
        assert metrics.self_dependent_activities == ["u"]

    def test_same_block_flag(self):
        records = [
            rec(0, activity="w", writes={"k": 1}, block=3),
            rec(1, activity="r", reads=["k"], status=TxStatus.MVCC_CONFLICT, block=3),
        ]
        metrics = compute_metrics(make_log(records))
        assert metrics.conflict_pairs[0].same_block
        assert metrics.intra_block_pairs == 1

    def test_failed_writers_not_culprits(self):
        records = [
            rec(0, activity="w", writes={"k": 1}, status=TxStatus.MVCC_CONFLICT),
            rec(1, activity="r", reads=["k"], status=TxStatus.MVCC_CONFLICT),
        ]
        metrics = compute_metrics(make_log(records))
        assert metrics.conflict_pairs == []  # no successful culprit exists


class TestCorPA:
    def test_distances_per_activity(self):
        records = [
            rec(0, activity="a"),
            rec(1, activity="b"),
            rec(2, activity="a"),
            rec(3, activity="a"),
        ]
        metrics = compute_metrics(make_log(records))
        assert metrics.corpa["a"] == [2, 1]
        assert "b" not in metrics.corpa


class TestDeltaCandidates:
    def test_increment_detected_via_read_version(self):
        records = [
            rec(0, activity="play", reads=["k"], writes={"k": 5}, block=1),
            rec(
                1,
                activity="play",
                reads=["k"],
                writes={"k": 6},
                status=TxStatus.MVCC_CONFLICT,
                read_versions={"k": (1, 0)},
                block=1,
            ),
        ]
        # Fix block positions so the version lookup matches.
        records[0].block_number, records[0].block_position = 1, 0
        records[1].block_number, records[1].block_position = 1, 1
        metrics = compute_metrics(make_log(records))
        assert metrics.delta_candidates == {"play": 1}

    def test_non_increment_not_detected(self):
        records = [
            rec(0, activity="set", reads=["k"], writes={"k": 5}),
            rec(
                1,
                activity="set",
                reads=["k"],
                writes={"k": 50},
                status=TxStatus.MVCC_CONFLICT,
                read_versions={"k": (0, 0)},
            ),
        ]
        records[0].block_number, records[0].block_position = 0, 0
        metrics = compute_metrics(make_log(records))
        assert metrics.delta_candidates == {}


class TestIncrementDelta:
    def test_plain_numbers(self):
        assert increment_delta(5, 6) == 1.0
        assert increment_delta(6, 5) == -1.0
        assert increment_delta(5, 9) == 4.0

    def test_dict_single_leaf(self):
        before = {"plays": 3, "meta": {"title": "x"}}
        after = {"plays": 4, "meta": {"title": "x"}}
        assert increment_delta(before, after) == 1.0

    def test_dict_two_changed_leaves_rejected(self):
        assert increment_delta({"a": 1, "b": 1}, {"a": 2, "b": 2}) is None

    def test_structure_change_rejected(self):
        assert increment_delta({"a": 1}, {"a": 1, "b": 2}) is None

    def test_non_numeric_rejected(self):
        assert increment_delta({"a": [1]}, {"a": [1, 2]}) is None
        assert increment_delta("x", "y") is None

    def test_bools_rejected(self):
        assert increment_delta(False, True) is None
