"""Tests for the nine Table 1 recommendation rules."""

import pytest

from repro.core.recommendations import Level, OptimizationKind as K
from repro.core.rules import evaluate_rules
from repro.core.metrics import compute_metrics
from repro.core.thresholds import Thresholds
from repro.fabric.transaction import TxStatus

from tests.test_core_metrics import rec
from tests.test_logs import make_log


def kinds_of(recommendations):
    return {r.kind for r in recommendations}


def metrics_for(records, **kwargs):
    thresholds = Thresholds()
    return compute_metrics(
        make_log(records),
        interval_seconds=thresholds.interval_seconds,
        hotkey_failure_share=kwargs.pop("hotkey_failure_share", thresholds.hotkey_failure_share),
        hotkey_min_failures=kwargs.pop("hotkey_min_failures", thresholds.hotkey_min_failures),
    )


class TestActivityReordering:
    def _reorderable_records(self, n_fail=30, n_self=0):
        records = []
        order = 0
        for i in range(n_fail):
            records.append(rec(order, activity="update", reads=["k"], writes={"k": i}))
            order += 1
            records.append(
                rec(order, activity="read", reads=["k"], status=TxStatus.MVCC_CONFLICT)
            )
            order += 1
        for i in range(n_self):
            records.append(rec(order, activity="update", reads=["j"], writes={"j": i}))
            order += 1
            records.append(
                rec(
                    order,
                    activity="update",
                    reads=["j"],
                    writes={"j": -i},
                    status=TxStatus.MVCC_CONFLICT,
                )
            )
            order += 1
        return records

    def test_fires_when_share_above_threshold(self):
        metrics = metrics_for(self._reorderable_records())
        recs = evaluate_rules(metrics)
        assert K.ACTIVITY_REORDERING in kinds_of(recs)
        rec_ = next(r for r in recs if r.kind is K.ACTIVITY_REORDERING)
        assert "read" in rec_.actions["front"]

    def test_silent_when_mostly_self_dependent(self):
        metrics = metrics_for(self._reorderable_records(n_fail=5, n_self=30))
        recs = evaluate_rules(metrics)
        assert K.ACTIVITY_REORDERING not in kinds_of(recs)

    def test_silent_below_min_failures(self):
        metrics = metrics_for(self._reorderable_records(n_fail=5))
        recs = evaluate_rules(metrics)
        assert K.ACTIVITY_REORDERING not in kinds_of(recs)

    def test_culprit_activity_never_in_front(self):
        metrics = metrics_for(self._reorderable_records())
        rec_ = next(
            r for r in evaluate_rules(metrics) if r.kind is K.ACTIVITY_REORDERING
        )
        assert "update" not in rec_.actions["front"]

    def test_level_is_user(self):
        assert K.ACTIVITY_REORDERING.level is Level.USER


class TestPruning:
    def test_fires_on_minority_type(self):
        records = []
        # 20 normal updates, 6 anomalous read-only txs of the same activity.
        for i in range(20):
            records.append(rec(i, activity="ship", reads=["p"], writes={"p": i}))
        for i in range(20, 26):
            records.append(rec(i, activity="ship", reads=["p"]))
        metrics = metrics_for(records)
        recs = evaluate_rules(metrics)
        pruning = next(r for r in recs if r.kind is K.PROCESS_MODEL_PRUNING)
        assert pruning.actions["activities"] == ("ship",)

    def test_silent_below_min_anomalies(self):
        records = [rec(i, activity="ship", reads=["p"], writes={"p": i}) for i in range(20)]
        records.append(rec(20, activity="ship", reads=["p"]))
        metrics = metrics_for(records)
        assert K.PROCESS_MODEL_PRUNING not in kinds_of(evaluate_rules(metrics))

    def test_silent_when_minority_is_second_mode(self):
        # 50/50 split: two legitimate modes, not an anomaly.
        records = []
        for i in range(10):
            records.append(rec(2 * i, activity="x", reads=["p"], writes={"p": i}))
            records.append(rec(2 * i + 1, activity="x", reads=["p"]))
        metrics = metrics_for(records)
        assert K.PROCESS_MODEL_PRUNING not in kinds_of(evaluate_rules(metrics))


class TestRateControl:
    def _records(self, rate, failure_fraction):
        records = []
        n = int(rate)
        for i in range(n):
            status = TxStatus.MVCC_CONFLICT if i < n * failure_fraction else TxStatus.SUCCESS
            records.append(rec(i, status=status, ts=i / rate))
        return records

    def test_fires_on_hot_failing_interval(self):
        metrics = metrics_for(self._records(400, 0.5))
        recs = evaluate_rules(metrics)
        assert K.TRANSACTION_RATE_CONTROL in kinds_of(recs)

    def test_silent_at_low_rate(self):
        metrics = metrics_for(self._records(100, 0.9))
        assert K.TRANSACTION_RATE_CONTROL not in kinds_of(evaluate_rules(metrics))

    def test_silent_with_low_failures(self):
        metrics = metrics_for(self._records(400, 0.05))
        assert K.TRANSACTION_RATE_CONTROL not in kinds_of(evaluate_rules(metrics))

    def test_threshold_tunable(self):
        metrics = metrics_for(self._records(400, 0.2))
        lenient = Thresholds(failure_fraction=0.1)
        assert K.TRANSACTION_RATE_CONTROL in kinds_of(evaluate_rules(metrics, lenient))


class TestHotkeyRules:
    def _hot_records(self, activities, per_activity=30):
        records = []
        order = 0
        for _ in range(per_activity):
            for activity in activities:
                records.append(
                    rec(order, activity=activity, reads=["hot1"], status=TxStatus.MVCC_CONFLICT)
                )
                order += 1
                records.append(
                    rec(order, activity=activity, reads=["hot2"], status=TxStatus.MVCC_CONFLICT)
                )
                order += 1
        return records

    def test_partitioning_for_shared_hotkeys(self):
        metrics = metrics_for(self._hot_records(["play", "view"]))
        recs = kinds_of(evaluate_rules(metrics))
        assert K.SMART_CONTRACT_PARTITIONING in recs
        assert K.DATA_MODEL_ALTERATION not in recs

    def test_alteration_for_single_activity_hotkeys(self):
        metrics = metrics_for(self._hot_records(["vote"]))
        recs = kinds_of(evaluate_rules(metrics))
        assert K.DATA_MODEL_ALTERATION in recs
        assert K.SMART_CONTRACT_PARTITIONING not in recs

    def test_alteration_for_single_hotkey(self):
        records = []
        for i in range(60):
            records.append(
                rec(i, activity=f"act{i % 3}", reads=["only-hot"], status=TxStatus.MVCC_CONFLICT)
            )
        metrics = metrics_for(records)
        recs = kinds_of(evaluate_rules(metrics))
        assert K.DATA_MODEL_ALTERATION in recs
        assert K.SMART_CONTRACT_PARTITIONING not in recs

    def test_silent_without_hotkeys(self):
        records = [
            rec(i, reads=[f"k{i}"], status=TxStatus.MVCC_CONFLICT) for i in range(30)
        ]
        metrics = metrics_for(records)
        recs = kinds_of(evaluate_rules(metrics))
        assert K.SMART_CONTRACT_PARTITIONING not in recs
        assert K.DATA_MODEL_ALTERATION not in recs


class TestBlockSize:
    def _records(self, rate, block_size):
        records = []
        for i in range(600):
            records.append(rec(i, ts=i / rate, block=i // block_size))
        return records

    def test_fires_when_blocks_too_small(self):
        metrics = metrics_for(self._records(rate=300.0, block_size=50))
        recs = evaluate_rules(metrics)
        block_rec = next(r for r in recs if r.kind is K.BLOCK_SIZE_ADAPTATION)
        assert block_rec.actions["block_count"] == pytest.approx(300, rel=0.1)

    def test_silent_when_matched(self):
        metrics = metrics_for(self._records(rate=300.0, block_size=300))
        assert K.BLOCK_SIZE_ADAPTATION not in kinds_of(evaluate_rules(metrics))

    def test_fires_when_blocks_too_large(self):
        metrics = metrics_for(self._records(rate=50.0, block_size=300))
        assert K.BLOCK_SIZE_ADAPTATION in kinds_of(evaluate_rules(metrics))


class TestEndorserRestructuring:
    def _records(self, org1_share):
        records = []
        for i in range(100):
            endorser = "Org1-peer0" if i < org1_share * 100 else f"Org{2 + i % 3}-peer0"
            records.append(rec(i, endorser=endorser))
        return records

    def test_fair_share_mode_detects_imbalance(self):
        metrics = metrics_for(self._records(0.7))
        metrics.endorsement_policy = "OutOf(1,Org1,Org2,Org3,Org4)"
        recs = evaluate_rules(metrics)
        endorser = next(r for r in recs if r.kind is K.ENDORSER_RESTRUCTURING)
        assert "Org1" in endorser.evidence["bottleneck_orgs"]
        assert endorser.actions["policy"].startswith("OutOf(1,")

    def test_balanced_load_silent(self):
        records = [rec(i, endorser=f"Org{1 + i % 4}-peer0") for i in range(100)]
        metrics = metrics_for(records)
        metrics.endorsement_policy = "OutOf(1,Org1,Org2,Org3,Org4)"
        assert K.ENDORSER_RESTRUCTURING not in kinds_of(evaluate_rules(metrics))

    def test_absolute_mode_follows_table1(self):
        metrics = metrics_for(self._records(0.4))
        metrics.endorsement_policy = "OutOf(1,Org1,Org2,Org3,Org4)"
        absolute = Thresholds(endorser_mode="absolute", endorser_share=0.5)
        assert K.ENDORSER_RESTRUCTURING not in kinds_of(evaluate_rules(metrics, absolute))
        strict = Thresholds(endorser_mode="absolute", endorser_share=0.3)
        assert K.ENDORSER_RESTRUCTURING in kinds_of(evaluate_rules(metrics, strict))


class TestClientBoost:
    def test_fires_above_invoker_share(self):
        records = [
            rec(i, invoker_org="Org1" if i < 70 else "Org2") for i in range(100)
        ]
        metrics = metrics_for(records)
        recs = evaluate_rules(metrics)
        boost = next(r for r in recs if r.kind is K.CLIENT_RESOURCE_BOOST)
        assert boost.actions["orgs"] == ("Org1",)
        assert boost.actions["scale_factor"] == 2

    def test_silent_when_balanced(self):
        records = [rec(i, invoker_org=f"Org{1 + i % 2}") for i in range(100)]
        metrics = metrics_for(records)
        assert K.CLIENT_RESOURCE_BOOST not in kinds_of(evaluate_rules(metrics))


class TestThresholdsValidation:
    def test_defaults_match_paper(self):
        t = Thresholds()
        assert t.rate_high == 300.0
        assert t.failure_fraction == 0.3
        assert t.block_tolerance == 0.6
        assert t.endorser_share == 0.5
        assert t.invoker_share == 0.5
        assert t.reorderable_mvcc_share == 0.4

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"interval_seconds": 0.0},
            {"failure_fraction": 1.5},
            {"block_tolerance": -0.1},
            {"endorser_mode": "nope"},
            {"interval_seconds": float("nan")},
            {"rate_high": float("nan")},
            {"rate_high": -1.0},
        ],
    )
    def test_invalid_thresholds_rejected(self, kwargs):
        with pytest.raises(ValueError):
            Thresholds(**kwargs)

    def test_infinite_interval_and_rate_are_valid(self):
        inf = float("inf")
        assert Thresholds(interval_seconds=inf, rate_high=inf).rate_high == inf


def test_levels_cover_figure1():
    user = {K.ACTIVITY_REORDERING, K.PROCESS_MODEL_PRUNING, K.TRANSACTION_RATE_CONTROL}
    data = {K.DELTA_WRITES, K.SMART_CONTRACT_PARTITIONING, K.DATA_MODEL_ALTERATION}
    system = {K.BLOCK_SIZE_ADAPTATION, K.ENDORSER_RESTRUCTURING, K.CLIENT_RESOURCE_BOOST}
    assert all(k.level is Level.USER for k in user)
    assert all(k.level is Level.DATA for k in data)
    assert all(k.level is Level.SYSTEM for k in system)
    assert len(user | data | system) == 9
