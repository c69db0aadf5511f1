"""The client retry/resubmission model (repro.fabric.retry).

Covers the policy's validation and backoff math, the network-level retry
loop (accounting, resubmit-as-new-read-set semantics, attempt caps, the
no-retry rule for chaincode aborts), determinism (same seed ⇒ identical
retry traffic and forensics digest), and the baseline guarantee that a
``retry=None`` / ``mitigation="none"`` network behaves bit-identically to
the seed simulator.
"""

from __future__ import annotations

import pytest

from repro.analysis import forensics_report, report_digest
from repro.bench.experiments import make_synthetic
from repro.fabric.config import NetworkConfig
from repro.fabric.network import run_workload
from repro.fabric.retry import RetryPolicy
from repro.fabric.transaction import TxStatus
from repro.scenario.engine import run_digest
from repro.scenario.library import get_scenario


def _run(retry=None, mitigation="none", scenario_name="conflict_storm", txs=400,
         base="workload_update_heavy"):
    config, family, requests = make_synthetic(base, seed=7, total_transactions=txs)()
    config.retry = retry
    config.mitigation = mitigation
    scenario = get_scenario(scenario_name) if scenario_name else None
    return run_workload(config, family.deploy().contracts, requests, scenario=scenario)


class TestRetryPolicy:
    def test_defaults_valid(self):
        policy = RetryPolicy()
        assert policy.max_attempts == 3

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"backoff_base": 0.0},
            {"backoff_multiplier": 0.5},
            {"jitter": 1.0},
            {"jitter": -0.1},
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)

    def test_backoff_is_exponential(self):
        policy = RetryPolicy(backoff_base=0.5, backoff_multiplier=2.0)
        assert policy.delay(1) == 0.5
        assert policy.delay(2) == 1.0
        assert policy.delay(3) == 2.0

    def test_delay_requires_a_failure(self):
        with pytest.raises(ValueError):
            RetryPolicy().delay(0)

    def test_jitter_perturbs_within_bounds(self):
        policy = RetryPolicy(backoff_base=1.0, backoff_multiplier=1.0, jitter=0.2)
        lows = policy.delay(1, uniform=lambda: 0.0)
        highs = policy.delay(1, uniform=lambda: 0.999999)
        assert lows == pytest.approx(0.8)
        assert highs == pytest.approx(1.2, abs=1e-4)

    def test_zero_jitter_never_consults_rng(self):
        def exploding():  # pragma: no cover - must not be called
            raise AssertionError("jitter-free policy touched the RNG")

        assert RetryPolicy().delay(1, uniform=exploding) == 0.25

    def test_dict_round_trip(self):
        policy = RetryPolicy(max_attempts=5, jitter=0.1)
        assert RetryPolicy.from_dict(policy.to_dict()) == policy
        with pytest.raises(ValueError):
            RetryPolicy.from_dict({"max_attempt": 2})


class TestNetworkRetries:
    def test_config_rejects_unknown_mitigation(self):
        with pytest.raises(ValueError):
            NetworkConfig(mitigation="pray")

    def test_config_copy_carries_retry_and_mitigation(self):
        config = NetworkConfig(retry=RetryPolicy(max_attempts=2), mitigation="reorder")
        clone = config.copy()
        assert clone.retry == config.retry
        assert clone.mitigation == "reorder"

    def test_retries_generate_followon_traffic_and_account(self):
        network, result = _run(retry=RetryPolicy(max_attempts=3))
        assert network.retries_issued > 0
        committed = list(network.ledger.transactions(include_config=False))
        assert len(committed) + len(network.aborted) == 400 + network.retries_issued
        assert result.total_issued == 400 + network.retries_issued

    def test_retries_recover_failed_transactions(self):
        network, _ = _run(retry=RetryPolicy(max_attempts=3))
        assert network.retries_recovered > 0
        recovered = [
            tx
            for tx in network.ledger.transactions(include_config=False)
            if tx.attempt > 1 and tx.status is TxStatus.SUCCESS
        ]
        assert len(recovered) == network.retries_recovered
        # Resubmit-as-new-read-set: a recovered retry re-executed the
        # chaincode, so it carries its own read-write set and tx id.
        assert all(tx.retry_of is not None and tx.retry_of != tx.tx_id for tx in recovered)

    def test_attempts_never_exceed_the_cap(self):
        policy = RetryPolicy(max_attempts=2)
        network, _ = _run(retry=policy)
        every = list(network.ledger.transactions(include_config=False)) + network.aborted
        assert max(tx.attempt for tx in every) <= policy.max_attempts
        assert network.retries_exhausted > 0

    def test_no_retry_without_policy(self):
        network, _ = _run(retry=None)
        assert network.retries_issued == 0
        every = list(network.ledger.transactions(include_config=False)) + network.aborted
        assert all(tx.attempt == 1 for tx in every)

    def test_retry_traffic_is_deterministic(self):
        digests = []
        for _ in range(2):
            network, _ = _run(retry=RetryPolicy(max_attempts=3, jitter=0.2))
            digests.append(
                (
                    run_digest(network),
                    report_digest(forensics_report(network)),
                    network.retries_issued,
                    network.retries_recovered,
                    network.retries_exhausted,
                )
            )
        assert digests[0] == digests[1]

    def test_baseline_unaffected_by_retry_code(self):
        """retry=None + mitigation=none reproduces the seed behaviour."""
        baseline, _ = _run(retry=None, scenario_name=None)
        again, _ = _run(retry=None, scenario_name=None)
        assert run_digest(baseline) == run_digest(again)


class TestMitigations:
    # 600 transactions: enough backlog that envelopes go stale between
    # endorsement and packaging (at 400 the pipeline drains too fast for
    # the early-abort check to ever fire).
    def test_early_abort_reduces_mvcc_aborts(self):
        plain, _ = _run(txs=600)
        mitigated, _ = _run(mitigation="early_abort", txs=600)
        before = forensics_report(plain)
        after = forensics_report(mitigated)
        assert after.cause_counts["mvcc_conflict"] < before.cause_counts["mvcc_conflict"]
        assert after.mvcc_abort_rate < before.mvcc_abort_rate
        assert after.cause_counts["early_abort_stale_read"] > 0

    def test_reorder_reduces_mvcc_aborts_without_rejecting_work(self):
        plain, plain_result = _run(txs=600)
        mitigated, mitigated_result = _run(mitigation="reorder", txs=600)
        before = forensics_report(plain)
        after = forensics_report(mitigated)
        assert after.cause_counts["mvcc_conflict"] < before.cause_counts["mvcc_conflict"]
        # Abort-free: every submitted transaction still reaches a block.
        assert mitigated_result.total_issued == plain_result.total_issued
        assert after.cause_counts["early_abort_scheduler"] == 0
        assert mitigated_result.success_count >= plain_result.success_count

    def test_stale_read_aborts_count_as_submitted_failures(self):
        network, result = _run(mitigation="early_abort", txs=600)
        stale = [tx for tx in network.aborted if tx.abort_stage == "stale_read"]
        assert stale, "the conflict storm should trip the early-abort check"
        assert all(tx.conflict_key is not None for tx in stale)
        # summarize_run counts them in the denominator (unlike chaincode
        # aborts), so the success rate is not inflated by the mitigation.
        report = forensics_report(network)
        assert report.submitted == result.total_issued

    def test_early_abort_plus_retry_recovers_dropped_work(self):
        network, _ = _run(
            mitigation="early_abort", retry=RetryPolicy(max_attempts=3), txs=600
        )
        report = forensics_report(network)
        assert report.cause_counts["early_abort_stale_read"] > 0
        assert network.retries_recovered > 0


class TestConflictAwareScheduler:
    def test_readers_reordered_before_writers(self):
        from repro.fabric.reorder import ConflictAwareScheduler
        from repro.fabric.transaction import ReadWriteSet, Transaction, Version

        def tx(tx_id, reads=(), writes=()):
            rwset = ReadWriteSet(
                reads={key: Version(0, 0) for key in reads},
                writes={key: 1 for key in writes},
            )
            return Transaction(
                tx_id=tx_id,
                client_timestamp=0.0,
                activity="a",
                args=(),
                contract="c",
                invoker_client="cl",
                invoker_org="Org1",
                rwset=rwset,
            )

        writer = tx("w", writes=("k",))
        reader = tx("r", reads=("k",))
        scheduler = ConflictAwareScheduler()
        ordered, aborts = scheduler.schedule([writer, reader])
        assert [t.tx_id for t in ordered] == ["r", "w"]
        assert aborts == []

        # A cycle (two updates of the same key) falls back to arrival
        # order instead of aborting.
        u1 = tx("u1", reads=("k",), writes=("k",))
        u2 = tx("u2", reads=("k",), writes=("k",))
        ordered, aborts = scheduler.schedule([u1, u2])
        assert [t.tx_id for t in ordered] == ["u1", "u2"]
        assert aborts == []
