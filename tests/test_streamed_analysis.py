"""The streamed ledger analysis agrees with analyzing the extracted log.

``BlockOptR.analyze_network`` folds each ledger record into the metrics
and drops it; ``analyze_log(extract_blockchain_log(...))`` materializes
the log first.  Both must give the same metrics and recommendations, and
the report's log and process models, built on first access, must equal
the eager builds.
"""

import pytest

import repro.logs.blockchain_log as blockchain_log
from repro.bench.experiments import make_usecase, synthetic_spec
from repro.core import BlockOptR
from repro.fabric import run_workload
from repro.fabric.transaction import TxStatus
from repro.logs import EventLog, extract_blockchain_log
from repro.mining.dfg import DirectlyFollowsGraph
from repro.mining.footprint import FootprintMatrix
from repro.mining.heuristics import heuristics_miner
from repro.workloads import synthetic_workload

TOTAL = 1500

LAZY = ("log", "event_log", "dfg", "dependency_graph", "footprint")


def _usecase_network(name):
    config, family, requests = make_usecase(name, total_transactions=TOTAL)()
    network, _ = run_workload(config, family.deploy().contracts, requests)
    return network


def _insert_heavy_network():
    spec = synthetic_spec("workload_insert_heavy", seed=7)
    spec.total_transactions = TOTAL
    config, deployment, requests = synthetic_workload(spec)
    network, _ = run_workload(config, deployment.contracts, requests)
    return network


@pytest.fixture(scope="module", params=["scm", "drm", "ehr", "voting", "insert_heavy"])
def network(request):
    if request.param == "insert_heavy":
        return _insert_heavy_network()
    return _usecase_network(request.param)


def test_streamed_analysis_equals_extracted_log_analysis(network):
    streamed = BlockOptR().analyze_network(network)
    extracted = BlockOptR().analyze_log(extract_blockchain_log(network))
    assert streamed.metrics == extracted.metrics
    assert streamed.recommendations == extracted.recommendations


def test_insert_heavy_run_has_phantom_conflict_pairs():
    # Pins that the synthetic case above exercises the phantom range scan.
    report = BlockOptR().analyze_network(_insert_heavy_network())
    assert report.metrics.failure_counts.get(TxStatus.PHANTOM_CONFLICT, 0) > 0
    assert report.metrics.conflict_pairs


def test_process_models_are_built_once_on_first_access(network):
    report = BlockOptR().analyze_network(network)
    assert not set(LAZY) & set(vars(report))

    log = extract_blockchain_log(network)
    event_log = EventLog.from_blockchain_log(log)
    traces = event_log.traces()
    dfg = DirectlyFollowsGraph.from_traces(traces)
    eager = {
        "log": log,
        "event_log": event_log,
        "dfg": dfg,
        "dependency_graph": heuristics_miner(traces, dependency_threshold=0.7),
        "footprint": FootprintMatrix.from_dfg(dfg),
    }
    for name in LAZY:
        first = getattr(report, name)
        assert getattr(report, name) is first
        assert first == eager[name], name


def test_analyze_log_report_keeps_the_given_log():
    log = extract_blockchain_log(_usecase_network("voting"))
    assert BlockOptR().analyze_log(log).log is log


def test_corrupted_ledger_record_still_raises(monkeypatch):
    network = _usecase_network("voting")
    build = blockchain_log.record_from_transaction

    def corrupting(tx, order, block_position):
        record = build(tx, order, block_position)
        if order == 10:
            record.writes["ghost"] = 1
        return record

    monkeypatch.setattr(blockchain_log, "record_from_transaction", corrupting)
    with pytest.raises(ValueError, match="write values without keys"):
        BlockOptR().analyze_network(network)
