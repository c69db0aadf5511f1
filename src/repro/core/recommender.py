"""The BlockOptR workflow (paper Figure 5).

``Fabric network -> blockchain data preprocessing -> metrics derivation /
event log generation -> process model generation -> optimization
recommendation``.  :class:`BlockOptR` runs the whole pipeline over a
ledger, an exported log file, or a live :class:`~repro.fabric.FabricNetwork`
and returns a single :class:`AnalysisReport`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

from repro.core.metrics import LogMetrics, compute_metrics
from repro.core.recommendations import Level, OptimizationKind, Recommendation
from repro.core.rules import evaluate_rules
from repro.core.thresholds import Thresholds
from repro.fabric.ledger import Ledger
from repro.fabric.network import FabricNetwork
from repro.logs.blockchain_log import BlockchainLog
from repro.logs.eventlog import EventLog
from repro.logs.export import log_from_csv, log_from_json
from repro.logs.extract import LedgerRecords, extract_blockchain_log
from repro.mining.dfg import DirectlyFollowsGraph
from repro.mining.footprint import FootprintMatrix
from repro.mining.heuristics import DependencyGraph, heuristics_miner


@dataclass
class AnalysisReport:
    """Everything one BlockOptR run produces.

    ``metrics`` and ``recommendations`` are computed up front.  The log
    and the process models derived from it (event log, DFG, heuristics
    dependency graph, footprint) are built on first access and cached:
    the recommendation rules read only the metrics, so a caller that
    never looks at the models never pays for them.
    """

    metrics: LogMetrics
    recommendations: list[Recommendation]
    #: What was analyzed: a log, or a pass over a ledger that does not
    #: change after the run.
    source: BlockchainLog | LedgerRecords = field(repr=False)
    case_attribute: str | None = None
    dependency_threshold: float = 0.7

    @cached_property
    def log(self) -> BlockchainLog:
        """The analyzed log; a ledger's is extracted again on first access."""
        source = self.source
        if isinstance(source, BlockchainLog):
            return source
        return extract_blockchain_log(
            source.ledger, interval_seconds=source.interval_seconds
        )

    @cached_property
    def event_log(self) -> EventLog:
        return EventLog.from_blockchain_log(self.log, case_attribute=self.case_attribute)

    @cached_property
    def dfg(self) -> DirectlyFollowsGraph:
        return DirectlyFollowsGraph.from_traces(self.event_log.traces())

    @cached_property
    def dependency_graph(self) -> DependencyGraph:
        return heuristics_miner(
            self.event_log.traces(), dependency_threshold=self.dependency_threshold
        )

    @cached_property
    def footprint(self) -> FootprintMatrix:
        return FootprintMatrix.from_dfg(self.dfg)

    def by_level(self, level: Level) -> list[Recommendation]:
        return [rec for rec in self.recommendations if rec.level is level]

    def recommended_kinds(self) -> set[OptimizationKind]:
        return {rec.kind for rec in self.recommendations}

    def recommends(self, kind: OptimizationKind) -> bool:
        return kind in self.recommended_kinds()

    def get(self, kind: OptimizationKind) -> Recommendation:
        for rec in self.recommendations:
            if rec.kind is kind:
                return rec
        raise KeyError(f"{kind.value} was not recommended")


class BlockOptR:
    """The automated optimization recommendation tool."""

    def __init__(
        self,
        thresholds: Thresholds | None = None,
        case_attribute: str | None = None,
        dependency_threshold: float = 0.7,
    ) -> None:
        self.thresholds = thresholds or Thresholds()
        #: Force a CaseID attribute instead of the automated derivation.
        self.case_attribute = case_attribute
        self.dependency_threshold = dependency_threshold

    # -- entry points ------------------------------------------------------------

    def analyze_network(self, network: FabricNetwork) -> AnalysisReport:
        """Analyze a just-run simulated network (reads its ledger)."""
        return self.analyze_ledger(network.ledger)

    def analyze_ledger(self, ledger: Ledger) -> AnalysisReport:
        """Analyze a committed ledger in one streamed pass.

        Each record is built, validated and folded into the metrics, then
        dropped; the report re-extracts the (immutable) ledger only if its
        log or process models are read.
        """
        return self.analyze_log(
            LedgerRecords(ledger, interval_seconds=self.thresholds.interval_seconds)
        )

    def analyze_file(self, path: str | Path) -> AnalysisReport:
        """Analyze an exported log (.csv or .json)."""
        path = Path(path)
        if path.suffix == ".csv":
            log = log_from_csv(path)
        elif path.suffix == ".json":
            log = log_from_json(path)
        else:
            raise ValueError(f"unsupported log format {path.suffix!r}")
        return self.analyze_log(log)

    def analyze_log(self, log: BlockchainLog | LedgerRecords) -> AnalysisReport:
        """The Figure 5 pipeline over a preprocessed blockchain log."""
        metrics = compute_metrics(
            log,
            interval_seconds=self.thresholds.interval_seconds,
            hotkey_failure_share=self.thresholds.hotkey_failure_share,
            hotkey_min_failures=self.thresholds.hotkey_min_failures,
        )
        return AnalysisReport(
            metrics=metrics,
            recommendations=evaluate_rules(metrics, self.thresholds),
            source=log,
            case_attribute=self.case_attribute,
            dependency_threshold=self.dependency_threshold,
        )
