"""End-to-end network orchestration.

:class:`FabricNetwork` wires clients, endorsers, the ordering service and
the validation pipeline onto one simulation kernel and drives a workload
through the full execute-order-validate lifecycle:

1. at its scheduled submit time a request occupies its client (proposal);
2. the endorsement phase runs on the selected orgs' peers, snapshotting the
   committed state at execution start;
3. the client packages the endorsed envelope and submits it to ordering;
4. the block cutter batches envelopes; each block costs ordering service
   time, then validation + commit time, after which statuses are final and
   the block — failures included — is on the ledger.

The genesis block (block 0) carries a config transaction recording block
count, block timeout and the endorsement policy, so that BlockOptR can
later *extract the configuration from the ledger*, as the paper does.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.fabric.chaincode import Contract
from repro.fabric.client import ClientPool
from repro.fabric.conditions import NetworkConditions
from repro.fabric.config import NetworkConfig
from repro.fabric.endorser import EndorserPool
from repro.fabric.ledger import Block, Ledger
from repro.fabric.orderer import OrderingService
from repro.fabric.policy import parse_policy
from repro.fabric.reorder import make_scheduler
from repro.fabric.results import RunResult, summarize_run
from repro.fabric.state import StateDatabase
from repro.fabric.transaction import Transaction, TxRequest, TxStatus
from repro.fabric.validator import ValidationPipeline, rwset_conflict
from repro.sim.batch import make_kernel, resolve_kernel_tier
from repro.sim.rng import SimRng

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.logs.stream import RunStream
    from repro.scenario.spec import ScenarioSpec


@dataclass(frozen=True)
class StreamedRunStats:
    """Headline accounting of one streamed run (no ledger to re-read)."""

    issued: int
    committed: int
    aborted: int
    blocks: int
    data_blocks: int
    retries_issued: int
    retries_recovered: int
    retries_exhausted: int
    first_submit: float
    last_commit: float

    @property
    def makespan(self) -> float:
        """Wall-clock span from first submission to last commit."""
        return max(0.0, self.last_commit - self.first_submit)


class FabricNetwork:
    """A simulated Fabric network ready to execute workloads.

    An optional :class:`~repro.scenario.spec.ScenarioSpec` turns the
    static network into a dynamic one: its interventions are installed on
    the kernel's intervention lane at construction time and its workload
    transforms are applied to the requests in :meth:`run`.
    """

    def __init__(
        self,
        config: NetworkConfig,
        contracts: list[Contract],
        scenario: "ScenarioSpec | None" = None,
        stream: "RunStream | None" = None,
    ) -> None:
        if not contracts:
            raise ValueError("a network needs at least one smart contract")
        if (
            stream is not None
            and scenario is not None
            and scenario.workload_interventions()
        ):
            raise ValueError(
                "streaming runs do not support workload-transform interventions: "
                "they need the full request list (apply the transforms to the "
                "request iterable up front and pass a network-only scenario)"
            )
        self.config = config
        #: The resolved kernel tier ("reference" or "batch"): the config
        #: wins when set, else the ``REPRO_KERNEL`` environment variable.
        #: Both tiers are bit-identical (see :mod:`repro.sim.batch`).
        self.kernel_tier = resolve_kernel_tier(config.kernel_tier)
        self.kernel = make_kernel(self.kernel_tier)
        self.rng = SimRng(config.seed)
        self.conditions = NetworkConditions(config.timing)
        self.policy = parse_policy(config.endorsement_policy)
        unknown = self.policy.organizations() - set(config.org_names())
        if unknown:
            raise ValueError(
                f"policy references organizations missing from the network: {sorted(unknown)}"
            )
        self.state_db = StateDatabase()
        self.stream = stream
        if stream is not None:
            from repro.logs.stream import StreamingLedger

            if self.kernel_tier == "batch":
                stream.enable_batch_fanout()
            self.ledger: Ledger = StreamingLedger(stream)  # type: ignore[assignment]
        else:
            self.ledger = Ledger()
        self.contracts = {contract.name: contract for contract in contracts}
        if len(self.contracts) != len(contracts):
            raise ValueError("duplicate contract names")
        for contract in contracts:
            contract.setup(self.state_db.namespace(contract.name))

        self.clients = ClientPool(self.kernel, config)
        self.endorsers = EndorserPool(
            self.kernel,
            config,
            self.policy,
            self.state_db,
            self.contracts,
            self.rng,
            conditions=self.conditions,
        )
        # The "reorder" mitigation swaps in the abort-free conflict-aware
        # scheduler; every other mitigation leaves the configured one.
        scheduler_name = (
            "conflict_aware" if config.mitigation == "reorder" else config.scheduler
        )
        self._scheduler = make_scheduler(scheduler_name, config.scheduler_window)
        self.validator = ValidationPipeline(
            self.kernel,
            config,
            self.policy,
            self.state_db,
            self.ledger,
            on_block_committed=self._after_block,
        )
        self.orderer = OrderingService(
            self.kernel,
            config,
            self._scheduler,
            deliver=self._deliver_block,
            early_abort=self._record_early_abort,
            conditions=self.conditions,
        )
        #: Aborted transactions (batch mode only; streaming fans them out).
        self.aborted: list[Transaction] = []
        self.aborted_count = 0
        self._tx_counter = 0
        self._retry = config.retry
        self._mitigation = config.mitigation
        #: Retry-traffic counters (see docs/FAILURES.md): resubmissions
        #: issued, retries that ultimately committed, and logical
        #: transactions whose final allowed attempt still failed.
        self.retries_issued = 0
        self.retries_recovered = 0
        self.retries_exhausted = 0
        # Admission-pacing state (the controller's rate throttle): a FIFO
        # of deferred requests, the next free admission slot, and whether
        # a drain event is already on the kernel.
        self._pace_queue: deque[TxRequest] = deque()
        self._pace_slot = 0.0
        self._pace_draining = False
        self._append_genesis()

        self.scenario_engine = None
        if scenario is not None:
            from repro.scenario.engine import ScenarioEngine

            self.scenario_engine = ScenarioEngine(scenario)
            self.scenario_engine.install(self)

        #: The SLO-guardian controller (:mod:`repro.control`), installed
        #: only when the config carries a ControlSpec — ``None`` keeps
        #: this network byte-identical to a controller-less build.
        self.controller = None
        if config.control is not None:
            from repro.control.controller import SLOGuardian

            self.controller = SLOGuardian(self, config.control)
            self.controller.install()

    # -- live actuation seams ---------------------------------------------------

    @property
    def mitigation(self) -> str:
        """The mitigation currently in effect (live, controller-adjustable)."""
        return self._mitigation

    @property
    def retry_policy(self):
        """The retry policy currently in effect (``None`` = no retries)."""
        return self._retry

    def set_mitigation(self, mitigation: str) -> None:
        """Switch the live mitigation strategy mid-run.

        Affects transactions from this kernel instant on: ``early_abort``
        gates the *next* packaging checks, and the reorder scheduler swap
        applies to the *next* block cut.  The shared config is untouched —
        it may be reused by offline re-runs.
        """
        from repro.fabric.config import MITIGATIONS

        if mitigation not in MITIGATIONS:
            raise ValueError(
                f"unknown mitigation {mitigation!r}; known: {', '.join(MITIGATIONS)}"
            )
        self._mitigation = mitigation
        scheduler_name = (
            "conflict_aware" if mitigation == "reorder" else self.config.scheduler
        )
        self._scheduler = make_scheduler(scheduler_name, self.config.scheduler_window)
        self.orderer.set_scheduler(self._scheduler)

    def set_retry_policy(self, policy) -> None:
        """Replace the live client retry policy (``None`` disables retries)."""
        self._retry = policy

    # -- lifecycle -------------------------------------------------------------

    def _append_genesis(self) -> None:
        config_tx = Transaction(
            tx_id="config-0",
            client_timestamp=0.0,
            activity="__config__",
            args=(
                ("block_count", self.config.block_count),
                ("block_timeout", self.config.block_timeout),
                ("block_bytes", self.config.block_bytes),
                ("endorsement_policy", self.config.endorsement_policy),
            ),
            contract="__channel__",
            invoker_client="admin",
            invoker_org="OrdererOrg",
            is_config=True,
            status=TxStatus.SUCCESS,
            commit_time=0.0,
            block_number=0,
        )
        genesis = Block(
            number=0,
            transactions=[config_tx],
            previous_hash=Ledger.GENESIS_HASH,
            cut_reason="genesis",
            created_at=0.0,
            committed_at=0.0,
        )
        self.ledger.append(genesis)

    def _next_tx_id(self) -> str:
        self._tx_counter += 1
        return f"tx-{self._tx_counter:06d}"

    # -- pipeline stages --------------------------------------------------------

    def submit_request(self, request: TxRequest) -> None:
        """Schedule ``request`` for execution at its submit time."""
        self.kernel.schedule(request.submit_time, lambda: self._start_request(request))

    def _start_request(self, request: TxRequest) -> None:
        # Admission pacing (the controller's rate throttle).  Uncapped
        # with an empty queue — the default — this is a straight
        # passthrough, so controller-off runs are byte-identical.  Under
        # a cap, requests join a FIFO queue drained one per ``1 / cap``
        # seconds; the cap is re-read at every drain, so relaxing it
        # speeds the drain up and clearing it flushes the whole backlog
        # at the next slot instead of leaving work booked far out.
        if self.conditions.send_rate_cap is None and not self._pace_queue:
            self._start_request_now(request)
            return
        self._pace_queue.append(request)
        self._schedule_drain()

    def _schedule_drain(self) -> None:
        """Arm one drain event at the next admission slot (idempotent)."""
        if self._pace_draining or not self._pace_queue:
            return
        self._pace_draining = True
        now = self.kernel.now
        when = self._pace_slot if self._pace_slot > now else now
        self.kernel.schedule(when, self._drain_paced)

    def _drain_paced(self) -> None:
        """Admit the oldest deferred request and book the next slot."""
        self._pace_draining = False
        if not self._pace_queue:
            return
        request = self._pace_queue.popleft()
        cap = self.conditions.send_rate_cap
        if cap is not None:
            self._pace_slot = self.kernel.now + 1.0 / cap
        else:
            self._pace_slot = self.kernel.now
        self._start_request_now(request)
        self._schedule_drain()

    def _start_request_now(self, request: TxRequest) -> None:
        client = self.clients.assign(request.invoker_org)
        # The leading fields go positionally (cheaper per transaction), in
        # declaration order: tx_id, client_timestamp, activity, args,
        # contract, invoker_client, invoker_org.
        tx = Transaction(
            self._next_tx_id(),
            self.kernel.now,
            request.activity,
            tuple(request.args),
            request.contract,
            client.name,
            self.clients.org_of(client.name),
            attempt=request.attempt,
            retry_of=request.retry_of,
        )

        def proposal_done(finish: float) -> None:
            del finish
            self.kernel.schedule_in(
                self.conditions.network_delay(tx.invoker_org),
                lambda: self._endorse(tx, client),
            )

        self.clients.propose(client, proposal_done)

    def _endorse(self, tx: Transaction, client) -> None:
        def endorsed(at: float) -> None:
            del at

            def packaged(finish: float) -> None:
                del finish
                if self._mitigation == "early_abort" and self._abort_if_stale(tx):
                    return
                self.kernel.schedule_in(
                    self.conditions.network_delay(tx.invoker_org),
                    lambda: self.orderer.submit(tx),
                )

            self.clients.package(client, len(tx.endorsers), packaged)

        def aborted(at: float, reason: str) -> None:
            del reason
            tx.status = TxStatus.EARLY_ABORT
            tx.abort_stage = "endorsement"
            tx.commit_time = at
            self._record_abort(tx)
            # No retry: the chaincode deterministically rejects these
            # arguments, so a resubmission would abort identically.

        self.endorsers.endorse(tx, on_done=endorsed, on_abort=aborted)

    def _abort_if_stale(self, tx: Transaction) -> bool:
        """The ``early_abort`` mitigation: drop a doomed envelope at the client.

        At packaging time the client re-checks the endorsed read set
        against the *currently committed* state — the same check the
        validator will run after ordering.  A transaction that already
        conflicts cannot possibly validate (versions only move forward),
        so submitting it would waste ordering and block space; it is
        aborted here and, when a retry policy is active, resubmitted with
        a fresh read set.  Returns True when the transaction was dropped.
        """
        if tx.endorsers == ():
            return False  # doomed to a policy failure, not a stale read
        namespace = self.state_db.namespace(tx.contract)
        verdict = rwset_conflict(namespace, tx.rwset)
        if verdict is None:
            return False
        _, key = verdict
        tx.status = TxStatus.EARLY_ABORT
        tx.abort_stage = "stale_read"
        tx.conflict_key = key
        tx.commit_time = self.kernel.now
        self._record_abort(tx)
        self._maybe_retry(tx)
        return True

    def _record_early_abort(self, tx: Transaction, at: float) -> None:
        tx.status = TxStatus.EARLY_ABORT
        tx.abort_stage = "ordering"
        tx.commit_time = at
        self._record_abort(tx)
        self._maybe_retry(tx)

    def _record_abort(self, tx: Transaction) -> None:
        """Account one never-committed transaction.

        Batch mode retains it for post-processing; streaming mode fans it
        out to the stream's transaction consumers and lets it go.
        """
        self.aborted_count += 1
        if self.stream is not None:
            self.stream.accept_abort(tx)
        else:
            self.aborted.append(tx)
            if self.controller is not None:
                self.controller.monitor.consume(tx)

    def _after_block(self, block: Block) -> None:
        """Post-commit hook: account retry outcomes, resubmit failures."""
        feed = self.controller is not None and self.stream is None
        for tx in block.transactions:
            if tx.is_config:
                continue
            if feed:
                self.controller.monitor.consume(tx)
            if tx.status is TxStatus.SUCCESS:
                if tx.attempt > 1:
                    self.retries_recovered += 1
            else:
                self._maybe_retry(tx)

    def _maybe_retry(self, tx: Transaction) -> None:
        """Resubmit a failed transaction under the configured retry policy."""
        if self._retry is None:
            return
        if tx.attempt >= self._retry.max_attempts:
            self.retries_exhausted += 1
            return
        uniform = (
            (lambda: float(self.rng.stream("client-retry").random()))
            if self._retry.jitter > 0.0
            else None
        )
        delay = self._retry.delay(tx.attempt, uniform)
        self.retries_issued += 1
        self.submit_request(
            TxRequest(
                submit_time=self.kernel.now + delay,
                activity=tx.activity,
                args=tuple(tx.args),
                contract=tx.contract,
                invoker_org=tx.invoker_org,
                attempt=tx.attempt + 1,
                retry_of=tx.retry_of or tx.tx_id,
            )
        )

    def _deliver_block(self, transactions: list[Transaction], cut_reason: str, at: float) -> None:
        del at
        self.validator.receive_block(transactions, cut_reason)

    # -- running ----------------------------------------------------------------

    def run(self, requests: list[TxRequest]) -> RunResult:
        """Execute a workload to completion and summarize it."""
        if self.stream is not None:
            raise ValueError("use run_streamed() on a stream-mode network")
        if not requests:
            raise ValueError("empty workload")
        if self.scenario_engine is not None:
            requests = self.scenario_engine.transform_requests(requests)
        ordered = sorted(requests, key=lambda r: r.submit_time)
        for request in ordered:
            self.submit_request(request)
        self.kernel.run()

        committed = [tx for tx in self.ledger.transactions(include_config=False)]
        accounted = len(committed) + len(self.aborted)
        issued = len(requests) + self.retries_issued
        if accounted != issued:
            raise RuntimeError(
                f"transaction accounting mismatch: {accounted} finished "
                f"of {issued} issued ({self.retries_issued} retries)"
            )

        first_submit = ordered[0].submit_time
        last_commit = max(
            (tx.commit_time for tx in committed if tx.commit_time is not None),
            default=first_submit,
        )
        self._assign_commit_order()
        return summarize_run(
            ledger=self.ledger,
            aborted=self.aborted,
            first_submit=first_submit,
            last_commit=last_commit,
            cut_reasons=self.orderer.cut_reasons,
            utilization=self._utilization(last_commit),
        )

    def run_streamed(self, requests: Iterable[TxRequest]) -> StreamedRunStats:
        """Execute a submit-time-ordered request *stream* to completion.

        The counterpart of :meth:`run` for stream-mode networks: requests
        are pulled from the iterator one at a time — each arrival event
        schedules the next — so neither the request list nor the ledger
        is ever materialized.  With the accumulators registered on the
        :class:`~repro.logs.stream.RunStream`, a run's live state is the
        in-flight transactions plus O(blocks) bookkeeping, independent of
        how many transactions flow through.
        """
        if self.stream is None:
            raise ValueError("run_streamed() needs a network built with a RunStream")
        iterator: Iterator[TxRequest] = iter(requests)
        first = next(iterator, None)
        if first is None:
            raise ValueError("empty workload")
        issued = 0
        first_submit = first.submit_time

        # Arrivals ride the dedicated arrival lane so same-instant ties
        # against dynamic pipeline events resolve exactly as in a batch
        # run, where every arrival is pre-scheduled (see ARRIVAL_PRIORITY).
        from repro.sim.kernel import ARRIVAL_PRIORITY

        def pump(request: TxRequest) -> None:
            nonlocal issued
            issued += 1
            self._start_request(request)
            upcoming = next(iterator, None)
            if upcoming is not None:
                if upcoming.submit_time < request.submit_time:
                    raise ValueError(
                        "request stream must be ordered by submit time: "
                        f"{upcoming.submit_time} after {request.submit_time}"
                    )
                self.kernel.schedule(
                    upcoming.submit_time,
                    lambda: pump(upcoming),
                    priority=ARRIVAL_PRIORITY,
                )

        self.kernel.schedule(first_submit, lambda: pump(first), priority=ARRIVAL_PRIORITY)
        self.kernel.run()

        ledger = self.ledger
        accounted = ledger.committed_txs + self.aborted_count
        total_issued = issued + self.retries_issued
        if accounted != total_issued:
            raise RuntimeError(
                f"transaction accounting mismatch: {accounted} finished "
                f"of {total_issued} issued ({self.retries_issued} retries)"
            )
        last_commit = (
            ledger.last_commit_time
            if ledger.last_commit_time is not None
            else first_submit
        )
        return StreamedRunStats(
            issued=issued,
            committed=ledger.committed_txs,
            aborted=self.aborted_count,
            blocks=ledger.blocks_committed,
            data_blocks=ledger.data_blocks,
            retries_issued=self.retries_issued,
            retries_recovered=self.retries_recovered,
            retries_exhausted=self.retries_exhausted,
            first_submit=first_submit,
            last_commit=last_commit,
        )

    def _assign_commit_order(self) -> None:
        order = 0
        for tx in self.ledger.transactions(include_config=False):
            tx.commit_order = order
            order += 1

    def _utilization(self, horizon: float) -> dict[str, float]:
        stats: dict[str, float] = {}
        for server in self.clients.servers() + self.endorsers.servers():
            stats[server.name] = server.stats.utilization(horizon)
        stats["orderer"] = self.orderer.server.stats.utilization(horizon)
        stats["validator"] = self.validator.server.stats.utilization(horizon)
        return stats


def run_workload(
    config: NetworkConfig,
    contracts: list[Contract],
    requests: list[TxRequest],
    scenario: "ScenarioSpec | None" = None,
) -> tuple[FabricNetwork, RunResult]:
    """Build a fresh network, run ``requests``, return (network, result).

    The paper restarts the Fabric network for every experiment; this helper
    is that restart.  ``scenario`` injects faults and dynamic network
    conditions into the run (see :mod:`repro.scenario`).
    """
    network = FabricNetwork(config, contracts, scenario=scenario)
    result = network.run(requests)
    return network, result
