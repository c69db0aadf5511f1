"""Endorsing peers and the endorsement phase.

The client selects one alternative among the policy's minimal satisfying
org sets (a Zipf-weighted choice: skew 0 spreads load evenly, high skew
reproduces the paper's *endorser distribution skew* where clients always
hit the same orgs).  Each selected org executes the chaincode on one of
its peers; the read-write set is produced by whichever peer starts first,
against the committed state at that instant — the staleness that later
causes MVCC conflicts.

If a peer's queue is longer than ``endorse_timeout``, the client gives up
on that org: the transaction is submitted with a *missing endorsement* and
fails policy validation — the mechanism behind endorsement-policy failures
under endorser bottlenecks.  A *crashed* peer (scenario intervention)
behaves the same way: clients cannot reach it, so its org's endorsement
goes missing until the peer recovers.
"""

from __future__ import annotations

from typing import Callable

from repro.fabric.chaincode import ChaincodeAbort, ChaincodeContext, Contract
from repro.fabric.conditions import NetworkConditions
from repro.fabric.config import NetworkConfig
from repro.fabric.policy import EndorsementPolicy
from repro.fabric.state import StateDatabase
from repro.fabric.transaction import Transaction
from repro.sim.kernel import Kernel
from repro.sim.resources import Server
from repro.sim.rng import PREFETCH_BLOCK, SimRng, WeightedSampler, zipf_weights


class EndorserPool:
    """All endorsing peers, plus the endorsement orchestration logic."""

    def __init__(
        self,
        kernel: Kernel,
        config: NetworkConfig,
        policy: EndorsementPolicy,
        state_db: StateDatabase,
        contracts: dict[str, Contract],
        rng: SimRng,
        conditions: NetworkConditions | None = None,
    ) -> None:
        self._kernel = kernel
        self._timing = config.timing
        self._conditions = conditions or NetworkConditions(config.timing)
        self._policy = policy
        self._state_db = state_db
        self._contracts = contracts
        self._rng = rng
        self._selection_skew = config.endorser_selection_skew
        self._peers_by_org: dict[str, list[Server]] = {}
        for org in config.orgs:
            self._peers_by_org[org.name] = [
                Server(kernel, name) for name in org.endorser_names()
            ]
        self._alternatives = [
            alt
            for alt in policy.minimal_satisfying_sets()
            if all(org in self._peers_by_org for org in alt)
        ]
        if not self._alternatives:
            raise ValueError(
                f"policy {policy.to_expression()} has no satisfiable alternative "
                f"with orgs {sorted(self._peers_by_org)}"
            )
        self._weights = zipf_weights(len(self._alternatives), self._selection_skew)
        # Hot-path caches, all fixed by static config:
        # * each alternative's orgs in sorted order, the order endorsements
        #   are requested in;
        # * the selection sampler's precomputed CDF (bit-identical to
        #   ``choice(n, p=weights)``).  It prefetches uniforms in vectorized
        #   blocks — safe because "endorser-selection" is a dedicated stream
        #   with this sampler as its only consumer, and bit-identical
        #   because array fills and scalar draws consume the PCG64 stream
        #   identically (see WeightedSampler.draw_array);
        # * the endorsement service time per (contract, activity) pair,
        #   computed at most once.
        self._sorted_alternatives = [tuple(sorted(alt)) for alt in self._alternatives]
        self._selection = WeightedSampler(
            rng.stream("endorser-selection"), self._weights, prefetch=PREFETCH_BLOCK
        )
        self._service_time_cache: dict[tuple[str, str], float] = {}

    def servers(self) -> list[Server]:
        """Every endorsing peer (for utilization reporting)."""
        return [p for peers in self._peers_by_org.values() for p in peers]

    def peers(self, target: str | None = None) -> list[Server]:
        """Resolve an intervention target to endorsing peers.

        ``None`` means every peer; an organization name means that org's
        peers; otherwise ``target`` must be a full peer name like
        ``Org1-peer0``.
        """
        if target is None:
            return self.servers()
        if target in self._peers_by_org:
            return list(self._peers_by_org[target])
        for peer in self.servers():
            if peer.name == target:
                return [peer]
        raise KeyError(
            f"unknown endorser target {target!r}; expected an org "
            f"({sorted(self._peers_by_org)}) or a peer name"
        )

    def _least_loaded_peer(self, org: str) -> Server | None:
        """The org's least busy *reachable* peer, or ``None`` if all are down.

        On equal ``busy_until`` the first peer in configuration order wins,
        as with ``min(key=...)``.
        """
        best = None
        for peer in self._peers_by_org[org]:
            if peer.enabled and (best is None or peer.busy_until < best.busy_until):
                best = peer
        return best

    def endorse(
        self,
        tx: Transaction,
        on_done: Callable[[float], None],
        on_abort: Callable[[float, str], None],
    ) -> None:
        """Run the endorsement phase for ``tx``.

        Fills ``tx.endorsers`` / ``tx.missing_endorsements`` / ``tx.rwset``
        and calls ``on_done(time)`` when the slowest endorsement returns to
        the client, or ``on_abort(time, reason)`` if the chaincode
        early-aborts the transaction (pruned contracts).
        """
        orgs = self._sorted_alternatives[self._selection.draw()]
        timeout = self._timing.endorse_timeout
        peers: list[Server] = []
        missing: list[str] = []
        reasons: list[str] = []
        # The earliest-starting peer executes the chaincode and produces the
        # read-write set (endorsers are deterministic, so one execution
        # stands for all); on a tie the first endorsing org's peer wins.
        executor = None
        for org in orgs:
            peer = self._least_loaded_peer(org)
            if peer is None:
                missing.append(org)
                reasons.append("crashed")
            elif peer.queue_delay() > timeout:
                missing.append(org)
                reasons.append("timeout")
            else:
                peers.append(peer)
                if executor is None or peer.busy_until < executor.busy_until:
                    executor = peer

        tx.missing_endorsements = tuple(missing)
        tx.missing_reasons = tuple(reasons)
        kernel = self._kernel
        if executor is None:
            # Every selected org timed out or crashed; the client submits an
            # envelope with no endorsements at all, doomed to a policy failure.
            tx.endorsers = ()
            kernel.schedule_in(
                self._conditions.network_delay(tx.invoker_org),
                lambda: on_done(kernel.now),
            )
            return

        tx.endorsers = tuple([peer.name for peer in peers])
        pending = len(peers)
        aborted: list[str] = []
        cache_key = (tx.contract, tx.activity)
        service_time = self._service_time_cache.get(cache_key)
        if service_time is None:
            contract = self._contracts.get(tx.contract)
            cost = contract.cost_factor(tx.activity) if contract is not None else 1.0
            service_time = self._timing.endorse_per_tx * cost
            self._service_time_cache[cache_key] = service_time

        def execute(start_time: float) -> None:
            del start_time
            try:
                self._execute_chaincode(tx)
            except ChaincodeAbort as abort:
                aborted.append(str(abort))

        def peer_done(finish_time: float) -> None:
            nonlocal pending
            pending -= 1
            if pending > 0:
                return
            done_at = finish_time + self._conditions.network_delay(tx.invoker_org)
            if aborted:
                kernel.schedule(done_at, lambda: on_abort(kernel.now, aborted[0]))
            else:
                kernel.schedule(done_at, lambda: on_done(kernel.now))

        for peer in peers:
            peer.submit(service_time, peer_done, on_start=execute if peer is executor else None)

    def _execute_chaincode(self, tx: Transaction) -> None:
        contract = self._contracts.get(tx.contract)
        if contract is None:
            raise ChaincodeAbort(f"unknown contract {tx.contract!r}")
        ctx = ChaincodeContext(
            state=self._state_db.namespace(tx.contract),
            invoker=tx.invoker_client,
            nonce=tx.tx_id,
        )
        contract.invoke(ctx, tx.activity, tx.args)
        tx.rwset = ctx.rwset
        tx.endorse_time = self._kernel.now
