"""Tie semantics of the per-transaction fast paths.

The kernel's unbounded ``run()`` loop, ``Server.submit`` and the
endorser's peer/executor choice are written for speed, not clarity.  These
tests hold each fast path to the plain formulation it replaces: the
bounded kernel loop, a naive ``max()``-based FIFO server, and
``min(key=...)`` peer selection in which the first minimum wins.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import pytest
from hypothesis import given, settings, strategies as st

from repro.contracts.genchain import GenChainContract
from repro.fabric.config import NetworkConfig, OrgConfig, TimingConfig
from repro.fabric.endorser import EndorserPool
from repro.fabric.policy import parse_policy
from repro.fabric.state import StateDatabase
from repro.fabric.transaction import Transaction
from repro.sim.kernel import INTERVENTION_PRIORITY, Kernel
from repro.sim.resources import Server
from repro.sim.rng import SimRng

# -- kernel: unbounded loop == bounded loop ------------------------------------


def _drain(kernel: Kernel, mode: str) -> None:
    if mode == "unbounded":
        kernel.run()
    elif mode == "max_events":
        kernel.run(max_events=10**9)
    elif mode == "until":
        kernel.run(until=1e9)
    elif mode == "stepped":
        while kernel.pending():
            kernel.run(max_events=kernel.events_processed + 1)
    else:  # pragma: no cover - test helper misuse
        raise ValueError(mode)


BOUNDED_MODES = ("max_events", "until", "stepped")


def _observe(build, mode: str):
    """Run the program ``build`` sets up; return everything observable."""
    kernel = Kernel()
    trace = kernel.enable_trace()
    log: list = []
    build(kernel, log)
    _drain(kernel, mode)
    return log, trace, kernel.events_processed, kernel.pending()


def _assert_modes_agree(build) -> None:
    reference = _observe(build, "unbounded")
    assert reference[0], "the program fired nothing"
    for mode in BOUNDED_MODES:
        assert _observe(build, mode) == reference, mode


def test_cancel_from_inside_an_action():
    def build(kernel, log):
        handles = {}

        def canceller():
            log.append(("canceller", kernel.now))
            handles["later"].cancel()
            handles["same_instant"].cancel()
            handles["fired"].cancel()  # already fired: a no-op

        handles["fired"] = kernel.schedule(0.5, lambda: log.append(("fired", kernel.now)))
        kernel.schedule(1.0, canceller)
        handles["same_instant"] = kernel.schedule(1.0, lambda: log.append(("same", 1.0)))
        handles["later"] = kernel.schedule(2.0, lambda: log.append(("later", 2.0)))
        kernel.schedule(3.0, lambda: log.append(("last", kernel.now, kernel.pending())))

    _assert_modes_agree(build)
    log = _observe(build, "unbounded")[0]
    assert [entry[0] for entry in log] == ["fired", "canceller", "last"]


def test_same_instant_schedule_inside_an_action():
    def build(kernel, log):
        def spawner():
            log.append(("spawner", kernel.now))
            kernel.schedule(kernel.now, lambda: log.append(("child", kernel.now)))
            kernel.schedule(
                kernel.now,
                lambda: log.append(("urgent", kernel.now)),
                priority=INTERVENTION_PRIORITY,
            )
            kernel.schedule_in(0.0, lambda: log.append(("child_in", kernel.now)))

        kernel.schedule(1.0, spawner)
        kernel.schedule(1.0, lambda: log.append(("sibling", kernel.now)))
        kernel.schedule(1.0, lambda: log.append(("sibling2", kernel.now)))

    _assert_modes_agree(build)
    order = [entry[0] for entry in _observe(build, "unbounded")[0]]
    assert order == ["spawner", "urgent", "sibling", "sibling2", "child", "child_in"]


def test_orderer_timeout_cancel_pattern():
    """Arm a timeout on the first buffered item, cancel it on a count cut."""

    def build(kernel, log):
        state = {"buffer": 0, "timeout": None}

        def on_timeout():
            log.append(("timeout_cut", kernel.now, state["buffer"]))
            state["buffer"] = 0
            state["timeout"] = None

        def arrive(index):
            state["buffer"] += 1
            if state["buffer"] == 1:
                state["timeout"] = kernel.schedule_in(1.0, on_timeout)
            if state["buffer"] >= 3:
                state["timeout"].cancel()
                state["timeout"] = None
                log.append(("count_cut", kernel.now, index))
                state["buffer"] = 0

        # Bursts that fill a block before the timeout, arrivals exactly at a
        # pending timeout's instant, and a lone arrival that times out.
        for index, time in enumerate([0.0, 0.1, 0.2, 0.5, 1.5, 2.5, 2.6, 3.5, 5.0]):
            kernel.schedule(time, lambda index=index: arrive(index))

    _assert_modes_agree(build)
    kinds = [entry[0] for entry in _observe(build, "unbounded")[0]]
    assert kinds.count("timeout_cut") >= 2 and kinds.count("count_cut") >= 1


@dataclass
class _Spec:
    time: float
    priority: int
    children: list = field(default_factory=list)
    cancels: list = field(default_factory=list)


_times = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 1.5]), st.floats(0.0, 3.0))
_priorities = st.sampled_from([INTERVENTION_PRIORITY, -2, -1, 0])
_specs = st.builds(
    _Spec,
    time=_times,
    priority=_priorities,
    children=st.lists(
        st.tuples(st.sampled_from([0.0, 0.0, 0.25, 1.0]), _priorities), max_size=3
    ),
    cancels=st.lists(st.integers(0, 40), max_size=2),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(_specs, min_size=1, max_size=12))
def test_property_unbounded_and_bounded_loops_agree(specs):
    def build(kernel, log):
        handles = []

        def make(label, spec):
            def action():
                log.append((label, kernel.now, kernel.pending(), kernel.events_processed))
                if spec is None:
                    return
                for index, (delay, priority) in enumerate(spec.children):
                    handles.append(
                        kernel.schedule(
                            kernel.now + delay, make(f"{label}.{index}", None), priority
                        )
                    )
                for target in spec.cancels:
                    handles[target % len(handles)].cancel()

            return action

        for index, spec in enumerate(specs):
            handles.append(kernel.schedule(spec.time, make(str(index), spec), spec.priority))

    _assert_modes_agree(build)


# -- Server.submit == a naive FIFO reference model ------------------------------


class NaiveServer:
    """The plain FIFO server: ``max()`` builtins and unconditional updates."""

    def __init__(self, kernel: Kernel) -> None:
        self.kernel = kernel
        self.busy_until = 0.0
        self.queue_len = 0
        self.multiplier = 1.0
        self.jobs = 0
        self.busy_time = 0.0
        self.total_wait = 0.0
        self.max_queue = 0

    def set_service_multiplier(self, factor: float) -> None:
        self.multiplier = factor

    def submit(self, service_time, on_done, on_start=None) -> float:
        service_time *= self.multiplier
        now = self.kernel.now
        start = max(now, self.busy_until)
        finish = start + service_time
        self.busy_until = finish
        self.jobs += 1
        self.busy_time += service_time
        self.total_wait += start - now
        self.queue_len += 1
        self.max_queue = max(self.max_queue, self.queue_len)
        if on_start is not None:
            self.kernel.schedule(start, lambda: on_start(start))

        def complete() -> None:
            self.queue_len -= 1
            on_done(finish)

        self.kernel.schedule(finish, complete)
        return finish


def _stats(server) -> tuple:
    if isinstance(server, NaiveServer):
        return (server.jobs, server.busy_time, server.total_wait, server.max_queue)
    stats = server.stats
    return (stats.jobs, stats.busy_time, stats.total_wait, stats.max_queue)


def _drive_server(make_server, ops):
    kernel = Kernel()
    trace = kernel.enable_trace()
    server = make_server(kernel)
    log: list = []

    def submit(index, service, with_start, resubmit):
        def on_done(at):
            log.append(("done", index, at, kernel.now))
            if resubmit:
                submit(f"{index}r", service, with_start, False)

        def on_start(at):
            log.append(("start", index, at, kernel.now))

        finish = server.submit(service, on_done, on_start if with_start else None)
        log.append(("submitted", index, kernel.now, finish, server.busy_until))

    for index, (time, service, with_start, multiplier, resubmit) in enumerate(ops):

        def arrive(index=index, service=service, with_start=with_start,
                   multiplier=multiplier, resubmit=resubmit):
            if multiplier is not None:
                server.set_service_multiplier(multiplier)
            submit(index, service, with_start, resubmit)

        kernel.schedule(time, arrive)
    kernel.run()
    return log, trace, _stats(server)


_service_times = st.one_of(
    st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0]),
    st.floats(0.0, 2.0, allow_nan=False),
)
_ops = st.tuples(
    st.one_of(st.sampled_from([0.0, 0.5, 1.0, 1.25]), st.floats(0.0, 3.0)),
    _service_times,
    st.booleans(),
    st.sampled_from([None, None, None, 0.5, 1.0, 2.0, 3.0]),
    st.booleans(),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_ops, min_size=1, max_size=25))
def test_property_server_matches_naive_reference(ops):
    assert _drive_server(lambda kernel: Server(kernel, "s"), ops) == _drive_server(
        NaiveServer, ops
    )


def test_server_tie_at_busy_until_starts_on_the_same_float():
    kernel = Kernel()
    server = Server(kernel, "s")
    starts = []
    kernel.schedule(0.0, lambda: server.submit(1.0, lambda t: None))
    # Submitted exactly when the first job finishes: no wait, no queue growth.
    kernel.schedule(1.0, lambda: server.submit(0.0, lambda t: None, on_start=starts.append))
    kernel.run()
    assert starts == [1.0]
    assert server.stats.total_wait == 0.0
    assert server.stats.max_queue == 2  # the first job's completion fires after the submit


# -- endorser: first minimum wins -----------------------------------------------


def _pool(policy: str = "And(Org1,Org2)", endorsers_per_org: int = 2, timeout: float = 8.0):
    kernel = Kernel()
    config = NetworkConfig(
        orgs=[
            OrgConfig("Org1", endorsers_per_org=endorsers_per_org),
            OrgConfig("Org2", endorsers_per_org=endorsers_per_org),
        ],
        endorsement_policy=policy,
        timing=TimingConfig(endorse_timeout=timeout),
    )
    state_db = StateDatabase()
    contract = GenChainContract(num_keys=10)
    contract.setup(state_db.namespace(contract.name))
    pool = EndorserPool(
        kernel,
        config,
        parse_policy(policy),
        state_db,
        {contract.name: contract},
        SimRng(7),
    )
    return kernel, pool


def _tx(index: int = 0) -> Transaction:
    return Transaction(
        tx_id=f"tx-{index:06d}",
        client_timestamp=0.0,
        activity="read",
        args=("key000001",),
        contract="genchain",
        invoker_client="Org1-client0",
        invoker_org="Org1",
    )


def _peer(pool: EndorserPool, name: str) -> Server:
    (peer,) = pool.peers(name)
    return peer


def _endorse(kernel, pool, tx):
    outcome = []
    pool.endorse(tx, on_done=lambda t: outcome.append(("done", t)),
                 on_abort=lambda t, reason: outcome.append(("abort", t, reason)))
    kernel.run()
    return outcome


@pytest.fixture
def submit_spy(monkeypatch):
    """Record ``(server name, has on_start)`` for every ``Server.submit``."""
    calls: list[tuple[str, bool]] = []
    original = Server.submit

    def spy(server, service_time, on_done, on_start=None):
        calls.append((server.name, on_start is not None))
        return original(server, service_time, on_done, on_start)

    monkeypatch.setattr(Server, "submit", spy)
    return calls


def test_equal_busy_until_first_peer_wins(submit_spy):
    kernel, pool = _pool()
    tx = _tx()
    assert _endorse(kernel, pool, tx) == [("done", 0.003 + 0.002)]
    assert tx.endorsers == ("Org1-peer0", "Org2-peer0")
    assert tx.missing_endorsements == () and tx.missing_reasons == ()
    # The executor is chosen the same way: on a tie, the first org's peer.
    assert submit_spy == [("Org1-peer0", True), ("Org2-peer0", False)]


def test_least_loaded_peer_is_chosen():
    kernel, pool = _pool()
    _peer(pool, "Org1-peer0").submit(1.0, lambda t: None)
    tx = _tx()
    _endorse(kernel, pool, tx)
    assert tx.endorsers == ("Org1-peer1", "Org2-peer0")


def test_crashed_peers_are_skipped_even_when_idle():
    kernel, pool = _pool()
    _peer(pool, "Org1-peer1").submit(1.0, lambda t: None)
    _peer(pool, "Org1-peer0").enabled = False
    tx = _tx()
    _endorse(kernel, pool, tx)
    assert tx.endorsers == ("Org1-peer1", "Org2-peer0")


def test_all_crashed_org_is_missing_as_crashed():
    kernel, pool = _pool()
    for peer in pool.peers("Org1"):
        peer.enabled = False
    tx = _tx()
    assert _endorse(kernel, pool, tx)[0][0] == "done"
    assert tx.endorsers == ("Org2-peer0",)
    assert tx.missing_endorsements == ("Org1",)
    assert tx.missing_reasons == ("crashed",)


def test_overloaded_org_is_missing_as_timeout():
    kernel, pool = _pool(timeout=0.5)
    for peer in pool.peers("Org2"):
        peer.submit(1.0, lambda t: None)
    tx = _tx()
    _endorse(kernel, pool, tx)
    assert tx.endorsers == ("Org1-peer0",)
    assert tx.missing_endorsements == ("Org2",)
    assert tx.missing_reasons == ("timeout",)


def test_every_org_missing_still_completes_without_endorsements():
    kernel, pool = _pool()
    for peer in pool.servers():
        peer.enabled = False
    tx = _tx()
    assert _endorse(kernel, pool, tx) == [("done", 0.002)]
    assert tx.endorsers == ()
    assert tx.missing_reasons == ("crashed", "crashed")


def test_executor_is_the_earliest_starting_peer(submit_spy):
    kernel, pool = _pool()
    _peer(pool, "Org1-peer0").submit(0.4, lambda t: None)
    _peer(pool, "Org1-peer1").submit(0.3, lambda t: None)
    _peer(pool, "Org2-peer0").submit(0.2, lambda t: None)
    _peer(pool, "Org2-peer1").submit(0.2, lambda t: None)
    submit_spy.clear()
    tx = _tx()
    _endorse(kernel, pool, tx)
    assert tx.endorsers == ("Org1-peer1", "Org2-peer0")
    assert submit_spy == [("Org1-peer1", False), ("Org2-peer0", True)]
    assert tx.endorse_time == 0.2


def test_prefetched_selection_draws_like_generator_choice():
    # Org selection draws from the dedicated "endorser-selection" stream;
    # prefetching must reproduce the unbuffered ``choice(n, p=weights)``.
    kernel, pool = _pool(policy="OutOf(1,Org1,Org2)")
    drawn = []
    for index in range(600):  # more than two prefetch refills
        tx = _tx(index)
        pool.endorse(tx, on_done=lambda t: None, on_abort=lambda t, r: None)
        drawn.append(tx.endorsers[0].rpartition("-peer")[0])
    kernel.run()
    stream = SimRng(7).stream("endorser-selection")
    expected = [("Org1", "Org2")[int(stream.choice(2, p=[0.5, 0.5]))] for _ in drawn]
    assert drawn == expected
    assert set(drawn) == {"Org1", "Org2"}
