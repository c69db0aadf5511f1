"""Per-layer tracing from outside the program.

:class:`Tracer` patches the public entry points of every layer of the
``repro`` package for the duration of a traced iteration and records one
span per call.  Nothing in ``src/`` knows about it: the patches are
installed with :meth:`Tracer.install` and removed with
:meth:`Tracer.uninstall`, and a wrapped callable behaves exactly like the
original, so a traced run reproduces the untraced digests bit for bit.

A span is named after the layer of the module that defined the callable
(:func:`layer_of`).  Self time is kept with a span stack: when a span
closes, its duration is added to its parent's child time, and its own
self time is its duration minus the time its children covered.  The
bottom of the stack is a root frame, so time spent outside every span —
the benchmark's own glue, and modules no layer owns — stays measurable as
the unattributed share.

What is wrapped (see ``perfbench/README.md`` for the rationale):

* every action passed to ``Kernel.schedule`` (named by the action's
  module), and ``Kernel.run`` itself, whose self time is the kernel's
  dispatch cost;
* every ``on_done``/``on_start`` passed to ``Server.submit``;
* the public methods of the client pool, endorser pool, ordering service,
  validation pipeline and network, ``Contract.invoke``, each
  ``fabric.reorder`` scheduler's ``schedule``, ``RunStream.accept_block``
  and ``accept_abort``, the controller's monitor and the scenario
  engine's request transform;
* the post-processing entry points, patched where their caller looks
  them up (``repro.core.recommender.compute_metrics`` and friends), and
  ``apply_recommendations``/``forensics_report`` on their modules, which
  the benchmark calls through the module attribute.
"""

from __future__ import annotations

import importlib
from time import perf_counter

#: The layers the benchmark reports, in pipeline order.
LAYERS = (
    "sim.kernel",
    "sim.resources",
    "fabric.client",
    "fabric.endorser",
    "contracts",
    "fabric.orderer",
    "fabric.reorder",
    "fabric.validator",
    "fabric.network",
    "logs.stream",
    "control",
    "scenario",
    "logs.extract",
    "core.metrics",
    "logs.eventlog",
    "mining",
    "core.rules",
    "core.apply",
    "analysis.forensics",
)

#: Layers that do BlockOptR's post-processing of a materialized ledger.
POST_PROCESSING = ("logs.extract", "core.metrics", "logs.eventlog", "mining", "core.rules")

#: Spans of modules that no listed layer owns.
OTHER = "other"

#: Module prefix -> layer; the longest matching prefix wins.
_MODULE_LAYERS = {
    "repro.sim.kernel": "sim.kernel",
    "repro.sim.resources": "sim.resources",
    "repro.fabric.client": "fabric.client",
    "repro.fabric.endorser": "fabric.endorser",
    "repro.fabric.chaincode": "contracts",
    "repro.contracts": "contracts",
    "repro.fabric.orderer": "fabric.orderer",
    "repro.fabric.reorder": "fabric.reorder",
    "repro.fabric.validator": "fabric.validator",
    "repro.fabric.network": "fabric.network",
    "repro.logs.stream": "logs.stream",
    "repro.control": "control",
    "repro.scenario": "scenario",
    "repro.logs.extract": "logs.extract",
    "repro.core.metrics": "core.metrics",
    "repro.logs.eventlog": "logs.eventlog",
    "repro.mining": "mining",
    "repro.core.rules": "core.rules",
    "repro.core.apply": "core.apply",
    "repro.analysis.forensics": "analysis.forensics",
}


def layer_of(module: str | None) -> str:
    """The layer that owns ``module`` (``"other"`` when none does)."""
    name = module or ""
    while name:
        layer = _MODULE_LAYERS.get(name)
        if layer is not None:
            return layer
        name = name.rpartition(".")[0]
    return OTHER


#: ``(module, owner, attribute)`` entry points wrapped as spans of the
#: owner module's layer.  ``owner`` is a class name or ``None`` for a
#: module attribute.
_ENTRY_POINTS = (
    ("repro.sim.kernel", "Kernel", "run"),
    ("repro.fabric.client", "ClientPool", "assign"),
    ("repro.fabric.client", "ClientPool", "propose"),
    ("repro.fabric.client", "ClientPool", "package"),
    ("repro.fabric.endorser", "EndorserPool", "endorse"),
    ("repro.fabric.chaincode", "Contract", "invoke"),
    ("repro.fabric.orderer", "OrderingService", "submit"),
    ("repro.fabric.reorder", "FifoScheduler", "schedule"),
    ("repro.fabric.reorder", "FabricPlusPlusScheduler", "schedule"),
    ("repro.fabric.reorder", "ConflictAwareScheduler", "schedule"),
    ("repro.fabric.reorder", "FabricSharpScheduler", "schedule"),
    ("repro.fabric.validator", "ValidationPipeline", "receive_block"),
    ("repro.fabric.network", "FabricNetwork", "run"),
    ("repro.fabric.network", "FabricNetwork", "run_streamed"),
    ("repro.logs.stream", "RunStream", "accept_block"),
    ("repro.logs.stream", "RunStream", "accept_abort"),
    ("repro.control.monitor", "WindowedMonitor", "consume"),
    ("repro.scenario.engine", "ScenarioEngine", "transform_requests"),
    ("repro.logs.eventlog", "EventLog", "from_blockchain_log"),
    ("repro.logs.eventlog", "EventLog", "traces"),
    ("repro.mining.dfg", "DirectlyFollowsGraph", "from_traces"),
    ("repro.mining.footprint", "FootprintMatrix", "from_dfg"),
    ("repro.core.apply", None, "apply_recommendations"),
    ("repro.analysis.forensics", None, "forensics_report"),
)

#: Post-processing functions patched in the module that calls them:
#: ``(caller module, attribute, layer)``.
_CALL_SITES = (
    ("repro.core.recommender", "extract_blockchain_log", "logs.extract"),
    ("repro.core.recommender", "compute_metrics", "core.metrics"),
    ("repro.core.recommender", "evaluate_rules", "core.rules"),
    ("repro.core.recommender", "heuristics_miner", "mining"),
)


class Tracer:
    """Span recorder that patches layer entry points while installed.

    ``self_s[layer]`` and ``calls[layer]`` accumulate over the tracer's
    life; take :meth:`snapshot` before and after a region and subtract.
    ``networks`` collects every ``FabricNetwork`` built while installed,
    so the benchmark can read the simulated counters of networks the
    program builds internally (the shard runner's channels).
    """

    def __init__(self) -> None:
        self.self_s: dict[str, float] = {layer: 0.0 for layer in LAYERS + (OTHER,)}
        self.calls: dict[str, int] = {layer: 0 for layer in LAYERS + (OTHER,)}
        #: Span stack of ``[child seconds]`` frames; index 0 is the root.
        self._stack: list[list[float]] = [[0.0]]
        self._patches: list[tuple[object, str, object]] = []
        self.networks: list = []

    # -- spans -------------------------------------------------------------------

    def span(self, layer: str, fn):
        """``fn`` wrapped so that each call records one ``layer`` span."""
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        clock = perf_counter

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[layer] += elapsed - frame[0]
                calls[layer] += 1
                stack[-1][0] += elapsed

        return traced

    def snapshot(self) -> tuple[dict[str, float], dict[str, int]]:
        """Copies of the accumulators, for differencing around a region."""
        return dict(self.self_s), dict(self.calls)

    # -- patching ----------------------------------------------------------------

    def _patch(self, owner, attribute: str, replacement) -> None:
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def install(self) -> None:
        """Patch every entry point; raises if the tracer is already installed."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for module_name, owner_name, attribute in _ENTRY_POINTS:
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            original = owner.__dict__[attribute]
            layer = layer_of(module_name)
            if isinstance(original, (classmethod, staticmethod)):
                replacement = type(original)(self.span(layer, original.__func__))
            else:
                replacement = self.span(layer, original)
            self._patch(owner, attribute, replacement)
        for module_name, attribute, layer in _CALL_SITES:
            module = importlib.import_module(module_name)
            self._patch(module, attribute, self.span(layer, module.__dict__[attribute]))
        self._patch_kernel_schedule()
        self._patch_server_submit()
        self._patch_network_init()

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def _callback(self, fn):
        """``fn`` as a span of the layer of the module that defined it."""
        return self.span(layer_of(getattr(fn, "__module__", None)), fn)

    def _patch_kernel_schedule(self) -> None:
        from repro.sim.kernel import Kernel

        schedule = Kernel.__dict__["schedule"]
        callback = self._callback

        def traced_schedule(kernel, time, action, priority=0):
            return schedule(kernel, time, callback(action), priority)

        self._patch(Kernel, "schedule", traced_schedule)

    def _patch_server_submit(self) -> None:
        from repro.sim.resources import Server

        submit = Server.__dict__["submit"]
        callback = self._callback

        def traced_submit(server, service_time, on_done, on_start=None):
            return submit(
                server,
                service_time,
                callback(on_done),
                callback(on_start) if on_start is not None else None,
            )

        self._patch(Server, "submit", traced_submit)

    def _patch_network_init(self) -> None:
        from repro.fabric.network import FabricNetwork

        init = FabricNetwork.__dict__["__init__"]
        networks = self.networks

        def traced_init(network, *args, **kwargs):
            networks.append(network)
            init(network, *args, **kwargs)

        self._patch(FabricNetwork, "__init__", self.span("fabric.network", traced_init))
