"""Chaincode (smart contract) runtime.

Contracts are plain Python classes whose transaction functions are marked
with :func:`contract_function`.  During endorsement a function executes
against a :class:`ChaincodeContext` bound to the committed world state; the
context records every read (with its version), write (with its value) and
range scan into a :class:`~repro.fabric.transaction.ReadWriteSet` — exactly
the artifact real Fabric endorsers sign and validators check.

A contract function may raise :class:`ChaincodeAbort` to fail the
transaction during endorsement (the paper's *process model pruning*
implemented "directly in the smart contract by early aborting anomalous
transactions during the endorsement phase").
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.fabric.state import WorldState
from repro.fabric.transaction import DELETED, RangeQueryInfo, ReadWriteSet, Version


class ChaincodeError(Exception):
    """Base class for chaincode execution problems."""


class ChaincodeAbort(ChaincodeError):
    """Raised by a contract function to early-abort the transaction."""


class UnknownFunctionError(ChaincodeError):
    """The invoked activity does not exist on the contract."""


#: Version recorded for reads of keys that do not exist yet.  Fabric encodes
#: absent keys as a nil version; a later write to the key still invalidates
#: the read, which this sentinel reproduces.
MISSING_VERSION = Version(block=-1, tx=-1)


@dataclass
class ChaincodeContext:
    """Execution context handed to contract functions during endorsement."""

    state: WorldState
    rwset: ReadWriteSet = field(default_factory=ReadWriteSet)
    invoker: str = ""
    #: Unique per-transaction token (the tx id); lets contracts mint
    #: collision-free keys, e.g. the delta keys of delta-write updates.
    nonce: str = ""

    def get_state(self, key: str) -> Any:
        """Read a key, recording its version in the read set.

        Reads-after-writes within the same transaction observe the pending
        write (read-your-writes), matching Fabric's simulated execution.
        """
        if key in self.rwset.writes:
            pending = self.rwset.writes[key]
            return None if pending == DELETED else pending
        entry = self.state.get(key)
        if entry is None:
            self.rwset.reads.setdefault(key, MISSING_VERSION)
            return None
        self.rwset.reads.setdefault(key, entry.version)
        return entry.value

    def put_state(self, key: str, value: Any) -> None:
        """Stage a write; applied only if the transaction validates."""
        if value == DELETED:
            raise ChaincodeError("use delete_state to remove a key")
        self.rwset.writes[key] = value

    def delete_state(self, key: str) -> None:
        """Stage a key deletion (the DELETED sentinel in the write set)."""
        self.rwset.writes[key] = DELETED

    def get_state_range(self, start: str, end: str) -> list[tuple[str, Any]]:
        """Ordered scan of ``[start, end)``, recorded for phantom detection."""
        results: list[tuple[str, Any]] = []
        recorded: list[tuple[str, Version]] = []
        for key, entry in self.state.range_scan(start, end):
            results.append((key, entry.value))
            recorded.append((key, entry.version))
        self.rwset.range_queries.append(
            RangeQueryInfo(start=start, end=end, results=tuple(recorded))
        )
        return results


def contract_function(func: Callable[..., Any]) -> Callable[..., Any]:
    """Mark a method as an invocable contract transaction function."""
    func.__contract_function__ = True  # type: ignore[attr-defined]
    return func


class Contract:
    """Base class for smart contracts.

    Subclasses define transaction functions with :func:`contract_function`;
    ``name`` doubles as the world-state namespace.  ``setup`` seeds initial
    state directly (genesis data, not transactions).
    """

    #: Contract (chaincode) name; also the state namespace.
    name: str = "contract"

    def functions(self) -> dict[str, Callable[..., Any]]:
        """Map of activity name to bound transaction function."""
        found: dict[str, Callable[..., Any]] = {}
        for attr_name, member in inspect.getmembers(self, predicate=callable):
            if getattr(member, "__contract_function__", False):
                found[attr_name] = member
        return found

    def _function(self, activity: str) -> Callable[..., Any] | None:
        """The bound contract function named ``activity``, or ``None``."""
        function = getattr(self, activity, None)
        if callable(function) and getattr(function, "__contract_function__", False):
            return function
        return None

    def invoke(self, ctx: ChaincodeContext, activity: str, args: tuple[Any, ...]) -> Any:
        """Execute ``activity`` with ``args`` against ``ctx``.

        Raises :class:`UnknownFunctionError` for unknown activities and lets
        :class:`ChaincodeAbort` propagate to the endorser.
        """
        function = self._function(activity)
        if function is None:
            raise UnknownFunctionError(f"{self.name} has no function {activity!r}")
        return function(ctx, *args)

    def setup(self, state: WorldState) -> None:
        """Seed genesis state; default contracts start empty."""

    def cost_factor(self, activity: str) -> float:
        """Relative execution cost of ``activity`` (1.0 = nominal).

        Endorsers multiply their per-transaction service time by this, so
        contracts can model expensive functions — e.g. the delta-write DRM
        variant's ``calcRevenue``, which aggregates all delta keys (the
        paper observes its latency increase).
        """
        del activity
        return 1.0

    def describe(self) -> str:
        """Human-readable ``name(functions...)`` summary."""
        names = ", ".join(sorted(self.functions()))
        return f"{self.name}({names})"
