"""Client (application) model.

Fabric clients do real work: build and sign proposals, verify endorser
responses, pack them into an envelope, and submit to ordering.  Each
organization runs a pool of client processes; a request occupies one client
for ``client_per_tx`` at proposal time and again at packaging time.  When
one organization invokes a disproportionate share of transactions
(transaction distribution skew), its clients queue up — the bottleneck the
paper's *client resource boost* recommendation targets.
"""

from __future__ import annotations

from typing import Callable

from repro.fabric.config import NetworkConfig
from repro.sim.kernel import Kernel
from repro.sim.resources import Server


class ClientPool:
    """All client processes of the network, grouped by organization."""

    def __init__(self, kernel: Kernel, config: NetworkConfig) -> None:
        self._kernel = kernel
        self._timing = config.timing
        self._clients_by_org: dict[str, list[Server]] = {}
        self._rr_in_org: dict[str, int] = {}
        self._rr_orgs = 0
        self._org_names: list[str] = []
        #: Memoised :meth:`org_of` answers, keyed by client name.
        self._org_of: dict[str, str] = {}
        for org in config.orgs:
            servers = [Server(kernel, name) for name in org.client_names()]
            self._clients_by_org[org.name] = servers
            self._rr_in_org[org.name] = 0
            self._org_names.append(org.name)

    def servers(self) -> list[Server]:
        """Every client server (for utilization reporting)."""
        return [s for servers in self._clients_by_org.values() for s in servers]

    def assign(self, invoker_org: str | None) -> Server:
        """Pick the client that will own a request.

        Within an org, clients are used round-robin; with no org pinned,
        orgs themselves rotate round-robin — an even spread unless the
        workload skews invokers deliberately.
        """
        if invoker_org is None:
            org = self._org_names[self._rr_orgs % len(self._org_names)]
            self._rr_orgs += 1
        else:
            if invoker_org not in self._clients_by_org:
                raise KeyError(f"unknown invoker organization {invoker_org!r}")
            org = invoker_org
        servers = self._clients_by_org[org]
        index = self._rr_in_org[org] % len(servers)
        self._rr_in_org[org] += 1
        return servers[index]

    def org_of(self, client_name: str) -> str:
        """Organization that owns ``client_name``."""
        org = self._org_of.get(client_name)
        if org is None:
            org = self._org_of[client_name] = client_name.rpartition("-client")[0]
        return org

    def propose(self, client: Server, on_done: Callable[[float], None]) -> None:
        """Stage 1: build/sign the transaction proposal."""
        client.submit(self._timing.client_per_tx, on_done)

    def package(
        self, client: Server, num_endorsements: int, on_done: Callable[[float], None]
    ) -> None:
        """Stage 2: verify endorsements, pack envelope, submit to ordering.

        Much cheaper than proposal creation, but grows with the number of
        endorser signatures to verify — one reason the paper's 4-org runs
        (Majority needs 3 endorsements) are uniformly slower.
        """
        service = self._timing.package_per_endorsement * (1 + max(1, num_endorsements))
        client.submit(service, on_done)
