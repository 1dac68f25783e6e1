"""Admission control and per-tenant fair-share scheduling.

Each tenant owns a *bounded* FIFO queue (admission control: a full
queue rejects instead of growing without bound — load shedding at the
edge, not OOM in the middle) and a **stride-scheduling** pass value.
When the service forms a launch window it repeatedly takes the head
request of the tenant with the smallest pass value among tenants whose
head has already *arrived* on the virtual clock; serving one request
advances that tenant's pass by ``1 / weight``.  Over any interval in
which two tenants are both backlogged, tenant throughput is therefore
proportional to weight — a heavy tenant cannot starve a light one, and
weights buy differentiated service.

The scheduler decides only *which* requests enter the window
(fairness); the window order is a pure function of arrivals, weights
and queue history, which keeps fairness auditable.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np


@dataclass(frozen=True)
class TenantConfig:
    """One tenant's service contract.

    ``chaos`` (a :class:`repro.legion.chaos.ChaosConfig`) marks the
    tenant *isolated*: its requests execute on a dedicated runtime over
    its own modeled machine, with its own fault injector and checkpoint
    epochs, so injected faults, retries and recovery change neither the
    results nor the start and finish times of other tenants' requests.
    """

    name: str
    weight: float = 1.0
    max_queue: int = 32
    chaos: object = None  # Optional[ChaosConfig]; object avoids the import

    @property
    def isolated(self) -> bool:
        return self.chaos is not None


@dataclass
class Request:
    """One client request: an SpMV right-hand side against the model."""

    rid: int
    tenant: str
    x: np.ndarray
    arrival: float
    # Matrix version pinned at admission: a model update between
    # admission and execution must not silently change what this
    # request computes (and version mismatch splits batches).
    version: int = 0
    # repro.serve.cache.input_digest(x), computed at the cache lookup
    # and reused when the result is inserted: one hash per request.
    digest: str = ""


@dataclass
class _TenantState:
    config: TenantConfig
    queue: deque = field(default_factory=deque)
    pass_value: float = 0.0
    admitted: int = 0
    rejected: int = 0
    served: int = 0

    @property
    def stride(self) -> float:
        return 1.0 / max(self.config.weight, 1e-9)


class FairShareScheduler:
    """Bounded per-tenant queues + stride-scheduled window formation."""

    def __init__(self) -> None:
        self._tenants: Dict[str, _TenantState] = {}
        self._rid = itertools.count()

    # -- tenants --------------------------------------------------------
    def register(self, config: TenantConfig) -> None:
        if config.name in self._tenants:
            raise ValueError(f"tenant {config.name!r} already registered")
        self._tenants[config.name] = _TenantState(config)

    def tenant(self, name: str) -> _TenantState:
        return self._tenants[name]

    @property
    def tenants(self) -> List[str]:
        return list(self._tenants)

    # -- admission ------------------------------------------------------
    def admit(
        self, tenant: str, x: np.ndarray, arrival: float, version: int
    ) -> Optional[Request]:
        """Enqueue a request, or None when the tenant queue is full."""
        state = self._tenants[tenant]
        if len(state.queue) >= state.config.max_queue:
            state.rejected += 1
            return None
        req = Request(next(self._rid), tenant, x, arrival, version)
        state.queue.append(req)
        state.admitted += 1
        return req

    # -- window formation -----------------------------------------------
    @property
    def pending(self) -> int:
        return sum(len(s.queue) for s in self._tenants.values())

    def earliest_arrival(self) -> Optional[float]:
        """The earliest queued head arrival, or None when idle."""
        heads = [
            s.queue[0].arrival for s in self._tenants.values() if s.queue
        ]
        return min(heads) if heads else None

    def take_window(self, now: float, limit: int) -> List[Request]:
        """Up to ``limit`` arrived requests in fair-share order.

        Repeatedly pops the head of the minimum-pass tenant among those
        whose head arrived by ``now``; ties break by tenant
        registration order (deterministic).  Serving a request advances
        the tenant's pass by its stride.
        """
        window: List[Request] = []
        while len(window) < limit:
            ready = [
                s
                for s in self._tenants.values()
                if s.queue and s.queue[0].arrival <= now
            ]
            if not ready:
                break
            state = min(ready, key=lambda s: s.pass_value)
            window.append(state.queue.popleft())
            state.pass_value += state.stride
            state.served += 1
        return window
