"""Deterministic fault injection: the runtime's chaos monkey.

Real Legion/Legate deployments see transient link errors, flaky
allocations and outright node losses; the paper's headline OOM results
(Fig. 11's 64-GPU point, Fig. 12's CuPy failures) show that behaviour at
the capacity cliff is a first-class result.  This module schedules
simulated faults on the discrete-event clock so the runtime's recovery
machinery (bounded retry with exponential backoff, checkpoint epochs and
journal replay — see :mod:`repro.legion.runtime`) can be exercised
*deterministically*: every fault schedule is a pure function of one
seed and the (deterministic) order of runtime operations, so a chaos
run is exactly reproducible and its solution is required to be
bitwise-identical to the fault-free run.

Configuration comes from :class:`ChaosConfig` — either constructed
directly and passed as ``RuntimeConfig(chaos=...)`` or parsed from the
``REPRO_CHAOS`` environment variable::

    REPRO_CHAOS="seed:7,copy:0.02,alloc:0.01,ckpt:32,lose-gpu:1@0.004"

Spec keys (comma separated, all optional):

``seed:N``
    RNG seed for the fault draws (default 0).
``copy:P``
    Per-copy probability of a transient link error (retried with
    exponential backoff on the simulated clock).
``alloc:P``
    Per-mapping probability of a transient allocation failure.
``retries:N``
    Retry budget before a transient fault becomes a
    :class:`~repro.legion.exceptions.FaultError` (default 6).
``backoff:S``
    Base backoff in simulated seconds; attempt ``k`` waits
    ``S * 2**(k-1)`` (default 1e-4).
``ckpt:N``
    Checkpoint every N task launches (0 = manual checkpoints only).
``replicas:K``
    Place each checkpoint epoch's snapshot in the sysmems of K
    distinct fault domains (nodes).  K=1 (the default) reproduces the
    original single-store behaviour: losing node 0's sysmem is fatal.
    With K>=2 recovery survives any loss pattern that leaves at least
    one replica of every needed piece.
``heartbeat:T``
    Heartbeat period of the modeled failure detector in simulated
    seconds.  A loss at time t is first *suspected* at the next
    heartbeat tick >= t (0, the default, suspects instantly).
``detect:T``
    Detection timeout: a suspected loss is *confirmed* T simulated
    seconds after suspicion; recovery cannot begin before
    confirmation, so the stall charges detection + recovery time.
``lose-gpu:IDX@T``
    Lose the IDX-th GPU processor of the runtime's scope (its
    framebuffer contents vanish) at simulated time T.
``lose-node:N@T``
    Lose node N (every memory on it) at simulated time T.

Every key also accepts ``key=value`` (the ISSUE-9 spelling); the two
separators may be mixed freely within one spec.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np


@dataclass(frozen=True)
class LossSchedule:
    """One scheduled whole-GPU or whole-node loss."""

    kind: str  # "gpu" | "node"
    target: int  # GPU index within the scope, or node id
    at_time: float  # simulated seconds on the issue clock

    def __post_init__(self) -> None:
        if self.kind not in ("gpu", "node"):
            raise ValueError(f"loss kind must be 'gpu' or 'node', got {self.kind!r}")
        if self.at_time < 0:
            raise ValueError(f"loss time must be >= 0, got {self.at_time}")


@dataclass(frozen=True)
class ChaosConfig:
    """Seed-driven fault schedule for one runtime (see module docs)."""

    seed: int = 0
    copy_fault_rate: float = 0.0
    alloc_fault_rate: float = 0.0
    max_retries: int = 6
    backoff_base: float = 1e-4
    # Simulated cost of detecting a loss and restarting the node's
    # runtime processes before replay begins.
    recovery_delay: float = 1e-3
    # Automatic checkpoint cadence in *task launches* (deterministic on
    # the launch stream); 0 means only explicit Recovery.checkpoint().
    checkpoint_every: int = 0
    # k-way checkpoint replication: snapshot pieces land in the sysmems
    # of this many distinct fault domains (nodes).  1 = the original
    # node-0 single store (losing it is fatal).
    ckpt_replicas: int = 1
    # Modeled failure detection: a loss is *suspected* at the next
    # heartbeat tick and *confirmed* detection_timeout later; recovery
    # begins only after confirmation.  Both 0 = instantaneous detection.
    heartbeat_period: float = 0.0
    detection_timeout: float = 0.0
    losses: Tuple[LossSchedule, ...] = ()

    def __post_init__(self) -> None:
        for name in ("copy_fault_rate", "alloc_fault_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {rate}")
        if self.max_retries < 1:
            raise ValueError("max_retries must be >= 1")
        if self.ckpt_replicas < 1:
            raise ValueError(
                f"ckpt_replicas must be >= 1, got {self.ckpt_replicas}"
            )
        for name in ("heartbeat_period", "detection_timeout"):
            val = getattr(self, name)
            if val < 0.0:
                raise ValueError(f"{name} must be >= 0, got {val}")

    def detection_times(self, at_time: float) -> Tuple[float, float]:
        """``(suspected, confirmed)`` times for a loss at ``at_time``.

        The detector state machine on the simulated clock: the loss is
        *suspected* at the first heartbeat tick at or after the loss
        (instantly when ``heartbeat_period`` is 0) and *confirmed*
        ``detection_timeout`` seconds later.  Deterministic — pure
        arithmetic on the schedule, no RNG draw.
        """
        hb = self.heartbeat_period
        if hb <= 0.0:
            suspected = at_time
        else:
            # Next tick >= at_time; the epsilon keeps a loss landing
            # exactly on a tick from being pushed a full period out by
            # float noise.
            suspected = math.ceil(at_time / hb - 1e-9) * hb
            if suspected < at_time:
                suspected = at_time
        return suspected, suspected + self.detection_timeout

    @classmethod
    def parse(cls, spec: str) -> "ChaosConfig":
        """Parse a ``REPRO_CHAOS``-style spec string."""
        kwargs: dict = {}
        losses: List[LossSchedule] = []
        for item in spec.split(","):
            item = item.strip()
            if not item:
                continue
            # Both ``key:value`` (the original spelling) and
            # ``key=value`` (the ISSUE-9 spelling) are accepted;
            # whichever separator appears first wins so loss times
            # ("lose-gpu:1@0.004") parse unambiguously.
            colon, eq = item.find(":"), item.find("=")
            if colon < 0 or (0 <= eq < colon):
                key, sep, value = item.partition("=")
            else:
                key, sep, value = item.partition(":")
            if not sep:
                raise ValueError(f"bad chaos spec item {item!r} (expected key:value)")
            key = key.strip().lower()
            value = value.strip()
            if key == "seed":
                kwargs["seed"] = int(value)
            elif key == "copy":
                kwargs["copy_fault_rate"] = float(value)
            elif key == "alloc":
                kwargs["alloc_fault_rate"] = float(value)
            elif key == "retries":
                kwargs["max_retries"] = int(value)
            elif key == "backoff":
                kwargs["backoff_base"] = float(value)
            elif key == "ckpt":
                kwargs["checkpoint_every"] = int(value)
            elif key == "replicas":
                kwargs["ckpt_replicas"] = int(value)
            elif key == "heartbeat":
                kwargs["heartbeat_period"] = float(value)
            elif key == "detect":
                kwargs["detection_timeout"] = float(value)
            elif key in ("lose-gpu", "lose-node"):
                target, sep, at = value.partition("@")
                if not sep:
                    raise ValueError(
                        f"bad loss spec {item!r} (expected {key}:TARGET@TIME)"
                    )
                losses.append(
                    LossSchedule(key.removeprefix("lose-"), int(target), float(at))
                )
            else:
                raise ValueError(f"unknown chaos spec key {key!r}")
        return cls(losses=tuple(losses), **kwargs)

    @property
    def has_losses(self) -> bool:
        """Whether any whole-GPU/node loss is scheduled."""
        return bool(self.losses)


def chaos_default() -> Optional[ChaosConfig]:
    """The process-wide default chaos config, from ``REPRO_CHAOS``.

    Returns None (no injection) when the variable is unset or empty, so
    the hot path stays fault-free unless explicitly opted in.
    """
    spec = os.environ.get("REPRO_CHAOS", "").strip()
    if not spec or spec == "0":
        return None
    return ChaosConfig.parse(spec)


class ChaosInjector:
    """Draws the fault schedule for one runtime, deterministically.

    All randomness flows from one :class:`numpy.random.Generator`
    seeded by ``config.seed``; the draw order is the runtime's
    (deterministic) copy/mapping order, so two runs with the same seed
    and program inject byte-for-byte identical schedules.
    """

    def __init__(self, config: ChaosConfig):
        self.config = config
        self._rng = np.random.default_rng(config.seed)
        # Losses not yet delivered, soonest first.
        self._pending: List[LossSchedule] = sorted(
            config.losses, key=lambda l: l.at_time
        )
        self.faults_injected = 0

    # ------------------------------------------------------------------
    def copy_fault(self) -> bool:
        """Draw: does this copy attempt hit a transient link error?"""
        if self.config.copy_fault_rate <= 0.0:
            return False
        hit = bool(self._rng.random() < self.config.copy_fault_rate)
        if hit:
            self.faults_injected += 1
        return hit

    def alloc_fault(self) -> bool:
        """Draw: does this instance mapping hit a transient failure?"""
        if self.config.alloc_fault_rate <= 0.0:
            return False
        hit = bool(self._rng.random() < self.config.alloc_fault_rate)
        if hit:
            self.faults_injected += 1
        return hit

    def backoff(self, attempt: int) -> float:
        """Simulated exponential backoff before retry ``attempt`` (1-based)."""
        return self.config.backoff_base * (2.0 ** max(attempt - 1, 0))

    def take_losses(self, now: float) -> List[LossSchedule]:
        """Pop every scheduled loss whose time has arrived."""
        due: List[LossSchedule] = []
        while self._pending and self._pending[0].at_time <= now:
            due.append(self._pending.pop(0))
        if due:
            self.faults_injected += len(due)
        return due

    @property
    def pending_losses(self) -> Tuple[LossSchedule, ...]:
        """Losses not yet delivered."""
        return tuple(self._pending)
