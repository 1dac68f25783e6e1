"""Runtime error types."""

from __future__ import annotations

from typing import Optional


class LegionError(RuntimeError):
    """Base class for runtime errors."""


class OutOfMemoryError(LegionError):
    """A memory's capacity (minus the runtime's reservation) was exceeded.

    Raised by the instance manager when mapping a region would overflow a
    framebuffer or system memory — this is how the harness reproduces the
    paper's out-of-memory outcomes (CuPy on ML-50M/100M in Fig. 12 and the
    64-GPU quantum point in Fig. 11).

    Where the overflow happened is attached as it propagates up: the
    allocation store knows the memory and byte counts, ``ensure`` knows
    the requesting region and rectangle, and the runtime knows the
    mapping task — so the message (and the harness OOM report cells)
    name the exact allocation that did not fit.
    """

    def __init__(
        self,
        memory_name: str,
        requested: int,
        available: int,
        region_uid: Optional[int] = None,
        region_name: Optional[str] = None,
        rect=None,
        task: Optional[str] = None,
    ):
        self.memory_name = memory_name
        self.requested = requested
        self.available = available
        self.region_uid = region_uid
        self.region_name = region_name
        self.rect = rect
        self.task = task
        super().__init__(self._compose())

    def _compose(self) -> str:
        msg = (
            f"out of memory in {self.memory_name}: requested "
            f"{self.requested} bytes, {self.available} available"
        )
        if self.region_name is not None or self.region_uid is not None:
            region = self.region_name or f"region{self.region_uid}"
            msg += f" (region {region!r}"
            if self.region_uid is not None:
                msg += f" uid={self.region_uid}"
            if self.rect is not None:
                msg += f", rect {self.rect}"
            msg += ")"
        if self.task is not None:
            msg += f" while mapping task {self.task!r}"
        return msg

    def annotate(
        self,
        region_uid: Optional[int] = None,
        region_name: Optional[str] = None,
        rect=None,
        task: Optional[str] = None,
    ) -> "OutOfMemoryError":
        """Attach mapping context as the error propagates; returns self."""
        if region_uid is not None:
            self.region_uid = region_uid
        if region_name is not None:
            self.region_name = region_name
        if rect is not None:
            self.rect = rect
        if task is not None:
            self.task = task
        self.args = (self._compose(),)
        return self

    def describe(self) -> str:
        """A one-line account for report cells and figure footnotes."""
        return self._compose()


class FaultError(LegionError):
    """An injected fault could not be recovered.

    Raised when a transient fault exhausts its retry budget
    (``ChaosConfig.max_retries``) or a scheduled loss takes out the
    checkpoint memory itself, which the recovery protocol cannot
    survive (see :mod:`repro.legion.chaos`).
    """


class LaunchWidthError(LegionError):
    """An explicit partition's color count is not its launch's width.

    ``AutoTask.execute`` raises it before the solve: a launch runs one
    shard per color, so a partition of another width would launch at
    that width or index a color it does not have.  The message names
    the task, the store and both widths.
    """

    def __init__(self, task: str, store: str, partition_colors: int, colors: int):
        self.task = task
        self.store = store
        self.partition_colors = partition_colors
        self.colors = colors
        super().__init__(
            f"task {task!r}: the explicit partition of store {store!r} "
            f"has {partition_colors} colors, the launch {colors}"
        )
