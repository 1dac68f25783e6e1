"""Validation-mode plumbing: the default flag and the live-log registry.

The runtime reads :func:`validation_default` when a
:class:`~repro.legion.runtime.RuntimeConfig` is constructed without an
explicit ``validate=``; the ``REPRO_VALIDATE`` environment variable (or
:func:`set_validation_default`) turns the whole process into validation
mode, which is how the pytest fixture in ``tests/conftest.py`` runs the
entire tier-1 suite under the checker.

Every :class:`~repro.analysis.events.EventLog` a validating runtime
creates registers itself here so test harnesses can sweep *all* logs —
including runtimes created inside library code — without threading the
log object through.
"""

from __future__ import annotations

import os
from typing import List

from repro.analysis.events import EventLog

_VALIDATE_DEFAULT = os.environ.get("REPRO_VALIDATE", "").strip() not in ("", "0")

_ACTIVE_LOGS: List[EventLog] = []

# Bound on remembered logs: validation is a test-time mode, but guard
# against a pathological run creating thousands of runtimes.
_MAX_LOGS = 256


def validation_default() -> bool:
    """Whether new RuntimeConfigs validate by default."""
    return _VALIDATE_DEFAULT


def set_validation_default(enabled: bool) -> bool:
    """Set the process-wide default; returns the previous value."""
    global _VALIDATE_DEFAULT
    previous = _VALIDATE_DEFAULT
    _VALIDATE_DEFAULT = bool(enabled)
    return previous


def register(log: EventLog) -> EventLog:
    """Track a validating runtime's log for later sweeping."""
    if len(_ACTIVE_LOGS) >= _MAX_LOGS:
        _ACTIVE_LOGS.pop(0)
    _ACTIVE_LOGS.append(log)
    return log


def active_logs() -> List[EventLog]:
    """All registered logs (oldest first)."""
    return list(_ACTIVE_LOGS)

