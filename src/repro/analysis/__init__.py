"""Correctness tooling for the runtime and the DISTAL pipeline.

The reproduction's answer to Legion Spy: when validation mode is on
(``RuntimeConfig(validate=True)`` or ``REPRO_VALIDATE=1``), the runtime

* records every launch, shard, copy, fold and allreduce into an
  :class:`~repro.analysis.events.EventLog`;
* sanitizes kernel arguments (read-only views under READ, NaN-poisoned
  buffers under WRITE_DISCARD — :mod:`repro.analysis.sanitizer`);
* asserts reads are never stale against the coherence maps.

The recorded log is validated offline by
:func:`~repro.analysis.checker.check_log` (races, stale reads, invalid
copies) — also exposed as ``python -m repro.analysis <logfile>`` — and
the DISTAL code generator runs :mod:`repro.analysis.lint` over every
statement, schedule and emitted kernel before registering it.

This package deliberately imports nothing from :mod:`repro.legion` or
:mod:`repro.distal` so the runtime can import it without cycles.  The
one exception is the *advisor* (:mod:`repro.analysis.advisor`), which
starts dry runs of the real runtime and so sits above those layers — it
is therefore exposed lazily (module
``__getattr__``) rather than imported here, and reached via
``python -m repro.analysis advise`` or ``from repro.analysis import
advisor``.  The dry-run capture types (:mod:`repro.analysis.plan`) and the
kernel cost models (:mod:`repro.analysis.costmodel`) keep the no-cycle
rule and are imported eagerly.
"""

from repro.analysis.checker import Violation, check_log
from repro.analysis.costmodel import KernelModel, for_task_name, get_model
from repro.analysis.formatsel import (
    FormatAdvice,
    FormatCandidate,
    FormatDecision,
    FormatProfile,
    advise_formats,
    profile_matrix,
    select_format,
    sell_layout,
)
from repro.analysis.events import (
    AllreduceEvent,
    CheckpointEvent,
    CopyEvent,
    EventLog,
    FaultEvent,
    FoldEvent,
    ReqAccess,
    ShardEvent,
    TaskEvent,
)
from repro.analysis.lint import (
    DistalLintError,
    LintIssue,
    lint_all,
    lint_kernel_spec,
    lint_schedule,
    lint_statement,
)
from repro.analysis.plan import PlanGroup, PlanNote, PlanOp, PlanTrace
from repro.analysis.recorder import (
    active_logs,
    drain_logs,
    register,
    set_validation_default,
    validation_default,
)

# Advisor symbols resolved lazily (see the module docstring).
_LAZY_ADVISOR = {
    "advisor", "Advice", "AdvisorConfig", "Finding", "advise", "analyze",
    "trace",
}


def __getattr__(name: str):
    if name in _LAZY_ADVISOR:
        import repro.analysis.advisor as _advisor

        if name == "advisor":
            return _advisor
        return getattr(_advisor, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class ValidationError(RuntimeError):
    """An online validation check failed (stale read, bad partition)."""


__all__ = [
    "Advice",
    "AdvisorConfig",
    "AllreduceEvent",
    "CheckpointEvent",
    "CopyEvent",
    "DistalLintError",
    "EventLog",
    "FaultEvent",
    "Finding",
    "FoldEvent",
    "FormatAdvice",
    "FormatCandidate",
    "FormatDecision",
    "FormatProfile",
    "KernelModel",
    "LintIssue",
    "PlanGroup",
    "PlanNote",
    "PlanOp",
    "PlanTrace",
    "ReqAccess",
    "ShardEvent",
    "TaskEvent",
    "ValidationError",
    "Violation",
    "active_logs",
    "advise",
    "advise_formats",
    "advisor",
    "analyze",
    "check_log",
    "drain_logs",
    "for_task_name",
    "get_model",
    "lint_all",
    "lint_kernel_spec",
    "lint_schedule",
    "lint_statement",
    "profile_matrix",
    "register",
    "select_format",
    "sell_layout",
    "set_validation_default",
    "trace",
    "validation_default",
]
