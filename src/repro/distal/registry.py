"""Kernel registry + generic launcher for generated kernels.

The registry is the static/dynamic boundary of the system: kernels are
generated ahead of time per (statement, format, processor kind) and
cached; at runtime the sparse library dispatches into the registry and
the generic :func:`launch` translates the kernel's declared constraint
set into an :class:`~repro.constraints.AutoTask` (the paper's Fig. 4
launching code is exactly this translation).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.constraints import AutoTask, Store
from repro.distal import codegen
from repro.distal.codegen import KernelSpec
from repro.distal.formats import Format
from repro.distal.library import STATEMENTS, row_distributed_schedule
from repro.legion.future import Future
from repro.legion.partition import Partition
from repro.legion.runtime import Runtime
from repro.machine import ProcessorKind

GeneratedKernel = KernelSpec


class KernelRegistry:
    """Cache of generated kernels keyed by (statement, format, kind)."""

    def __init__(self):
        self._cache: Dict[tuple, KernelSpec] = {}

    def get(
        self, statement_key: str, fmt: Format, proc_kind: ProcessorKind
    ) -> KernelSpec:
        """Generate-or-fetch the kernel for (statement, format, kind)."""
        key = (statement_key, fmt.name, proc_kind)
        spec = self._cache.get(key)
        if spec is None:
            statement = STATEMENTS.get(statement_key)
            if statement is None:
                raise KeyError(f"unknown statement {statement_key!r}")
            schedule = row_distributed_schedule(proc_kind, statement)
            # check=True: every kernel entering the registry has passed
            # the statement/schedule/source legality lint.
            spec = codegen.generate(
                statement, fmt, schedule, proc_kind, check=True
            )
            self._cache[key] = spec
        return spec

    def generated_count(self) -> int:
        """Number of cached generated kernels."""
        return len(self._cache)


_registry = KernelRegistry()


def get_registry() -> KernelRegistry:
    """The process-wide kernel registry."""
    return _registry


def launch(
    spec: KernelSpec,
    runtime: Runtime,
    stores: Dict[str, Store],
    explicit_partitions: Optional[Dict[str, Partition]] = None,
    scalars: Optional[Dict[str, object]] = None,
) -> Optional[Future]:
    """Build and execute the AutoTask a generated kernel declares.

    A generated kernel reads and writes only its shard's tile and image
    rects, so it declares itself window-eligible (an opaque kernel: its
    body never merges into a nest).  One that reduces into a region
    (REDUCE) joins too, and its fused group runs it after the last
    shard; the window still refuses a write through an aliased
    partition.
    """
    task = AutoTask(runtime, spec.name, spec.kernel, spec.cost)
    task.set_pointwise(spec.name)
    for name, role in spec.args:
        store = stores[name]
        if role == "in":
            task.add_input(name, store)
        elif role == "out":
            task.add_output(name, store)
        elif role == "inout":
            task.add_inout(name, store)
        elif role == "reduce":
            task.add_reduction(name, store)
        else:  # pragma: no cover - template authoring error
            raise ValueError(f"unknown role {role!r}")
    for con in spec.constraints:
        tag = con[0]
        if tag == "align":
            task.add_alignment_constraint(stores[con[1]], stores[con[2]])
        elif tag == "image_range":
            task.add_image_constraint(
                stores[con[1]], [stores[d] for d in con[2]], kind="range"
            )
        elif tag == "image_coord":
            task.add_image_constraint(
                stores[con[1]], [stores[d] for d in con[2]], kind="coordinate"
            )
        elif tag == "broadcast":
            task.add_broadcast(stores[con[1]])
        elif tag == "explicit":
            if not explicit_partitions or con[1] not in explicit_partitions:
                raise ValueError(
                    f"kernel {spec.name} requires an explicit partition "
                    f"for {con[1]!r}"
                )
            task.add_explicit_partition(
                stores[con[1]], explicit_partitions[con[1]]
            )
        else:  # pragma: no cover - template authoring error
            raise ValueError(f"unknown constraint {tag!r}")
    for key, value in (scalars or {}).items():
        task.add_scalar_arg(key, value)
    return task.execute()
