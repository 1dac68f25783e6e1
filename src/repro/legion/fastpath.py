"""Host-side analysis machinery: caches and batched writes for the runtime.

The simulated runtime is numerically exact but pays real host CPU for
every launch: per-color coherence rebuilds and constraint solves are
Python loops whose cost dwarfs the *modeled* time at scale
(``scripts/overhead.py`` probes it at summit:64 and summit:1024).  This
module holds what the runtime always uses to keep that cost down —
there is no switch and no other path:

* :func:`eligible_write_reqs` — the batched-write legality check: a
  launch whose write requirement tiles its region disjointly (and whose
  region no other requirement touches) defers all per-color
  ``mark_written`` calls and applies them in one
  :meth:`RegionCoherence.write_complete` pass, because the final
  coherence state is independent of the interleaving.  Requirements it
  rejects write per color.
* :class:`SolveMemo` — bounded container for constraint-solve
  memoization keyed by structural signature
  (:func:`repro.constraints.solver.solve_signature`).
* :class:`ImagePartitionCache` — image-partition geometry keyed by the
  source region's write epoch.

The per-shard mapping itself is not here: the runtime's
requirement-major loop (plan rows, the steady-state lane) and
coherence's integer interval engine (docs/ARCHITECTURE.md, "Host-side
analysis").  Nor are traces (:mod:`repro.legion.tracing`): a launch a
trace replays takes its solve plan and batched-write verdict from the
capture and reaches neither the memo nor :func:`eligible_write_reqs`.

Everything here is bitwise-neutral by construction — modeled times,
event logs and numerics equal those of per-color writes, fresh solves
and recomputed images.  ``tests/legion/test_fastpath.py`` holds each
mechanism against that unit-level reference; the end-to-end goldens in
``tests/legion/test_coherence_index.py`` and
``tests/legion/test_mapping_lane.py`` were recorded from a runtime
without any of it (CG, spill/eviction, GPU- and node-loss replay).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.legion.partition import Tiling
from repro.legion.privilege import Privilege


class SolveMemo:
    """Bounded memo of constraint-solve *plans* by structural signature.

    Signatures come from :func:`repro.constraints.solver.solve_signature`
    and embed region uids — which are never recycled — plus key-partition
    boundaries, so a repartition (a store's key partition changing)
    changes the signature instead of requiring explicit invalidation.
    Values are :func:`repro.constraints.solver.solution_plan` recipes,
    not partition objects: holding partitions would keep their regions
    alive past the program's last reference, blocking the destructor
    that recycles instances into the allocation pool.  Hits rebuild
    concrete partitions from the current stores.
    """

    __slots__ = ("_entries",)

    MAX_ENTRIES = 1024

    def __init__(self) -> None:
        self._entries: Dict[tuple, dict] = {}

    def get(self, sig: tuple) -> Optional[dict]:
        """The cached solution dict for a signature, or None."""
        return self._entries.get(sig)

    def put(self, sig: tuple, solution: dict) -> None:
        """Memoize a solve result."""
        if len(self._entries) >= self.MAX_ENTRIES:
            self._entries.clear()
        self._entries[sig] = solution

    def clear(self) -> None:
        """Drop every memoized solution."""
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


class ImagePartitionCache:
    """Memo of image-partition geometry keyed by source-data epoch.

    Image partitions (:class:`~repro.legion.partition.ImageByRange` /
    ``ImageByCoordinate``) read region *data* at construction — the
    data-dependent communication analysis of the paper — so they cannot
    be memoized structurally like tilings.  Instead the runtime bumps
    :meth:`bump` for every region a task writes; a cache key embeds the
    source region's epoch, so any write to the source invalidates its
    images for free.  Values are tuples of :class:`Rect` (plain int
    geometry — never partition or region objects, which would pin
    regions past their last program reference); hits rebuild fresh
    partition objects around the current regions
    (:func:`repro.constraints.solver._image_cached`).
    """

    __slots__ = ("_entries", "epochs")

    MAX_ENTRIES = 512

    def __init__(self) -> None:
        self._entries: Dict[tuple, object] = {}
        # region uid -> number of task writes observed (0 if never).
        self.epochs: Dict[int, int] = {}

    def bump(self, uid: int) -> None:
        """Record a write to a region (invalidates its images)."""
        self.epochs[uid] = self.epochs.get(uid, 0) + 1

    def get(self, key: tuple):
        """The cached geometry, or None."""
        return self._entries.get(key)

    def put(self, key: tuple, value) -> None:
        """Memoize computed image geometry."""
        if len(self._entries) >= self.MAX_ENTRIES:
            self._entries.clear()
        self._entries[key] = value

    def clear(self) -> None:
        """Drop every entry (epochs are kept — they only grow)."""
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


def eligible_write_reqs(task, replay: bool, freed_uids) -> dict:
    """Requirements whose per-color writes may be batched, by name.

    A write requirement is eligible when deferring its ``mark_written``
    calls to one end-of-launch :meth:`RegionCoherence.write_complete`
    is provably identical to the sequential per-color calls:

    * exclusive write privilege (WRITE / WRITE_DISCARD — REDUCE folds
      interleave with copies and are batched separately by the fold
      path), and it is the region's only writer in this task;
    * the partition is a :class:`Tiling` of the requirement's own
      region — disjoint full-width row bands covering the region, so
      the final coherence state is the tiles themselves regardless of
      prior validity, and mid-launch queries restricted to later bands
      cannot observe earlier bands' deferred writes;
    * every other requirement touching the same region is a READ under
      a Tiling with *identical boundaries* — color ``c`` then only ever
      reads band ``c``, which no other color writes, so deferring the
      earlier bands' writes is unobservable.  (Fused tasks routinely
      carry such read/write pairs for their chained temporaries.)  Any
      other companion — a Replicate broadcast, a differently-cut
      tiling, an image — could legally observe an earlier color's
      write, so the region is ineligible;
    * not a journal-replay of a since-freed region (those writes are
      skipped entirely).
    """
    by_uid: Dict[int, list] = {}
    for req in task.requirements:
        by_uid.setdefault(req.region.uid, []).append(req)
    eligible = {}
    for uid, reqs in by_uid.items():
        if replay and uid in freed_uids:
            continue
        writer = None
        boundaries = None
        ok = True
        for req in reqs:
            part = req.partition
            if type(part) is not Tiling or part.region.uid != uid:
                ok = False
                break
            if boundaries is None:
                boundaries = part.boundaries
            elif part.boundaries != boundaries:
                ok = False
                break
            priv = req.privilege
            if priv is Privilege.READ:
                continue
            if priv is Privilege.WRITE or priv is Privilege.WRITE_DISCARD:
                if writer is not None:  # two writers: order matters
                    ok = False
                    break
                writer = req
            else:  # REDUCE folds are handled by the fold path
                ok = False
                break
        if ok and writer is not None:
            eligible[writer.name] = writer
    return eligible
