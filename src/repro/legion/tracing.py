"""Automatic tracing: a launch issued before is replayed on the modeled clock.

The paper attributes the GMG and quantum workloads' single-GPU gap to
Legate's per-task launching overheads and points to *dynamic tracing*
(Lee et al., SC '18) as one fix.  Here the runtime finds the repeats in
its issued stream itself, without annotations (as Apophenia, Yadav et
al., ASPLOS '25, does for Legion).  :class:`History` gives every issued
launch a *token*:

* its :class:`Template` object -- the launch's
  structural key: task name, color count, body IR and, per argument,
  privilege, region shape and dtype and partition geometry, an image
  pinned by its rects, regions numbered within the launch;
* per requirement, its dependence edges: how many launches back the
  region's last writer was issued and, for a writing privilege, its
  last user.  An edge further back than the deferred window's capacity
  (``runtime.WINDOW_CAPACITY``, 16 launches) is dropped: that launch
  has executed, nothing about it is pending.

A launch whose token was issued before in the current *template epoch*
is a replay, charged ``RuntimeConfig.trace_replay_fraction`` of the
launch overhead (Legion replays the memoized dependence analysis
instead of redoing it); a fused group is a replay when all its members
are.  Recovery, memory loss, pressure relief and ``reset_for_program``
start a new epoch, and journal replay after a loss is charged in full.
On the host a replay takes the path any launch takes (its template and
the window-plan cache); only the modeled charge differs, so with
``trace_replay_fraction=1.0`` a run is bit-for-bit one without replays.
``Profiler.launches_replayed`` counts the discounted launches.

The module also holds the runtime's two structural caches and the
fingerprints that key them: one :class:`Template` per launch key in a
:class:`BoundedMemo` keyed by :func:`launch_fingerprint` (or
``AutoTask._fingerprint``), and window plans in another keyed by
:func:`window_fingerprint`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.legion.partition import (
    ExplicitPartition,
    ImageByCoordinate,
    ImageByRange,
    Replicate,
    Tiling,
    derivation,
)
from repro.legion.task import TaskLaunch


class Template:
    """The host half of a launch, shared by every launch with its key.

    Keys number regions within the launch, so launches over fresh
    regions share a template, and a repartition (a store's key
    partition changing) changes the key instead of requiring explicit
    invalidation.  A template holds ints, tuples, rects and plans —
    never a region or partition: one kept alive by a cache entry would
    never reach the destructor that recycles its instances into the
    allocation pool.
    """

    __slots__ = ("key", "plan", "fusible", "shape")

    def __init__(self, key: tuple) -> None:
        self.key = key
        # repro.constraints.solver.solution_plan recipe (AutoTask
        # launches); a hit rebuilds partitions from the current stores.
        self.plan: Optional[tuple] = None
        # Whether the launch enters the deferred window (Runtime.launch).
        self.fusible: Optional[bool] = None
        # The launch's Runtime._LaunchShape (Runtime._execute_task).
        self.shape = None


class BoundedMemo:
    """A memo cleared whole when it reaches ``MAX_ENTRIES``."""

    __slots__ = ("_entries",)

    MAX_ENTRIES = 1024

    def __init__(self) -> None:
        self._entries: Dict[tuple, Any] = {}

    def get(self, key: tuple) -> Any:
        """The memoized value for a key, or None."""
        return self._entries.get(key)

    def put(self, key: tuple, value: Any) -> None:
        """Memoize a value."""
        if len(self._entries) >= self.MAX_ENTRIES:
            self._entries.clear()
        self._entries[key] = value

    def __len__(self) -> int:
        return len(self._entries)


def launch_fingerprint(
    task: TaskLaunch, ids: Dict[int, int], derived: bool = False
) -> Optional[tuple]:
    """The structural fingerprint of a solved launch, or None.

    ``ids`` numbers regions by first use: within the launch (``{}``,
    the template key of a launch with no pre-solve key) or within a
    window (:func:`window_fingerprint`).  An image is pinned by its
    rects, or with ``derived`` by its derivation
    (:func:`~repro.legion.partition.derivation`, source
    regions numbered through ``ids``).  None means a partition kind
    whose geometry the fingerprint cannot pin.
    """
    rows = []
    for req in task.requirements:
        region = req.region
        uid = region.uid
        lid = ids.get(uid)
        if lid is None:
            lid = ids[uid] = len(ids)
        part = req.partition
        kind = type(part)
        if kind is Tiling:
            geometry: Any = part.boundaries
            if part.region is not region:
                geometry = (part.region.uid, geometry)
        elif kind is Replicate:
            geometry = part.color_count
        elif kind is ImageByCoordinate or kind is ImageByRange:
            geometry = derivation(part, ids) if derived else None
            if geometry is None:
                geometry = (
                    part.tables() if kind is ImageByCoordinate
                    else ("rects", tuple(part._rects))
                )
        elif kind is ExplicitPartition:
            geometry = ("rects", tuple(part._rects))
        else:
            return None
        owner = req.owner
        if owner is not None:
            # Where a REDUCE folds: part of what the launch does.
            geometry = (
                geometry, getattr(owner, "boundaries", owner.color_count)
            )
        rows.append(
            (req.name, req.privilege, lid, region.shape, region.dtype, geometry)
        )
    return (
        task.name,
        task.pointwise,
        task.reduction,
        tuple(rows),
    )


def window_fingerprint(window: List[TaskLaunch]) -> Optional[tuple]:
    """The structural key of a deferred window, or None.

    Each launch's :func:`launch_fingerprint`, with regions numbered by
    first use within the window and images by derivation, and its
    future-dependence edges (``after``), which the plan depends on and
    no launch fingerprint carries.  Equal keys get the same planned
    groups and nests (``Runtime._plan_window``): the plan reads images
    only through their derivations and the disjointness of written
    ones, which every window member has (``fusion.summarize``).  A
    group's launch shape, which holds rects, is checked against the
    window's images on each use (``Runtime._flush``).
    """
    ids: Dict[int, int] = {}
    key = []
    for task in window:
        fingerprint = launch_fingerprint(task, ids, derived=True)
        if fingerprint is None:
            return None
        key.append((fingerprint, task.after))
    return tuple(key)


class History:
    """The tokens issued in the current template epoch.

    Holds ints and templates, never a region.  Bounded: the tokens are
    forgotten whole at ``MAX_ENTRIES`` and, every ``MAX_ENTRIES``
    launches, region entries beyond the horizon are dropped.
    """

    __slots__ = ("_issued", "_writer", "_user", "_seen")

    MAX_ENTRIES = 1024

    def __init__(self) -> None:
        self._issued = 0
        # Region uid -> index of the last launch writing / touching it.
        self._writer: Dict[int, int] = {}
        self._user: Dict[int, int] = {}
        self._seen: set = set()

    def clear(self) -> None:
        """Start a new template epoch: nothing issued so far replays."""
        self._writer.clear()
        self._user.clear()
        self._seen.clear()

    def issue(self, task: TaskLaunch, template: Any, horizon: int) -> bool:
        """Record an issued launch; whether its token was issued before.

        ``template`` is the launch's template (None: no token, never a
        replay); edges further back than ``horizon`` launches drop.
        """
        now = self._issued = self._issued + 1
        writer, user = self._writer, self._user
        edges = []
        for req in task.requirements:
            uid = req.region.uid
            back = now - writer.get(uid, -horizon)
            edges.append(back if back <= horizon else 0)
            if req.privilege.writes:
                back = now - user.get(uid, -horizon)
                edges.append(back if back <= horizon else 0)
        for req in task.requirements:
            uid = req.region.uid
            user[uid] = now
            if req.privilege.writes:
                writer[uid] = now
        if now % self.MAX_ENTRIES == 0:
            oldest = now - horizon
            for table in (writer, user):
                for uid in [u for u, at in table.items() if at < oldest]:
                    del table[uid]
        if template is None:
            return False
        token = (template, tuple(edges))
        seen = self._seen
        if token in seen:
            return True
        if len(seen) >= self.MAX_ENTRIES:
            seen.clear()
        seen.add(token)
        return False
