"""The constraint solver: concrete partitions from declared constraints.

The solving procedure follows §4.1 of the paper:

1. Broadcast stores are replicated.
2. Alignment constraints are grouped with union-find; each group gets one
   partition.  If any member already has a *key partition* with the right
   color count that is valid for every member, the solver reuses the key
   partition of the **largest** member — keeping the biggest operand (for
   SpMV, the sparse matrix) in place and re-partitioning the least data.
   Otherwise a fresh even tiling is created.  A key is a tiling, or an
   image by range that cuts its region the way a tiling does (a CSR's
   ``crd``/``vals`` and what is computed from them, cut at the rows of
   a ``pos`` tile); an image key holds only while its source has not
   been written since the image was computed (:func:`usable_key`).
   Reusing it for another member means the same image over that
   member's region (:meth:`ImageByRange.retarget`).
3. Image constraints are resolved in dependency order: once a source's
   partition is known, the destination's partition is computed with the
   dependent-partitioning image operation (by range or by coordinate).

The constraints are designed so a solution always exists; contradictory
programs (aligning different-length stores, broadcasting an aligned
store) raise :class:`ConstraintError`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.constraints.constraint import Align, Broadcast, Explicit, Image, ImageKind
from repro.constraints.store import Store
from repro.legion.partition import (
    ImageByCoordinate,
    ImageByRange,
    Partition,
    Replicate,
    Tiling,
)


class ConstraintError(ValueError):
    """The declared constraints are unsatisfiable."""


class _UnionFind:
    def __init__(self):
        self._parent: Dict[int, int] = {}
        self._items: Dict[int, Store] = {}

    def add(self, store: Store) -> None:
        """Register a store."""
        uid = store.region.uid
        self._parent.setdefault(uid, uid)
        self._items.setdefault(uid, store)

    def find(self, uid: int) -> int:
        """Root of a region uid."""
        while self._parent[uid] != uid:
            self._parent[uid] = self._parent[self._parent[uid]]
            uid = self._parent[uid]
        return uid

    def union(self, a: Store, b: Store) -> None:
        """Merge two stores' groups."""
        self.add(a)
        self.add(b)
        ra, rb = self.find(a.region.uid), self.find(b.region.uid)
        if ra != rb:
            self._parent[ra] = rb

    def groups(self) -> List[List[Store]]:
        """The alignment groups."""
        by_root: Dict[int, List[Store]] = {}
        for uid, store in self._items.items():
            by_root.setdefault(self.find(uid), []).append(store)
        return list(by_root.values())


def solve_partitions(
    stores: Iterable[Store],
    constraints: Iterable[object],
    colors: int,
    exact_images: bool = False,
    image_cache=None,
) -> Dict[int, Partition]:
    """Assign a partition to every store; keys are region uids.

    ``image_cache`` is the runtime's
    :class:`repro.legion.partition.ImagePartitionCache` (None in unit
    solves, which recompute every image and reuse no image key): image
    constraints re-read source region data on every solve, and the
    cache skips that read when the source has not been written since
    (bitwise-identical geometry either way).  Its write epochs also
    decide whether an image key partition still holds.
    """
    stores = list(stores)
    constraints = list(constraints)
    solution: Dict[int, Partition] = {}

    broadcast_uids = set()
    for con in constraints:
        if isinstance(con, Broadcast):
            uid = con.store.region.uid
            broadcast_uids.add(uid)
            solution[uid] = Replicate(con.store.region, colors)
        elif isinstance(con, Explicit):
            uid = con.store.region.uid
            broadcast_uids.add(uid)  # excluded from alignment groups
            solution[uid] = con.partition  # type: ignore[assignment]

    image_constraints = [c for c in constraints if isinstance(c, Image)]
    image_dest_uids = {c.dest.region.uid for c in image_constraints}

    uf = _UnionFind()
    for store in stores:
        uid = store.region.uid
        if uid in broadcast_uids or uid in image_dest_uids:
            continue
        uf.add(store)
    for con in constraints:
        if isinstance(con, Align):
            for side in (con.left, con.right):
                uid = side.region.uid
                if uid in broadcast_uids:
                    raise ConstraintError(
                        f"store {side.region.name} is both aligned and broadcast"
                    )
                if uid in image_dest_uids:
                    raise ConstraintError(
                        f"store {side.region.name} is both aligned and an "
                        "image destination"
                    )
            uf.union(con.left, con.right)

    for group in uf.groups():
        extents = {s.shape[0] for s in group}
        if len(extents) != 1:
            names = ", ".join(s.region.name for s in group)
            raise ConstraintError(
                f"aligned stores must agree on dimension 0: {names}"
            )
        partition = _choose_group_partition(group, colors, image_cache)
        for store in group:
            solution[store.region.uid] = _retarget(partition, store)

    # Resolve image constraints in dependency order (images may chain:
    # pos -> crd -> x).
    pending = list(image_constraints)
    while pending:
        progressed = False
        remaining: List[Image] = []
        for con in pending:
            src_part = solution.get(con.source.region.uid)
            if src_part is None:
                remaining.append(con)
                continue
            if image_cache is not None:
                part = _image_cached(con, src_part, exact_images, image_cache)
            else:
                part = _image(con, src_part, exact_images)
            solution[con.dest.region.uid] = part
            progressed = True
        if not progressed:
            names = ", ".join(c.source.region.name for c in remaining)
            raise ConstraintError(
                f"cyclic or dangling image constraints via sources: {names}"
            )
        pending = remaining

    # Any unconstrained store falls back to its key partition or a tiling.
    for store in stores:
        uid = store.region.uid
        if uid in solution:
            continue
        key = usable_key(store, colors, image_cache)
        solution[uid] = key or Tiling.create(store.region, colors)
    return solution


def usable_key(store: Store, colors: int, image_cache=None) -> Optional[Partition]:
    """The store's key partition if the solver may reuse it, else None.

    A tiling of ``colors`` tiles always qualifies.  An image by range
    qualifies only while its source has not been written since its
    rects were computed: the epoch it carries must be the source's
    current one in ``image_cache``.  A stale image of one
    :func:`~repro.legion.partition.derivation` as a fresh one would
    look like the same partition to the fusion planner while cutting
    the region elsewhere.
    """
    key = store.key_partition
    if key is None or key.color_count != colors:
        return None
    if type(key) is Tiling:
        return key
    if (
        type(key) is ImageByRange
        and image_cache is not None
        and key.epoch == image_cache.epochs.get(key.pos.uid, 0)
    ):
        return key
    return None


def image_key(
    source: Store, dest: Store, colors: int, image_cache
) -> Optional[ImageByRange]:
    """The image of an even tiling of ``source`` (a ``pos``) onto
    ``dest``, if it may be ``dest``'s key partition (its rects tile
    ``dest``), else None."""
    image = _image_cached(
        Image(source, dest, ImageKind.RANGE),
        Tiling.create(source.region, colors), False, image_cache,
    )
    return image if keeps_image(image) else None


def keeps_image(partition: Partition) -> bool:
    """Whether a store written through ``partition``, an image, keeps
    it as its key partition: an image by range with a known source
    epoch whose rects tile the region."""
    return (
        type(partition) is ImageByRange
        and partition.epoch is not None
        and partition.tile_boundaries() is not None
    )


def solution_plan(
    solution: Dict[int, Partition], stores: Iterable[Store]
) -> Optional[tuple]:
    """A structural recipe for rebuilding ``solution``, or None.

    The runtime's solve memo must not hold partition objects: they
    reference regions, and a region kept alive by a cache entry never
    reaches its destructor, so its instances are never recycled into
    the allocation pool — silently changing mapping behaviour.  The
    plan records only ``(kind, position, boundaries)`` rows — positions
    into the call's store list, which a memo key
    (``AutoTask._fingerprint``) pins argument by argument —
    and :func:`rebuild_solution` re-derives concrete partitions from
    the *current* stores.  ``None`` means the solution mentions a
    region with no store in this call (an alignment-only operand) or a
    partition kind the plan cannot express.
    """
    stores = list(stores)
    pos_by_uid: Dict[int, int] = {}
    for i, store in enumerate(stores):
        pos_by_uid.setdefault(store.region.uid, i)
    plan = []
    for uid, part in solution.items():
        pos = pos_by_uid.get(uid)
        if pos is None:
            return None
        if type(part) is Tiling:
            if part.region.uid != uid:
                return None
            kind = "key" if part is stores[pos].key_partition else "tile"
            plan.append((kind, pos, part.boundaries))
        elif type(part) is Replicate:
            plan.append(("bcast", pos, None))
        else:
            return None
    return tuple(plan)


def rebuild_solution(
    plan: tuple, stores: Iterable[Store], colors: int
) -> Dict[int, Partition]:
    """Concrete partitions from a :func:`solution_plan` recipe.

    Mirrors what a fresh solve would return for an equal memo key:
    ``key`` rows hand back the positioned store's current key-partition
    object (exactly what partition reuse would pick), ``tile`` rows
    construct a new Tiling of the positioned store's region with the
    recorded boundaries (exactly what retargeting would build),
    ``bcast`` rows replicate.
    """
    stores = list(stores)
    solution: Dict[int, Partition] = {}
    for kind, pos, boundaries in plan:
        store = stores[pos]
        uid = store.region.uid
        if kind == "bcast":
            solution[uid] = Replicate(store.region, colors)
            continue
        if kind == "key":
            kp = store.key_partition
            if (
                type(kp) is Tiling
                and kp.region.uid == uid
                and kp.boundaries == boundaries
            ):
                solution[uid] = kp
                continue
        solution[uid] = Tiling.trusted(store.region, boundaries)
    return solution


def _choose_group_partition(
    group: List[Store], colors: int, image_cache=None
) -> Partition:
    keyed = [
        (s, key) for s in group
        for key in (usable_key(s, colors, image_cache),) if key is not None
    ]
    if keyed:
        return max(keyed, key=lambda pair: pair[0].nbytes)[1]
    largest = max(group, key=lambda s: s.nbytes)
    return Tiling.create(largest.region, colors)


def _retarget(partition: Partition, store: Store) -> Partition:
    """Apply a key partition's cuts to another same-length store."""
    if partition.region.uid == store.region.uid:
        return partition
    if type(partition) is ImageByRange:
        return partition.retarget(store.region)
    return Tiling(store.region, partition.boundaries)


def _image(con: Image, src_part: Partition, exact: bool = False) -> Partition:
    if con.kind == ImageKind.RANGE:
        return ImageByRange(con.source.region, src_part, con.dest.region)
    return ImageByCoordinate(
        con.source.region, src_part, con.dest.region, exact=exact
    )


def _src_part_sig(part: Partition):
    """Hashable geometry of an image's source partition, or None.

    The image depends on the source partition only through its per-color
    rects: tilings are keyed by boundaries, precomputed-rect partitions
    (chained images, explicit lists) by the rect tuple itself.
    Replicates and other computed kinds return None — not memoizable.
    """
    if type(part) is Tiling:
        return ("tile", part.boundaries)
    rects = getattr(part, "_rects", None)
    if rects is None:
        return None
    return ("rects", tuple(rects))


def _image_cached(con: Image, src_part: Partition, exact: bool, cache):
    """Resolve one image constraint through the geometry cache.

    A hit rebuilds a fresh partition object around the *current*
    regions from the cached rects — bitwise-identical to recomputing,
    because the key pins the source region's write epoch (any task
    write to the source bumps it) alongside the source partition's
    geometry and the destination shape.  An image by range carries
    that epoch, so it may serve as a key partition (:func:`usable_key`).
    """
    src_sig = _src_part_sig(src_part)
    if src_sig is None:
        return _image(con, src_part, exact)
    source = con.source.region
    dest = con.dest.region
    epoch = cache.epochs.get(source.uid, 0)
    key = (con.kind.value, bool(exact), source.uid, epoch, src_sig, dest.shape)
    cached = cache.get(key)
    if con.kind == ImageKind.RANGE:
        if cached is not None:
            img = ImageByRange.from_rects(source, src_part, dest, cached[0], epoch)
            img._tables = cached
            return img
        img = ImageByRange(source, src_part, dest)
        img.epoch = epoch
        cache.put(key, img.tables())
        return img
    if cached is not None:
        rects, pieces = cached
        img = ImageByCoordinate.__new__(ImageByCoordinate)
        Partition.__init__(img, dest, src_part.color_count)
        img.crd = source
        img.crd_partition = src_part
        img.exact = bool(exact)
        img._rects = rects
        img._pieces = pieces
        img._tables = cached
        return img
    img = ImageByCoordinate(source, src_part, dest, exact=exact)
    cache.put(key, img.tables())
    return img
