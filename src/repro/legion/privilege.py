"""Region privileges declared by tasks (read, write, reduce)."""

from __future__ import annotations

import enum


class Privilege(enum.Enum):
    """How a task uses a region argument."""
    READ = "read"
    WRITE = "write"  # read-write
    WRITE_DISCARD = "write-discard"  # write without reading prior contents
    REDUCE = "reduce"  # commutative accumulation (e.g. +=)

    # ``reads``/``writes`` are plain precomputed attributes (below):
    # they are consulted per requirement per launch, where a property
    # call shows up in host-overhead profiles.  For the same reason the
    # members hash by identity, in C: ``Enum.__hash__`` is a Python call
    # per privilege in every template key a launch looks up.
    __hash__ = object.__hash__


# reads: whether prior contents must be staged.
# writes: whether the task produces new contents.
for _p in Privilege:
    _p.reads = _p in (Privilege.READ, Privilege.WRITE)
    _p.writes = _p is not Privilege.READ
del _p
