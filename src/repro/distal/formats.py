"""Per-mode tensor formats, following the TACO/DISTAL format language.

A tensor's format is a tuple of per-dimension *modes*: ``Dense`` stores a
dimension explicitly, ``Compressed`` stores only the coordinates with
non-zeros.  The classic matrix formats are mode combinations:

* CSR  = ``(Dense, Compressed)``
* CSC  = ``(Dense, Compressed)`` over ``(j, i)`` (column-major iteration)
* COO  = ``(Singleton,)``-style coordinate lists (we model it directly)
* DIA  = diagonal storage (a DISTAL extension in this reproduction)
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Tuple


class Mode(enum.Enum):
    """Per-dimension storage: dense or compressed."""
    DENSE = "d"
    COMPRESSED = "s"


Dense = Mode.DENSE
Compressed = Mode.COMPRESSED


@dataclass(frozen=True)
class Format:
    """An ordered tuple of modes plus a storage-name for dispatch."""

    modes: Tuple[Mode, ...]
    name: str

    def __str__(self) -> str:
        return self.name


CSR = Format((Dense, Compressed), "csr")
BSR = Format((Dense, Compressed), "bsr")
CSC = Format((Dense, Compressed), "csc")
COO = Format((Compressed, Compressed), "coo")
DIA = Format((Dense, Dense), "dia")
DENSE_VECTOR = Format((Dense,), "dense1")
DENSE_MATRIX = Format((Dense, Dense), "dense2")
