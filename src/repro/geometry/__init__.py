"""Geometric primitives used throughout the runtime.

The Legion-like runtime tracks data coherence, partitions and physical
instances in terms of half-open axis-aligned boxes.  This package provides
exact rectangle arithmetic (union, intersection, subtraction) for 1-D and
2-D index spaces, which is all the reproduction needs: sparse matrix
component arrays (``pos``/``crd``/``vals``) are 1-D and dense operands
are 1-D vectors or 2-D matrices.
"""

from repro.geometry.rect import Rect, RectSet

__all__ = ["Rect", "RectSet"]
