"""What the rest of the system relies on from ``Rect`` as a value.

``Rect`` used to be a frozen dataclass; it is now a slotted immutable
class.  These are the properties that must not have moved with that:
it hashes as the tuple ``(lo, hi)`` (set iteration order over rects
feeds ``RectSet``'s membership index), it cannot be changed after
construction, it survives ``copy`` and ``pickle``, and it prints the
same.  The last property ties the coherence layer's integer interval
engine back to it: on 1-D inputs the engine's outputs are
``Rect.subtract`` / ``Rect.intersect``, piece for piece.
"""

import copy
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geometry import Rect
from repro.legion.coherence import RegionCoherence, _cut

BOUNDS = [((3,), (10,)), ((0, 2), (4, 9)), ((5,), (5,)), ((7,), (2,))]


@pytest.mark.parametrize("lo, hi", BOUNDS)
def test_hashes_as_the_bounds_tuple(lo, hi):
    assert hash(Rect(lo, hi)) == hash((lo, hi))


def test_equality_is_by_bounds_and_type():
    assert Rect((1,), (4,)) == Rect((1,), (4,))
    assert Rect((1,), (4,)) != Rect((1,), (5,))
    assert Rect((1,), (4,)) != ((1,), (4,))
    assert len({Rect((1,), (4,)), Rect((1,), (4,)), Rect((1, 0), (4, 1))}) == 2


def test_set_iteration_order_is_the_tuples():
    """``RectSet._members`` is a set of rects: it iterates as the same
    set of bounds tuples would."""
    bounds = [((i * 7 % 23,), (i * 7 % 23 + 1 + i % 5,)) for i in range(40)]
    assert [(r.lo, r.hi) for r in set(Rect(lo, hi) for lo, hi in bounds)] == list(
        set(bounds)
    )


@pytest.mark.parametrize("name", ["lo", "hi", "_volume", "other"])
def test_assignment_and_deletion_raise(name):
    rect = Rect((0,), (4,))
    with pytest.raises(AttributeError):
        setattr(rect, name, (1,))
    with pytest.raises(AttributeError):
        delattr(rect, name)
    assert (rect.lo, rect.hi, rect.volume()) == ((0,), (4,), 4)


@pytest.mark.parametrize("lo, hi", BOUNDS)
def test_copy_and_pickle_round_trip(lo, hi):
    rect = Rect(lo, hi)
    clones = [copy.copy(rect), copy.deepcopy(rect)]
    clones += [
        pickle.loads(pickle.dumps(rect, protocol))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
    ]
    for clone in clones:
        assert clone == rect and hash(clone) == hash(rect)
        assert clone.is_empty() == rect.is_empty()
        assert clone.volume() == rect.volume()


def test_repr_is_unchanged():
    assert repr(Rect((3,), (10,))) == "Rect([3,10))"
    assert repr(Rect((0, 2), (4, 9))) == "Rect([0,4),[2,9))"


def test_emptiness_and_volume_are_fixed_at_construction():
    assert Rect((7,), (2,)).is_empty() and Rect((7,), (2,)).volume() == 0
    assert Rect((0, 3), (5, 3)).is_empty() and Rect((0, 3), (5, 3)).volume() == 0
    assert not Rect((0, 3), (5, 4)).is_empty()
    assert Rect((0, 3), (5, 7)).volume() == 20


# ----------------------------------------------------------------------
# The integer engine is Rect.subtract / Rect.intersect on 1-D inputs
# ----------------------------------------------------------------------
def _span(lo, length):
    return (lo, lo + length)


spans = st.builds(_span, st.integers(0, 30), st.integers(1, 12))


@given(st.lists(spans, max_size=6), spans)
def test_cut_is_subtract_piece_for_piece(wanted, cutter):
    expect = [
        (piece.lo[0], piece.hi[0])
        for span in wanted
        for piece in Rect.interval1d(*span).subtract(Rect.interval1d(*cutter))
    ]
    assert _cut(wanted, *cutter) == expect


@given(spans, spans)
def test_find_source_fragment_is_the_intersection(want, held):
    want, held = Rect.interval1d(*want), Rect.interval1d(*held)
    coh = RegionCoherence()
    coh.mark_valid(1, held, 0.5)
    part = want.intersect(held)
    expect = [] if part.is_empty() else [(1, part, 0.5)]
    assert coh.find_source(want, exclude=0) == expect


@given(st.lists(spans, max_size=5), spans)
def test_missing_and_updates_are_sequential_subtraction(held, want):
    """``missing`` is ``want`` minus each valid piece in list order, and
    ``mark_valid`` leaves each older piece minus the newer ones."""
    coh = RegionCoherence()
    expect_pieces = []
    for i, span in enumerate(held):
        rect = Rect.interval1d(*span)
        coh.mark_valid(0, rect, float(i))
        expect_pieces = [
            (left, t)
            for piece, t in expect_pieces
            for left in piece.subtract(rect)
        ] + [(rect, float(i))]
    assert [(p.rect, p.ready_time) for p in coh.pieces(0)] == expect_pieces
    remaining = [Rect.interval1d(*want)]
    for piece, _ in expect_pieces:
        remaining = [left for rect in remaining for left in rect.subtract(piece)]
    assert coh.missing(0, Rect.interval1d(*want)) == remaining
