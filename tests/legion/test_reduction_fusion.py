"""Scalar reductions in the deferred window: bit-for-bit the eager path.

A reduction over read-only aligned tiles is a window member
(:mod:`repro.legion.fusion`): it returns a pending future, joins or
hoists into a fused group, and shares that group's one allreduce.  The
contract is differential -- every future and every array of a program
run with ``fusion=True`` is *bitwise* what ``fusion=False`` produces --
and is checked here on seeded random programs (which also hold
launches that never join the window: they pass it or flush it, see
``Runtime.pass_window``), on the named hazards, and against mutants of
the planner and of the hazard test that each break it.
"""

import random

import numpy as np
import pytest

import repro.numeric as rnp
import repro.sparse as sp
from repro.analysis import active_logs, check_log
from repro.legion import Future, Runtime, RuntimeConfig, Tiling, fusion
from repro.legion import runtime as runtime_module
from repro.legion.runtime import runtime_scope
from repro.machine import ProcessorKind, summit
from repro.numeric.indexing import scatter_add

SEEDS = range(10)
PROCS = (1, 2, 3, 6)
LENGTHS = (97, 61)  # two tilings; a third is the matrix's entry count


def _runtime(procs: int, fused: bool, validate: bool = False, **config) -> Runtime:
    return Runtime(
        summit(nodes=1).scope(ProcessorKind.GPU, procs),
        RuntimeConfig.legate(fusion=fused, validate=validate, **config),
    )


def _bits(value) -> bytes:
    return np.asarray(value).tobytes()


# ----------------------------------------------------------------------
# Pending futures
# ----------------------------------------------------------------------
def test_lazy_combinators_resolve_with_their_last_input():
    a, b = Future.pending(None), Future.pending(None)
    ready = Future(3.0, 0.5)
    total = Future.combine(lambda x, y, z: x + y + z, a, b, ready)
    square = Future.combine(lambda x, y: x * y, a, a)  # one input twice
    root = total.map(lambda v: v ** 0.5)
    assert total.roots == (a, b) and square.roots == root.roots[:1] == (a,)
    a.resolve(1.0, 2.0)
    assert square.roots is None and (square.value, square.ready_time) == (1.0, 2.0)
    assert total.roots is not None and root.roots is not None
    b.resolve(5.0, 1.0)
    assert (total.value, total.ready_time) == (9.0, 2.0)
    assert (root.value, root.ready_time) == (3.0, 2.0)
    # Resolved inputs compute at once, as they always did.
    now = Future.combine(lambda x, y: x - y, total, ready)
    assert now.roots is None and (now.value, now.ready_time) == (6.0, 2.0)


# ----------------------------------------------------------------------
# Seeded random programs
# ----------------------------------------------------------------------
def _uneven(n: int, colors: int):
    """Tile boundaries of ``[0, n)`` that no even tiling has."""
    even = Tiling.create_boundaries(n, colors)
    return (0,) + tuple(b + 1 for b in even[1:-1]) + (n,)


def _random_program(seed: int, steps: int = 80, window_only: bool = False):
    """Run a random mix of element-wise launches, reductions, lazy
    scalar arithmetic, host waits and frees on the current runtime --
    and, between them, launches that never join the window: CSR SpMV
    and row/column sums over values the window computes (range and
    coordinate images; the column sum is a zero ``fill`` and a REDUCE),
    gathers, ``scatter_add`` and slice assignment into live arrays
    (REDUCE and WRITE after deferred readers; the assigned scalar may
    still be pending), random draws.  Vectors come in three lengths
    and may be re-keyed to an uneven tiling, so that windows hold
    passes, hazards and groups of mixed boundaries.

    ``window_only`` keeps to the launches that join the window.

    Every choice comes from the seeded generator and none from a
    value, so the fused and the eager run take the same path.  Returns
    the bytes of everything observable: each waited scalar in order,
    then every surviving scalar and array.
    """
    rng = random.Random(seed)
    data = np.random.default_rng(seed)
    rnp.random.seed(seed)
    rows, cols = LENGTHS
    # A rows x cols pattern with 1-3 entries per row; its values are a
    # third vector length.
    per_row = data.integers(1, 4, rows)
    row_of = np.repeat(np.arange(rows), per_row)
    col_of = np.concatenate([
        np.sort(data.choice(cols, k, replace=False)) for k in per_row
    ])
    nnz = len(row_of)
    matrix = sp.csr_matrix(
        (data.uniform(-0.3, 0.3, nnz), (row_of, col_of)), shape=(rows, cols)
    )
    pools = {
        n: [rnp.array(data.uniform(-1.0, 1.0, n)) for _ in range(3)]
        for n in (rows, cols, nnz)
    }
    # index[n, m]: n positions into a vector of length m.
    index = {
        (n, m): rnp.array(data.integers(0, m, n))
        for n in LENGTHS for m in LENGTHS
    }
    small = {n: rnp.array(data.uniform(-0.05, 0.05, n)) for n in LENGTHS}
    colors = pools[rows][0].runtime.num_procs
    scalars = []
    seen = []

    def bounded(s):
        # Keeps scaled arrays finite whatever the reduction gave.
        return s / (abs(s) + 1.0)

    def a_scalar():
        # Mostly the latest one: likely still pending in the window.
        return scalars[-1] if rng.random() < 0.6 else rng.choice(scalars)

    def reduce_one(pool):
        kind = rng.choice(("sum", "vdot", "norm", "amax", "argmin", "dot"))
        a, b = rng.choice(pool), rng.choice(pool)
        if kind == "sum":
            return rnp.sum(a)
        if kind == "vdot":
            return rnp.vdot(a, b)
        if kind == "dot":
            return a.dot(b)
        if kind == "norm":
            return rnp.linalg.norm(a)
        if kind == "amax":
            return rnp.amax(a)
        return rnp.argmin(a)

    def a_matrix():
        # The pattern under values the window may still owe.
        return matrix._with_values(rng.choice(pools[nnz]))

    read = {}  # vector length -> the operand a launch last read

    def operand(pool):
        a = rng.choice(pool)
        read[a.shape[0]] = a
        return a

    def a_target(pool):
        # Mostly what a deferred launch may still have to read.
        last = read.get(pool[0].shape[0])
        return last if last is not None and rng.random() < 0.7 else rng.choice(pool)

    for _ in range(steps):
        pool = pools[rng.choice((rows, rows, cols, cols, nnz))]
        op = rng.random() * (0.59 if window_only else 1.0)
        if op < 0.14:  # new array from two
            f = rng.choice((rnp.add, rnp.subtract, rnp.multiply))
            pool.append(f(operand(pool), operand(pool)) * 0.5)
        elif op < 0.22:  # in-place update, maybe by a pending scalar
            target = rng.choice(pool)
            if scalars and rng.random() < 0.6:
                target += rng.choice(pool) * bounded(a_scalar())
            else:
                target -= rng.choice(pool) * 0.25
        elif op < 0.28 and scalars:  # consumer of a future
            pool.append(operand(pool) * bounded(a_scalar()))
        elif op < 0.43:  # reduction
            scalars.append(reduce_one(pool))
        elif op < 0.48 and len(scalars) >= 2:  # lazy scalar arithmetic
            s, t = a_scalar(), rng.choice(scalars)
            scalars.append(
                rng.choice((
                    lambda: s + t * 0.5,
                    lambda: (s - t) / (abs(t) + 2.0),
                    lambda: -s * 3.0,
                    lambda: (s * s).sqrt(),
                ))()
            )
        elif op < 0.53 and scalars:  # host wait
            seen.append(_bits(rng.choice(scalars).value))
        elif op < 0.56 and len(pool) > 3:  # free (its reduction may pend)
            pool.pop(rng.randrange(len(pool)))
        elif op < 0.59:  # a reduction of a temporary freed at once
            scalars.append(
                rnp.linalg.norm(rng.choice(pool) - rng.choice(pool))
            )
        elif op < 0.66:  # SpMV: range + coordinate images
            pools[rows].append(a_matrix() @ rng.choice(pools[cols]))
        elif op < 0.71:  # row sums / column sums (fill, then REDUCE)
            if rng.random() < 0.5:
                pools[rows].append(a_matrix().sum(axis=1))
            else:
                pools[cols].append(a_matrix().sum(axis=0))
        elif op < 0.77:  # gather through a coordinate image
            n, m = rng.choice(LENGTHS), rng.choice(LENGTHS)
            pools[n].append(rng.choice(pools[m])[index[n, m]])
        elif op < 0.83:  # REDUCE into an array deferred launches may read
            n, m = rng.choice(LENGTHS), rng.choice(LENGTHS)
            scatter_add(a_target(pools[m]), index[n, m], small[n])
        elif op < 0.92:  # WRITE into one, maybe of a pending scalar
            target = a_target(pool)
            lo = rng.randrange(target.shape[0] - 8)
            value = bounded(a_scalar()) if scalars and rng.random() < 0.6 else 0.125
            target[lo:lo + rng.randrange(1, 8)] = value
        elif op < 0.96:  # a random draw between element-wise launches
            n = rng.choice(LENGTHS)
            pools[n].append(rnp.random.standard_normal(n) * 0.1)
        else:  # from now on this array is tiled unevenly
            store = rng.choice(pool).store
            store.set_key_partition(
                Tiling(store.region, _uneven(store.shape[0], colors))
            )
    seen.extend(_bits(s.value) for s in scalars)
    for pool in pools.values():
        seen.extend(_bits(a.to_numpy()) for a in pool)
    return seen


def _run(procs: int, fused: bool, validate: bool, program, **config):
    rt = _runtime(procs, fused, validate, **config)
    with runtime_scope(rt):
        out = program()
        rt.barrier()
    if validate:
        assert check_log(rt.event_log) == []
    return out, rt


def _assert_differential(
    seed: int, procs: int, validate: bool = False, window_only: bool = False
):
    def program():
        return _random_program(seed, window_only=window_only)

    fused, rt = _run(procs, True, validate, program)
    eager, _ = _run(procs, False, validate, program)
    assert len(fused) == len(eager)
    for position, (got, want) in enumerate(zip(fused, eager)):
        assert got == want, (seed, procs, position)
    return rt


@pytest.mark.parametrize("procs", PROCS)
@pytest.mark.parametrize("seed", SEEDS)
def test_random_windows_match_the_eager_run_bitwise(seed, procs):
    rt = _assert_differential(seed, procs)
    # The programs do exercise the mechanism.
    assert any(
        len(names) > 1 and {"sum", "vdot", "dot", "norm2", "amax", "argmin"}
        & set(names)
        for names, _, _ in rt.fusion_log
    )


@pytest.mark.parametrize("procs", (2, 6))
@pytest.mark.parametrize("seed", (0, 3, 7))
def test_random_windows_match_under_validation(seed, procs):
    _assert_differential(seed, procs, validate=True)


def test_random_programs_hold_passes_hazards_and_mixed_groups():
    """What the differential test claims to cover, counted."""
    passed = flushed = mixed = 0
    for seed in SEEDS:
        _, rt = _run(3, True, False, lambda: _random_program(seed))
        passed += rt.profiler.launches_passed
        flushed += rt.profiler.hazard_flushes
        # More nests than merged groups: a group ran several segments.
        merged = sum(label == "merged" for _, _, label in rt.fusion_log)
        mixed += rt.profiler.kernel_merges > merged
    assert passed >= 10 * len(SEEDS) and flushed >= 5 * len(SEEDS)
    assert mixed >= len(SEEDS) // 2


def test_fused_runs_issue_fewer_allreduces():
    fused = eager = 0
    for seed in SEEDS:
        _, rt = _run(3, True, False, lambda: _random_program(seed))
        fused += rt.profiler.allreduces
        _, rt = _run(3, False, False, lambda: _random_program(seed))
        eager += rt.profiler.allreduces
    assert fused < eager


# ----------------------------------------------------------------------
# Named hazards
# ----------------------------------------------------------------------
def _vectors(n=96, count=2, seed=1):
    data = np.random.default_rng(seed)
    return [rnp.array(data.uniform(-1.0, 1.0, n)) for _ in range(count)]


def _both(program, procs=3, **config):
    """``program`` fused and eager; returns the fused runtime."""
    fused, rt = _run(procs, True, True, program, **config)
    eager, _ = _run(procs, False, True, program, **config)
    assert [_bits(v) for v in fused] == [_bits(v) for v in eager]
    return rt


def _groups(rt):
    return [names for names, _, _ in rt.fusion_log]


def test_consumer_of_an_in_window_future_runs_in_a_later_group():
    def program():
        a, b = _vectors()
        s = rnp.vdot(a, b)
        c = a * s  # takes the pending future as a scalar
        d = c + b  # no future of its own: joins the consumer's group
        return [s.value, c.to_numpy(), d.to_numpy()]

    rt = _both(program)
    assert _groups(rt)[-2:] == [("vdot",), ("multiply", "add")]


def test_lazy_arithmetic_carries_the_dependence():
    def program():
        a, b = _vectors()
        s = rnp.vdot(a, b)
        beta = (s + 1.0) / (abs(s) + 2.0)  # lazy while s is pending
        if a.runtime.config.fusion:
            assert beta.future.roots == s.future.roots == (s.future,)
        c = a * beta
        return [beta.value, c.to_numpy()]

    rt = _both(program)
    assert _groups(rt)[-2:] == [("vdot",), ("multiply",)]


def test_cg_tail_hoists_the_norm_to_the_vdot():
    """``[x+=, r-=, vdot(r,z), p=z+p*beta, norm(r)]`` becomes
    ``{x+=, r-=, vdot, norm} | {p=}``: two launches, one allreduce."""
    def program():
        x, r, p, q = _vectors(count=4)
        alpha = 0.37
        rz = rnp.vdot(r, r)
        rz.value  # resolved, as CG's rz is by now
        x += p * alpha
        r -= q * alpha
        rz_next = rnp.vdot(r, r)
        p = r + p * (rz_next / rz)
        nrm = rnp.linalg.norm(r)
        return [
            nrm.value, rz_next.value, x.to_numpy(), r.to_numpy(), p.to_numpy()
        ]

    rt = _both(program)
    assert _groups(rt)[-2:] == [
        ("multiply", "add", "multiply", "subtract", "vdot", "norm2"),
        ("multiply", "add"),
    ]


def test_a_writer_in_between_blocks_the_hoist():
    def program():
        a, b = _vectors()
        c = a + b                   # G0
        s = rnp.sum(c)              # G0 (reads what G0 wrote)
        d = c * s                   # G1: consumer of s
        hoisted = rnp.amax(c)       # nothing after G0 writes c: hoists
        blocked = rnp.linalg.norm(d)  # G1 writes d: stays in G1
        return [s.value, hoisted.value, blocked.value, d.to_numpy()]

    rt = _both(program)
    assert _groups(rt)[-2:] == [
        ("add", "sum", "amax"), ("multiply", "norm2"),
    ]


def test_an_in_place_writer_in_between_blocks_the_hoist():
    def program():
        a, b = _vectors()
        c = a + b                   # G0
        s = rnp.sum(c)              # G0
        c *= s                      # G1 rewrites c itself
        after = rnp.amax(c)         # must see the rewritten c
        return [s.value, after.value, c.to_numpy()]

    rt = _both(program)
    assert _groups(rt)[-2:] == [("add", "sum"), ("multiply", "amax")]


def test_mixed_boundaries_share_a_group_over_disjoint_regions():
    def program():
        a, b = _vectors(LENGTHS[0])
        u, v = _vectors(LENGTHS[1], seed=2)
        x = a + b                   # 97 rows
        y = u * v                   # 61 rows: other boundaries, other regions
        sx = rnp.sum(x)
        sy = rnp.vdot(y, v)
        return [sx.value, sy.value]

    rt = _both(program)
    # One launch, one allreduce; inside it two nests, one per tiling.
    assert rt.fusion_log[-1] == (("add", "multiply", "sum", "vdot"), 2, "merged")
    snap = rt.profiler.snapshot()
    with runtime_scope(rt):
        program()
    delta = rt.profiler.since(snap)
    assert (delta.fused_tasks, delta.kernel_merges, delta.allreduces) == (1, 2, 1)


def test_a_region_under_two_tilings_still_splits():
    """``w`` is read under its own uneven tiling and under ``a``'s even
    one: shard i of the two launches holds different rows of it."""
    def program():
        a, w = _vectors(LENGTHS[0])
        a = a * 1.0                 # keyed by the even tiling that wrote it
        rt = a.runtime
        rt.barrier()
        w.store.set_key_partition(
            Tiling(w.store.region, _uneven(LENGTHS[0], rt.num_procs))
        )
        w *= 0.5                    # tiled as w is keyed
        y = a + w                   # tiled as a is keyed
        return [w.to_numpy(), y.to_numpy()]

    rt = _both(program)
    assert _groups(rt)[-2:] == [("multiply",), ("add",)]


def test_a_capacity_flush_mid_chain_resolves_the_future():
    def program():
        a, b = _vectors()
        out = []
        for _ in range(3):
            s = rnp.vdot(a, b)
            a = a * (s / (abs(s) + 1.0))
            b = b + a
            out.append(s)
        return [s.value for s in out] + [a.to_numpy(), b.to_numpy()]

    rt = _both(program, fusion_window=4)
    # Nine launches through a window of four: it flushed on its own.
    assert len(_groups(rt)) >= 3
    assert sum(len(names) for names in _groups(rt)) == 9


def test_a_region_freed_while_its_reduction_pends():
    """The host destroys a temporary whose norm is still in the window:
    recycling waits for the flush, and the merged nest -- which keeps
    freed temporaries as values only -- still stores this one, because
    the reduction reads it back."""
    def program():
        a, b = _vectors()
        rt = a.runtime
        rt.barrier()
        diff = a - b
        nrm = rnp.linalg.norm(diff)
        diff.store.destroy()
        if rt.config.fusion:
            assert nrm.future.roots is not None  # still in the window
            assert rt._deferred_frees  # ... and its region's recycling
        out = [nrm.value]
        assert not rt._deferred_frees
        return out

    rt = _both(program)
    assert rt.fusion_log[-1] == (("subtract", "norm2"), 1, "merged")


def test_fusion_off_never_defers_a_future():
    rt = _runtime(3, fused=False)
    with runtime_scope(rt):
        a, b = _vectors()
        s = rnp.vdot(a, b)
        t = s * 2.0 + rnp.linalg.norm(a)
        assert s.future.roots is None and t.future.roots is None
        assert rt.profiler.allreduces == 2


def test_an_abandoned_reduction_raises_a_named_error():
    """A window dropped by a failing launch leaves its futures
    unresolved: waiting on one is an error, not a None."""
    rt = _runtime(2, fused=True)
    with runtime_scope(rt):
        (a,) = _vectors(count=1)
        s = rnp.sum(a)
        rt._window.clear()  # what flush_window does when a launch raises
        rt._window_refs.clear()
        rt._window_roots.clear()
        with pytest.raises(RuntimeError, match="never resolved"):
            s.value


def test_a_scalar_pending_in_another_runtime_is_flushed_there():
    """The consumer's runtime cannot resolve it: it asks the owner."""
    owner, user = _runtime(2, fused=True), _runtime(3, fused=True)
    with runtime_scope(owner):
        (a,) = _vectors(count=1)
        s = rnp.sum(a)
        assert s.future.roots is not None
    # runtime_scope exit is a sync; pend one more outside any scope.
    t = rnp.sum(a)
    assert t.future.owner is owner
    with runtime_scope(user):
        (b,) = _vectors(count=1, seed=5)
        c = b * t  # a launch of ``user`` taking ``owner``'s pending future
        got = c.to_numpy()
    assert np.array_equal(got, b.to_numpy() * t.value)
    assert float(s) == float(t)


def test_one_allreduce_carries_every_value_of_its_group():
    rt = _runtime(6, fused=True, validate=True, profile=True)
    with runtime_scope(rt):
        a, b = _vectors()
        rt.barrier()
        before = rt.profiler.allreduces
        values = [rnp.sum(a), rnp.vdot(a, b), rnp.amax(b), rnp.argmin(a)]
        got = [v.value for v in values]
    assert rt.profiler.allreduces - before == 1
    assert _groups(rt)[-1] == ("sum", "vdot", "amax", "argmin")
    (event,) = [e for e in rt.event_log.events if e.kind == "allreduce"][-1:]
    assert (event.op, event.participants) == ("sum+sum+max+min", 6)
    (span,) = [s for s in rt.timeline.spans if s.category == "allreduce"][-1:]
    assert span.nbytes == 8 * 4
    # One ready time for all four.
    assert len({v.future.ready_time for v in values}) == 1
    assert got[0] == pytest.approx(float(np.sum(a.to_numpy())))


# ----------------------------------------------------------------------
# The tests above can fail: mutants of the planner and of the hazard test
# ----------------------------------------------------------------------
def _failures(errors=(AssertionError,), procs=3, window_only=False):
    failures = 0
    for seed in SEEDS:
        try:
            _assert_differential(seed, procs, window_only=window_only)
        except errors:
            failures += 1
    # Under REPRO_VALIDATE=1 the suite replays every log after the
    # test: what a mutant logged is wrong on purpose.
    for log in active_logs():
        log.clear()
    return failures


def test_window_only_programs_match_too():
    """What the two planner mutants below are measured against."""
    assert _failures((AssertionError, RuntimeError), window_only=True) == 0


def test_mutant_passing_a_write_after_read_is_caught(monkeypatch):
    """A launch that writes what a deferred member still has to read
    must not run first."""
    def forgetful(self, accesses, scalars):
        roots = self._window_roots
        return any(uid in self._window_writers for uid, _ in accesses) or any(
            root in roots for root in runtime_module.pending_roots(scalars)
        )

    monkeypatch.setattr(Runtime, "_hazard", forgetful)
    assert _failures() >= len(SEEDS) // 2


def test_mutant_passing_a_pending_scalar_is_caught(monkeypatch):
    """A launch that takes a scalar the window still owes and passes
    anyway finds the future unresolved when it runs."""
    def forgetful(self, accesses, scalars):
        return any(
            uid in self._window_writers or (writes and uid in self._window_refs)
            for uid, writes in accesses
        )

    monkeypatch.setattr(Runtime, "_hazard", forgetful)
    assert _failures((AssertionError, RuntimeError)) >= len(SEEDS) // 2


def test_mutant_joining_a_region_under_two_tilings_is_caught(monkeypatch):
    """Per-region alignment is what keeps segments free of shared
    regions; a group that takes any boundaries runs them out of order."""
    def careless(self, summary, ids):
        if self.sealed or self.colors not in (None, summary.colors):
            return False
        for acc in summary.accesses:
            lid = ids[acc.region.uid]
            if acc.part_kind == "other":
                return False
            if acc.part_kind == "rep" and lid in self.written:
                return False
            if acc.privilege.writes and lid in self.rep_read:
                return False
        return True

    monkeypatch.setattr(fusion._GroupState, "admits", careless)
    with pytest.raises(AssertionError):
        test_a_region_under_two_tilings_still_splits()
    assert _failures(procs=6) >= len(SEEDS) // 2



def test_mutant_hoisting_past_a_writer_is_caught(monkeypatch):
    def careless(groups, summary, ids, floor):
        for position in range(floor, len(groups) - 1):
            if groups[position].admits(summary, ids):
                return position
        return None

    monkeypatch.setattr(fusion, "_hoist_target", careless)
    with pytest.raises(AssertionError):
        test_an_in_place_writer_in_between_blocks_the_hoist()
    assert _failures(window_only=True) >= len(SEEDS) // 2


def test_mutant_consumer_in_its_producers_group_is_caught(monkeypatch):
    """Without the reduction constraint's edges the consumer joins the
    group that produces its scalar -- and finds the future pending."""
    monkeypatch.setattr(runtime_module, "pending_roots", lambda scalars: ())
    with pytest.raises((AssertionError, RuntimeError)):
        test_consumer_of_an_in_window_future_runs_in_a_later_group()
    errors = (AssertionError, RuntimeError)
    assert _failures(errors, window_only=True) >= len(SEEDS) // 2
