"""Reductions in the deferred window: bit-for-bit the eager path.

A reduction over read-only aligned tiles is a window member
(:mod:`repro.legion.fusion`): it returns a pending future, joins or
hoists into a fused group, and shares that group's one allreduce.  A
launch that reduces into a region joins too, and its group applies it
after the last shard (rule 4).  The contract is differential -- every
future and every array of a program run with ``fusion=True`` is
*bitwise* what ``fusion=False`` produces -- and is checked here on
seeded random programs (which also hold launches that never join the
window: each flushes it, then runs, see ``Runtime.launch``), on the
named hazards, and against mutants of the planner and of that flush
that each break it.
"""

import dataclasses
import random

import numpy as np
import pytest

import repro.numeric as rnp
import repro.sparse as sp
from repro.analysis import active_logs, check_log
from repro.legion import (
    Future,
    ImageByCoordinate,
    Pointwise,
    Privilege,
    Replicate,
    Requirement,
    Runtime,
    RuntimeConfig,
    TaskLaunch,
    Tiling,
    fusion,
)
from repro.legion import runtime as runtime_module
from repro.legion.partition import ExplicitPartition
from repro.legion.runtime import WINDOW_CAPACITY, get_runtime, runtime_scope
from repro.machine import ProcessorKind, summit
from repro.numeric.array import Scalar
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
    if isinstance(value, Scalar):
        value = value.value
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
    and, between them, sparse launches over values the window computes:
    CSR SpMV, row sums, gathers (range and coordinate images) and column
    sums (a zero ``fill`` and a REDUCE through a column image), which
    join the window as barriers, and launches that never join it:
    ``scatter_add`` and slice assignment into live arrays (REDUCE and
    WRITE after deferred readers; the assigned scalar may still be
    pending), random draws.
    Vectors come in three lengths and may be re-keyed to an uneven
    tiling, so that windows hold passes, hazards and groups of mixed
    boundaries.

    ``window_only`` keeps to element-wise launches and reductions.

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


def test_random_programs_hold_hazards_and_mixed_groups():
    """What the differential test claims to cover, counted."""
    flushed = mixed = sparse = reducing = 0
    for seed in SEEDS:
        _, rt = _run(3, True, False, lambda: _random_program(seed))
        flushed += rt.profiler.hazard_flushes
        # More nests than merged groups: a group ran several segments.
        merged = sum(label == "merged" for _, _, label in rt.fusion_log)
        mixed += rt.profiler.kernel_merges > merged
        # Groups a generated kernel or a gather shares with others.
        sparse += sum(
            len(names) > 1
            and any(name.startswith(("csr:", "gather_rows")) for name in names)
            for names, _, _ in rt.fusion_log
        )
        # Groups a column sum's REDUCE joined (rule 4).
        reducing += sum(
            len(names) > 1 and COLSUM in names for names, _, _ in rt.fusion_log
        )
    assert flushed >= 10 * len(SEEDS)
    assert mixed >= len(SEEDS) // 2
    assert sparse >= 5 * len(SEEDS)
    assert reducing >= len(SEEDS)


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


def _consumer_program():
    a, b = _vectors()
    s = rnp.vdot(a, b)
    c = a * s  # takes the pending future as a scalar
    d = c + b  # no future of its own: joins the consumer's group
    return [s.value, c.to_numpy(), d.to_numpy()]


def _consumer_runs_in_a_later_group(procs: int) -> None:
    rt = _both(_consumer_program, procs)
    assert _groups(rt)[-2:] == [("vdot",), ("multiply", "add")]


def test_consumer_of_an_in_window_future_runs_in_a_later_group():
    for procs in (2, 3):
        _consumer_runs_in_a_later_group(procs)


def test_a_one_color_consumer_shares_its_producers_group():
    """Rule 5's one-color case: the one shard holds the whole fold, so
    the vdot, its consumer and the consumer's reader run as one task --
    bitwise the eager run."""
    rt = _both(_consumer_program, procs=1)
    assert _groups(rt)[-1] == ("vdot", "multiply", "add")


def _mixed_roots_program():
    """One GPU.  ``s0 = sum(x)`` runs in the window's first group and
    ``s1 = sum(y)`` in its second (``y`` reads ``x`` through a replica,
    which rule 2 keeps out of the group that writes ``x``); ``z`` takes
    ``10 s0 + s1``, a lazy scalar over both, and joins the second
    group.  When that group runs, the scalar still waits for ``s1``,
    which its own shard resolves, and no longer for ``s0``."""
    rt = get_runtime()
    x = rt.create_region((8,), np.float64, data=np.arange(8.0))
    y = rt.create_region((8,), np.float64)
    z = rt.create_region((8,), np.float64)
    tile = Tiling.create
    wd = Privilege.WRITE_DISCARD

    def member(name, kernel, *reqs, reduction=None, scalars=None):
        return rt.launch(
            TaskLaunch(
                name, [Requirement(*req) for req in reqs], kernel,
                scalars=scalars or {}, reduction=reduction,
                pointwise=Pointwise((name,)),
            )
        )

    def inc(ctx):
        ctx.view("x")[...] += 1.0

    def spread(ctx):
        ctx.view("y")[...] = ctx.view("x").sum()

    def put(ctx):
        ctx.view("z")[...] = ctx.scalar("s")

    member("x+=", inc, ("x", x, tile(x, 1), Privilege.WRITE))
    s0 = member(
        "sum(x)", lambda ctx: ctx.view("x").sum(),
        ("x", x, tile(x, 1), Privilege.READ), reduction="sum",
    )
    member(
        "y=", spread, ("y", y, tile(y, 1), wd),
        ("x", x, Replicate(x, 1), Privilege.READ),
    )
    s1 = member(
        "sum(y)", lambda ctx: ctx.view("y").sum(),
        ("y", y, tile(y, 1), Privilege.READ), reduction="sum",
    )
    both = Future.combine(lambda a, b: 10.0 * a + b, s0, s1)
    member("z=", put, ("z", z, tile(z, 1), wd), scalars={"s": both})
    rt.barrier()
    return [both.value, x.data.copy(), y.data.copy(), z.data.copy()]


def test_a_scalar_over_an_earlier_group_and_its_own_is_resolved_in_the_shard():
    rt = _both(_mixed_roots_program, procs=1)
    assert _groups(rt)[-2:] == [("x+=", "sum(x)"), ("y=", "sum(y)", "z=")]
    (value, _x, _y, z), _rt = _run(1, True, False, _mixed_roots_program)
    assert value == 10.0 * 36.0 + 8.0 * 36.0
    assert z.tolist() == [value] * 8


def test_an_in_shard_consumer_waits_for_its_scalars_other_inputs():
    """A one-color consumer of ``vdot * late``, where ``late`` is a
    value ready at 0.25 s: the fused task that resolves the vdot in its
    shard starts only when ``late`` is ready, as the eager consumer
    does."""
    def program():
        rt = get_runtime()
        a, b = _vectors()
        rt.barrier()
        s = rnp.vdot(a, b)
        late = Future(2.0, 0.25)
        c = a * Scalar(Future.combine(lambda x, y: x * y, s.future, late), rt)
        return [c.to_numpy()]

    rt = _both(program, procs=1)
    assert _groups(rt)[-1] == ("vdot", "multiply")
    assert rt.elapsed() >= 0.25


def test_a_scalar_waits_for_what_it_derives_from_besides_its_roots():
    root = Future.pending(None)
    ready = Future(3.0, 0.5)
    lazy = Future.combine(lambda a, b: a + b, root, ready).map(abs)
    assert (root.settled_ready(), lazy.settled_ready()) == (0.0, 0.5)
    root.resolve(1.0, 2.0)
    assert lazy.settled_ready() == lazy.ready_time == 2.0


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
    """More launches than the window holds, and no wait among them: the
    window flushes when full, and every future it held resolves."""
    steps = WINDOW_CAPACITY // 3 + 2

    def program():
        a, b = _vectors()
        rt = a.runtime
        out = []
        for _ in range(steps):
            s = rnp.vdot(a, b)
            a = a * (s / (abs(s) + 1.0))
            b = b + a
            out.append(s)
        if rt.config.fusion:
            # Nothing waited, yet the window flushed on its own: every
            # future issued before the capacity flush is resolved.
            assert rt.fusion_log and rt.profiler.hazard_flushes == 0
            flushed = sum(len(names) for names in _groups(rt))
            assert flushed == WINDOW_CAPACITY
            assert [s.future.roots is None for s in out] == [
                3 * i < flushed for i in range(steps)
            ]
        return [s.value for s in out] + [a.to_numpy(), b.to_numpy()]

    rt = _both(program)
    assert sum(len(names) for names in _groups(rt)) == 3 * steps


def test_destroy_of_a_region_a_pending_reduction_reads_flushes_first():
    """The host destroys a region whose norm is still in the window:
    ``destroy()`` is a synchronization point, so the norm runs -- and
    stages its halo rows -- before the region's state is dropped.  A
    free that released without flushing would leave the norm reading
    rows no copy brought, which the offline checker reports."""
    def program():
        a, b = _vectors()
        rt = a.runtime
        diff = a - b                # written under the even tiling
        rt.barrier()
        diff.store.set_key_partition(
            Tiling(diff.store.region, _uneven(len(diff), rt.num_procs))
        )
        nrm = rnp.linalg.norm(diff)  # read under the uneven one
        if rt.config.fusion:
            assert nrm.future.roots is not None  # still in the window
        diff.store.destroy()
        assert not rt._window
        return [nrm.value]

    rt = _both(program)
    assert rt.fusion_log[-1] == (("norm2",), 0, "single")


def _aliased_write_program():
    """A write through an aliased coordinate image -- colors 0 and 1
    both own rows 2 and 3 -- then a read of it through the same image:
    shard 0 of the reader must see shard 1's writes."""
    rt = get_runtime()
    crd = rt.create_region(
        (8,), np.int64, data=np.array([0, 1, 2, 3, 2, 3, 4, 5])
    )
    y = rt.create_region((6,), np.float64, data=np.zeros(6))
    out = rt.create_region((2,), np.float64, data=np.zeros(2))
    image = ImageByCoordinate(crd, Tiling(crd, (0, 4, 8)), y)

    def write(ctx):
        ctx.view("y")[...] = ctx.color + 1.0

    def read(ctx):
        ctx.view("o")[...] = ctx.view("y").sum()

    rt.launch(TaskLaunch(
        "write", [Requirement("y", y, image, Privilege.WRITE_DISCARD)],
        write, pointwise=Pointwise(("write",)),
    ))
    rt.launch(TaskLaunch(
        "read",
        [
            Requirement("o", out, Tiling(out, (0, 1, 2)), Privilege.WRITE_DISCARD),
            Requirement("y", y, image, Privilege.READ),
        ],
        read, pointwise=Pointwise(("read",)),
    ))
    rt.barrier()
    return [y.data.copy(), out.data.copy()]


def test_a_write_through_an_aliased_image_runs_alone():
    fused, rt = _run(2, True, False, _aliased_write_program)
    eager, _ = _run(2, False, False, _aliased_write_program)
    assert [_bits(v) for v in fused] == [_bits(v) for v in eager]
    assert fused[1].tolist() == [6.0, 8.0]
    # The writer never entered the window; the reader did, alone.
    assert _groups(rt) == [("read",)]
    # The writer's shards race by construction (the image aliases):
    # what the checker would say about these logs is beside the point.
    for log in active_logs():
        log.clear()


def test_a_barrier_runs_before_the_segment_that_reads_it():
    """A nest for ``v = 2 * ones``, the SpMV, then the add that reads
    both: three segments over one tiling, run in that order."""
    def program():
        A = sp.csr_matrix(sp.eye(97, format="csr") * 2.0)
        (x,) = _vectors(97, count=1)
        x.runtime.barrier()
        v = rnp.ones(97) * 2.0
        y = A @ x
        w = y + v
        return [w.to_numpy()]

    rt = _both(program)
    (names, _, label) = rt.fusion_log[-1]
    assert names == ("fill", "multiply", "csr:y(i)=A(i,j)*x(j):gpu", "add")
    assert label == "replay:opaque-kernel"
    assert rt.profiler.kernel_merges >= 1


@pytest.mark.parametrize("program", ["matfact", "cg", "pcg_gmg"])
def test_sparse_programs_match_the_eager_run_bitwise(program):
    """Generated kernels in the window: a matfact batch, CG and
    GMG-preconditioned CG, fused and not, under validation."""
    def matfact():
        from repro.apps.matfact import MatrixFactorizationModel

        data = np.random.default_rng(4)
        users, items = data.integers(0, 120, 900), data.integers(0, 80, 900)
        ratings = data.uniform(1.0, 5.0, 900)
        model = MatrixFactorizationModel(120, 80, k=6, mu=3.0, seed=4)
        losses = [
            model.train_batch(users[lo:lo + 300], items[lo:lo + 300],
                              ratings[lo:lo + 300])
            for lo in (0, 300, 600)
        ]
        return losses + [a.to_numpy() for a in (model.U, model.V, model.bu, model.bi)]

    def cg():
        from repro.apps.poisson import poisson2d_scipy

        A = sp.csr_matrix(poisson2d_scipy(14))
        x, _ = sp.linalg.cg(A, rnp.ones(196), rtol=0.0, maxiter=6)
        return [x.to_numpy()]

    def pcg_gmg():
        from repro.apps.multigrid import TwoLevelGMG
        from repro.apps.poisson import poisson2d_scipy

        A = sp.csr_matrix(poisson2d_scipy(15))
        gmg = TwoLevelGMG(A, 15, coarse_rtol=0.0, coarse_maxiter=3)
        x, _ = sp.linalg.cg(
            A, rnp.ones(225), rtol=0.0, maxiter=3, M=gmg.as_preconditioner()
        )
        return [x.to_numpy()]

    body = {"matfact": matfact, "cg": cg, "pcg_gmg": pcg_gmg}[program]
    rt = _both(body)
    # Sparse kernels did share launches with element-wise ones.
    assert any(
        len(names) > 1 and any(name.startswith("csr:") for name in names)
        for names, _, _ in rt.fusion_log
    )


# ----------------------------------------------------------------------
# Region reductions in the window (rule 4)
# ----------------------------------------------------------------------
COLSUM = "csr:y(j)=A(i,j):gpu"
RMATVEC = "csr:y(j)=A(i,j)*x(i):gpu"


def _scattered(rows=97, cols=61, seed=2):
    """A CSR whose column image aliases under every row tiling: each
    shard's REDUCE adds into rows that other shards' tiles hold."""
    data = np.random.default_rng(seed)
    mask = data.random((rows, cols)) < 0.1
    return sp.csr_matrix(data.uniform(-1.0, 1.0, (rows, cols)) * mask)


def _colsum_into(A, y):
    """``y += A.sum(axis=0)`` into the caller's array: the column-sum
    kernel, so ``y``'s key tiling is the owner its folds land on."""
    from repro.distal.formats import CSR
    from repro.distal.registry import get_registry, launch

    spec = get_registry().get("y(j)=A(i,j)", CSR, A._proc_kind())
    stores = A._stores()
    stores["y"] = y.store
    launch(spec, A._runtime, stores)


def _last_group_with(rt, name):
    return max(k for k, names in enumerate(_groups(rt)) if name in names)


def test_a_reader_of_a_reduced_region_runs_in_a_later_group():
    """Fill, then a REDUCE into it through an aliasing column image,
    then a reader: the REDUCE joins the fill's group and adds after its
    last shard wrote; the reader waits for a later group."""
    def program():
        A = _scattered()
        (x,) = _vectors(97, count=1)
        x.runtime.barrier()
        y = A.T @ x
        z = y * 2.0
        return [y.to_numpy(), z.to_numpy()]

    rt = _both(program)
    assert ("fill", RMATVEC) in _groups(rt)
    assert _last_group_with(rt, "multiply") > _last_group_with(rt, RMATVEC)
    assert rt.profiler.hazard_flushes == 0


def test_a_writer_of_what_a_reduce_member_reads_runs_in_a_later_group():
    """The REDUCE member reads ``x`` after the group's last shard, so an
    in-place update of ``x`` may not share its group."""
    def program():
        A = _scattered()
        (x,) = _vectors(97, count=1)
        x.runtime.barrier()
        y = A.T @ x
        x *= 2.0
        return [y.to_numpy(), x.to_numpy()]

    rt = _both(program)
    assert _groups(rt)[-2:] == [("fill", RMATVEC), ("multiply",)]


def test_a_scalar_and_region_reduce_launch_runs_alone():
    """A launch with a scalar reduction *and* a region REDUCE never joins
    the window, nor does a REDUCE through a replica or an explicit
    partition: it runs at once, after the window it touches flushed."""
    from repro.constraints import AutoTask

    def kernel(ctx):
        ctx.arrays["y"][ctx.rect("y").slices()] += ctx.view("x")
        return float(ctx.view("x").sum())

    def program():
        a, b = _vectors()
        rt = a.runtime
        rt.barrier()
        y = rnp.zeros(96)           # deferred
        c = a * 2.0                 # deferred
        task = AutoTask(rt, "add_and_sum", kernel)
        task.add_reduction("y", y.store)
        task.add_input("x", b.store)
        task.add_alignment_constraint(y.store, b.store)
        task.set_scalar_reduction("sum")
        task.set_pointwise("add_and_sum")
        total = task.execute()
        d = c + 1.0
        return [total.value, y.to_numpy(), d.to_numpy()]

    rt = _both(program)
    assert not any("add_and_sum" in names for names in _groups(rt))
    assert rt.profiler.hazard_flushes == 1

    region = rnp.zeros(8).store.region
    marker = Pointwise(("reduce",))

    def joins(partition, reduction=None):
        return fusion.summarize(
            "reduce", 2, [("y", region, partition, Privilege.REDUCE)],
            pointwise=marker, reduction=reduction,
        ).fusible

    tiles = Tiling.create(region, 2)
    assert joins(tiles) and not joins(tiles, reduction="sum")
    assert not joins(Replicate(region, 2))
    assert not joins(ExplicitPartition(region, [tiles.rect(0), tiles.rect(1)]))


def _fold_tiles(rt, uid):
    return [e.rect for e in rt.event_log.events if e.kind == "fold" and e.region == uid]


def test_a_reduce_member_folds_onto_its_stores_uneven_key_tiling():
    """The fold owner is the output store's key tiling, carried by the
    member's requirement through the fused launch."""
    made = []

    def program():
        A = _scattered()
        y = rnp.zeros(61)
        store = y.store
        store.set_key_partition(Tiling(store.region, _uneven(61, 3)))
        made.append(store.key_partition)
        _colsum_into(A, y)
        return [y.to_numpy()]

    rt = _both(program)
    assert ("fill", COLSUM) in _groups(rt)
    owner = made[0]
    assert _fold_tiles(rt, owner.region.uid) == [owner.rect(c) for c in range(3)]


def test_two_reduce_members_fold_onto_their_own_owners():
    made = []

    def program():
        A, B = _scattered(seed=2), _scattered(seed=3)
        y, w = rnp.zeros(61), rnp.zeros(61)
        w.store.set_key_partition(Tiling(w.store.region, _uneven(61, 3)))
        made.append((y.store.key_partition, w.store.key_partition))
        _colsum_into(A, y)
        _colsum_into(B, w)
        return [y.to_numpy(), w.to_numpy()]

    rt = _both(program)
    assert ("fill", "fill", COLSUM, COLSUM) in _groups(rt)
    even, uneven = made[0]
    assert even.boundaries != uneven.boundaries
    for owner in (even, uneven):
        tiles = [owner.rect(c) for c in range(3)]
        assert _fold_tiles(rt, owner.region.uid) == tiles


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
# The tests above can fail: mutants of the planner and of the flush
# ahead of a non-fusible launch
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


def _passing(monkeypatch, hazard):
    """Patch out the flush ahead of a non-fusible launch: one for which
    ``hazard(window, roots, task)`` is false runs at once, ahead of the
    members, which stay deferred."""
    real = Runtime.launch

    def launch(self, task):
        window, roots = self._window, self._window_roots
        if not window or fusion.fusible(task) or hazard(window, roots, task):
            return real(self, task)
        self._window, self._window_roots = [], {}
        try:
            return real(self, task)
        finally:
            self._window, self._window_roots = window, roots

    monkeypatch.setattr(Runtime, "launch", launch)


def _touched(window, writes=False):
    return {
        req.region.uid
        for member in window for req in member.requirements
        if req.privilege.writes or not writes
    }


def _takes_pending(roots, task):
    return any(
        root in roots for root in runtime_module.pending_roots(task.scalars)
    )


def test_mutant_passing_a_write_after_read_is_caught(monkeypatch):
    """A launch that writes what a deferred member still has to read
    must not run first."""
    def forgetful(window, roots, task):
        written = _touched(window, writes=True)
        return _takes_pending(roots, task) or any(
            req.region.uid in written for req in task.requirements
        )

    _passing(monkeypatch, forgetful)
    assert _failures() >= len(SEEDS) // 2


def test_mutant_passing_a_pending_scalar_is_caught(monkeypatch):
    """A launch that takes a scalar the window still owes and runs
    first finds the future unresolved: a named error."""
    def forgetful(window, roots, task):
        touched, written = _touched(window), _touched(window, writes=True)
        return any(
            req.region.uid in written
            or (req.privilege.writes and req.region.uid in touched)
            for req in task.requirements
        )

    _passing(monkeypatch, forgetful)
    assert _failures((AssertionError, RuntimeError)) >= len(SEEDS) // 2


def test_mutant_joining_a_region_under_two_tilings_is_caught(monkeypatch):
    """Per-region alignment is what keeps segments free of shared
    regions; a group that takes any boundaries runs them out of order."""
    def careless(self, summary, ids):
        if self.sealed or self.colors not in (None, summary.colors):
            return False
        for acc in summary.accesses:
            lid = ids[acc.region.uid]
            if acc.part_kind == "tile":
                continue  # any boundaries
            if acc.privilege.writes or lid in self.written:
                part = (acc.part_kind, acc.boundaries)
                if any(seen != part for seen in self.parts.get(lid, ())):
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
    group that produces its scalar -- and finds the future pending.
    Only over two or more colors: at one color that group is where rule
    5 lets the consumer run, so the mutant's plans are legal there."""
    monkeypatch.setattr(runtime_module, "pending_roots", lambda scalars: ())
    errors = (AssertionError, RuntimeError)
    for procs in (2, 3):
        with pytest.raises(errors):
            _consumer_runs_in_a_later_group(procs)
        assert _failures(errors, procs, window_only=True) >= len(SEEDS) // 2


def test_mutant_without_the_one_color_fence_is_caught(monkeypatch):
    """A consumer in its producer's segment: the nest that merges the
    two reads the scalar before the vdot's epilogue computes it."""
    from repro.analysis import depend

    def unfenced(summaries, indices):
        return fusion.segments(
            [
                dataclasses.replace(summary, after=())
                for summary in summaries
            ],
            indices,
        )

    monkeypatch.setattr(depend, "segments", unfenced)
    with pytest.raises((AssertionError, RuntimeError, TypeError)):
        _both(_consumer_program, procs=1)
    for log in active_logs():
        log.clear()


def test_mutant_waiving_rule_5_at_two_colors_is_caught(monkeypatch):
    """Rule 5's one-color case taken at any width: over two shards no
    shard holds the fold a consumer's scalar needs, so a consumer in
    its producer's group finds the future pending."""
    monkeypatch.setattr(
        fusion, "_earliest_group",
        lambda summary, group_of: max(
            (group_of[j] for j in summary.after), default=0
        ),
    )
    with pytest.raises((AssertionError, RuntimeError)):
        _consumer_runs_in_a_later_group(2)
    errors = (AssertionError, RuntimeError)
    assert _failures(errors, 2, window_only=True) >= len(SEEDS) // 2


def test_mutant_admitting_an_aliased_write_is_caught(monkeypatch):
    """A write through an image that aliases joins the window: the
    reader's shard 0 runs before the writer's shard 1."""
    monkeypatch.setattr(ImageByCoordinate, "is_disjoint", lambda self: True)
    with pytest.raises(AssertionError):
        test_a_write_through_an_aliased_image_runs_alone()
    for log in active_logs():
        log.clear()


def test_mutant_reordering_across_a_barrier_is_caught(monkeypatch):
    """Barrier segments run after the segments around them: the add
    reads the SpMV's output before the SpMV writes it."""
    from repro.analysis import depend

    def barriers_last(summaries, indices):
        parts = fusion.segments(summaries, indices)
        return sorted(parts, key=lambda part: summaries[part[0]].barrier)

    monkeypatch.setattr(depend, "segments", barriers_last)
    with pytest.raises(AssertionError):
        test_a_barrier_runs_before_the_segment_that_reads_it()
    for log in active_logs():
        log.clear()
