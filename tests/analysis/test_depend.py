"""Unit tests for the kernel-fusion legality analyzer.

Each replay-only reason in ``repro.analysis.depend.REASONS`` is driven
by a hand-built window that actually produces it, and the merge-safe
path is checked for its def-use facts (WAR/WAW allowed, RAW only
through elided temporaries) and its nest-plan lowering.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.analysis import depend
from repro.distal.ir import IndexVar, Tensor
from repro.legion import Pointwise, Privilege, Requirement, fusion


def region(uid, name=""):
    return SimpleNamespace(uid=uid, name=name)


def acc(uid, kind="tile", priv=Privilege.READ, boundaries=(0, 4, 8), name=""):
    return fusion.Access(
        region(uid), kind, boundaries if kind == "tile" else None, priv, name
    )


def summ(
    name, *accesses, colors=2, fusible=True, pointwise=None, reduction=None
):
    return fusion.LaunchSummary(
        name, colors, fusible, tuple(accesses), pointwise, reduction
    )


def pw_part(name, *operands):
    """A scalar reduction's body IR: operand loads, then its partial."""
    return Pointwise(
        (name,), expr=tuple(("load", o) for o in operands) + (("part", name),)
    )


def pw_fill():
    return Pointwise(("fill",), expr=(("scalar", "value"),), out="out")


def pw_binary(op="multiply", a_load=True, b_load=False):
    expr = (
        ("load" if a_load else "scalar", "a"),
        ("load" if b_load else "scalar", "b"),
        ("bin", op),
    )
    return Pointwise((op,), expr=expr, out="out")


def classify(window, plans=None):
    ids = fusion.local_ids(window)
    plans = plans if plans is not None else fusion.plan_window(window)
    return [depend.classify(window, ids, p) for p in plans], plans


class TestMergeSafe:
    def test_fill_then_scale_merges(self):
        window = [
            summ("fill", acc(1, priv=Privilege.WRITE_DISCARD, name="out"),
                 pointwise=pw_fill()),
            summ("multiply",
                 acc(2, priv=Privilege.WRITE_DISCARD, name="out"),
                 acc(1, name="a"),
                 pointwise=pw_binary()),
        ]
        (verdict,), (plan,) = classify(window)
        assert plan.fused
        assert verdict.merge_safe
        assert verdict.reason is None
        assert depend.verdict_label(plan, verdict) == "merged"

    def test_raw_through_elided_temp_is_the_safe_case(self):
        # t = fill; y = t * s: t is produced and consumed in-group and
        # elided — the RAW edge flows through a nest value.
        window = [
            summ("fill", acc(5, priv=Privilege.WRITE_DISCARD, name="out"),
                 pointwise=pw_fill()),
            summ("multiply",
                 acc(6, priv=Privilege.WRITE_DISCARD, name="out"),
                 acc(5, name="a"),
                 pointwise=pw_binary()),
        ]
        (verdict,), (plan,) = classify(window)
        assert plan.elide  # the planner elided t
        assert verdict.merge_safe
        raw = [e for e in verdict.edges if e.kind == "raw"]
        assert raw and all(e.elided for e in raw)

    def test_war_and_waw_do_not_block(self):
        # y = x * s; then x is overwritten: WAR on x, issue order keeps
        # the nest bitwise-identical.
        window = [
            summ("multiply",
                 acc(2, priv=Privilege.WRITE_DISCARD, name="out"),
                 acc(1, name="a"),
                 pointwise=pw_binary()),
            summ("fill", acc(1, priv=Privilege.WRITE_DISCARD, name="out"),
                 pointwise=pw_fill()),
        ]
        (verdict,), _plans = classify(window)
        assert verdict.merge_safe
        kinds = {e.kind for e in verdict.edges}
        assert "war" in kinds
        assert "raw" not in kinds

    def test_single_launch_group_is_not_merged(self):
        window = [
            summ("fill", acc(1, priv=Privilege.WRITE_DISCARD, name="out"),
                 pointwise=pw_fill()),
        ]
        (verdict,), (plan,) = classify(window)
        assert not plan.fused
        assert not verdict.merge_safe
        assert verdict.reason is None  # nothing blocked; nothing to merge
        assert not verdict.blocked
        assert depend.verdict_label(plan, verdict) == "single"


class TestReplayOnlyReasons:
    def test_opaque_no_pointwise(self):
        window = [
            summ("a", acc(1, priv=Privilege.WRITE_DISCARD, name="out"),
                 pointwise=pw_fill()),
            summ("mystery", acc(2, priv=Privilege.WRITE_DISCARD, name="out"),
                 pointwise=None),
        ]
        (verdict,), (plan,) = classify(window)
        assert plan.fused
        assert verdict.reason == "opaque-kernel"
        assert depend.verdict_label(plan, verdict) == (
            "replay:opaque-kernel"
        )

    def test_opaque_no_body_ir(self):
        # clip/astype/where-style kernels mark ops but expose no expr.
        opaque = Pointwise(("clip",))
        window = [
            summ("fill", acc(1, priv=Privilege.WRITE_DISCARD, name="out"),
                 pointwise=pw_fill()),
            summ("clip", acc(2, priv=Privilege.WRITE_DISCARD, name="out"),
                 acc(1, name="a"), pointwise=opaque),
        ]
        (verdict,), _ = classify(window)
        assert verdict.reason == "opaque-kernel"
        assert "clip" in verdict.detail

    @pytest.mark.parametrize(
        "expr,out,problem",
        [
            (atuple, out, problem)
            for atuple, out, problem in [
                (((("load", "nope"),) ), "out", "unknown"),  # unknown load
                ((("load", "a"), ("bin", "multiply")), "out", "misplaced"),
                ((("load", "a"), ("un", "frobnicate")), "out", "unknown or misplaced"),
                ((("load", "a"), ("load", "a")), "out", "stack"),
                ((("load", "a"),), "a", "not a"),  # out is a read-only arg
            ]
        ],
    )
    def test_opaque_malformed_programs(self, expr, out, problem):
        bad = Pointwise(("multiply",), expr=tuple(expr), out=out)
        window = [
            summ("fill", acc(1, priv=Privilege.WRITE_DISCARD, name="out"),
                 pointwise=pw_fill()),
            summ("multiply", acc(2, priv=Privilege.WRITE_DISCARD, name="out"),
                 acc(1, name="a"), pointwise=bad),
        ]
        (verdict,), _ = classify(window)
        assert verdict.reason == "opaque-kernel"
        assert problem in verdict.detail

    def test_reduction_statement_replays(self):
        i, j = IndexVar("i"), IndexVar("j")
        y, A, x = Tensor("y", 1), Tensor("A", 2), Tensor("x", 1)
        stmt = y[i] << A[i, j] * x[j]
        assert depend.classify_statement(stmt) == "reduction-reorder"
        carrying = Pointwise(
            ("spmv",), expr=(("load", "a"), ("un", "copy")), out="out",
            statement=stmt,
        )
        window = [
            summ("fill", acc(1, priv=Privilege.WRITE_DISCARD, name="out"),
                 pointwise=pw_fill()),
            summ("spmv", acc(2, priv=Privilege.WRITE_DISCARD, name="out"),
                 acc(1, name="a"), pointwise=carrying),
        ]
        (verdict,), _ = classify(window)
        assert verdict.reason == "reduction-reorder"
        assert "y(i)=A(i,j)*x(j)" in verdict.detail

    def test_elementwise_statement_imposes_nothing(self):
        i = IndexVar("i")
        y, a, b = Tensor("y", 1), Tensor("a", 1), Tensor("b", 1)
        assert depend.classify_statement(y[i] << a[i] * b[i]) is None
        assert depend.classify_statement(None) is None

    def test_replicated_operand_replays(self):
        # Rep reads of never-written regions fuse at the task level but
        # cannot become a tile-shaped nest variable.
        window = [
            summ("multiply",
                 acc(1, priv=Privilege.WRITE_DISCARD, name="out"),
                 acc(9, kind="rep", name="a"),
                 pointwise=pw_binary()),
            summ("multiply",
                 acc(2, priv=Privilege.WRITE_DISCARD, name="out"),
                 acc(9, kind="rep", name="a"),
                 pointwise=pw_binary()),
        ]
        (verdict,), (plan,) = classify(window)
        assert plan.fused
        assert verdict.reason == "replicated-operand"

    def test_iteration_space_mismatch_on_hand_built_group(self):
        # The window planner never groups these; classify() is exposed
        # directly, so a hand-built plan must still be rejected.
        window = [
            summ("a", acc(1, priv=Privilege.WRITE_DISCARD, name="out"),
                 pointwise=pw_fill()),
            summ("b", acc(2, priv=Privilege.WRITE_DISCARD, name="out"),
                 pointwise=pw_fill(), colors=4),
        ]
        ids = fusion.local_ids(window)
        plan = fusion.GroupPlan(indices=(0, 1), elide=frozenset())
        verdict = depend.classify(window, ids, plan)
        assert verdict.reason == "iteration-space-mismatch"
        assert "2 color counts" in verdict.detail

    def test_one_launch_per_boundary_set_has_nothing_to_merge(self):
        window = [
            summ("a", acc(1, priv=Privilege.WRITE_DISCARD, name="out"),
                 pointwise=pw_fill()),
            summ("b",
                 acc(2, priv=Privilege.WRITE_DISCARD, boundaries=(0, 3, 8),
                     name="out"),
                 pointwise=pw_fill()),
        ]
        (verdict,), (plan,) = classify(window)
        assert plan.indices == (0, 1)  # aligned per region: one group
        assert verdict.reason == "one-launch-segments"
        assert [part for part, _ in verdict.segments] == [(0,), (1,)]
        assert not any(v.blocked or v.merge_safe for _, v in verdict.segments)

    def test_raw_through_unelided_region_replays(self):
        # x += t; y = x * 2: x pre-exists the group (first access is a
        # read-modify-write), so the RAW into the second statement runs
        # through a region that stays mapped.
        window = [
            summ("add",
                 acc(2, priv=Privilege.WRITE, name="out"),
                 acc(2, name="a"),
                 acc(1, name="b"),
                 pointwise=Pointwise(
                     ("add",),
                     expr=(("load", "a"), ("load", "b"), ("bin", "add")),
                     out="out",
                 )),
            summ("multiply",
                 acc(3, priv=Privilege.WRITE_DISCARD, name="out"),
                 acc(2, name="a"),
                 pointwise=pw_binary()),
        ]
        (verdict,), (plan,) = classify(window)
        assert plan.fused
        assert verdict.reason == "raw-through-unelided-region"
        assert "RAW" in verdict.detail

    def test_every_reason_is_documented(self):
        produced = {
            "opaque-kernel", "reduction-reorder",
            "replicated-operand", "iteration-space-mismatch",
            "one-launch-segments", "raw-through-unelided-region",
            "write-after-reduction",
        }
        assert produced == set(depend.REASONS)


class TestSegments:
    """Rule 4: a group aligned per region is classified segment by
    segment.  Regions 1-4 tile as (0, 4, 8), regions 11-13 as OTHER."""

    OTHER = (0, 3, 8)

    def _chain(self, first, boundaries=(0, 4, 8), opaque=False):
        # t = fill; out = t * s: the temporary is elided inside its
        # segment.
        return [
            summ("fill",
                 acc(first, priv=Privilege.WRITE_DISCARD,
                     boundaries=boundaries, name="out"),
                 pointwise=pw_fill()),
            summ("multiply",
                 acc(first + 1, priv=Privilege.WRITE_DISCARD,
                     boundaries=boundaries, name="out"),
                 acc(first, boundaries=boundaries, name="a"),
                 pointwise=Pointwise(("multiply",)) if opaque
                 else pw_binary()),
        ]

    def _interleaved(self, **second):
        a, b = self._chain(1), self._chain(11, self.OTHER, **second)
        return [a[0], b[0], a[1], b[1]]

    def test_each_segment_merges_on_its_own(self):
        window = self._interleaved()
        (verdict,), (plan,) = classify(window)
        ids = fusion.local_ids(window)
        assert plan.indices == (0, 1, 2, 3)
        assert plan.elide == frozenset({ids[1], ids[11]})
        assert verdict.merge_safe and verdict.reason is None
        assert [part for part, _ in verdict.segments] == [(0, 2), (1, 3)]
        for _, part_verdict in verdict.segments:
            assert part_verdict.merge_safe
            assert "2 statements" in part_verdict.detail
            assert "1 temporary" in part_verdict.detail
            (edge,) = part_verdict.edges
            assert (edge.kind, edge.elided) == ("raw", True)
        assert len(verdict.edges) == 2
        assert depend.verdict_label(plan, verdict) == "merged"

    def test_a_blocked_segment_names_the_group_and_spares_the_other(self):
        window = self._interleaved(opaque=True)
        (verdict,), (plan,) = classify(window)
        assert plan.indices == (0, 1, 2, 3)
        assert verdict.reason == "opaque-kernel" and not verdict.merge_safe
        (_, first), (_, second) = verdict.segments
        assert first.merge_safe and second.reason == "opaque-kernel"
        assert depend.verdict_label(plan, verdict) == (
            "replay:opaque-kernel"
        )

    def test_a_lone_launch_beside_a_chain_does_not_block_it(self):
        window = self._chain(1) + [
            summ("norm2", acc(11, boundaries=self.OTHER, name="a"),
                 pointwise=pw_part("norm2", "a"), reduction="sum"),
        ]
        (verdict,), (plan,) = classify(window)
        assert plan.indices == (0, 1, 2)
        assert verdict.merge_safe
        assert [part for part, _ in verdict.segments] == [(0, 1), (2,)]


class TestReductionEpilogue:
    """Rule 6: a group's scalar reductions run after the nest."""

    def _update(self, uid, src):
        return summ(
            "subtract",
            acc(uid, priv=Privilege.WRITE, name="out"),
            acc(uid, name="a"), acc(src, name="b"),
            pointwise=pw_binary("subtract", b_load=True),
        )

    def test_reductions_merge_as_the_epilogue(self):
        # r -= q; vdot(r, z); norm(r): RAW on r into the reductions is
        # no rule-5 edge -- they read the region the nest stored.
        window = [
            self._update(2, 5),
            summ("vdot", acc(2, name="a"), acc(4, name="b"),
                 pointwise=pw_part("vdot", "a", "b"), reduction="sum"),
            summ("norm2", acc(2, name="a"),
                 pointwise=pw_part("norm2", "a"), reduction="sum"),
        ]
        (verdict,), (plan,) = classify(window)
        assert plan.indices == (0, 1, 2)
        assert verdict.merge_safe and verdict.reason is None
        assert "3 statements" in verdict.detail
        assert depend.verdict_label(plan, verdict) == "merged"

    def test_reductions_alone_merge_too(self):
        window = [
            summ("vdot", acc(2, name="a"), acc(4, name="b"),
                 pointwise=pw_part("vdot", "a", "b"), reduction="sum"),
            summ("amax", acc(4, name="a"),
                 pointwise=pw_part("amax", "a"), reduction="max"),
        ]
        (verdict,), (plan,) = classify(window)
        assert plan.fused and verdict.merge_safe

    def test_a_write_after_the_reduction_blocks_the_epilogue(self):
        # sum(r) is issued BEFORE r is rewritten in the same group: run
        # after the nest it would see the new r.
        window = [
            summ("sum", acc(2, name="a"),
                 pointwise=pw_part("sum", "a"), reduction="sum"),
            self._update(2, 5),
        ]
        (verdict,), (plan,) = classify(window)
        assert plan.indices == (0, 1)
        assert verdict.reason == "write-after-reduction"
        assert "'subtract'" in verdict.detail and "'sum'" in verdict.detail
        assert depend.verdict_label(plan, verdict) == (
            "replay:write-after-reduction"
        )

    def test_an_opaque_reduction_keeps_the_group_on_replay(self):
        window = [
            self._update(2, 5),
            summ("argmin", acc(2, name="a"),
                 pointwise=Pointwise(("argmin",)), reduction="min"),
        ]
        (verdict,), (plan,) = classify(window)
        assert plan.fused
        assert verdict.reason == "opaque-kernel"

    @pytest.mark.parametrize("expr, problem", [
        ((("load", "a"),), "does not end in a partial"),
        ((("load", "a"), ("part", "median")), "unknown partial"),
        ((("scalar", "s"), ("part", "sum")), "operand views only"),
        ((("load", "nope"), ("part", "sum")), "unknown argument"),
    ])
    def test_malformed_reduction_ir_is_opaque(self, expr, problem):
        summary = summ(
            "sum", acc(2, name="a"),
            pointwise=Pointwise(("sum",), expr=expr), reduction="sum",
        )
        program, out, why = depend.kernel_ir(summary)
        assert program is None and out is None and problem in why

    def test_well_formed_reduction_ir(self):
        summary = summ(
            "vdot", acc(2, name="a"), acc(4, name="b"),
            pointwise=pw_part("vdot", "a", "b"), reduction="sum",
        )
        program, out, why = depend.kernel_ir(summary)
        assert why == "" and out is None
        assert program[-1] == ("part", "vdot")


class TestNestPlan:
    def _task(self, name, pointwise, *reqs, reduction=None):
        return SimpleNamespace(
            name=name, pointwise=pointwise, requirements=list(reqs),
            reduction=reduction,
        )

    def _req(self, name, uid, priv, dtype=np.float64):
        reg = SimpleNamespace(
            uid=uid, name="", data=np.zeros(4, dtype=dtype)
        )
        return Requirement(name, reg, None, priv)

    def test_lowering_resolves_vars_and_dedups_traffic(self):
        fill = self._task(
            "fill", pw_fill(), self._req("out", 5, Privilege.WRITE_DISCARD)
        )
        mul = self._task(
            "multiply", pw_binary(),
            self._req("out", 6, Privilege.WRITE_DISCARD),
            self._req("a", 5, Privilege.READ),
        )
        add = self._task(
            "add", pw_binary("add", b_load=True),
            self._req("out", 7, Privilege.WRITE_DISCARD),
            self._req("a", 6, Privilege.READ),
            self._req("b", 5, Privilege.READ),
        )
        from repro.distal import codegen

        plan = depend.build_nest_plan([fill, mul, add])
        s0, s1, s2 = plan.steps
        # In-group RAW loads resolve to producing steps, not views.
        assert ("var", 0) in s1.program
        assert ("var", 1) in s2.program and ("var", 0) in s2.program
        # No external region is read at all here.  Every step stores,
        # and each write -- region 5's too, though two later steps read
        # it back as a nest value -- is charged once.
        assert plan.reads == ()
        assert plan.charged_writes == ("0.out", "1.out", "2.out")
        source = codegen.generate_nest(plan).source
        for k in range(3):
            assert source.count(f"ctx.view('{k}.out')[...] = v{k}") == 1
            assert source.count(f"ctx.rects['{k}.out'].volume() * ") == 1
        # Flop weights match the sub cost models: fill 0, ufuncs 1.
        assert [s.weight for s in plan.steps] == [0.0, 1.0, 1.0]
        # Mangled names match fuse()'s "<i>.<name>" scheme.
        assert (s0.out, s1.out, s2.out) == ("0.out", "1.out", "2.out")

    def test_a_segment_lowers_under_its_positions_in_the_group(self):
        # Members 1 and 3 of a four-launch group: names are mangled by
        # where the launch sits in the fused group.
        fill = self._task(
            "fill", pw_fill(), self._req("out", 5, Privilege.WRITE_DISCARD)
        )
        mul = self._task(
            "multiply", pw_binary(),
            self._req("out", 6, Privilege.WRITE_DISCARD),
            self._req("a", 5, Privilege.READ),
        )
        plan = depend.build_nest_plan([fill, mul], positions=(1, 3))
        s0, s1 = plan.steps
        assert (s0.index, s1.index) == (1, 3)
        assert (s0.out, s1.out) == ("1.out", "3.out")
        assert ("var", 1) in s1.program and ("scalar", "3.b") in s1.program
        assert plan.charged_writes == ("1.out", "3.out")

    def test_external_reads_dedup_by_region(self):
        t1 = self._task(
            "multiply", pw_binary(),
            self._req("out", 2, Privilege.WRITE_DISCARD),
            self._req("a", 1, Privilege.READ),
        )
        t2 = self._task(
            "multiply", pw_binary(),
            self._req("out", 3, Privilege.WRITE_DISCARD),
            self._req("a", 1, Privilege.READ),
        )
        plan = depend.build_nest_plan([t1, t2])
        assert plan.reads == ("0.a",)  # region 1 charged once
        assert plan.charged_writes == ("0.out", "1.out")

    def test_opaque_sub_launch_is_rejected(self):
        bad = self._task(
            "mystery", None, self._req("out", 1, Privilege.WRITE_DISCARD)
        )
        with pytest.raises(ValueError, match="no body IR"):
            depend.build_nest_plan([bad])

    def test_reductions_lower_to_tails_and_keep_what_they_read(self):
        from repro.distal import codegen
        from repro.legion.task import ShardContext
        from repro.geometry import Rect
        from repro.numeric import optable

        sub = self._task(
            "subtract", pw_binary("subtract", b_load=True),
            self._req("out", 6, Privilege.WRITE_DISCARD),
            self._req("a", 1, Privilege.READ),
            self._req("b", 2, Privilege.READ),
        )
        norm = self._task(
            "norm2", pw_part("norm2", "a"),
            self._req("a", 6, Privilege.READ), reduction="sum",
        )
        vdot = self._task(
            "vdot", pw_part("vdot", "a", "b"),
            self._req("a", 6, Privilege.READ),
            self._req("b", 1, Privilege.READ), reduction="sum",
        )
        plan = depend.build_nest_plan([sub, norm, vdot])
        assert [step.name for step in plan.steps] == ["subtract"]
        assert [(t.index, t.part, t.operands) for t in plan.tails] == [
            (1, "norm2", ("1.a",)), (2, "vdot", ("2.a", "2.b")),
        ]
        nest = codegen.generate_nest(plan)
        assert "_PARTS['norm2'](ctx.view('1.a'))" in nest.source
        assert nest.source.index("ctx.view('0.out')[...]") < nest.source.index(
            "_PARTS"
        )
        # Run it: the partials are the standalone kernels' bits.
        rng = np.random.default_rng(0)
        a, b, out = rng.normal(size=8), rng.normal(size=8), np.zeros(8)
        rect = Rect((2,), (7,))
        names = {"0.out": out, "0.a": a, "0.b": b, "1.a": out, "2.a": out, "2.b": a}
        ctx = ShardContext(
            0, 1, names, {name: rect for name in names}, {}, None
        )
        partials = nest.kernel(ctx)
        diff = (a - b)[2:7]
        assert np.array_equal(out[2:7], diff)
        assert partials == [
            optable.PARTIALS["norm2"](diff),
            optable.PARTIALS["vdot"](diff, a[2:7]),
        ]
        flops, nbytes = nest.cost(ctx)
        # subtract: 1 flop/elt, reads a and b, writes out; the tails
        # read their three operands and charge one flop per element.
        assert (flops, nbytes) == (5 + 15, (3 + 3) * 5 * 8)
