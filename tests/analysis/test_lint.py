"""DISTAL lint: statement, schedule and generated-source legality."""

import pytest

from repro.analysis.lint import (
    DistalLintError,
    lint_kernel_spec,
    lint_schedule,
    lint_statement,
)
from repro.distal import codegen
from repro.distal.codegen import KernelSpec
from repro.distal.formats import BSR, COO, CSR, DIA
from repro.distal.ir import IndexVar, Tensor
from repro.distal.library import STATEMENTS, row_distributed_schedule
from repro.distal.schedule import Schedule
from repro.machine import ProcessorKind

i, j, k = IndexVar("i"), IndexVar("j"), IndexVar("k")
io, ii = IndexVar("io"), IndexVar("ii")
y = Tensor("y", 1)
x = Tensor("x", 1)
A = Tensor("A", 2)
SPMV = y[i] << A[i, j] * x[j]


def _codes(issues):
    return [issue.code for issue in issues]


class TestStatementLint:
    def test_spmv_is_clean(self):
        assert lint_statement(SPMV) == []

    def test_unbound_output_index(self):
        stmt = y[i] << A[j, k] * x[k]
        assert "unbound-output-index" in _codes(lint_statement(stmt))

    def test_validate_method_raises(self):
        stmt = y[i] << A[j, k] * x[k]
        with pytest.raises(DistalLintError, match="unbound-output-index"):
            stmt.validate()
        SPMV.validate()  # clean statement passes


class TestScheduleLint:
    def test_row_distributed_is_legal(self):
        sched = row_distributed_schedule(ProcessorKind.GPU, SPMV)
        assert lint_schedule(SPMV, sched) == []
        sched.check(SPMV)

    def test_divide_unknown_var(self):
        """Seeded violation: an ill-scheduled DISTAL expression."""
        sched = Schedule().divide(IndexVar("z"), io, ii).distribute(io)
        with pytest.raises(DistalLintError, match="divide-unknown-var"):
            sched.check(SPMV)

    def test_divide_shadowing_statement_var(self):
        sched = Schedule().divide(i, j, ii)  # outer j already in SPMV
        assert "divide-shadows-var" in _codes(lint_schedule(SPMV, sched))

    def test_distribute_requires_divide(self):
        sched = Schedule()
        sched.distributed = io  # bypass the builder guard
        assert "distribute-before-divide" in _codes(lint_schedule(SPMV, sched))

    def test_communicate_unknown_tensor(self):
        B = Tensor("B", 2)
        sched = row_distributed_schedule(ProcessorKind.GPU, SPMV)
        sched.communicated = [B]
        assert "communicate-unknown-tensor" in _codes(lint_schedule(SPMV, sched))


def _spec(source, args, constraints, scalar_names=()):
    return KernelSpec(
        name="test-kernel",
        kernel=None,
        cost=None,
        source=source,
        args=args,
        constraints=constraints,
        scalar_names=list(scalar_names),
    )


class TestKernelSpecLint:
    def test_undeclared_region_reference(self):
        """Seeded violation: generated source touching ctx.arrays['oops']."""
        spec = _spec(
            'def kernel(ctx):\n    return ctx.arrays["oops"].sum()\n',
            [("y", "out")],
            [("explicit", "y")],
        )
        issues = lint_kernel_spec(spec)
        assert "undeclared-region" in _codes(issues)
        assert "oops" in str(issues[0])

    def test_undeclared_view_call(self):
        spec = _spec(
            'def kernel(ctx):\n    ctx.view("ghost")[...] = 0\n',
            [("y", "out")],
            [("explicit", "y")],
        )
        assert "undeclared-region" in _codes(lint_kernel_spec(spec))

    def test_undeclared_scalar(self):
        spec = _spec(
            'def kernel(ctx):\n    return ctx.scalar("alpha")\n',
            [("y", "out")],
            [("explicit", "y")],
        )
        assert "undeclared-scalar" in _codes(lint_kernel_spec(spec))
        ok = _spec(
            'def kernel(ctx):\n    return ctx.scalar("alpha")\n',
            [("y", "out")],
            [("explicit", "y")],
            scalar_names=["alpha"],
        )
        assert lint_kernel_spec(ok) == []

    def test_unconstrained_argument(self):
        spec = _spec(
            'def kernel(ctx):\n    ctx.view("y")[...] = 0\n',
            [("y", "out"), ("x", "in")],
            [("explicit", "y")],  # nothing places x
        )
        issues = lint_kernel_spec(spec)
        assert _codes(issues) == ["unconstrained-arg"]
        assert "'x'" in str(issues[0])


class TestRegistryKernelsClean:
    FORMATS = {
        "csr": CSR, "dia": DIA, "coo": COO, "bsr": BSR,
    }

    @pytest.mark.parametrize("key,fmt_name", codegen.supported_statements())
    def test_template_passes_lint(self, key, fmt_name):
        """Every shipped template survives check=True generation."""
        statement = STATEMENTS[key]
        schedule = row_distributed_schedule(ProcessorKind.GPU, statement)
        spec = codegen.generate(
            statement, self.FORMATS[fmt_name], schedule,
            ProcessorKind.GPU, check=True,
        )
        assert spec.kernel is not None and spec.cost is not None
