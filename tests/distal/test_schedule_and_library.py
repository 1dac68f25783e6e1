"""Tests for the DISTAL scheduling language and statement library."""

import pytest

from repro.distal.ir import IndexVar
from repro.distal.library import (
    STATEMENTS,
    i,
    io,
    ii,
    row_distributed_schedule,
    y,
    A,
)
from repro.distal.schedule import Schedule
from repro.machine import ProcessorKind


class TestSchedule:
    def test_fig6_chain(self):
        """The paper's Fig. 6 schedule builds without error."""
        sched = row_distributed_schedule(ProcessorKind.CPU_SOCKET)
        assert sched.divided == (i, io, ii)
        assert sched.distributed == io
        assert sched.parallel_kind == ProcessorKind.CPU_SOCKET
        assert A in sched.communicated

    def test_distribute_requires_divided_outer(self):
        j = IndexVar("j")
        with pytest.raises(ValueError):
            Schedule().divide(i, io, ii).distribute(j)

    def test_communicate_requires_distributed(self):
        sched = Schedule().divide(i, io, ii)
        with pytest.raises(ValueError):
            sched.communicate(ii, [y])

    def test_parallelize_requires_inner(self):
        sched = Schedule().divide(i, io, ii).distribute(io)
        with pytest.raises(ValueError):
            sched.parallelize(io, ProcessorKind.GPU)

    def test_distributed_var_name(self):
        sched = row_distributed_schedule(ProcessorKind.GPU)
        assert sched.distributed_var_name == "i"


class TestStatementLibrary:
    def test_contains_all_kernels(self):
        expected = {
            "y(i)=A(i,j)*x(j)",
            "y(j)=A(i,j)*x(i)",
            "Y(i,k)=A(i,j)*X(j,k)",
            "Y(j,k)=A(i,j)*X(i,k)",
            "R(i,j)=B(i,j)*C(i,k)*D(j,k)",
            "R(i,j)=C(i,k)*D(j,k)",
            "y(i)=A(i,j)",
            "y(j)=A(i,j)",
            "y(i)=A(i,i)",
        }
        assert expected == set(STATEMENTS)

    def test_statement_keys_roundtrip(self):
        for key, stmt in STATEMENTS.items():
            assert stmt.key() == key

    def test_reduction_variables(self):
        spmv = STATEMENTS["y(i)=A(i,j)*x(j)"]
        assert [v.name for v in spmv.reduction_vars] == ["j"]
        diag = STATEMENTS["y(i)=A(i,i)"]
        assert diag.reduction_vars == []

    def test_index_vars_ordered(self):
        sddmm = STATEMENTS["R(i,j)=B(i,j)*C(i,k)*D(j,k)"]
        assert [v.name for v in sddmm.index_vars] == ["i", "j", "k"]
