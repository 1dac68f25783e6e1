"""Futures: values paired with the simulated time they become ready.

Legion returns scalar results (dot products, norms, convergence tests) as
futures.  Passing a future into a downstream task delays that task's start
without blocking the issuing Python program; *consuming* the value on the
Python side (``float(...)``, a convergence branch) forces a synchronization
that advances the issue clock — exactly the control-flow-induced syncs
that put allreduce latency on the critical path of the CG solver (Fig. 9).

A reduction issued into the deferred window (:mod:`repro.legion.fusion`)
hands back a *pending* future: ``roots`` names the unresolved reductions
it derives from (itself), and the window's flush :meth:`~Future.resolve`\\ s
it.  :meth:`~Future.map` and :meth:`~Future.combine` over a pending input
stay lazy — they union the inputs' roots and run their function when the
last input resolves — so scalar arithmetic never flushes the window;
only :meth:`repro.legion.runtime.Runtime.wait` does.  A future with
``roots is None`` is resolved and its ``value``/``ready_time`` are plain
attributes; with ``RuntimeConfig.fusion`` off no other kind exists.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple


class Future:
    """A value with a simulated ready time, possibly still pending."""

    __slots__ = ("value", "ready_time", "roots", "owner", "_thunk", "_waiters")

    def __init__(self, value: Any, ready_time: float = 0.0):
        self.value = value
        self.ready_time = float(ready_time)
        # The pending reductions this value derives from; None once
        # resolved (always, for a future built from a value).
        self.roots: Optional[Tuple["Future", ...]] = None
        # Root only: the runtime whose window flush resolves it.
        self.owner: Any = None
        self._thunk: Optional[tuple] = None
        self._waiters: Optional[list] = None

    @classmethod
    def ready(cls, value: Any) -> "Future":
        """A future that is available at time zero."""
        return cls(value, 0.0)

    @classmethod
    def pending(cls, owner: Any) -> "Future":
        """The unresolved result of a reduction in ``owner``'s window."""
        future = cls(None, 0.0)
        future.roots = (future,)
        future.owner = owner
        return future

    def resolve(self, value: Any, ready_time: float) -> None:
        """Set the value; run every lazy combinator this one completes."""
        self.value = value
        self.ready_time = float(ready_time)
        self.roots = None
        self.owner = None
        waiters, self._waiters = self._waiters, None
        for waiter in waiters or ():
            waiter._input_resolved()

    def _input_resolved(self) -> None:
        thunk = self._thunk
        if thunk is None:  # one input listed twice: already computed
            return
        fn, inputs = thunk
        for f in inputs:
            if f.roots is not None:
                return
        self._thunk = None
        self.resolve(
            fn(*[f.value for f in inputs]), max(f.ready_time for f in inputs)
        )

    @staticmethod
    def _lazy(fn, inputs: Tuple["Future", ...]) -> "Future":
        future = Future(None, 0.0)
        roots: Tuple[Future, ...] = ()
        for f in inputs:
            if f.roots is not None:
                roots += tuple(r for r in f.roots if r not in roots)
                if f._waiters is None:
                    f._waiters = []
                f._waiters.append(future)
        future.roots = roots
        future._thunk = (fn, inputs)
        return future

    def map(self, fn) -> "Future":
        """Apply a (free) scalar function, preserving the ready time."""
        if self.roots is not None:
            return Future._lazy(fn, (self,))
        return Future(fn(self.value), self.ready_time)

    @staticmethod
    def combine(fn, *futures: "Future") -> "Future":
        """Combine futures with a scalar function; ready when all are."""
        for f in futures:
            if f.roots is not None:
                return Future._lazy(fn, futures)
        vals = [f.value for f in futures]
        t = max((f.ready_time for f in futures), default=0.0)
        return Future(fn(*vals), t)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.roots is not None:
            return f"Future(pending on {len(self.roots)} reduction(s))"
        return f"Future({self.value!r} @ {self.ready_time:.6g}s)"


def pending_roots(scalars) -> Tuple[Future, ...]:
    """The unresolved reductions a launch's scalar arguments derive from."""
    roots: Tuple[Future, ...] = ()
    for val in scalars.values():
        if type(val) is Future and val.roots is not None:
            roots += val.roots
    return roots
