"""Per-request SpMV launches for the serving loop.

Every request runs as one ordinary SpMV, ``A @ x``, against the matrix
version it was admitted under.  Amortizing launch overhead across
requests is the runtime's job, not this module's: the service issues a
whole round before it reads any result back, so the round's launches
share the deferred window and fuse (:mod:`repro.serve.service`).  Each
response is therefore the bytes a lone ``A @ x`` produces.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.serve.scheduler import Request


class SpMVBatcher:
    """Issues one SpMV per request and reads results back."""

    def plan(self, window: Sequence[Request]) -> List[Request]:
        """One entry per request, in window order.

        Kept because ``bench/trace.py`` wraps ``plan`` and ``execute``
        by name (a missing one raises ``LookupError``); ROADMAP item
        2(f) moves that wrap point, and then both can go.
        """
        return list(window)

    def issue(self, req: Request, matrix):
        """Issue one request's SpMV; returns its pending result array.

        Nothing waits: the launch joins the current runtime's deferred
        window, so every request of a round shares it until
        :meth:`collect` reads one back.
        """
        import repro.numeric as rnp

        return matrix @ rnp.asarray(req.x)

    def collect(self, pending) -> np.ndarray:
        """Read one issued request back as a host vector."""
        return pending.to_numpy()

    def execute(self, req: Request, matrix) -> np.ndarray:
        """Run one request as a round trip: issue it and read it back.

        The service issues a whole round before collecting; this is the
        one-request form, kept for ``bench/trace.py`` (see :meth:`plan`).
        """
        return self.collect(self.issue(req, matrix))
