"""Per-layer spans recorded around the benchmark's own calls.

Every call the benchmark makes into a module of the package goes
through ``Tracer.call`` with the span name ``<module>.<operation>``.
With tracing off the wrapper only forwards the call. With tracing on it
keeps, per span, the number of calls, the busy time and the number of
calls that raised. The spans do not nest, so busy time is self time.

A run lasts a fixed time, so its totals grow with throughput; the
report divides each by the number of items processed. Busy time is
scaled to the quiet machine window by window, like the end-to-end
timings (see ``speed.py``).
"""

from __future__ import annotations

import time
from collections import defaultdict

SPANS = (
    "modelfile.parse",
    "models.build",
    "models.tb_bulk",
    "symplectic.canonical_split",
    "symplectic.unitary_to_plane",
    "symplectic.plane_to_unitary",
    "symplectic.crossing_dim",
    "linalg.subspace_intersection_dim",
    "symmetry.membership",
    "index.topological_index",
    "junction.predict",
    "junction.continuous",
    "verify.assemble",
    "verify.count",
    "verify.compare",
    "cli.classify",
    "cli.junction",
    "cli.sweep",
    "cli.table",
    "cli.verify",
)


class Tracer:
    """Aggregated span counters for one benchmark run."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.window = defaultdict(float)
        self.errors = defaultdict(int)

    def call(self, span, fn, *args, expected=(), **kwargs):
        """``fn(*args, **kwargs)`` inside span ``span``.

        An exception of a type in ``expected`` is one the caller handles
        as an answer; it is re-raised but not counted as an error.
        """
        if not self.enabled:
            return fn(*args, **kwargs)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except expected:
            raise
        except Exception:
            self.errors[span] += 1
            raise
        finally:
            self.window[span] += time.perf_counter() - start
            self.calls[span] += 1

    def close_window(self, speed: float):
        """Add the busy time of the window just ended, scaled by its speed."""
        for span, busy in self.window.items():
            self.busy[span] += busy * speed
        self.window.clear()

    def metrics(self, items: int) -> dict:
        out = {}
        for span in SPANS:
            out[f"{span}.calls_per_item"] = (self.calls[span] / items, "1/item")
            out[f"{span}.busy_ms_per_item"] = (1e3 * self.busy[span] / items, "ms/item")
            out[f"{span}.errors_per_item"] = (self.errors[span] / items, "1/item")
        return out
