"""In-memory spans recorded around calls into the library's layers.

A traced pass wraps each layer function once and rebinds every name the
library's modules bind to it (``counting.components_after_clique``,
``oracle.components_after_clique`` and so on), so each call into a layer
opens a span with a name, start, end and parent id.  The
benchmark's own calls into the public entry points open the root spans.
Nothing is patched outside :meth:`Tracer.patched`, so an untraced pass runs
the library unmodified.
"""

from __future__ import annotations

import importlib
import sys
import time
from contextlib import contextmanager
from typing import Callable, Iterator

# (defining module, function, span name); the span name's first part is the layer
TARGETS = (
    ("graphs", "undirected_components", "graphs.undirected_components"),
    ("graphs", "orient_by_ordering", "graphs.orient_by_ordering"),
    ("chordal", "clique_tree", "chordal.clique_tree"),
    ("chordal", "is_chordal", "chordal.is_chordal"),
    ("_partition", "refine_traversal", "partition.refine_traversal"),
    ("subproblems", "components_after_clique", "subproblems.components_after_clique"),
    ("sampling", "sample_amo", "sampling.sample_amo"),
    ("sampling", "draw_perm", "sampling.draw_perm"),
    ("sampling", "draw_clique", "sampling.draw_clique"),
)


def _adj_entries(adj, *args, **kwargs) -> int:
    return len(adj) + sum(map(len, adj))


# per-span quantities, computed from the call's arguments or its result
ARG_NOTES = {"partition.refine_traversal": _adj_entries}
RESULT_NOTES = {"subproblems.components_after_clique": len}


class Tracer:
    """Spans as ``[name, start, end, parent, note]`` lists, in start order."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.missing: set[str] = set()
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[list]:
        rec = [name, 0.0, 0.0, self._open[-1] if self._open else -1, None]
        self.spans.append(rec)
        self._open.append(len(self.spans) - 1)
        rec[1] = time.perf_counter()
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter()
            self._open.pop()

    def wrap(self, fn: Callable, name: str) -> Callable:
        arg_note = ARG_NOTES.get(name)
        result_note = RESULT_NOTES.get(name)

        def traced(*args, **kwargs):
            note = arg_note(*args, **kwargs) if arg_note else None
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
            rec[4] = result_note(result) if result_note else note
            return result

        return traced

    @contextmanager
    def patched(self) -> Iterator[None]:
        """Wrap every target once and rebind each library name bound to it.

        Every ``mectools`` module loaded is searched, so a caller that
        imports a target under any name is traced.  A target whose module
        or function no longer exists is added to ``missing`` by span name.
        """
        saved = []
        try:
            for mod_name, attr, span_name in TARGETS:
                try:
                    fn = getattr(importlib.import_module(f"mectools.{mod_name}"), attr)
                except (ImportError, AttributeError):
                    self.missing.add(span_name)
                    continue
                traced = self.wrap(fn, span_name)
                for name, mod in list(sys.modules.items()):
                    if name != "mectools" and not name.startswith("mectools."):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            saved.append((mod, key, fn))
                            setattr(mod, key, traced)
            yield
        finally:
            for mod, key, fn in reversed(saved):
                setattr(mod, key, fn)

    def summary(self, within: str | None = None) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds, self seconds, summed notes.

        Self time is a span's duration minus the durations of its direct
        children; children never outlive their parent here, because every
        span closes before its caller returns.  ``within`` keeps only spans
        under a root span of that name.
        """
        child_time = [0.0] * len(self.spans)
        root = list(range(len(self.spans)))
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            if parent >= 0:
                child_time[parent] += end - start
                root[i] = root[parent]
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, _, note) in enumerate(self.spans):
            if within is not None and self.spans[root[i]][0] != within:
                continue
            agg = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "note": 0})
            agg["calls"] += 1
            agg["s"] += end - start
            agg["self_s"] += end - start - child_time[i]
            if note is not None:
                agg["note"] += note
        return out

    def write(self, path) -> None:
        """Dump every span as ``id,parent,name,start,end`` lines."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,start,end\n")
            for i, (name, start, end, parent, _) in enumerate(self.spans):
                fh.write(f"{i},{parent},{name},{start:.9f},{end:.9f}\n")
