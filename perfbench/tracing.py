"""In-memory span tracing of the package's layers, installed from outside.

:func:`install` replaces public functions of the ``linalg``, ``separator``,
``stft`` and ``cli`` modules with wrappers that record one span per call:
``(name, start, end, parent span index, frame id)``.  Callers inside the
package look these functions up as module attributes at call time (for
example ``separator.project_back`` calls ``linalg.inverse``), so nested calls
are recorded with their parent.  Nothing in the package is edited.

Spans stay in memory until :meth:`Tracer.write` dumps them as JSON lines.
"""

from __future__ import annotations

import functools
import json
import time

#: (module name, attribute) pairs wrapped by :func:`install`; a dotted
#: attribute names a method on a class.  ``batch`` is not wrapped: nothing on
#: the streaming path calls it.
TRACED = (
    ("cli", "read_wav"),
    ("cli", "moving_output_channel"),
    ("stft", "analyze"),
    ("stft", "synthesize"),
    ("separator", "OnlineAuxIva.process_frame"),
    ("separator", "project_back"),
    ("linalg", "masked_solve_unit"),
    ("linalg", "inverse"),
    ("linalg", "lu_factor"),
    ("linalg", "lu_solve"),
)


class Tracer:
    """Span recorder; ``frame`` is the frame id stamped on new spans (-1
    outside the frame loop)."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[int] = []
        self.frame = -1

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.frame)

        return traced

    def durations(self) -> dict[str, list]:
        """Per span name: ``[total s, self s, calls]``, where self time is
        the duration minus that of the direct children."""
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out: dict[str, list] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            agg = out.setdefault(name, [0.0, 0.0, 0])
            agg[0] += end - start
            agg[1] += end - start - child_s[i]
            agg[2] += 1
        return out

    def total_s(self, name: str, frame=None) -> float:
        """Summed duration of spans called ``name`` (optionally only those
        stamped with frame id ``frame``)."""
        return sum(
            end - start
            for n, start, end, _, f in self.spans
            if n == name and (frame is None or f == frame)
        )

    def write(self, path) -> None:
        keys = ("name", "start", "end", "parent", "frame")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def install(modules: dict) -> Tracer:
    """Wrap every :data:`TRACED` attribute of ``modules`` (name -> module)."""
    tracer = Tracer()
    for mod_name, attr in TRACED:
        owner = modules[mod_name]
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        setattr(owner, leaf, tracer.wrap(f"{mod_name}.{attr}", getattr(owner, leaf)))
    return tracer
