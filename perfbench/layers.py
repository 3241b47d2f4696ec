"""Layer map and the profiler hook of the benchmark's traced run.

A *layer* is a top-level package under ``repro``: ``sim``, ``node``,
``cc``, ``devices``, ``db``, ``workload``, ``routing``, ``obs`` and
``system``.  Modules of ``repro`` outside those packages (the package
root, ``cli``, ``errors``, ``analysis``, ``experiments``, ``faults``,
``sanitize``, ``lint``) assemble or drive the model and count as
``system``.  Every frame whose code lives outside ``repro`` -- the
standard library, this benchmark, the interpreter's own frozen modules
-- counts as ``other``, so no time is dropped.

:class:`LayerProfiler` installs a ``sys.setprofile`` hook that

* charges each Python frame's self time to the layer defining it.  C
  calls fire no layer change, so their time lands in the calling
  function's layer;
* treats every call whose callee layer differs from the running layer
  as a *span* ``(caller layer, callee layer, start ns, end ns, parent
  span)``, kept in memory and written out by :meth:`write_spans`;
* sees generator resumes as calls (the interpreter fires a profile
  ``call`` event on every resume and a ``return`` on every ``yield``),
  so simulation processes are covered.

The clock is read only at layer changes, and the time spent inside the
hook at a layer change is kept apart in :attr:`LayerProfiler.hook_ns`.
The hook's cost on calls that stay inside one layer is not separable
and lands in that layer, so traced self times are larger than untraced
ones; ``run.py`` reports each layer's *share* of them.
"""

from __future__ import annotations

import json
import os
import sys
import time
from array import array
from typing import Dict, List

__all__ = ["LAYERS", "LayerProfiler", "layer_of_file"]

#: Layer names in report order; ``other`` is everything outside repro.
LAYERS = (
    "sim",
    "node",
    "cc",
    "devices",
    "db",
    "workload",
    "routing",
    "obs",
    "system",
    "other",
)
_PACKAGE_LAYERS = frozenset(LAYERS[:-1])
_OTHER = LAYERS.index("other")

#: Spans kept in memory; later cross-layer calls are still counted and
#: timed, only their span records are dropped (bounds the traced run's
#: memory on long windows).
MAX_SPANS = 1_000_000


def layer_of_file(path: str, repro_dir: str) -> str:
    """The layer of a source file, given the absolute path of the
    ``repro`` package directory (code objects carry absolute paths)."""
    prefix = os.path.join(repro_dir, "")
    if not path.startswith(prefix):
        return "other"
    top = path[len(prefix):].split(os.sep, 1)[0]
    return top if top in _PACKAGE_LAYERS else "system"


class LayerProfiler:
    """Per-layer self time, cross-layer call counts and spans."""

    def __init__(self, repro_dir: str) -> None:
        self.repro_dir = repro_dir
        #: Self nanoseconds charged to each layer (index as LAYERS).
        self.self_ns: List[int] = [0] * len(LAYERS)
        #: Cross-layer calls into each layer (counted by callee).
        self.calls: List[int] = [0] * len(LAYERS)
        #: Nanoseconds spent inside the hook at layer changes.
        self.hook_ns = 0
        self.span_caller = array("b")
        self.span_callee = array("b")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self._layer_of_code: Dict[object, int] = {}
        self._hook = self._make_hook()

    def _classify(self, filename: str) -> int:
        return LAYERS.index(layer_of_file(filename, self.repro_dir))

    def _make_hook(self):
        clock = time.perf_counter_ns
        classify = self._classify
        layer_of_code = self._layer_of_code
        self_ns = self.self_ns
        calls = self.calls
        s_caller = self.span_caller.append
        s_callee = self.span_callee.append
        s_start = self.span_start.append
        s_end_arr = self.span_end
        s_end = s_end_arr.append
        s_parent = self.span_parent.append
        stack: list = []
        # Running layer, the frame that entered it, its span, and the
        # instant the running layer's current self-time segment began.
        cur = _OTHER
        cur_frame = None
        cur_span = -1
        last = 0
        hook_ns = 0
        nspans = 0

        def hook(frame, event, arg):
            nonlocal cur, cur_frame, cur_span, last, hook_ns, nspans
            if event == "call":
                code = frame.f_code
                layer = layer_of_code.get(code)
                if layer is None:
                    layer = layer_of_code[code] = classify(code.co_filename)
                if layer != cur:
                    now = clock()
                    self_ns[cur] += now - last
                    calls[layer] += 1
                    stack.append((cur, cur_frame, cur_span))
                    if nspans < MAX_SPANS:
                        s_caller(cur)
                        s_callee(layer)
                        s_start(now)
                        s_end(0)
                        s_parent(cur_span)
                        cur_span = nspans
                        nspans += 1
                    else:
                        cur_span = -1
                    cur = layer
                    cur_frame = frame
                    last = clock()
                    hook_ns += last - now
            elif event == "return" and frame is cur_frame:
                now = clock()
                self_ns[cur] += now - last
                if cur_span >= 0:
                    s_end_arr[cur_span] = now
                cur, cur_frame, cur_span = stack.pop()
                last = clock()
                hook_ns += last - now

        def begin() -> None:
            nonlocal last
            last = clock()

        def end() -> None:
            nonlocal last, hook_ns
            now = clock()
            self_ns[cur] += now - last
            last = now
            self.hook_ns = hook_ns

        self._begin = begin
        self._end = end
        return hook

    def start(self) -> None:
        """Install the hook; time from here on is charged to layers."""
        self._begin()
        sys.setprofile(self._hook)

    def stop(self) -> None:
        """Remove the hook and close the running segment."""
        sys.setprofile(None)
        self._end()

    @property
    def spans(self) -> int:
        return len(self.span_start)

    def write_spans(self, stem: str) -> None:
        """Write the spans to ``stem.bin`` (int64 rows of caller,
        callee, start ns, end ns, parent) with a ``stem.json`` header."""
        rows = array("q")
        for row in zip(
            self.span_caller,
            self.span_callee,
            self.span_start,
            self.span_end,
            self.span_parent,
        ):
            rows.extend(row)
        with open(stem + ".bin", "wb") as out:
            rows.tofile(out)
        header = {
            "layers": list(LAYERS),
            "fields": ["caller", "callee", "start_ns", "end_ns", "parent"],
            "dtype": "int64",
            "byteorder": sys.byteorder,
            "rows": self.spans,
            "max_spans": MAX_SPANS,
        }
        with open(stem + ".json", "w", encoding="utf-8") as out:
            json.dump(header, out, indent=1)
