"""Span tracing of memslab from outside the library.

memslab modules import each other's functions by name, so a function is
wrapped at every module attribute through which the timed code reaches it
(its call-site binding), not only where it is defined.  Each wrapped call
records one span: its binding, the span that was open when it started, the
job it belongs to, start and end (perf_counter_ns), self time (duration
minus the durations of its direct child spans) and, for batched kernels, the
number of states it received.  Spans are held in memory and written out when
the run ends.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

# span name -> the (module, attribute) bindings through which the workloads reach it
SPANS: dict[str, tuple[tuple[str, str], ...]] = {
    "sampling.generate_chunk": (("sampling", "generate_chunk"),),
    "states.make_density": (("sampling", "make_density"), ("filtering", "make_density"),
                            ("frontier", "make_density")),
    "states.digest": (("states", "digest"),),
    "measures.measure_report": (("cli", "measure_report"),),
    "measures.tangle_of_mat": (("frontier", "tangle_of_mat"), ("filtering", "tangle_of_mat")),
    "measures.tangle_batch": (("filtering", "tangle_batch"),),
    "measures.linear_entropy_of_mat": (("frontier", "linear_entropy_of_mat"),
                                       ("filtering", "linear_entropy_of_mat")),
    "measures.von_neumann_entropy": (("frontier", "von_neumann_entropy"),
                                     ("measures", "von_neumann_entropy")),
    "linalg.psd_sqrt": (("measures", "psd_sqrt"), ("frontier", "psd_sqrt")),
    "linalg.hermitian_eig": (("linalg", "hermitian_eig"),),
    "frontier.envelope_tangle": (("frontier", "envelope_tangle"),),
    "frontier.certify": (("frontier", "certify"),),
    "frontier.hill_climb": (("frontier", "hill_climb"),),
    "filtering.apply_filter": (("filtering", "apply_filter"),),
    "filtering.best_filter": (("filtering", "best_filter"),),
    "filtering.trajectory": (("filtering", "trajectory"),),
    "cli.run": (("cli", "run"),),
}

MODULES = ("sampling", "states", "measures", "linalg", "frontier", "filtering", "cli")

# bindings whose first argument is a stack of states: the span size is the stack length
BATCHED = {("filtering", "tangle_batch")}

FIELDS = ("span", "parent", "binding", "job", "start_ns", "end_ns", "self_ns", "size")


class Tracer:
    """Wraps the bindings of SPANS while installed and records one span per call."""

    def __init__(self, modules: dict):
        self.bindings = [(span, mod, attr) for span, binds in SPANS.items() for mod, attr in binds]
        self._originals = [getattr(modules[mod], attr) for _, mod, attr in self.bindings]
        self._modules = modules
        self.records = array("q")
        self.job = -1
        self._stack: list[list[int]] = []  # [span id, child duration ns] of open spans
        self._next_id = 0
        self._wrappers = [self._wrap(i, fn, (mod, attr) in BATCHED)
                          for i, ((_, mod, attr), fn) in enumerate(zip(self.bindings, self._originals))]

    def _wrap(self, binding: int, fn, batched: bool):
        records, stack, clock = self.records, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id = span_id + 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                size = int(np.prod(args[0].shape[:-2])) if batched else 1
                records.extend((span_id, parent, binding, self.job, start, end, duration - frame[1], size))

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for (_, mod, attr), wrapper in zip(self.bindings, self._wrappers):
            setattr(self._modules[mod], attr, wrapper)

    def uninstall(self) -> None:
        for (_, mod, attr), fn in zip(self.bindings, self._originals):
            setattr(self._modules[mod], attr, fn)

    def table(self) -> np.ndarray:
        """All recorded spans, one row per span, columns as in FIELDS."""
        return np.frombuffer(self.records, dtype=np.int64).reshape(-1, len(FIELDS))

    def save(self, path) -> None:
        np.savez(path, spans=self.table(), fields=np.array(FIELDS),
                 bindings=np.array([f"{span}@{mod}.{attr}" for span, mod, attr in self.bindings]))

    def totals(self) -> tuple[dict[str, dict[str, int]], dict[str, int]]:
        """Per span name its calls, self_ns and size; per binding 'module.attr' its calls."""
        table = self.table()
        n = len(self.bindings)
        calls = np.bincount(table[:, 2], minlength=n)
        self_ns = np.bincount(table[:, 2], weights=table[:, 6], minlength=n)
        size = np.bincount(table[:, 2], weights=table[:, 7], minlength=n)
        spans = {name: {"calls": 0, "self_ns": 0, "size": 0} for name in SPANS}
        binding_calls = {}
        for i, (span, mod, attr) in enumerate(self.bindings):
            spans[span]["calls"] += int(calls[i])
            spans[span]["self_ns"] += int(self_ns[i])
            spans[span]["size"] += int(size[i])
            binding_calls[f"{mod}.{attr}"] = int(calls[i])
        return spans, binding_calls
