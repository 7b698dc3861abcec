"""In-memory spans for the traced benchmark run.

A span is (name, start, end, parent, attrs). Spans live in a list on the
:class:`Tracer` and are only read back after the measured iteration, so
recording one costs two ``perf_counter`` calls and a list append. The
untraced run uses :data:`NO_TRACE`, whose ``span`` is a no-op, and wraps no
program function.

:func:`wrapped_layers` is the one place the traced run reaches inside an
entry point: it replaces the names that ``ExperimentContext.artifacts``,
``run_opt`` and ``run_oracle_study`` look up in their own modules with
traced wrappers, and restores them on exit.
"""

import contextlib
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    attrs: Dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects nested spans of one single-threaded iteration."""

    def __init__(self):
        self.spans: List[Span] = []
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        """Time the block as span ``name``; yields its mutable attrs."""
        parent = self._stack[-1] if self._stack else None
        record = Span(name, 0.0, parent=parent, attrs=attrs)
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        record.start = perf_counter()
        try:
            yield record.attrs
        finally:
            record.end = perf_counter()
            self._stack.pop()

    def self_times(self) -> List[float]:
        """Per span: its duration minus the time its children cover.

        Spans come from one thread and nest strictly, so children never
        overlap and their durations simply add up.
        """
        child_time = [0.0] * len(self.spans)
        for record in self.spans:
            if record.parent is not None:
                child_time[record.parent] += record.duration
        return [
            record.duration - child_time[idx]
            for idx, record in enumerate(self.spans)
        ]

    def covered(self) -> float:
        """Wall time covered by root spans."""
        return sum(r.duration for r in self.spans if r.parent is None)

    def self_time_by_name(self) -> Dict[str, float]:
        totals: Dict[str, float] = defaultdict(float)
        for record, own in zip(self.spans, self.self_times()):
            totals[record.name] += own
        return dict(totals)


class _NoTrace:
    """Stand-in tracer for the untraced run: spans cost one call."""

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        yield attrs


NO_TRACE = _NoTrace()


def _traced(tracer: Tracer, name: str, func):
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return func(*args, **kwargs)
    return wrapper


class _TracedWorkload:
    """A workload model whose ``generate`` records a span."""

    def __init__(self, model, tracer: Tracer):
        self._model = model
        self.generate = _traced(tracer, "workloads.generate", model.generate)

    def __getattr__(self, name):
        return getattr(self._model, name)


@contextlib.contextmanager
def wrapped_layers(tracer: Tracer):
    """Wrap the layer functions entry points call, at their import sites."""
    from repro.oracle import runner
    from repro.sim import experiment, multipass

    get_workload = experiment.get_workload
    patches = [
        (experiment, "get_workload",
         lambda name: _TracedWorkload(get_workload(name), tracer)),
        (experiment, "compute_trace_statistics",
         _traced(tracer, "trace.stats", experiment.compute_trace_statistics)),
        (experiment, "record_llc_stream",
         _traced(tracer, "cache.hierarchy_record",
                 experiment.record_llc_stream)),
        (experiment, "write_llc_stream",
         _traced(tracer, "cache.stream_store", experiment.write_llc_stream)),
        (experiment, "read_llc_stream",
         _traced(tracer, "cache.stream_load", experiment.read_llc_stream)),
        (multipass, "compute_next_use",
         _traced(tracer, "policies.opt.next_use", multipass.compute_next_use)),
        (runner, "stream_annotation",
         _traced(tracer, "oracle.annotate", runner.stream_annotation)),
    ]
    originals = [(module, name, getattr(module, name))
                 for module, name, __ in patches]
    try:
        for module, name, replacement in patches:
            setattr(module, name, replacement)
        yield
    finally:
        for module, name, original in originals:
            setattr(module, name, original)
