"""Span recorder for the traced run.

Spans are recorded from outside the program: for the duration of a traced
run, each public function named in ``WRAP_POINTS`` is replaced, in the module
that imported it, by a wrapper that opens a span around the call. A name
the program no longer has is skipped, so its span is simply absent.

Spans live in memory and are written out once, at the end of a run. Spans
opened inside one experiment cell share that cell's id.
"""

import functools
import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass

ROOT_SPAN = "experiments.run"
CELL_SPAN = "experiments.cell"

# (module, attribute where that module looks the name up, span name)
WRAP_POINTS = (
    ("ptwalk.experiments", "_run_cell", CELL_SPAN),
    ("ptwalk.experiments", "_run_toy_cell", CELL_SPAN),
    ("ptwalk.experiments", "build_euclidean_walk", "channel.build_euclidean_walk"),
    ("ptwalk.experiments", "maximize_blp", "measures.maximize_blp"),
    ("ptwalk.experiments", "rhp_series", "measures.rhp_series"),
    ("ptwalk.experiments", "entanglement_series", "measures.entanglement_series"),
    ("ptwalk.experiments", "build_metric", "metric.build_metric"),
    ("ptwalk.experiments", "write_metric_csv", "metric.write_metric_csv"),
    ("ptwalk.experiments", "run_toy", "toy.run_toy"),
    ("ptwalk.channel", "build_metric", "metric.build_metric"),
    ("ptwalk.channel", "walk_operator", "walk.walk_operator"),
    ("ptwalk.measures", "channel_matrix_series", "channel.channel_matrix_series"),
    ("ptwalk.measures", "coin_trajectory", "channel.coin_trajectory"),
    ("ptwalk.measures", "trace_norm", "linalg.trace_norm"),
    ("ptwalk.measures", "MeasureSeries.write_csv", "measures.write_csv"),
)


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    cell: int | None


class SpanRecorder:
    """Nested spans of one thread, kept in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[tuple[int, int | None]] = []
        self._ids = 0
        self._cells = 0

    @contextmanager
    def span(self, name: str):
        parent, cell = self._open[-1] if self._open else (None, None)
        if name == CELL_SPAN:
            self._cells += 1
            cell = self._cells
        self._ids += 1
        span_id = self._ids
        self._open.append((span_id, cell))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans.append(Span(span_id, name, start, end, parent, cell))

    def root_seconds(self) -> float:
        """Total duration of the root spans, i.e. the traced run time."""
        return sum(s.end - s.start for s in self.spans if s.parent is None)

    def self_times(self) -> dict[str, tuple[float, int]]:
        """name -> (self seconds, calls); self time excludes direct child spans."""
        covered = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.end - s.start
        totals: dict[str, tuple[float, int]] = {}
        for s in self.spans:
            seconds, calls = totals.get(s.name, (0.0, 0))
            totals[s.name] = (seconds + (s.end - s.start) - covered[s.id], calls + 1)
        return totals


def write_spans(path, recorders: list[SpanRecorder]) -> None:
    """One JSON line per span, tagged with the index of its traced iteration."""
    with open(path, "w") as fh:
        for iteration, recorder in enumerate(recorders):
            for s in sorted(recorder.spans, key=lambda s: s.id):
                fh.write(json.dumps({"iteration": iteration, **asdict(s)}) + "\n")


def _traced(fn, recorder: SpanRecorder, name: str):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with recorder.span(name):
            return fn(*args, **kwargs)

    return traced


@contextmanager
def wrapped(recorder: SpanRecorder):
    """Install span wrappers at every existing wrap point; restore on exit."""
    installed = []
    try:
        for module_name, attr, name in WRAP_POINTS:
            owner = importlib.import_module(module_name)
            *path, field = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, field, None)
            if original is None:
                continue
            setattr(owner, field, _traced(original, recorder, name))
            installed.append((owner, field, original))
        yield recorder
    finally:
        for owner, field, original in reversed(installed):
            setattr(owner, field, original)
