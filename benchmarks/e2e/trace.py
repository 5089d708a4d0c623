"""Outside-in span tracer for the end-to-end benchmark.

The benchmark times calls *into* each layer from its own files: it
replaces public callables of ``repro`` (a backend instance's pass
methods, a stream's ``chunks``, module-level references to
``graham_schedule`` / ``run_phase1``, a runner's ``open`` and the
returned session's methods, the serving classes' methods) with wrappers
that record one span per call, and puts the originals back afterwards.
Nothing under ``src/`` changes.

A span carries its name, layer, start and end (``perf_counter_ns``), the
id of the span that was open when it started (its parent), the run id
and the process id.  Spans stay in memory and are written as JSONL when
the traced repetition ends.  A span's *self time* is its duration minus
the union of its children's intervals, so the self times of a span tree
add up to the root's duration.

Pool workers forked while the wrappers are installed inherit them.  A
span recorded in such a process is appended to ``<worker_dir>/spans-
<pid>.jsonl`` at once (a worker may be terminated without running exit
handlers), and the parent reads those files back with
:meth:`Tracer.worker_spans`.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path

_MISSING = object()


@dataclass
class Span:
    """One timed call into a layer."""

    id: int
    name: str
    layer: str
    start_ns: int
    end_ns: int
    parent: int | None
    run: str
    pid: int


class Tracer:
    """Records spans from wrapped callables; undoes every wrap on
    :meth:`uninstall`.

    Parameters
    ----------
    run:
        Run id stamped on every span.
    worker_dir:
        Directory for spans recorded in forked child processes (``None``
        drops them).
    """

    def __init__(self, run: str, worker_dir: str | None = None) -> None:
        self.run = run
        self.pid = os.getpid()
        self.worker_dir = worker_dir
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._stack_pid = self.pid
        self._next_id = 0
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # recording
    def _begin(self) -> tuple[int, int | None, int]:
        pid = os.getpid()
        if pid != self._stack_pid:
            # A forked worker inherits the parent's open spans; its own
            # spans start a fresh tree.
            self._stack = []
            self._stack_pid = pid
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(self._next_id)
        return self._next_id, parent, time.perf_counter_ns()

    def _end(self, token, name: str, layer: str) -> None:
        end = time.perf_counter_ns()
        sid, parent, start = token
        self._stack.pop()
        span = Span(sid, name, layer, start, end, parent, self.run, os.getpid())
        if span.pid == self.pid:
            self.spans.append(span)
        elif self.worker_dir is not None:
            path = Path(self.worker_dir) / f"spans-{span.pid}.jsonl"
            with open(path, "a") as fh:
                fh.write(json.dumps(asdict(span)) + "\n")

    def wrap(self, fn, name, layer: str):
        """``fn`` recording one span per call.  ``name`` is a string or a
        callable mapping the call's positional arguments to one."""

        def traced(*args, **kwargs):
            label = name(args) if callable(name) else name
            token = self._begin()
            try:
                return fn(*args, **kwargs)
            finally:
                self._end(token, label, layer)

        return traced

    def wrap_iter(self, fn, name: str, layer: str):
        """Iterator-returning ``fn`` recording one span per ``next()``,
        i.e. the time the consumer is blocked on the iterator."""

        def traced(*args, **kwargs):
            inner = iter(fn(*args, **kwargs))
            try:
                while True:
                    token = self._begin()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._end(token, name, layer)
                    yield item
            finally:
                close = getattr(inner, "close", None)
                if close is not None:
                    close()

        return traced

    # ------------------------------------------------------------------
    # installing
    def replace(self, obj, attr: str, value) -> None:
        """Set ``obj.attr = value``, remembering how to undo it."""
        self._undo.append((obj, attr, vars(obj).get(attr, _MISSING)))
        setattr(obj, attr, value)

    def patch(self, obj, attr: str, layer: str, name=None, iterator=False):
        """Wrap ``obj.attr`` (an instance, class or module attribute)."""
        fn = getattr(obj, attr)
        label = attr if name is None else name
        wrapper = (
            self.wrap_iter(fn, label, layer)
            if iterator
            else self.wrap(fn, label, layer)
        )
        self.replace(obj, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every replaced attribute, newest first."""
        while self._undo:
            obj, attr, original = self._undo.pop()
            if original is _MISSING:
                delattr(obj, attr)
            else:
                setattr(obj, attr, original)

    # ------------------------------------------------------------------
    # output
    def worker_spans(self) -> list[Span]:
        """Spans that forked workers appended to ``worker_dir``."""
        if self.worker_dir is None:
            return []
        spans = []
        for path in sorted(Path(self.worker_dir).glob("spans-*.jsonl")):
            with open(path) as fh:
                spans.extend(Span(**json.loads(line)) for line in fh)
        return spans


def self_times(spans: list[Span]) -> dict[tuple[int, int], int]:
    """``(pid, id) -> self ns``: duration minus the union of the
    children's intervals (clipped to the span)."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[(s.pid, s.parent)].append((s.start_ns, s.end_ns))
    out = {}
    for s in spans:
        covered = 0
        lo_run = hi_run = None
        for lo, hi in sorted(children.get((s.pid, s.id), ())):
            lo, hi = max(lo, s.start_ns), min(hi, s.end_ns)
            if hi <= lo:
                continue
            if hi_run is None or lo > hi_run:
                if hi_run is not None:
                    covered += hi_run - lo_run
                lo_run, hi_run = lo, hi
            else:
                hi_run = max(hi_run, hi)
        if hi_run is not None:
            covered += hi_run - lo_run
        out[(s.pid, s.id)] = (s.end_ns - s.start_ns) - covered
    return out


def summarize(spans: list[Span]) -> dict[str, dict]:
    """Per span name: layer, calls, total and self seconds."""
    own = self_times(spans)
    table: dict[str, dict] = {}
    for s in spans:
        row = table.setdefault(
            s.name,
            {"layer": s.layer, "calls": 0, "total_s": 0.0, "self_s": 0.0},
        )
        row["calls"] += 1
        row["total_s"] += (s.end_ns - s.start_ns) / 1e9
        row["self_s"] += own[(s.pid, s.id)] / 1e9
    return table


def write_jsonl(spans: list[Span], path) -> None:
    with open(path, "w") as fh:
        for s in spans:
            fh.write(json.dumps(asdict(s)) + "\n")


def format_table(summary: dict[str, dict]) -> str:
    """The per-layer summary as a fixed-width text table."""
    lines = [f"{'layer':<10} {'span':<42} {'calls':>7} {'total_s':>10} {'self_s':>10}"]
    for name, row in sorted(
        summary.items(), key=lambda kv: (kv[1]["layer"], -kv[1]["self_s"])
    ):
        lines.append(
            f"{row['layer']:<10} {name:<42} {row['calls']:>7} "
            f"{row['total_s']:>10.4f} {row['self_s']:>10.4f}"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# the seams of the repro layers
# ----------------------------------------------------------------------
#: Kernel-backend pass methods wrapped on the resolved backend instance.
KERNEL_METHODS = (
    "degree_pass",
    "clustering_true_pass",
    "clustering_partial_pass",
    "prepartition_pass",
    "remaining_pass_linear",
    "remaining_pass_hdrf",
    "merge_phase1_degrees",
    "merge_phase1_clustering",
)

#: ``RunnerSession`` methods wrapped on every session a traced runner opens.
SESSION_METHODS = (
    "run_degree_pass",
    "run_clustering",
    "bind_phase2",
    "run_pass",
    "finalize",
    "close",
)


def _lookup_name(method: str):
    def name(args) -> str:
        batched = len(args) > 1 and getattr(args[1], "ndim", 0) > 0
        return f"LookupService.{method}" + ("[batch]" if batched else "")

    return name


def _session_name(method: str):
    if method != "run_pass":
        return f"RunnerSession.{method}"
    return lambda args: f"RunnerSession.run_pass:{args[0]}"


def install(tracer: Tracer, *, backend, stream, partitioner) -> None:
    """Wrap every layer seam the benchmark workloads cross.

    ``backend`` is the resolved (shared) kernel-backend instance;
    ``stream`` the workload's edge stream; ``partitioner`` the workload's
    partitioner, whose ``partition`` call is the root span of a run (and
    whose ``runner``, if any, gets its ``open`` wrapped).
    """
    import repro.core.parallel as parallel
    import repro.core.partitioner as sequential
    from repro.serving import LookupService, PartitionStore

    for method in KERNEL_METHODS:
        tracer.patch(backend, method, "kernels")
    tracer.patch(stream, "chunks", "streaming", "EdgeStream.chunks", iterator=True)
    for module in (sequential, parallel):
        tracer.patch(module, "graham_schedule", "core")
        tracer.patch(module, "run_phase1", "core")
    for method in ("write", "open", "verify"):
        tracer.patch(PartitionStore, method, "serving", f"PartitionStore.{method}")
    for method in ("vertex_partitions", "edge_partition"):
        tracer.patch(LookupService, method, "serving", _lookup_name(method))
    tracer.patch(partitioner, "partition", "core")
    runner = getattr(partitioner, "runner", None)
    if runner is not None:
        open_session = runner.open

        def open_traced(job):
            session = open_session(job)
            for method in SESSION_METHODS:
                tracer.patch(session, method, "runners", _session_name(method))
            return session

        tracer.replace(runner, "open", open_traced)
        tracer.patch(runner, "open", "runners", "Runner.open")
