"""In-memory span tracer driven from the benchmark's own wrappers.

A :class:`Tracer` times calls into the program's public functions: the
benchmark wraps them (see :mod:`layers`) and each wrapped call opens a
span.  Every span knows its name, start, end, parent span and job id;
each thread keeps its own span stack, so a parent is always the span
that caused the call on the same thread.

Self time is a span's duration minus the time its child spans cover,
accumulated per span name and per call path (the cost tree).  Calls
marked ``hot`` (per-memory-access decodes and fault samples, hundreds
of thousands per pass) still enter the self-time accounting and the
cost tree, but are not kept as individual span records, which would
cost hundreds of megabytes; the span file lists them as one aggregate
record per call path instead.
"""

from __future__ import annotations

import contextlib
import functools
import json
import threading
import time
from pathlib import Path


class _Node:
    """One call path of the cost tree."""

    __slots__ = ("calls", "total", "self_time", "children", "hot")

    def __init__(self, hot: bool = False) -> None:
        self.hot = hot
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.children: dict[str, _Node] = {}


class _Frame:
    __slots__ = ("name", "start", "child", "record", "job", "node")

    def __init__(self, name, start, record, job, node) -> None:
        self.name = name
        self.start = start
        self.child = 0.0
        self.record = record
        self.job = job
        self.node = node


class _ThreadState:
    """Span stack, records, cost tree and counters of one thread."""

    def __init__(self, thread_name: str) -> None:
        self.thread = thread_name
        self.stack: list[_Frame] = []
        self.records: list[list] = []
        self.roots: dict[str, _Node] = {}
        self.counters: dict[str, float] = {}

    def enter(self, name: str, hot: bool, job) -> _Frame:
        stack = self.stack
        if stack:
            parent = stack[-1]
            node = parent.node.children.get(name)
            if node is None:
                node = parent.node.children[name] = _Node(hot)
            if job is None:
                job = parent.job
            parent_record = parent.record
        else:
            node = self.roots.get(name)
            if node is None:
                node = self.roots[name] = _Node(hot)
            parent_record = None
        record = None
        if not hot:
            record = len(self.records)
            self.records.append([name, 0.0, 0.0, parent_record, job])
        frame = _Frame(name, time.perf_counter(), record, job, node)
        stack.append(frame)
        return frame

    def exit(self, frame: _Frame) -> None:
        end = time.perf_counter()
        duration = end - frame.start
        stack = self.stack
        stack.pop()
        if stack:
            stack[-1].child += duration
        node = frame.node
        node.calls += 1
        node.total += duration
        node.self_time += duration - frame.child
        if frame.record is not None:
            entry = self.records[frame.record]
            entry[1] = frame.start
            entry[2] = end

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount


class Tracer:
    """Collects spans and counters from every thread that calls in."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadState] = []
        self.origin = time.perf_counter()

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(threading.current_thread().name)
            with self._lock:
                self._threads.append(state)
            self._local.state = state
        return state

    def count(self, name: str, amount: float = 1) -> None:
        """Add ``amount`` to counter ``name`` (per thread, merged later)."""
        self._state().count(name, amount)

    @contextlib.contextmanager
    def span(self, name: str, job=None):
        """Open a span around a block of benchmark code."""
        state = self._state()
        frame = state.enter(name, False, job)
        try:
            yield
        finally:
            state.exit(frame)

    def wrap(self, fn, name: str, hot: bool = False, job=None, pre=None, post=None):
        """Return ``fn`` wrapped in a span named ``name``.

        ``job(args, kwargs)`` may name the job a call belongs to (child
        spans inherit it).  ``pre(args, kwargs)`` runs before the call
        and its return value reaches ``post(tracer, args, kwargs, result,
        token)``, which runs after it, also when the call raises
        (``result`` is then ``None``); both feed counters.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = tracer._state()
            token = pre(args, kwargs) if pre is not None else None
            frame = state.enter(
                name, hot, job(args, kwargs) if job is not None else None
            )
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                state.exit(frame)
                if post is not None:
                    post(tracer, args, kwargs, result, token)

        traced.__wrapped_by_perfbench__ = fn
        return traced

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """Merged per-name self/total seconds, calls and counters."""
        self_s: dict[str, float] = {}
        total_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        counters: dict[str, float] = {}

        def walk(name: str, node: _Node, open_names: tuple) -> None:
            self_s[name] = self_s.get(name, 0.0) + node.self_time
            # Calls and inclusive time count only the outermost span of
            # a name, so a codec delegating to its base class's decode
            # is one call, not two.
            if name not in open_names:
                calls[name] = calls.get(name, 0) + node.calls
                total_s[name] = total_s.get(name, 0.0) + node.total
            for child_name, child in node.children.items():
                walk(child_name, child, open_names + (name,))

        with self._lock:
            threads = list(self._threads)
        for state in threads:
            for name, node in state.roots.items():
                walk(name, node, ())
            for name, value in state.counters.items():
                counters[name] = counters.get(name, 0) + value
        return {
            "self_s": self_s,
            "total_s": total_s,
            "calls": calls,
            "counters": counters,
        }

    def root_seconds(self) -> float:
        """Summed duration of every thread's top-level spans."""
        with self._lock:
            threads = list(self._threads)
        return sum(
            node.total for state in threads for node in state.roots.values()
        )

    def cost_tree(self) -> dict:
        """Merged call-path tree: calls, total and self seconds."""
        merged = _Node()

        def merge(into: _Node, node: _Node) -> None:
            into.calls += node.calls
            into.total += node.total
            into.self_time += node.self_time
            for name, child in node.children.items():
                merge(into.children.setdefault(name, _Node()), child)

        with self._lock:
            threads = list(self._threads)
        for state in threads:
            for name, node in state.roots.items():
                merge(merged.children.setdefault(name, _Node()), node)

        def as_dict(node: _Node) -> dict:
            return {
                name: {
                    "calls": child.calls,
                    "total_s": child.total,
                    "self_s": child.self_time,
                    "children": as_dict(child),
                }
                for name, child in sorted(
                    node.children.items(), key=lambda item: -item[1].total
                )
            }

        return as_dict(merged)

    def write(self, directory: Path, stem: str) -> dict:
        """Write the span file and the cost tree; return their paths."""
        directory.mkdir(parents=True, exist_ok=True)
        spans_path = directory / f"{stem}.spans.jsonl"
        tree_path = directory / f"{stem}.costtree.json"
        text_path = directory / f"{stem}.costtree.txt"
        with self._lock:
            threads = list(self._threads)
        with spans_path.open("w", encoding="utf-8") as out:
            for index, state in enumerate(threads):
                for span_id, (name, start, end, parent, job) in enumerate(
                    state.records
                ):
                    out.write(json.dumps({
                        "id": f"{index}.{span_id}",
                        "name": name,
                        "start_s": start - self.origin,
                        "end_s": end - self.origin,
                        "parent": None if parent is None else f"{index}.{parent}",
                        "job": job,
                        "thread": state.thread,
                    }) + "\n")
                self._write_aggregates(out, state)
        tree = self.cost_tree()
        tree_path.write_text(json.dumps(tree, indent=1) + "\n", encoding="utf-8")
        text_path.write_text(render_tree(tree), encoding="utf-8")
        return {"spans": str(spans_path), "cost_tree": str(tree_path)}

    @staticmethod
    def _write_aggregates(out, state: _ThreadState) -> None:
        """One record per call path of spans not kept individually."""

        def walk(path: tuple, node: _Node) -> None:
            if node.hot:
                out.write(json.dumps({
                    "aggregate": True,
                    "thread": state.thread,
                    "path": list(path),
                    "calls": node.calls,
                    "busy_s": node.total,
                    "self_s": node.self_time,
                }) + "\n")
            for name, child in node.children.items():
                walk(path + (name,), child)

        for name, node in state.roots.items():
            walk((name,), node)


def render_tree(tree: dict, depth: int = 0) -> str:
    """Indented text form of :meth:`Tracer.cost_tree`."""
    lines = []
    if depth == 0:
        lines.append(f"{'span':<48} {'calls':>9} {'total_s':>10} {'self_s':>10}")
    for name, node in tree.items():
        label = "  " * depth + name
        lines.append(
            f"{label:<48} {node['calls']:>9} "
            f"{node['total_s']:>10.4f} {node['self_s']:>10.4f}"
        )
        if node["children"]:
            lines.append(render_tree(node["children"], depth + 1).rstrip("\n"))
    return "\n".join(lines) + "\n"
