"""Layer spans recorded from outside the program, and the self times they give.

:func:`install` wraps the public functions of each service layer at class
level, so every instance a node builds afterwards records a span per call.
A span is a name, a start, an end and the request identifiers it carries:
the job fingerprints (every hop sees them -- client, coordinator, runner
and keyspace key).  Spans stay in a :class:`repro.telemetry.TraceRecorder`
until the process stops; :meth:`SpanLog.dump` then writes them out.

Timestamps are ``time.monotonic()`` minus a zero the benchmark passes to
every process.  ``CLOCK_MONOTONIC`` is one clock for the whole machine, so
spans from different processes line up.

The benchmark links the spans when it merges the files (:func:`link`): a
span's parent is the tightest span that encloses it and shares one of its
fingerprints, or, for a span that carries none (pool start and close), the
tightest enclosing span on the same thread.  That needs no trace context on
the wire, which the program does not carry yet.  A layer's number is then
its self time: the span's duration minus the part its children cover.
"""

from __future__ import annotations

import functools
import json
import re
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

from repro.telemetry import TraceRecorder, chrome_trace

#: Fingerprint prefix kept per span; enough to tell jobs apart.
KEY_CHARS = 16

#: Spans kept per process; far above what one measured window records.
MAX_SPANS = 2_000_000

_PATH_KEY = re.compile(r"/keys/([0-9a-f]{%d})" % KEY_CHARS)

#: How far a child may outlast its parent and still count as enclosed.  A
#: node's handler finishes its bookkeeping after the caller has already
#: read the response, so a callee span can end a little after its caller's.
END_SLACK_SECONDS = 0.01


class SpanLog:
    """One process's spans on the shared clock."""

    def __init__(self, zero: float) -> None:
        self.zero = zero
        self.recorder = TraceRecorder(max_spans=MAX_SPANS)

    def add(
        self, name: str, start: float, end: float, keys: Iterable[str] = (), **args: Any
    ) -> None:
        args["keys"] = [key[:KEY_CHARS] for key in keys]
        args["tid"] = threading.get_ident()
        self.recorder.add_span(name, "perfbench", start - self.zero, end - self.zero, args)

    def dump(self, path: Path, role: str, pid: int) -> None:
        payload = {"role": role, "pid": pid, "trace": self.recorder.as_dict()}
        path.write_text(json.dumps(payload))


def _path_keys(path: str) -> List[str]:
    match = _PATH_KEY.search(path)
    return [match.group(1)] if match else []


def _body_keys(body: bytes) -> List[str]:
    try:
        payload = json.loads(body)
    except ValueError:
        return []
    specs = payload.get("jobs", [payload]) if isinstance(payload, dict) else []
    return [spec["fingerprint"] for spec in specs
            if isinstance(spec, dict) and "fingerprint" in spec]


def _job_keys(args: tuple) -> List[str]:
    """Fingerprints of the job list a wrapped method takes first."""
    return [job.fingerprint for job in args[1]]


def _patch(owner: type, name: str, make: Callable[[Callable], Callable]) -> None:
    setattr(owner, name, functools.wraps(getattr(owner, name))(make(getattr(owner, name))))


def install(log: SpanLog) -> None:
    """Wrap every layer's public functions in this (node) process."""
    from repro.service import client, jobs, keyspace, runner, server, store, supervisor

    def sync(name: str, keys_of: Callable[[tuple], List[str]]):
        def make(fn):
            def wrapper(*args, **kwargs):
                start = time.monotonic()
                try:
                    return fn(*args, **kwargs)
                finally:
                    log.add(name, start, time.monotonic(), keys_of(args))

            return wrapper

        return make

    def parse(fn):
        def wrapper(*args, **kwargs):
            start = time.monotonic()
            job = None
            try:
                job = fn(*args, **kwargs)
                return job
            finally:
                end = time.monotonic()
                log.add("server.parse", start, end, [job.fingerprint] if job is not None else [])

        return wrapper

    def coroutine(name: str, keys_of: Callable[[tuple], List[str]]):
        def make(fn):
            async def wrapper(*args, **kwargs):
                start = time.monotonic()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    log.add(name, start, time.monotonic(), keys_of(args))

            return wrapper

        return make

    def execute(fn):
        # A generator: the span runs from the first result request to the last.
        def wrapper(*args, **kwargs):
            start = time.monotonic()
            try:
                yield from fn(*args, **kwargs)
            finally:
                log.add("runner.execute", start, time.monotonic(), _job_keys(args))

        return wrapper

    # SupervisedPool.start returns as soon as the spawn calls do; the workers
    # then boot (a fresh interpreter importing repro) before they can take a
    # task.  So the pool_start span runs from start() until the first worker
    # reports its first task -- the time a request waits for a pool.
    def pool_start(fn):
        def wrapper(self, *args, **kwargs):
            self.__dict__.setdefault("_perfbench_started", time.monotonic())
            return fn(self, *args, **kwargs)

        return wrapper

    def pool_message(fn):
        def wrapper(self, slot, message, *args, **kwargs):
            if message[0] == "started" and not self.__dict__.get("_perfbench_ready"):
                self._perfbench_ready = True
                log.add("supervisor.pool_start", self._perfbench_started, time.monotonic())
            return fn(self, slot, message, *args, **kwargs)

        return wrapper

    fingerprint_of = jobs.VerificationJob.fingerprint.fget

    def fingerprint(self):
        if "_fingerprint" in self.__dict__:
            return self.__dict__["_fingerprint"]
        start = time.monotonic()
        value = fingerprint_of(self)
        log.add("jobs.fingerprint", start, time.monotonic(), [value])
        return value

    service = server.VerificationService
    _patch(service, "_handle_jobs", coroutine("server.http", lambda a: _body_keys(a[1].body)))
    _patch(service, "parse_job", parse)
    _patch(service, "resolve_jobs", coroutine("server.resolve", _job_keys))
    jobs.VerificationJob.fingerprint = property(fingerprint)
    _patch(store.ResultStore, "get", sync("store.get", lambda a: [a[1]]))
    _patch(store.ResultStore, "put", sync("store.put", lambda a: [a[1].fingerprint]))
    _patch(store.ResultStore, "try_claim", sync("store.claim", lambda a: [a[1].fingerprint]))
    _patch(client.HTTPBackend, "_call", sync("keyspace.call", lambda a: _path_keys(a[2])))
    _patch(
        keyspace.KeyspaceService, "handle", sync("keyspace.handle", lambda a: _path_keys(a[2]))
    )
    # Inside a node, ServiceClient.submit_batch is the coordinator's forward hop.
    _patch(
        client.ServiceClient,
        "submit_batch",
        sync("coordinator.forward", _job_keys),
    )
    _patch(runner.BatchRunner, "execute_indexed", execute)
    _patch(supervisor.SupervisedPool, "start", pool_start)
    _patch(supervisor.SupervisedPool, "_handle_message", pool_message)
    _patch(supervisor.SupervisedPool, "close", sync("supervisor.pool_close", lambda a: []))


# -- merging ---------------------------------------------------------------------


class Span:
    __slots__ = ("index", "proc", "tid", "name", "start", "end", "keys", "args", "parent",
                 "children", "request")

    def __init__(self, index, proc, tid, name, start, end, keys, args) -> None:
        self.index = index
        self.proc = proc
        self.tid = tid
        self.name = name
        self.start = start
        self.end = end
        self.keys = keys
        self.args = args
        self.parent: Optional[Span] = None
        self.children: List[Span] = []
        self.request: Optional[int] = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def self_time(self) -> float:
        """Duration minus the union of the children's intervals inside it."""
        covered, reach = 0.0, self.start
        for child in sorted(self.children, key=lambda c: c.start):
            begin, finish = max(child.start, reach), min(child.end, self.end)
            if finish > begin:
                covered += finish - begin
                reach = finish
        return max(0.0, self.duration - covered)


def load(files: Sequence[Dict[str, Any]]) -> List[Span]:
    """Spans from every process's dump (``{"role", "pid", "trace"}`` dicts)."""
    spans: List[Span] = []
    for proc, dump in enumerate(files):
        for raw in dump["trace"]["spans"]:
            args = dict(raw.get("args") or {})
            keys = tuple(args.pop("keys", ()))
            tid = args.pop("tid", 0)
            start = raw["start"]
            spans.append(
                Span(len(spans), proc, tid, raw["name"], start,
                     start + raw["dur"], keys, args)
            )
    return spans


def _innermost_enclosing(group: List[Span]) -> Dict[int, Span]:
    """For each span of ``group``, the innermost other span enclosing it.

    One sweep in start order with a stack of open spans.  It assumes the
    group's intervals nest or are disjoint (up to :data:`END_SLACK_SECONDS`),
    which holds for the spans of one fingerprint -- concurrent requests
    never share a job -- and for the synchronous calls of one thread.
    """
    found: Dict[int, Span] = {}
    stack: List[Span] = []
    for span in sorted(group, key=lambda s: (s.start, -s.end, s.index)):
        while stack and (
            stack[-1].end <= span.start or stack[-1].end + END_SLACK_SECONDS < span.end
        ):
            stack.pop()
        if stack:
            found[span.index] = stack[-1]
        stack.append(span)
    return found


def link(spans: List[Span]) -> None:
    """Set every span's parent, children and client request index."""
    by_key: Dict[str, List[Span]] = defaultdict(list)
    by_thread: Dict[tuple, List[Span]] = defaultdict(list)
    for span in spans:
        for key in span.keys:
            by_key[key].append(span)
        by_thread[(span.proc, span.tid)].append(span)
    key_parents = {key: _innermost_enclosing(group) for key, group in by_key.items()}
    thread_parents = {name: _innermost_enclosing(group) for name, group in by_thread.items()}
    for span in spans:
        if span.keys:
            candidates = [
                key_parents[key][span.index] for key in span.keys if span.index in key_parents[key]
            ]
        else:
            found = thread_parents[(span.proc, span.tid)].get(span.index)
            candidates = [found] if found is not None else []
        if candidates:
            span.parent = min(candidates, key=lambda s: s.duration)
            span.parent.children.append(span)
    for span in spans:
        root = span
        while root.parent is not None:
            root = root.parent
        span.request = root.args.get("request")


def perfetto(spans: List[Span], files: Sequence[Dict[str, Any]], path: Path) -> None:
    """Write one Chrome trace-event file: a track per process and thread."""
    threads: Dict[tuple, List[Dict[str, Any]]] = defaultdict(list)
    for span in spans:
        args = dict(span.args, keys=list(span.keys), span=span.index,
                    self_ms=round(1000 * span.self_time(), 3))
        if span.parent is not None:
            args["parent"] = span.parent.index
        if span.request is not None:
            args["request"] = span.request
        threads[(span.proc, span.tid)].append(
            {"name": span.name, "cat": "perfbench", "start": span.start, "dur": span.duration,
             "args": args}
        )
    events: List[Dict[str, Any]] = []
    tids: Dict[tuple, int] = {}
    for (proc, tid), group in sorted(threads.items()):
        trace = chrome_trace({"spans": group}, pid=files[proc]["pid"],
                             tid=tids.setdefault((proc, tid), len(tids) + 1))
        meta = trace["traceEvents"][0]
        meta["args"] = {"name": f"{files[proc]['role']} (pid {files[proc]['pid']})"}
        events.extend(trace["traceEvents"])
    path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))
