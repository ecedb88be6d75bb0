"""Unified telemetry: metrics registry, search traces, and structured logs.

Three pillars, shared by every layer of the stack (engine, store, batch
runner, HTTP front door):

**Metrics.**  :class:`MetricsRegistry` holds named counters, gauges and
summaries with Prometheus-style labels and renders the text exposition
format (0.0.4) consumed by ``GET /v1/metrics``.  Collection is pull-based:
hot paths never touch the registry.  Engine-side numbers are folded from
each finished job's statistics (the solver's ``SearchStatistics`` and its
theory's memo counts) into an :class:`EngineRollup` at job-completion time,
so the instrumented engine runs the exact same code as before -- zero
overhead when nobody scrapes.  :func:`validate_exposition` is a lint-style
checker for the rendered text (``# HELP``/``# TYPE`` pairing, label
escaping, summary ``_sum``/``_count`` consistency) used by the test suite
against every exposition the server produces.

**Traces.**  :class:`TraceRecorder` is an opt-in span recorder the solver
threads through one search (plan compilation, per-transition drives,
frontier milestones).  Recording is off unless a job asked for it
(``trace=true`` on submit, ``--trace`` on ``repro batch``); the recorded
spans persist next to the verdict row and export as Chrome trace-event
JSON (:func:`chrome_trace`) so they open directly in Perfetto or
``about://tracing``.

**Logs.**  Stdlib-``logging`` JSON lines with request-id / fingerprint
correlation carried in a :class:`~contextvars.ContextVar`
(:func:`log_context`), shippable across process boundaries to batch
workers via :func:`current_log_context`.  Nothing is emitted unless
:func:`configure_logging` ran (``repro serve --log-level``), so library
use stays silent.

The module is intentionally dependency-free (stdlib + :mod:`repro.perf`)
so any layer may import it without cycles.
"""

from __future__ import annotations

import json
import logging
import math
import re
import sys
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.perf import add_counts

__all__ = [
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Summary",
    "validate_exposition",
    "parse_exposition",
    "counter_regressions",
    "TraceRecorder",
    "chrome_trace",
    "EngineRollup",
    "configure_logging",
    "get_logger",
    "log_context",
    "current_log_context",
]

# ---------------------------------------------------------------------------
# Metric primitives
# ---------------------------------------------------------------------------

_METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

LabelKey = Tuple[Tuple[str, str], ...]


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value in (math.inf, -math.inf):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _format_sample(name: str, labels: LabelKey, value: float) -> str:
    if labels:
        body = ",".join(f'{key}="{_escape_label_value(str(val))}"' for key, val in labels)
        return f"{name}{{{body}}} {_format_value(value)}"
    return f"{name} {_format_value(value)}"


class _MetricBase:
    """Shared name/help/label plumbing for all metric kinds."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str, labelnames: Sequence[str] = ()) -> None:
        if not _METRIC_NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for label in labelnames:
            if not _LABEL_NAME_RE.match(label):
                raise ValueError(f"invalid label name {label!r} on metric {name!r}")
        self.name = name
        self.help_text = help_text
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()

    def _key(self, labels: Mapping[str, Any]) -> LabelKey:
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"metric {self.name!r} takes labels {self.labelnames}, got {tuple(labels)}"
            )
        return tuple((name, str(labels[name])) for name in self.labelnames)

    def header_lines(self) -> List[str]:
        return [
            f"# HELP {self.name} {_escape_help(self.help_text)}",
            f"# TYPE {self.name} {self.kind}",
        ]

    def sample_lines(self) -> List[str]:  # pragma: no cover - abstract
        raise NotImplementedError


class Counter(_MetricBase):
    """A monotonically increasing value, optionally split by labels."""

    kind = "counter"

    def __init__(self, name: str, help_text: str, labelnames: Sequence[str] = ()) -> None:
        super().__init__(name, help_text, labelnames)
        self._values: Dict[LabelKey, float] = {}

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (inc {amount})")
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: Any) -> float:
        key = self._key(labels)
        with self._lock:
            return self._values.get(key, 0.0)

    def sample_lines(self) -> List[str]:
        with self._lock:
            items = sorted(self._values.items())
        if not items and not self.labelnames:
            items = [((), 0.0)]
        return [_format_sample(self.name, labels, value) for labels, value in items]


class Gauge(_MetricBase):
    """A value that can go up and down, or be computed at scrape time.

    Pass ``callback`` to make collection pull-based: the callable runs at
    render time and returns either a number (unlabelled gauge) or a mapping
    of label-value tuples to numbers (labelled gauge).
    """

    kind = "gauge"

    def __init__(
        self,
        name: str,
        help_text: str,
        labelnames: Sequence[str] = (),
        callback: Optional[Callable[[], Any]] = None,
    ) -> None:
        super().__init__(name, help_text, labelnames)
        self._values: Dict[LabelKey, float] = {}
        self._callback = callback

    def set(self, value: float, **labels: Any) -> None:
        if self._callback is not None:
            raise ValueError(f"gauge {self.name!r} is callback-driven")
        key = self._key(labels)
        with self._lock:
            self._values[key] = float(value)

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if self._callback is not None:
            raise ValueError(f"gauge {self.name!r} is callback-driven")
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: Any) -> float:
        key = self._key(labels)
        with self._lock:
            return self._values.get(key, 0.0)

    def _collect(self) -> List[Tuple[LabelKey, float]]:
        if self._callback is None:
            with self._lock:
                items = sorted(self._values.items())
            if not items and not self.labelnames:
                items = [((), 0.0)]
            return items
        produced = self._callback()
        if isinstance(produced, Mapping):
            items = []
            for raw_key, value in produced.items():
                if isinstance(raw_key, Mapping):
                    key = self._key(raw_key)
                else:
                    values = (raw_key,) if isinstance(raw_key, str) else tuple(raw_key)
                    key = tuple(zip(self.labelnames, (str(v) for v in values)))
                items.append((key, float(value)))
            return sorted(items)
        return [((), float(produced))]

    def sample_lines(self) -> List[str]:
        return [_format_sample(self.name, labels, value) for labels, value in self._collect()]


class CounterCallback(_MetricBase):
    """A counter whose cumulative values are read from elsewhere at scrape time.

    Used to expose monotonic totals that already live in another subsystem
    (engine cache hit counts, store counters) without double bookkeeping.
    The callback contract matches :class:`Gauge`'s.
    """

    kind = "counter"

    def __init__(
        self,
        name: str,
        help_text: str,
        labelnames: Sequence[str],
        callback: Callable[[], Any],
    ) -> None:
        super().__init__(name, help_text, labelnames)
        self._callback = callback

    def sample_lines(self) -> List[str]:
        produced = self._callback()
        items: List[Tuple[LabelKey, float]] = []
        if isinstance(produced, Mapping):
            for raw_key, value in produced.items():
                if isinstance(raw_key, Mapping):
                    key = self._key(raw_key)
                else:
                    values = (raw_key,) if isinstance(raw_key, str) else tuple(raw_key)
                    key = tuple(zip(self.labelnames, (str(v) for v in values)))
                items.append((key, float(value)))
            items.sort()
        else:
            items = [((), float(produced))]
        return [_format_sample(self.name, labels, value) for labels, value in items]


class Summary(_MetricBase):
    """Sliding-window quantiles plus lifetime ``_sum``/``_count`` totals.

    Quantiles are computed over the last ``window`` observations per label
    set (recent behaviour), while ``_sum``/``_count`` accumulate for the
    process lifetime (Prometheus ``rate()`` semantics).
    """

    kind = "summary"

    def __init__(
        self,
        name: str,
        help_text: str,
        labelnames: Sequence[str] = (),
        window: int = 512,
        quantiles: Sequence[float] = (0.5, 0.95, 0.99),
    ) -> None:
        super().__init__(name, help_text, labelnames)
        self._window = window
        self._quantiles = tuple(quantiles)
        self._samples: Dict[LabelKey, List[float]] = {}
        self._counts: Dict[LabelKey, int] = {}
        self._sums: Dict[LabelKey, float] = {}

    def observe(self, value: float, **labels: Any) -> None:
        key = self._key(labels)
        with self._lock:
            bucket = self._samples.setdefault(key, [])
            bucket.append(float(value))
            if len(bucket) > self._window:
                del bucket[: len(bucket) - self._window]
            self._counts[key] = self._counts.get(key, 0) + 1
            self._sums[key] = self._sums.get(key, 0.0) + float(value)

    def count(self, **labels: Any) -> int:
        key = self._key(labels)
        with self._lock:
            return self._counts.get(key, 0)

    def snapshot(self) -> Dict[LabelKey, Tuple[List[float], int, float]]:
        """Per-labelset ``(window, lifetime count, lifetime sum)`` copies."""
        with self._lock:
            return {
                key: (list(self._samples[key]), self._counts[key], self._sums[key])
                for key in sorted(self._samples)
            }

    def sample_lines(self) -> List[str]:
        lines: List[str] = []
        with self._lock:
            keys = sorted(self._samples)
            snapshot = {
                key: (list(self._samples[key]), self._counts[key], self._sums[key])
                for key in keys
            }
        for key, (window, count, total) in snapshot.items():
            ordered = sorted(window)
            for quantile in self._quantiles:
                index = min(len(ordered) - 1, max(0, math.ceil(quantile * len(ordered)) - 1))
                labels = key + (("quantile", _format_quantile(quantile)),)
                lines.append(_format_sample(self.name, labels, ordered[index]))
            lines.append(_format_sample(f"{self.name}_sum", key, total))
            lines.append(_format_sample(f"{self.name}_count", key, count))
        return lines


def _format_quantile(quantile: float) -> str:
    text = f"{quantile:g}"
    return text


class MetricsRegistry:
    """A named collection of metrics rendered as one Prometheus exposition."""

    def __init__(self) -> None:
        self._metrics: Dict[str, _MetricBase] = {}
        self._lock = threading.Lock()

    def _register(self, metric: _MetricBase) -> _MetricBase:
        with self._lock:
            existing = self._metrics.get(metric.name)
            if existing is not None:
                raise ValueError(f"metric {metric.name!r} already registered")
            self._metrics[metric.name] = metric
        return metric

    def counter(self, name: str, help_text: str, labelnames: Sequence[str] = ()) -> Counter:
        metric = Counter(name, help_text, labelnames)
        self._register(metric)
        return metric

    def counter_callback(
        self,
        name: str,
        help_text: str,
        labelnames: Sequence[str],
        callback: Callable[[], Any],
    ) -> CounterCallback:
        metric = CounterCallback(name, help_text, labelnames, callback)
        self._register(metric)
        return metric

    def gauge(
        self,
        name: str,
        help_text: str,
        labelnames: Sequence[str] = (),
        callback: Optional[Callable[[], Any]] = None,
    ) -> Gauge:
        metric = Gauge(name, help_text, labelnames, callback)
        self._register(metric)
        return metric

    def summary(
        self,
        name: str,
        help_text: str,
        labelnames: Sequence[str] = (),
        window: int = 512,
        quantiles: Sequence[float] = (0.5, 0.95, 0.99),
    ) -> Summary:
        metric = Summary(name, help_text, labelnames, window, quantiles)
        self._register(metric)
        return metric

    def get(self, name: str) -> Optional[_MetricBase]:
        with self._lock:
            return self._metrics.get(name)

    def render(self) -> str:
        with self._lock:
            metrics = [self._metrics[name] for name in sorted(self._metrics)]
        lines: List[str] = []
        for metric in metrics:
            lines.extend(metric.header_lines())
            lines.extend(metric.sample_lines())
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Exposition lint: parse + validate the Prometheus text format
# ---------------------------------------------------------------------------

_HELP_RE = re.compile(r"^# HELP (\S+) (.*)$")
_TYPE_RE = re.compile(r"^# TYPE (\S+) (\S+)$")
_VALUE_RE = re.compile(r"^(?:[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?|NaN|[+-]Inf)$")
_KNOWN_TYPES = frozenset({"counter", "gauge", "summary", "histogram", "untyped"})


class ExpositionError(ValueError):
    """A sample line that cannot be parsed at all."""


def _parse_labels(body: str) -> LabelKey:
    """Parse ``key="value",...`` with Prometheus escape handling."""
    labels: List[Tuple[str, str]] = []
    index = 0
    length = len(body)
    while index < length:
        match = re.match(r"[a-zA-Z_][a-zA-Z0-9_]*", body[index:])
        if not match:
            raise ExpositionError(f"bad label name at {body[index:]!r}")
        name = match.group(0)
        index += len(name)
        if body[index : index + 2] != '="':
            raise ExpositionError(f"expected '=\"' after label {name!r}")
        index += 2
        chars: List[str] = []
        while True:
            if index >= length:
                raise ExpositionError(f"unterminated label value for {name!r}")
            char = body[index]
            if char == "\\":
                if index + 1 >= length:
                    raise ExpositionError(f"dangling escape in label {name!r}")
                escape = body[index + 1]
                if escape == "n":
                    chars.append("\n")
                elif escape in ('"', "\\"):
                    chars.append(escape)
                else:
                    raise ExpositionError(f"invalid escape \\{escape} in label {name!r}")
                index += 2
                continue
            if char == '"':
                index += 1
                break
            if char == "\n":
                raise ExpositionError(f"raw newline in label {name!r}")
            chars.append(char)
            index += 1
        labels.append((name, "".join(chars)))
        if index < length:
            if body[index] != ",":
                raise ExpositionError(f"expected ',' between labels, got {body[index]!r}")
            index += 1
    return tuple(labels)


def _parse_sample(line: str) -> Tuple[str, LabelKey, float]:
    name_match = re.match(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)", line)
    if not name_match:
        raise ExpositionError(f"bad sample line {line!r}")
    name = name_match.group(1)
    rest = line[len(name) :]
    labels: LabelKey = ()
    if rest.startswith("{"):
        closing = rest.rfind("}")
        if closing < 0:
            raise ExpositionError(f"unterminated label set in {line!r}")
        labels = _parse_labels(rest[1:closing])
        rest = rest[closing + 1 :]
    parts = rest.split()
    if not parts or len(parts) > 2:
        raise ExpositionError(f"bad value/timestamp section in {line!r}")
    if not _VALUE_RE.match(parts[0]):
        raise ExpositionError(f"bad sample value {parts[0]!r} in {line!r}")
    return name, labels, float(parts[0])


class Exposition:
    """Parsed exposition text: families plus every sample keyed by labels."""

    def __init__(self) -> None:
        self.types: Dict[str, str] = {}
        self.help: Dict[str, str] = {}
        self.samples: Dict[Tuple[str, LabelKey], float] = {}

    def family_of(self, sample_name: str) -> Optional[str]:
        """Resolve a sample name to its family (handles _sum/_count suffixes)."""
        if sample_name in self.types:
            return sample_name
        for suffix in ("_sum", "_count", "_bucket"):
            if sample_name.endswith(suffix):
                base = sample_name[: -len(suffix)]
                if self.types.get(base) in ("summary", "histogram"):
                    return base
        return None


def parse_exposition(text: str) -> Exposition:
    """Parse exposition text; raises :class:`ExpositionError` on bad syntax."""
    parsed = Exposition()
    for line in text.splitlines():
        if not line.strip():
            continue
        help_match = _HELP_RE.match(line)
        if help_match:
            parsed.help[help_match.group(1)] = help_match.group(2)
            continue
        type_match = _TYPE_RE.match(line)
        if type_match:
            parsed.types[type_match.group(1)] = type_match.group(2)
            continue
        if line.startswith("#"):
            continue
        name, labels, value = _parse_sample(line)
        parsed.samples[(name, labels)] = value
    return parsed


def validate_exposition(text: str) -> List[str]:
    """Lint exposition text; returns a list of problems (empty = valid).

    Checks the properties the test suite guards: every sample belongs to a
    family announced by a ``# HELP``/``# TYPE`` pair that precedes it, no
    duplicate announcements, parseable (properly escaped) label sets,
    non-negative finite counters, quantile labels within [0, 1], and a
    matching ``_sum``/``_count`` pair per label set for every summary.
    """
    errors: List[str] = []
    types: Dict[str, str] = {}
    helps: Dict[str, str] = {}
    seen_samples: Dict[Tuple[str, LabelKey], float] = {}
    summary_parts: Dict[Tuple[str, LabelKey], Dict[str, float]] = {}

    def family_of(sample_name: str) -> Optional[str]:
        if sample_name in types:
            return sample_name
        for suffix in ("_sum", "_count", "_bucket"):
            if sample_name.endswith(suffix):
                base = sample_name[: -len(suffix)]
                if types.get(base) in ("summary", "histogram"):
                    return base
        return None

    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        help_match = _HELP_RE.match(line)
        if help_match:
            name = help_match.group(1)
            if name in helps:
                errors.append(f"line {lineno}: duplicate HELP for {name}")
            helps[name] = help_match.group(2)
            continue
        type_match = _TYPE_RE.match(line)
        if type_match:
            name, kind = type_match.groups()
            if name in types:
                errors.append(f"line {lineno}: duplicate TYPE for {name}")
            if kind not in _KNOWN_TYPES:
                errors.append(f"line {lineno}: unknown metric type {kind!r} for {name}")
            if name not in helps:
                errors.append(f"line {lineno}: TYPE for {name} not preceded by HELP")
            types[name] = kind
            continue
        if line.startswith("#"):
            continue
        try:
            name, labels, value = _parse_sample(line)
        except ExpositionError as error:
            errors.append(f"line {lineno}: {error}")
            continue
        family = family_of(name)
        if family is None:
            errors.append(f"line {lineno}: sample {name} has no preceding # TYPE")
            continue
        if family not in helps:
            errors.append(f"line {lineno}: family {family} has no # HELP")
        key = (name, labels)
        if key in seen_samples:
            errors.append(f"line {lineno}: duplicate sample {name}{dict(labels)}")
        seen_samples[key] = value
        kind = types[family]
        label_names = [label for label, _ in labels]
        if len(label_names) != len(set(label_names)):
            errors.append(f"line {lineno}: repeated label name in sample {name}")
        if kind == "counter":
            if value < 0 or value != value or value in (math.inf, -math.inf):
                errors.append(f"line {lineno}: counter {name} has invalid value {value}")
        if kind == "summary":
            base_labels = tuple(
                (label, val) for label, val in labels if label != "quantile"
            )
            parts = summary_parts.setdefault((family, base_labels), {})
            if name == family:
                quantile = dict(labels).get("quantile")
                if quantile is None:
                    errors.append(f"line {lineno}: summary {name} sample missing quantile label")
                else:
                    try:
                        numeric = float(quantile)
                    except ValueError:
                        numeric = -1.0
                    if not 0.0 <= numeric <= 1.0:
                        errors.append(
                            f"line {lineno}: summary {name} quantile {quantile!r} out of [0, 1]"
                        )
                parts["quantiles"] = parts.get("quantiles", 0) + 1
            elif name == f"{family}_sum":
                parts["sum"] = value
            elif name == f"{family}_count":
                parts["count"] = value
                if value < 0 or value != int(value):
                    errors.append(f"line {lineno}: summary {name} count {value} not a natural")

    for (family, labels), parts in summary_parts.items():
        if ("sum" in parts) != ("count" in parts):
            errors.append(
                f"summary {family}{dict(labels)}: _sum and _count must appear together"
            )
        if parts.get("quantiles") and "count" not in parts:
            errors.append(f"summary {family}{dict(labels)}: quantiles without _sum/_count")
    return errors


def counter_regressions(before: str, after: str) -> List[str]:
    """Counters that went *down* between two scrapes (must be empty).

    Both arguments are exposition texts from the same process; any counter
    sample present in both whose value decreased is a monotonicity bug.
    """
    earlier = parse_exposition(before)
    later = parse_exposition(after)
    problems: List[str] = []
    for (name, labels), value in earlier.samples.items():
        family = earlier.family_of(name)
        if family is None or earlier.types.get(family) != "counter":
            continue
        current = later.samples.get((name, labels))
        if current is not None and current < value:
            problems.append(f"{name}{dict(labels)}: {value} -> {current}")
    return problems


# ---------------------------------------------------------------------------
# Engine rollup: cumulative SearchStatistics across completed jobs
# ---------------------------------------------------------------------------

#: SearchStatistics fields accumulated by the rollup, in exposition order.
_ROLLUP_FIELDS = (
    "configurations_explored",
    "configurations_enqueued",
    "candidates_generated",
    "guard_evaluations",
    "guard_rejections",
    "duplicate_keys_pruned",
    "key_cache_hits",
    "key_cache_misses",
    "plan_rejected_pre_materialization",
    "plan_compiled_guard_hits",
    "plan_fallback_evaluations",
    "plan_enumeration_pruned",
)


class EngineRollup:
    """Cumulative engine search statistics across completed jobs.

    Fed from each finished job's statistics dict (one call per job, off the
    solver hot path): the ``SearchStatistics`` fields, and under
    ``"caches"`` the memo counts of the job's theory, which the batch
    runner adds wherever the job ran, in this process or a pool worker.
    Powers the ``engine`` section of ``GET /v1/stats`` and the
    ``repro_engine_*`` metric families.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.jobs = 0
        self.engine_seconds = 0.0
        self.totals: Dict[str, int] = {field: 0 for field in _ROLLUP_FIELDS}
        #: Memo-table counts by table name (see :func:`repro.perf.add_counts`).
        self.caches: Dict[str, Dict[str, int]] = {}

    def record(self, statistics: Optional[Mapping[str, Any]]) -> None:
        if not statistics:
            return
        with self._lock:
            self.jobs += 1
            elapsed = statistics.get("elapsed_seconds")
            if isinstance(elapsed, (int, float)):
                self.engine_seconds += float(elapsed)
            for field in _ROLLUP_FIELDS:
                value = statistics.get(field)
                if isinstance(value, (int, float)):
                    self.totals[field] += int(value)
            add_counts(self.caches, statistics.get("caches") or {})

    def cache_counts(self, field: str) -> Dict[str, int]:
        """One memo counter (``hits``, ``misses`` or ``evictions``) by table name."""
        with self._lock:
            return {name: counts[field] for name, counts in self.caches.items()}

    @property
    def candidates_pruned(self) -> int:
        """Candidates discarded before expansion, however the engine did it."""
        totals = self.totals
        return (
            totals["guard_rejections"]
            + totals["duplicate_keys_pruned"]
            + totals["plan_rejected_pre_materialization"]
            + totals["plan_enumeration_pruned"]
        )

    @property
    def cache_hit_rate(self) -> float:
        lookups = self.totals["key_cache_hits"] + self.totals["key_cache_misses"]
        return self.totals["key_cache_hits"] / lookups if lookups else 0.0

    def as_dict(self) -> Dict[str, Any]:
        with self._lock:
            payload: Dict[str, Any] = {"jobs": self.jobs}
            payload.update(self.totals)
            payload["candidates_pruned"] = self.candidates_pruned
            payload["cache_hit_rate"] = round(self.cache_hit_rate, 4)
            payload["engine_seconds"] = round(self.engine_seconds, 6)
            payload["caches"] = {name: dict(counts) for name, counts in self.caches.items()}
            return payload


# ---------------------------------------------------------------------------
# Per-job search traces
# ---------------------------------------------------------------------------

TRACE_FORMAT_VERSION = 1

#: Hard cap on recorded spans per trace: a runaway search must not turn a
#: verdict row into a gigabyte blob.  Overflow increments ``dropped``.
DEFAULT_MAX_SPANS = 20_000


class TraceRecorder:
    """Opt-in span recorder for one solver run.

    Timestamps are seconds relative to recorder construction (perf_counter
    deltas), converted to microseconds on Chrome export.  The recorder is
    only ever consulted behind ``if trace is not None`` guards in the
    engine, so untraced runs pay a single predicate per call site.
    """

    __slots__ = ("max_spans", "dropped", "spans", "events", "_zero")

    def __init__(self, max_spans: int = DEFAULT_MAX_SPANS) -> None:
        self.max_spans = max_spans
        self.dropped = 0
        self.spans: List[Dict[str, Any]] = []
        self.events: List[Dict[str, Any]] = []
        self._zero = time.perf_counter()

    def now(self) -> float:
        """Seconds since the recorder started."""
        return time.perf_counter() - self._zero

    def add_span(
        self,
        name: str,
        cat: str,
        start: float,
        end: float,
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        if len(self.spans) >= self.max_spans:
            self.dropped += 1
            return
        span: Dict[str, Any] = {
            "name": name,
            "cat": cat,
            "start": start,
            "dur": max(0.0, end - start),
        }
        if args:
            span["args"] = args
        self.spans.append(span)

    @contextmanager
    def span(self, name: str, cat: str = "engine", **args: Any) -> Iterator[Dict[str, Any]]:
        """Record a timed span around a block; mutate the yielded dict to
        attach results computed inside the block as span arguments."""
        start = self.now()
        collected: Dict[str, Any] = dict(args)
        try:
            yield collected
        finally:
            self.add_span(name, cat, start, self.now(), collected or None)

    def instant(self, name: str, cat: str = "engine", **args: Any) -> None:
        if len(self.events) >= self.max_spans:
            self.dropped += 1
            return
        event: Dict[str, Any] = {"name": name, "cat": cat, "ts": self.now()}
        if args:
            event["args"] = args
        self.events.append(event)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "version": TRACE_FORMAT_VERSION,
            "unit": "seconds",
            "spans": self.spans,
            "events": self.events,
            "dropped": self.dropped,
        }


def chrome_trace(trace: Mapping[str, Any], pid: int = 1, tid: int = 1) -> Dict[str, Any]:
    """Convert a stored trace dict to Chrome trace-event JSON.

    The result loads directly in Perfetto (https://ui.perfetto.dev) or
    Chrome's ``about://tracing``: complete (``ph: "X"``) events for spans,
    instant (``ph: "i"``) events for milestones, timestamps in microseconds.
    """
    trace_events: List[Dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": tid,
            "args": {"name": "repro-engine"},
        }
    ]
    for span in trace.get("spans", ()):
        event = {
            "name": span["name"],
            "cat": span.get("cat", "engine"),
            "ph": "X",
            "ts": round(span["start"] * 1e6, 3),
            "dur": round(span["dur"] * 1e6, 3),
            "pid": pid,
            "tid": tid,
        }
        if span.get("args"):
            event["args"] = span["args"]
        trace_events.append(event)
    for instant in trace.get("events", ()):
        event = {
            "name": instant["name"],
            "cat": instant.get("cat", "engine"),
            "ph": "i",
            "s": "t",
            "ts": round(instant["ts"] * 1e6, 3),
            "pid": pid,
            "tid": tid,
        }
        if instant.get("args"):
            event["args"] = instant["args"]
        trace_events.append(event)
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


# ---------------------------------------------------------------------------
# Structured logging
# ---------------------------------------------------------------------------

_LOG_CONTEXT: ContextVar[Tuple[Tuple[str, str], ...]] = ContextVar(
    "repro_log_context", default=()
)

#: LogRecord attributes that are plumbing, not user-supplied extras.
_RESERVED_RECORD_FIELDS = frozenset(
    {
        "name",
        "msg",
        "args",
        "levelname",
        "levelno",
        "pathname",
        "filename",
        "module",
        "exc_info",
        "exc_text",
        "stack_info",
        "lineno",
        "funcName",
        "created",
        "msecs",
        "relativeCreated",
        "thread",
        "threadName",
        "processName",
        "process",
        "message",
        "asctime",
        "taskName",
    }
)


@contextmanager
def log_context(**fields: Any) -> Iterator[None]:
    """Bind correlation fields (request_id, fingerprint, ...) to this context.

    Fields set here appear on every log line emitted inside the block, in
    this task/thread, including lines from deeper layers that know nothing
    about HTTP requests.
    """
    merged = dict(_LOG_CONTEXT.get())
    merged.update({key: str(value) for key, value in fields.items() if value is not None})
    token = _LOG_CONTEXT.set(tuple(merged.items()))
    try:
        yield
    finally:
        _LOG_CONTEXT.reset(token)


def current_log_context() -> Dict[str, str]:
    """The active correlation fields, e.g. for shipping to worker processes."""
    return dict(_LOG_CONTEXT.get())


def _record_extras(record: logging.LogRecord) -> Dict[str, Any]:
    return {
        key: value
        for key, value in record.__dict__.items()
        if key not in _RESERVED_RECORD_FIELDS and not key.startswith("_")
    }


class JsonLogFormatter(logging.Formatter):
    """One JSON object per line: ts, level, logger, message, context, extras."""

    def format(self, record: logging.LogRecord) -> str:
        payload: Dict[str, Any] = {
            "ts": round(record.created, 6),
            "level": record.levelname.lower(),
            "logger": record.name,
            "message": record.getMessage(),
        }
        payload.update(_LOG_CONTEXT.get())
        payload.update(_record_extras(record))
        if record.exc_info:
            payload["exc"] = self.formatException(record.exc_info)
        return json.dumps(payload, default=str, separators=(",", ":"))


class TextLogFormatter(logging.Formatter):
    """Human-oriented single line with the correlation context appended."""

    def format(self, record: logging.LogRecord) -> str:
        base = (
            f"{self.formatTime(record, '%H:%M:%S')} {record.levelname.lower():7s} "
            f"{record.name} {record.getMessage()}"
        )
        fields = dict(_LOG_CONTEXT.get())
        fields.update(
            {key: value for key, value in _record_extras(record).items() if value is not None}
        )
        if fields:
            rendered = " ".join(f"{key}={value}" for key, value in fields.items())
            base = f"{base} [{rendered}]"
        if record.exc_info:
            base = f"{base}\n{self.formatException(record.exc_info)}"
        return base


def configure_logging(
    level: str = "info",
    json_lines: bool = False,
    stream: Any = None,
) -> logging.Logger:
    """Configure the ``repro`` logger tree; idempotent (reconfigures).

    Until this runs the library emits nothing below WARNING (stdlib default
    last-resort behaviour), which keeps programmatic use silent.
    """
    logger = logging.getLogger("repro")
    numeric = getattr(logging, level.upper(), None)
    if not isinstance(numeric, int):
        raise ValueError(f"unknown log level {level!r}")
    logger.setLevel(numeric)
    for handler in list(logger.handlers):
        if getattr(handler, "_repro_telemetry", False):
            logger.removeHandler(handler)
    handler = logging.StreamHandler(stream if stream is not None else sys.stderr)
    handler.setFormatter(JsonLogFormatter() if json_lines else TextLogFormatter())
    handler._repro_telemetry = True  # type: ignore[attr-defined]
    logger.addHandler(handler)
    logger.propagate = False
    return logger


def get_logger(name: str) -> logging.Logger:
    """A logger under the ``repro`` hierarchy (``get_logger('serve')``)."""
    if name == "repro" or name.startswith("repro."):
        return logging.getLogger(name)
    return logging.getLogger(f"repro.{name}")
