"""Tests for :mod:`repro.telemetry` -- the unified observability layer.

Covers the metric primitives and registry rendering, the Prometheus
exposition parser/validator (positive and negative cases -- the validator
is itself a deliverable, used by CI to lint the live ``/v1/metrics``
output), counter monotonicity checking, the engine counter
snapshot/delta/merge pipeline that carries worker-process movement back to
the parent, the per-job :class:`EngineRollup`, the opt-in
:class:`TraceRecorder` with its Chrome trace-event export, and the
structured logging stack (context binding, JSON/Text formatters).
"""

import io
import json
import logging
import threading

import pytest

from repro import telemetry
from repro.telemetry import (
    Counter,
    EngineRollup,
    ExpositionError,
    JsonLogFormatter,
    MetricsRegistry,
    TextLogFormatter,
    TraceRecorder,
    chrome_trace,
    counter_regressions,
    current_log_context,
    log_context,
    parse_exposition,
    validate_exposition,
)


class TestMetricPrimitives:
    def test_counter_counts_and_rejects_negative_increments(self):
        counter = Counter("jobs_total", "jobs")
        counter.inc()
        counter.inc(4)
        assert counter.value() == 5
        with pytest.raises(ValueError):
            counter.inc(-1)
        assert counter.value() == 5

    def test_counter_labels_are_independent_series(self):
        counter = Counter("hits_total", "hits", labelnames=("cache",))
        counter.inc(cache="key")
        counter.inc(2, cache="plan")
        assert counter.value(cache="key") == 1
        assert counter.value(cache="plan") == 2
        lines = counter.sample_lines()
        assert 'hits_total{cache="key"} 1' in lines
        assert 'hits_total{cache="plan"} 2' in lines

    def test_counter_rejects_unknown_labels(self):
        counter = Counter("x_total", "x", labelnames=("a",))
        with pytest.raises(ValueError):
            counter.inc(b=1)

    def test_gauge_set_and_callback(self):
        registry = MetricsRegistry()
        manual = registry.gauge("depth", "queue depth")
        manual.set(7)
        assert manual.value() == 7
        state = {"n": 3}
        registry.gauge("live", "live value", callback=lambda: state["n"])
        text = registry.render()
        assert "depth 7" in text
        assert "live 3" in text
        state["n"] = 9
        assert "live 9" in registry.render()

    def test_summary_quantiles_and_lifetime_counts(self):
        registry = MetricsRegistry()
        summary = registry.summary(
            "latency_seconds", "latency", labelnames=("endpoint",), quantiles=(0.5,)
        )
        for value in (0.1, 0.2, 0.3):
            summary.observe(value, endpoint="jobs")
        assert summary.count(endpoint="jobs") == 3
        text = registry.render()
        assert 'latency_seconds{endpoint="jobs",quantile="0.5"} 0.2' in text
        assert 'latency_seconds_count{endpoint="jobs"} 3' in text
        window, count, total = summary.snapshot()[(("endpoint", "jobs"),)]
        assert window == [0.1, 0.2, 0.3]
        assert count == 3
        assert total == pytest.approx(0.6)

    def test_integer_values_render_without_decimal_point(self):
        counter = Counter("n_total", "n")
        counter.inc(2)
        assert counter.sample_lines() == ["n_total 2"]


class TestRegistry:
    def test_duplicate_registration_rejected(self):
        registry = MetricsRegistry()
        registry.counter("a_total", "a")
        with pytest.raises(ValueError):
            registry.counter("a_total", "again")

    def test_invalid_metric_name_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("bad-name", "dashes are not allowed")

    def test_render_announces_every_family_and_lints_clean(self):
        registry = MetricsRegistry()
        registry.counter("jobs_total", "jobs executed").inc(3)
        registry.gauge("depth", "queue depth").set(1)
        summary = registry.summary("lat", "latency", quantiles=(0.5, 0.99))
        summary.observe(0.25)
        text = registry.render()
        assert "# HELP jobs_total jobs executed" in text
        assert "# TYPE jobs_total counter" in text
        assert "# TYPE lat summary" in text
        assert validate_exposition(text) == []

    def test_label_values_escaped_round_trip(self):
        registry = MetricsRegistry()
        counter = registry.counter("odd_total", "odd labels", labelnames=("name",))
        tricky = 'quote " slash \\ newline \n end'
        counter.inc(5, name=tricky)
        text = registry.render()
        assert validate_exposition(text) == []
        parsed = parse_exposition(text)
        assert parsed.samples[("odd_total", (("name", tricky),))] == 5


class TestExpositionValidator:
    def test_unannounced_sample_flagged(self):
        problems = validate_exposition("mystery_total 1\n")
        assert any("mystery_total" in problem for problem in problems)

    def test_duplicate_type_announcement_flagged(self):
        text = "# TYPE a counter\n# TYPE a counter\na 1\n"
        assert any("duplicate" in problem for problem in validate_exposition(text))

    def test_negative_counter_flagged(self):
        text = "# HELP a help\n# TYPE a counter\na -1\n"
        assert any("invalid value" in problem for problem in validate_exposition(text))

    def test_quantile_out_of_range_flagged(self):
        text = (
            "# HELP s help\n# TYPE s summary\n"
            's{quantile="1.5"} 3\ns_sum 3\ns_count 1\n'
        )
        assert validate_exposition(text) != []

    def test_summary_missing_sum_count_flagged(self):
        text = '# HELP s help\n# TYPE s summary\ns{quantile="0.5"} 3\n'
        assert validate_exposition(text) != []

    def test_malformed_sample_line_raises_in_parser(self):
        with pytest.raises(ExpositionError):
            parse_exposition("this is not a sample\n")

    def test_counter_regressions_detects_decrease(self):
        head = "# HELP a help\n# TYPE a counter\n"
        assert counter_regressions(head + "a 5\n", head + "a 7\n") == []
        problems = counter_regressions(head + "a 5\n", head + "a 2\n")
        assert len(problems) == 1 and "a" in problems[0]

    def test_counter_regressions_ignores_gauges(self):
        head = "# HELP g help\n# TYPE g gauge\n"
        assert counter_regressions(head + "g 5\n", head + "g 2\n") == []


class TestEngineRollup:
    STATS = {
        "elapsed_seconds": 0.5,
        "configurations_explored": 10,
        "candidates_generated": 40,
        "guard_rejections": 4,
        "duplicate_keys_pruned": 6,
        "plan_rejected_pre_materialization": 2,
        "plan_enumeration_pruned": 3,
        "key_cache_hits": 8,
        "key_cache_misses": 2,
    }

    def test_record_accumulates_and_derives(self):
        rollup = EngineRollup()
        rollup.record(self.STATS)
        rollup.record(self.STATS)
        assert rollup.jobs == 2
        assert rollup.totals["configurations_explored"] == 20
        assert rollup.candidates_pruned == 2 * (4 + 6 + 2 + 3)
        assert rollup.cache_hit_rate == pytest.approx(0.8)
        payload = rollup.as_dict()
        assert payload["jobs"] == 2
        assert payload["engine_seconds"] == pytest.approx(1.0)
        assert payload["candidates_pruned"] == rollup.candidates_pruned

    def test_record_folds_memo_counts(self):
        rollup = EngineRollup()
        plans = {"engine_transition_plans": {"hits": 3, "misses": 2, "evictions": 0}}
        placements = {"trees_placements": {"hits": 1, "misses": 4, "evictions": 1}}
        rollup.record({**self.STATS, "caches": plans})
        rollup.record({**self.STATS, "caches": {**plans, **placements}})
        rollup.record(self.STATS)  # a result that carries no memo counts
        assert rollup.jobs == 3
        assert rollup.cache_counts("hits") == {"engine_transition_plans": 6, "trees_placements": 1}
        assert rollup.cache_counts("evictions") == {
            "engine_transition_plans": 0,
            "trees_placements": 1,
        }
        assert rollup.as_dict()["caches"]["trees_placements"]["misses"] == 4

    def test_record_is_inert_for_none(self):
        rollup = EngineRollup()
        rollup.record(None)
        assert rollup.jobs == 0
        assert rollup.as_dict()["configurations_explored"] == 0

    def test_thread_safe_accumulation(self):
        rollup = EngineRollup()
        threads = [
            threading.Thread(target=lambda: [rollup.record(self.STATS) for _ in range(50)])
            for _ in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert rollup.jobs == 200
        assert rollup.totals["configurations_explored"] == 2000


class TestTraceRecorder:
    def test_spans_events_and_as_dict(self):
        recorder = TraceRecorder()
        with recorder.span("compile", "plan") as args:
            args["plans"] = 4
        recorder.instant("milestone", depth=2)
        payload = recorder.as_dict()
        assert payload["version"] == telemetry.TRACE_FORMAT_VERSION
        assert payload["unit"] == "seconds"
        (span,) = payload["spans"]
        assert span["name"] == "compile" and span["args"] == {"plans": 4}
        assert span["dur"] >= 0
        (event,) = payload["events"]
        assert event["name"] == "milestone" and event["args"] == {"depth": 2}
        assert payload["dropped"] == 0

    def test_span_cap_counts_drops(self):
        recorder = TraceRecorder(max_spans=2)
        for index in range(5):
            recorder.add_span(f"s{index}", "engine", 0.0, 0.1)
        assert len(recorder.spans) == 2
        assert recorder.dropped == 3

    def test_chrome_trace_export_shape(self):
        recorder = TraceRecorder()
        with recorder.span("drive", "engine"):
            pass
        recorder.instant("goal")
        exported = chrome_trace(recorder.as_dict(), pid=7, tid=3)
        assert exported["displayTimeUnit"] == "ms"
        events = exported["traceEvents"]
        assert events[0]["ph"] == "M"  # process-name metadata first
        phases = {event["ph"] for event in events}
        assert phases == {"M", "X", "i"}
        complete = next(event for event in events if event["ph"] == "X")
        assert complete["pid"] == 7 and complete["tid"] == 3
        assert complete["ts"] >= 0 and complete["dur"] >= 0  # microseconds
        json.dumps(exported)  # must be directly serializable for Perfetto


class TestStructuredLogging:
    def _capture(self, formatter):
        stream = io.StringIO()
        handler = logging.StreamHandler(stream)
        handler.setFormatter(formatter)
        logger = logging.getLogger("repro.test_telemetry")
        logger.setLevel(logging.DEBUG)
        logger.addHandler(handler)
        return logger, handler, stream

    def test_json_lines_carry_context_and_extras(self):
        logger, handler, stream = self._capture(JsonLogFormatter())
        try:
            with log_context(request_id="abc123", fingerprint="deadbeef"):
                logger.info("request", extra={"ms": 12.5})
        finally:
            logger.removeHandler(handler)
        payload = json.loads(stream.getvalue())
        assert payload["message"] == "request"
        assert payload["level"] == "info"
        assert payload["request_id"] == "abc123"
        assert payload["fingerprint"] == "deadbeef"
        assert payload["ms"] == 12.5

    def test_text_formatter_appends_fields(self):
        logger, handler, stream = self._capture(TextLogFormatter())
        try:
            with log_context(request_id="abc123"):
                logger.warning("slow", extra={"ms": 99})
        finally:
            logger.removeHandler(handler)
        line = stream.getvalue().strip()
        assert "warning" in line and "slow" in line
        assert "request_id=abc123" in line and "ms=99" in line

    def test_log_context_nests_and_restores(self):
        assert current_log_context() == {}
        with log_context(request_id="outer"):
            with log_context(fingerprint="inner"):
                assert current_log_context() == {
                    "request_id": "outer",
                    "fingerprint": "inner",
                }
            assert current_log_context() == {"request_id": "outer"}
        assert current_log_context() == {}

    def test_configure_logging_is_idempotent(self):
        stream = io.StringIO()
        logger = telemetry.configure_logging("debug", json_lines=True, stream=stream)
        try:
            telemetry.configure_logging("debug", json_lines=True, stream=stream)
            ours = [h for h in logger.handlers if getattr(h, "_repro_telemetry", False)]
            assert len(ours) == 1  # reconfigure replaces, never stacks
            telemetry.get_logger("serve").debug("hello")
            assert json.loads(stream.getvalue())["message"] == "hello"
        finally:
            for handler in list(logger.handlers):
                if getattr(handler, "_repro_telemetry", False):
                    logger.removeHandler(handler)

    def test_configure_logging_rejects_unknown_level(self):
        with pytest.raises(ValueError):
            telemetry.configure_logging("loud")
