"""Tests for the observability layer (``repro.obs``).

Covers the ring-buffered tracer, histogram bucket math, the
zero-cost-when-disabled contract of the hot-path instrumentation, the
JSONL / Chrome exporters, and the differential guarantee that the
scalar and vectorized backends emit identical deterministic event
sequences for the same seed.
"""

from __future__ import annotations

import json

import pytest

from conftest import replay_program
from repro import obs
from repro.obs.events import (
    ActBatchEvent,
    FlipEvent,
    RefreshWindowEvent,
    SpanEvent,
    TraceEvent,
    TrrSampleEvent,
    event_from_payload,
    signature_of,
)
from repro.obs.export import (
    ExportError,
    read_jsonl,
    render_summary,
    sequence_signature,
    summarize,
    to_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.metrics import (
    COUNT_EDGES,
    Histogram,
    MetricsError,
    MetricsRegistry,
)
from repro.obs.tracer import Tracer, TracerError


@pytest.fixture(autouse=True)
def _obs_clean_slate():
    """Every test starts and finishes with observability fully off."""
    obs.disable(reset=True)
    yield
    obs.disable(reset=True)


def _flip(row: int, when: float = 0.0) -> FlipEvent:
    return FlipEvent(socket=0, bank=0, row=row, bit=1, aggressor_row=2, when=when)


class TestTracer:
    def test_records_in_order(self):
        tr = Tracer(capacity=8)
        for row in range(5):
            tr.record(_flip(row))
        assert [e.row for e in tr.events()] == [0, 1, 2, 3, 4]
        assert tr.emitted == 5
        assert tr.dropped == 0

    def test_ring_evicts_oldest(self):
        tr = Tracer(capacity=4)
        for row in range(7):
            tr.record(_flip(row))
        assert [e.row for e in tr.events()] == [3, 4, 5, 6]
        assert tr.emitted == 7
        assert tr.dropped == 3

    def test_last_clock_tracks_when(self):
        tr = Tracer()
        tr.record(_flip(0, when=1.5))
        tr.record(ActBatchEvent(socket=0, bank=0, rows=3, when=None))
        assert tr.last_clock == 1.5

    def test_clear(self):
        tr = Tracer(capacity=2)
        for row in range(5):
            tr.record(_flip(row))
        tr.clear()
        assert tr.events() == [] and tr.emitted == 0 and tr.dropped == 0

    def test_rejects_bad_capacity(self):
        with pytest.raises(TracerError):
            Tracer(capacity=0)


class TestHistogram:
    def test_bucket_math(self):
        h = Histogram("t", (1, 2, 4, 8))
        for v in (0.5, 1, 1.5, 2, 3, 9, 100):
            h.observe(v)
        # (-inf,1] (1,2] (2,4] (4,8] (8,inf]
        assert h.buckets == [2, 2, 1, 0, 2]
        assert h.count == 7
        assert h.total == pytest.approx(117.0)
        assert h.min == 0.5 and h.max == 100

    def test_bucket_bounds(self):
        h = Histogram("t", (1, 2))
        assert h.bucket_bounds() == [
            (float("-inf"), 1.0),
            (1.0, 2.0),
            (2.0, float("inf")),
        ]

    def test_edges_must_increase(self):
        with pytest.raises(MetricsError):
            Histogram("t", (2, 1))
        with pytest.raises(MetricsError):
            Histogram("t", (1, 1, 2))
        with pytest.raises(MetricsError):
            Histogram("t", ())


class TestMetricsRegistry:
    def test_counter_monotone(self):
        reg = MetricsRegistry()
        c = reg.counter("x")
        c.inc()
        c.inc(2.5)
        assert reg.counter("x").value == 3.5
        with pytest.raises(MetricsError):
            c.inc(-1)

    def test_gauge_moves_both_ways(self):
        reg = MetricsRegistry()
        g = reg.gauge("x")
        g.set(10)
        g.add(-3)
        assert g.value == 7

    def test_fold_event_derives_counters(self):
        reg = MetricsRegistry()
        reg.fold_event(ActBatchEvent(socket=0, bank=0, rows=64))
        reg.fold_event(_flip(1))
        reg.fold_event(_flip(2))
        reg.fold_event(SpanEvent(name="phase", wall_ns=5000))
        snap = reg.snapshot()
        assert snap["counters"]["dram.flips"] == 2
        assert snap["counters"]["dram.act_batches"] == 1
        assert snap["counters"]["dram.batched_acts"] == 64
        assert snap["histograms"]["span.phase.wall_ns"]["count"] == 1

    def test_render_text(self):
        reg = MetricsRegistry()
        reg.counter("a.b").inc(3)
        reg.gauge("c").set(1.5)
        reg.histogram("h", (1, 2)).observe(1.5)
        text = reg.render_text()
        assert "counter a.b 3" in text
        assert "gauge c 1.5" in text
        assert "histogram h count=1" in text

    def test_reset(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        reg.reset()
        assert reg.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}


def _counted_init(init, counts, key="built"):
    def counted(self, *args, **kwargs):
        counts[key] += 1
        init(self, *args, **kwargs)

    return counted


def _count_events(monkeypatch) -> dict:
    """Count ``obs.emit`` calls, ``TraceEvent`` constructions (every
    subclass) and ``Span`` constructions from here on; the real emit
    still runs."""
    counts = {"emit": 0, "built": 0, "spans": 0}
    real_emit = obs.emit

    def emit(event):
        counts["emit"] += 1
        real_emit(event)

    monkeypatch.setattr(obs, "emit", emit)
    todo = [TraceEvent]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if "__init__" in vars(cls):
            monkeypatch.setattr(cls, "__init__", _counted_init(cls.__init__, counts))
    monkeypatch.setattr(
        obs.Span, "__init__", _counted_init(obs.Span.__init__, counts, "spans")
    )
    return counts


def _chaos_campaign_run() -> None:
    from repro.chaos import ChaosPlan
    from repro.fleet import ClusterCampaign, ClusterConfig

    config = ClusterConfig(hosts=2, vms=4, budget=1, workers=1)
    plan = ChaosPlan.generate(0, config.hosts, events=4, arrivals=config.vms)
    ClusterCampaign(config, plan).run()


class TestDisabledPath:
    """The zero-cost contract: disabled tracing constructs nothing."""

    def test_disabled_campaign_builds_and_emits_no_events(self, monkeypatch):
        counts = _count_events(monkeypatch)
        _chaos_campaign_run()
        assert counts == {"emit": 0, "built": 0, "spans": 0}

    def test_enabled_campaign_is_seen_by_the_probe(self, monkeypatch):
        counts = _count_events(monkeypatch)
        obs.enable(reset=True)
        _chaos_campaign_run()
        assert counts["emit"] > 0 and counts["built"] > 0

    def test_disabled_ce_storm_builds_no_events_or_spans(self, monkeypatch):
        from repro.faults.scenario import run_ce_storm_scenario

        counts = _count_events(monkeypatch)
        assert run_ce_storm_scenario(seed=7).success
        assert counts == {"emit": 0, "built": 0, "spans": 0}

    def test_enabled_ce_storm_is_seen_by_the_span_probe(self, monkeypatch):
        from repro.faults.scenario import run_ce_storm_scenario

        counts = _count_events(monkeypatch)
        obs.enable(reset=True)
        assert run_ce_storm_scenario(seed=7).success
        assert counts["spans"] >= 1
        assert counts["emit"] > 0 and counts["built"] > 0

    def test_emit_while_disabled_is_safe_noop(self):
        obs.emit(_flip(0))  # must not raise, must not record anywhere
        assert obs.tracer() is None

    def test_span_while_disabled_is_null(self):
        span = obs.span("x")
        assert span is obs.NULL_SPAN
        with span:
            pass

    def test_hot_path_emits_nothing_while_disabled(self, monkeypatch):
        from repro.hv.machine import Machine

        calls = []
        monkeypatch.setattr(obs, "emit", lambda e: calls.append(e))
        dram = Machine.small(seed=1, backend="vectorized").dram
        dram.activate_batch(0, 0, [10, 12] * 500)
        dram.patrol_scrub()
        assert calls == []

    def test_enable_disable_round_trip(self):
        tr = obs.enable(reset=True)
        obs.emit(_flip(0))
        assert tr.emitted == 1
        obs.disable()
        obs.emit(_flip(1))  # dropped: flag is off
        assert tr.emitted == 1
        # Re-enabling without reset keeps the buffer.
        assert obs.enable() is tr
        assert len(tr.events()) == 1


class TestExport:
    def _events(self):
        return [
            ActBatchEvent(socket=0, bank=1, rows=8, when=0.25),
            _flip(5, when=0.5),
            TrrSampleEvent(socket=0, bank=1, row=9, when=0.75),
            SpanEvent(name="phase", wall_ns=1234, when=None),
        ]

    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "t.jsonl"
        events = self._events()
        assert write_jsonl(path, events) == 4
        back = read_jsonl(path)
        assert back == events

    def test_jsonl_lines_are_valid_json(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_jsonl(path, self._events())
        for i, line in enumerate(path.read_text().splitlines()):
            record = json.loads(line)
            assert record["seq"] == i and "kind" in record

    def test_jsonl_bad_line_raises_with_lineno(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "flip"}\nnot-json\n')
        with pytest.raises(ExportError, match="2"):
            read_jsonl(path)

    def test_chrome_trace_shape(self, tmp_path):
        doc = to_chrome_trace(self._events())
        assert doc["traceEvents"][0]["ph"] == "M"  # process-name metadata
        instants = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(instants) == 3 and len(spans) == 1
        # Simulated seconds become microseconds on the timeline.
        assert instants[0]["ts"] == pytest.approx(0.25e6)
        # The clockless span inherits the last clock seen on the stream.
        assert spans[0]["ts"] == pytest.approx(0.75e6)
        assert spans[0]["dur"] == pytest.approx(1234 / 1e3)
        path = tmp_path / "ct.json"
        assert write_chrome_trace(path, self._events()) == 5
        json.loads(path.read_text())  # must be a valid JSON document

    def test_sequence_signature_excludes_spans(self):
        sigs = sequence_signature(self._events())
        assert len(sigs) == 3
        assert all(s[0] != "span" for s in sigs)
        assert signature_of(SpanEvent(name="x", wall_ns=1)) is None

    def test_summarize_and_render(self):
        summary = summarize(self._events())
        assert summary["events"] == 4
        assert summary["by_kind"]["flip"] == 1
        assert summary["first_clock"] == 0.25 and summary["last_clock"] == 0.75
        text = render_summary(summary, dropped=2)
        assert "trace events: 4 (dropped: 2)" in text

    def test_event_from_payload_unknown_kind(self):
        with pytest.raises(KeyError):
            event_from_payload("nope", {})


class TestSpans:
    def test_span_times_and_folds(self):
        obs.enable(reset=True)
        with obs.span("unit.test", sim_when=1.0) as span:
            sum(range(100))
        assert span.wall_ns >= 0
        events = obs.tracer().events()
        assert events and events[-1].kind == "span"
        assert events[-1].when == 1.0
        hist = obs.metrics_snapshot()["histograms"]["span.unit.test.wall_ns"]
        assert hist["count"] == 1


class TestInstrumentation:
    """Events fire from the real hot paths when enabled."""

    def test_hammer_emits_batch_and_flip_events(self):
        from repro.hv.machine import Machine

        obs.enable(reset=True)
        dram = Machine.small(seed=11, backend="vectorized").dram
        dram.activate_batch(0, 0, [100, 102] * 3000)
        kinds = summarize(obs.tracer().events())["by_kind"]
        assert kinds["act_batch"] == 1
        assert kinds["flip"] == len(dram.disturbance.flips)
        snap = obs.metrics_snapshot()
        assert snap["counters"]["dram.flips"] == kinds["flip"]
        assert snap["gauges"]["machine.sockets"] == 1

    def test_refresh_window_event(self):
        from repro.dram.geometry import DRAMGeometry
        from repro.dram.module import SimulatedDram

        obs.enable(reset=True)
        dram = SimulatedDram(DRAMGeometry.small())
        dram.advance_time(dram.refresh_window * 1.5)
        dram.advance_time(dram.refresh_window * 1.5)
        kinds = summarize(obs.tracer().events())["by_kind"]
        assert kinds["refresh_window"] >= 2

    def test_ce_storm_scenario_covers_runtime_stack(self):
        from repro.faults.scenario import run_ce_storm_scenario

        obs.enable(reset=True)
        result = run_ce_storm_scenario(seed=7, backend="vectorized")
        assert result.success
        kinds = summarize(obs.tracer().events())["by_kind"]
        for expected in (
            "fault_injection",
            "ecc_word",
            "health_transition",
            "remap",
            "remediation",
            "span",
        ):
            assert expected in kinds, f"missing {expected!r} in {kinds}"
        counters = obs.metrics_snapshot()["counters"]
        assert counters["health.to_offlined"] >= 1
        assert counters["hv.remaps"] >= 1


class TestBackendEquivalence:
    """Scalar and vectorized backends emit identical deterministic traces
    (tracing routes every vectorized batch through its per-ACT loop)."""

    @pytest.mark.parametrize("seed", [7, 21])
    def test_ce_storm_sequences_match(self, seed):
        from repro.faults.scenario import run_ce_storm_scenario

        sigs = {}
        for backend in ("scalar", "vectorized"):
            obs.enable(reset=True)
            run_ce_storm_scenario(seed=seed, backend=backend)
            sigs[backend] = sequence_signature(obs.tracer().events())
            obs.disable(reset=True)
        assert sigs["scalar"], "scenario emitted no deterministic events"
        assert sigs["scalar"] == sigs["vectorized"]

    @pytest.mark.parametrize("seed", [3, 12])
    def test_replay_program_sequences_match(self, seed):
        sigs = {}
        for backend in ("scalar", "vectorized"):
            obs.enable(reset=True)
            replay_program(backend, seed)
            sigs[backend] = sequence_signature(obs.tracer().events())
            obs.disable(reset=True)
        assert sigs["scalar"], "replay emitted no deterministic events"
        assert sigs["scalar"] == sigs["vectorized"]

    def test_tracing_does_not_perturb_results(self):
        """Tracing must not consume RNG: same transcript on or off."""
        plain = replay_program("vectorized", 5)
        obs.enable(reset=True)
        traced = replay_program("vectorized", 5)
        obs.disable(reset=True)
        assert plain == traced
