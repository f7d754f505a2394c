"""Tests for the unified observability layer (repro.obs): span schema,
the one tracer both substrates record into, Chrome-trace/CSV exporters,
report math, and the cross-substrate smoke check that
both substrates emit the same event names for the same scenario."""

import json

import numpy as np
import pytest

from repro.cluster import Machine, summit
from repro.core import AxoNNConfig, WEAK_SCALING_MODELS, simulate_batch
from repro.nn import GPTConfig
from repro.obs import (
    CATEGORIES,
    STREAMS,
    ObsSpan,
    Tracer,
    busy_time,
    chrome_trace,
    csv_rows,
    idle_breakdown,
    member_events,
    message_volume,
    overlap_stats,
    overlap_time,
    pass_widths,
    summarize,
    utilization_report,
    validate_span,
    write_chrome_trace,
)
from repro.runtime import AxoNNTrainer


def span(rank=0, stream="compute", name="k", start=0.0, end=1.0,
         category="compute", **kw):
    return ObsSpan(rank, stream, name, start, end, category, **kw)


class TestSchema:
    def test_track_and_duration(self):
        s = span(rank=3, stream="aux", start=1.0, end=2.5)
        assert s.track == "gpu3.aux"
        assert s.duration == pytest.approx(1.5)

    def test_validate_accepts_all_categories(self):
        for cat in CATEGORIES:
            validate_span(span(category=cat))

    def test_validate_rejects_bad_spans(self):
        with pytest.raises(ValueError):
            validate_span(span(rank=-1))
        with pytest.raises(ValueError):
            validate_span(span(start=2.0, end=1.0))
        with pytest.raises(ValueError):
            validate_span(span(category="mystery"))
        with pytest.raises(ValueError):
            validate_span(span(nbytes=-4))


class TestRuntimeTracer:
    """:class:`Tracer`, the one tracer the runtime, serving, fleet and the
    DES record into."""

    def _clock(self):
        ticks = iter(np.arange(0.0, 100.0, 1.0))
        return lambda: float(next(ticks))

    def test_record_and_span_context(self):
        tr = Tracer(clock=self._clock())  # origin consumes tick 0
        with tr.span(0, "compute", "fwd0", category="compute",
                     microbatch=0):
            pass  # start=1, end=2 relative to origin 0
        tr.record(1, "net", "forward", 0.5, 2.5, category="p2p",
                  nbytes=64, src=1, dst=2)
        assert [s.name for s in tr.spans] == ["fwd0", "forward"]
        assert tr.spans[0].duration == pytest.approx(1.0)
        assert tr.spans[1].with_meta() == {"src": 1, "dst": 2}
        assert tr.tracks() == ["gpu0.compute", "gpu1.net"]
        assert [s.name for s in tr.by_category("p2p")] == ["forward"]

    def test_disabled_tracer_is_inert(self):
        tr = Tracer(enabled=False)
        tr.record(0, "compute", "x", 0.0, 1.0)
        with tr.span(0, "compute", "y"):
            pass
        assert tr.spans == []

    def test_end_before_start_rejected(self):
        tr = Tracer()
        with pytest.raises(ValueError):
            tr.record(0, "compute", "x", 2.0, 1.0)

    def test_unknown_category_rejected(self):
        tr = Tracer()
        with pytest.raises(ValueError, match="unknown category"):
            tr.record(0, "compute", "x", 0.0, 1.0, category="exotic")
        assert tr.spans == []


class TestChromeTraceExport:
    def _spans(self):
        return [
            span(rank=0, stream="compute", name="fwd0", start=0.0, end=1.5,
                 category="compute", microbatch=0),
            span(rank=0, stream="aux", name="allreduce", start=0.5, end=2.0,
                 category="allreduce", nbytes=4096),
            span(rank=1, stream="compute", name="fwd0", start=0.0, end=1.0,
                 category="compute", microbatch=0,
                 meta=(("stage", 1),)),
        ]

    def test_round_trips_through_json(self, tmp_path):
        path = tmp_path / "trace.json"
        assert write_chrome_trace(str(path), self._spans()) == 3
        doc = json.loads(path.read_text())
        assert doc["displayTimeUnit"] == "ms"
        assert isinstance(doc["traceEvents"], list)

    def test_complete_events_have_required_fields(self):
        doc = chrome_trace(self._spans())
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(complete) == 3
        for e in complete:
            for key in ("name", "ts", "dur", "pid", "tid", "args"):
                assert key in e, key

    def test_timestamps_are_microseconds(self):
        doc = chrome_trace(self._spans())
        e = next(ev for ev in doc["traceEvents"]
                 if ev["ph"] == "X" and ev["name"] == "allreduce")
        assert e["ts"] == pytest.approx(0.5e6)
        assert e["dur"] == pytest.approx(1.5e6)

    def test_one_pid_per_rank_with_metadata(self):
        doc = chrome_trace(self._spans())
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert {e["pid"] for e in complete} == {0, 1}
        proc_meta = [e for e in doc["traceEvents"]
                     if e["ph"] == "M" and e["name"] == "process_name"]
        assert {e["pid"] for e in proc_meta} == {0, 1}
        assert {e["args"]["name"] for e in proc_meta} == \
            {"rank 0", "rank 1"}
        thread_meta = [e for e in doc["traceEvents"]
                       if e["ph"] == "M" and e["name"] == "thread_name"]
        assert {(e["pid"], e["args"]["name"]) for e in thread_meta} == \
            {(0, "compute"), (0, "aux"), (1, "compute")}

    def test_canonical_streams_get_stable_tids(self):
        doc = chrome_trace(self._spans())
        by_name = {(e["pid"], e["name"]): e for e in doc["traceEvents"]
                   if e["ph"] == "X"}
        assert by_name[(0, "fwd0")]["tid"] == STREAMS.index("compute")
        assert by_name[(0, "allreduce")]["tid"] == STREAMS.index("aux")

    def test_args_carry_payload_and_meta(self):
        doc = chrome_trace(self._spans())
        e = next(ev for ev in doc["traceEvents"]
                 if ev["ph"] == "X" and ev["pid"] == 1)
        assert e["args"]["category"] == "compute"
        assert e["args"]["microbatch"] == 0
        assert e["args"]["stage"] == 1

    def test_csv_rows_flatten_meta(self):
        rows = csv_rows(self._spans())
        assert rows[0]["name"] == "fwd0"
        assert rows[2]["stage"] == 1
        assert rows[1]["nbytes"] == 4096


class TestReports:
    def test_busy_and_overlap_time(self):
        a = [span(name="a1", start=0, end=2), span(name="a2", start=1, end=3)]
        b = [span(name="b", start=2.5, end=4, category="p2p")]
        assert busy_time(a) == pytest.approx(3.0)
        assert overlap_time(a, b) == pytest.approx(0.5)

    def test_overlap_stats_fraction(self):
        spans = [
            span(name="ar", start=0, end=4, category="allreduce",
                 stream="aux"),
            span(name="opt1", start=1, end=2, category="optimizer"),
            span(name="opt2", start=5, end=6, category="optimizer"),
        ]
        stats = overlap_stats(spans, "allreduce", "optimizer")
        assert stats["a_busy_s"] == pytest.approx(4.0)
        assert stats["b_busy_s"] == pytest.approx(2.0)
        assert stats["overlap_s"] == pytest.approx(1.0)
        assert stats["overlap_fraction"] == pytest.approx(0.5)
        assert (stats["n_a"], stats["n_b"]) == (1, 2)

    def test_overlap_stats_empty_b(self):
        stats = overlap_stats([span()], "compute", "optimizer")
        assert stats["overlap_fraction"] == 0.0

    def test_utilization_report_windows_and_clips(self):
        spans = [span(rank=0, start=0, end=2),
                 span(rank=1, start=1, end=4, stream="aux",
                      category="allreduce", name="ar")]
        rows = utilization_report(spans)  # window [0, 4]
        by_track = {(r["rank"], r["stream"]): r for r in rows}
        assert by_track[(0, "compute")]["utilization"] == pytest.approx(0.5)
        assert by_track[(1, "aux")]["utilization"] == pytest.approx(0.75)
        clipped = utilization_report(spans, t0=3, t1=4)
        by_track = {(r["rank"], r["stream"]): r for r in clipped}
        assert by_track[(0, "compute")]["busy_s"] == pytest.approx(0.0)
        assert by_track[(1, "aux")]["busy_s"] == pytest.approx(1.0)

    def test_idle_breakdown_sums_to_window(self):
        spans = [span(start=0, end=1),
                 span(name="opt", start=3, end=4, category="optimizer")]
        (row,) = idle_breakdown(spans)  # one track, window [0, 4]
        assert row["compute_s"] == pytest.approx(1.0)
        assert row["optimizer_s"] == pytest.approx(1.0)
        assert row["idle_s"] == pytest.approx(2.0)

    def test_message_volume_matrix(self):
        spans = [
            span(rank=0, stream="net", name="forward", category="p2p",
                 nbytes=100, meta=(("dst", 1), ("src", 0))),
            span(rank=0, stream="net", name="forward", category="p2p",
                 nbytes=50, meta=(("dst", 1), ("src", 0))),
            span(rank=1, stream="net", name="backward", category="p2p",
                 nbytes=70, meta=(("dst", 0), ("src", 1))),
            span(name="not-p2p", category="compute"),
        ]
        matrix = message_volume(spans)
        assert matrix["forward"][(0, 1)] == {"count": 2, "bytes": 150}
        assert matrix["backward"][(1, 0)] == {"count": 1, "bytes": 70}

    def test_summarize_mentions_tracks_and_volume(self):
        text = summarize([
            span(),
            span(rank=0, stream="net", name="forward", category="p2p",
                 nbytes=10, meta=(("dst", 1), ("src", 0))),
        ], title="unit")
        assert "unit" in text
        assert "gpu0.compute" in text
        assert "p2p volume" in text

    def test_summarize_empty(self):
        assert "empty" in summarize([])

    @staticmethod
    def _passes():
        def grouped(rank, name, members):
            return span(rank=rank, name=name, microbatch=members[0],
                        meta=(("microbatches", members),
                              ("width", len(members))))
        return [grouped(0, "fwd0+1", (0, 1)), grouped(0, "bwd0", (0,)),
                grouped(0, "bwd1", (1,)), grouped(1, "fwd0+1", (0, 1)),
                grouped(1, "bwd0+1", (0, 1)), span(name="optimizer",
                                                   category="optimizer")]

    def test_pass_widths_histogram(self):
        assert pass_widths(self._passes()) == {0: {1: 2, 2: 1}, 1: {2: 2}}
        text = summarize(self._passes())
        assert "pass widths" in text
        assert "gpu0  1: 2, 2: 1" in text and "gpu1  2: 2" in text

    def test_member_events_map_a_group_to_its_microbatches(self):
        fwd, bwd = self._passes()[:2]
        assert member_events(fwd) == ["fwd0", "fwd1"]
        assert member_events(bwd) == ["bwd0"]
        assert member_events(span(name="optimizer")) == ["optimizer"]


class TestCrossSubstrate:
    """Both substrates, same 2x2 hybrid scenario, same event names."""

    def test_same_event_names_for_one_hybrid_step(self):
        cfg = AxoNNConfig(
            spec=WEAK_SCALING_MODELS["12B"], num_gpus=4, g_inter=2,
            g_data=2, microbatch_size=2, batch_size=8, memopt=False)
        machine = Machine(spec=summit(1), trace=True)
        simulate_batch(cfg, machine=machine)
        for s in machine.tracer.spans:
            validate_span(s)
        sim_names = {s.name for s in machine.tracer.spans}

        gcfg = GPTConfig(vocab_size=19, seq_len=8, n_layer=4, n_head=2,
                         hidden=12, dropout=0.0, init_seed=3)
        tracer = Tracer()
        trainer = AxoNNTrainer(gcfg, g_inter=2, g_data=2,
                               microbatch_size=2, tracer=tracer)
        rng = np.random.default_rng(3)
        x = rng.integers(0, gcfg.vocab_size, size=(8, gcfg.seq_len))
        y = rng.integers(0, gcfg.vocab_size, size=(8, gcfg.seq_len))
        trainer.train_batch(x, y)
        # Algorithm 2 runs the microbatches that arrived together as one
        # pass, one span (``fwd0+1``, microbatches=(0, 1)); the DES prices
        # each member as its own ``fwd{mb}`` event.
        assert any(s.with_meta().get("width", 1) > 1 for s in tracer.spans)
        runtime_names = {name for s in tracer.spans
                         for name in member_events(s)}

        assert runtime_names == sim_names
        # The names both sides agree on are the algorithm's phases.
        assert {"fwd0", "fwd1", "bwd0", "bwd1", "forward", "backward",
                "allreduce", "optimizer"} <= sim_names

    def test_runtime_trace_categories_and_payload(self):
        self._check_runtime_trace(g_intra=1)

    def test_runtime_trace_categories_and_payload_with_tp(self):
        self._check_runtime_trace(g_intra=2)

    @staticmethod
    def _check_runtime_trace(g_intra):
        gcfg = GPTConfig(vocab_size=19, seq_len=8, n_layer=4, n_head=2,
                         hidden=12, dropout=0.0, init_seed=3)
        tracer = Tracer()
        trainer = AxoNNTrainer(gcfg, g_inter=2, g_data=2 // g_intra,
                               g_intra=g_intra, microbatch_size=2,
                               tracer=tracer)
        rng = np.random.default_rng(4)
        x = rng.integers(0, gcfg.vocab_size, size=(8, gcfg.seq_len))
        y = rng.integers(0, gcfg.vocab_size, size=(8, gcfg.seq_len))
        trainer.train_batch(x, y)
        for s in tracer.spans:
            validate_span(s)
        p2p = [s for s in tracer.spans if s.category == "p2p"]
        # 4 microbatches x (1 fwd + 1 bwd hop), over the data-parallel rows
        assert len([s for s in p2p
                    if s.name in ("forward", "backward")]) == 8
        if g_intra == 1:
            assert len(p2p) == 8
        else:
            assert {s.name for s in p2p} == {
                "forward", "backward", "tp_wgt", "tp_grad"}
        for s in p2p:
            assert s.stream == "net"
            assert s.nbytes and s.nbytes > 0
            meta = s.with_meta()
            assert {"src", "dst"} <= set(meta)
        opt = [s for s in tracer.spans if s.category == "optimizer"]
        assert {s.rank for s in opt} == set(range(0, 4, g_intra))
        tp = [s for s in tracer.spans if s.category == "tp"]
        assert {s.stream for s in tp} == ({"tp"} if g_intra > 1 else set())
