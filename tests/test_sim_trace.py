"""Tests for the DES timeline: the spans the simulated machine records on
its :class:`repro.obs.Tracer`, the interval math over span lists, and the
ASCII timeline."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import MB, Machine, summit
from repro.obs import ObsSpan, busy_time, csv_rows, overlap_time, \
    render_ascii_timeline


def span(rank=0, stream="compute", name="k", start=0.0, end=1.0,
         category="compute", **kw):
    return ObsSpan(rank, stream, name, start, end, category, **kw)


def _traced(trace=True):
    """A one-node machine that ran fwd on gpu0, a gpu0->gpu1 send, then bwd
    on gpu0, each after the last."""
    m = Machine(spec=summit(1), trace=trace)
    gpu = m.gpu(0)

    def step():
        yield from gpu.compute(1e9, label="fwd", microbatch=0)
        yield from m.fabric.transfer(0, 1, 1 * MB, m.cal.mpi, label="send",
                                     microbatch=0)
        yield from gpu.compute(2e9, label="bwd", microbatch=0)

    m.env.process(step())
    m.run()
    return m


def test_record_and_query_by_track():
    tr = _traced().tracer
    assert tr.tracks() == ["gpu0.compute", "gpu0.net"]
    names = [s.name for s in tr.spans if s.track == "gpu0.compute"]
    assert names == ["fwd", "bwd"]


def test_disabled_tracer_records_nothing():
    m = _traced(trace=False)
    assert m.now > 0.0
    assert m.tracer.spans == []


def test_negative_duration_rejected():
    tr = Machine(spec=summit(1), trace=True).tracer
    with pytest.raises(ValueError):
        tr.record(0, "compute", "x", 2.0, 1.0)
    assert tr.spans == []


def test_meta_round_trip():
    (row,) = [r for r in csv_rows(_traced().tracer.spans)
              if r["name"] == "send"]
    assert row["nbytes"] == 1 * MB
    assert row["microbatch"] == 0
    assert (row["src"], row["dst"]) == (0, 1)


def test_by_category():
    m = Machine(spec=summit(1), trace=True)

    def step():
        yield from m.gpu(0).compute(1e9, label="x")
        yield from m.fabric.allreduce([0, 1], 4 * MB, m.cal.nccl, label="y")

    m.env.process(step())
    m.run()
    assert [s.name for s in m.tracer.by_category("allreduce")] == ["y"]
    assert [s.name for s in m.tracer.by_category("compute")] == ["x"]


def test_spans_overlap_detection():
    a = span(name="a", start=0.0, end=2.0)
    b = span(stream="aux", name="b", start=1.0, end=3.0)
    c = span(stream="aux", name="c", start=2.0, end=4.0)
    assert overlap_time([a], [b]) > 0.0
    assert overlap_time([a], [c]) == 0.0  # touching is not overlapping


def test_track_busy_time_merges_intervals():
    spans = [span(start=0, end=2), span(start=1, end=3),
             span(start=5, end=6)]
    assert busy_time(spans) == pytest.approx(4.0)


def test_overlap_time_between_streams():
    # optimizer stream busy [0,2] and [4,6]; allreduce stream busy [1,5]
    opt = [span(start=0, end=2), span(start=4, end=6)]
    ar = [span(stream="aux", start=1, end=5)]
    assert overlap_time(opt, ar) == pytest.approx(2.0)  # [1,2] + [4,5]


def test_overlap_time_zero_when_disjoint():
    opt = [span(start=0, end=1)]
    ar = [span(stream="aux", start=2, end=3)]
    assert overlap_time(opt, ar) == 0.0


def _intervals(max_value, max_size):
    return st.lists(
        st.tuples(st.floats(min_value=0, max_value=max_value, allow_nan=False),
                  st.floats(min_value=0, max_value=max_value, allow_nan=False)),
        min_size=1, max_size=max_size)


@given(ivs=_intervals(100, 30))
@settings(max_examples=100, deadline=None)
def test_busy_time_bounds(ivs):
    """Union time <= sum of durations and >= max single duration."""
    spans = [span(start=min(a, b), end=max(a, b)) for a, b in ivs]
    busy = busy_time(spans)
    assert busy <= sum(s.duration for s in spans) + 1e-9
    assert busy >= max(s.duration for s in spans) - 1e-9


@given(a=_intervals(50, 10), b=_intervals(50, 10))
@settings(max_examples=100, deadline=None)
def test_overlap_time_symmetric_and_bounded(a, b):
    sa = [span(start=min(p, q), end=max(p, q)) for p, q in a]
    sb = [span(stream="aux", start=min(p, q), end=max(p, q)) for p, q in b]
    o1 = overlap_time(sa, sb)
    assert o1 == pytest.approx(overlap_time(sb, sa))
    assert o1 <= min(busy_time(sa), busy_time(sb)) + 1e-9


def _row(text, line=1):
    """The painted bins of the ``line``-th row of a rendered timeline."""
    return text.splitlines()[line].split("|")[1]


def test_render_ascii_contains_all_tracks():
    text = render_ascii_timeline([
        span(stream="compute", start=0, end=1, category="optimizer"),
        span(stream="aux", start=0.5, end=2, category="allreduce"),
    ], width=40)
    assert "gpu0.compute" in text
    assert "gpu0.aux" in text
    assert "o" in text and "a" in text


def test_render_empty_timeline():
    assert "empty" in render_ascii_timeline([])


def test_render_half_open_bins_keep_adjacent_spans_distinct():
    # Regression: the right edge used to be painted inclusively, so a span
    # ending exactly where the next one starts overwrote its first bin.
    text = render_ascii_timeline([
        span(start=0.0, end=1.0, category="optimizer"),
        span(start=1.0, end=2.0, category="allreduce"),
    ], width=10)
    assert _row(text) == "oooooaaaaa"


def test_render_span_does_not_bleed_into_idle_tail():
    text = render_ascii_timeline(
        [span(start=0.0, end=1.0, category="optimizer")], width=10, t1=2.0)
    assert _row(text) == "ooooo....."


def test_render_zero_width_span_paints_one_bin():
    text = render_ascii_timeline(
        [span(start=1.0, end=1.0, category="optimizer")],
        width=10, t0=0.0, t1=2.0)
    assert _row(text) == ".....o...."


def test_render_spans_outside_the_window_paint_nothing():
    # Regression: spans outside [t0, t1) used to be clamped into the edge
    # bins.  Only what meets the window paints, from bin 0 for a span that
    # straddles t0.
    text = render_ascii_timeline([
        span(start=0.0, end=1.0, category="optimizer"),  # ends at t0
        span(start=0.5, end=0.5, category="fault"),  # marker before t0
        span(start=1.0, end=2.0, category="allreduce"),
        span(start=3.0, end=4.0, category="compute"),  # starts at t1
        span(start=3.0, end=3.0, category="fault"),  # marker at t1
        span(stream="aux", start=0.5, end=1.5, category="p2p"),
        span(stream="net", start=0.0, end=0.5, category="p2p"),
    ], width=10, t0=1.0, t1=3.0)
    assert _row(text, 1) == "aaaaa....."
    assert _row(text, 2) == "pp........"
    assert _row(text, 3) == ".........."
