"""Report functions over observed spans — the shared measurement math.

Everything the paper's profile-based evidence needs, computed from the one
schema both substrates emit (:mod:`repro.obs.schema`):

* :func:`busy_time` / :func:`overlap_time` — interval-union and
  two-set-intersection lengths (the primitives);
* :func:`overlap_stats` — the Fig. 7 quantity: how much of category *b*'s
  busy time is hidden under category *a* (all-reduce vs optimizer, or
  compute vs communication);
* :func:`utilization_report` — per-``(rank, stream)`` busy fraction over
  the trace window;
* :func:`idle_breakdown` — per-track time split by category plus idle;
* :func:`message_volume` — per-tag ``src -> dst`` message count / byte
  matrix from the p2p spans;
* :func:`pass_widths` — per-rank histogram of how many microbatches each
  compute pass ran (the ``width`` a grouped pass carries);
* :func:`summarize` — the terminal rendering ``python -m repro trace``
  prints;
* :func:`render_ascii_timeline` — one character per time bin per track,
  the terminal stand-in for the paper's Fig. 7 profile.

All functions are pure over ``Iterable[ObsSpan]`` so tests can assert on
hand-built timelines.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .schema import ObsSpan

__all__ = ["busy_time", "overlap_time", "overlap_stats",
           "utilization_report", "idle_breakdown", "message_volume",
           "message_volume_rows", "pass_widths", "summarize",
           "render_ascii_timeline"]


def _merged_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length of the union of ``[start, end]`` intervals."""
    ivs = sorted(intervals)
    total = 0.0
    cur_start: Optional[float] = None
    cur_end = 0.0
    for start, end in ivs:
        if cur_start is None:
            cur_start, cur_end = start, end
        elif start <= cur_end:
            cur_end = max(cur_end, end)
        else:
            total += cur_end - cur_start
            cur_start, cur_end = start, end
    if cur_start is not None:
        total += cur_end - cur_start
    return total


def busy_time(spans: Iterable[ObsSpan]) -> float:
    """Covered time of ``spans`` (union of their intervals)."""
    return _merged_length((s.start, s.end) for s in spans)


def overlap_time(a: Iterable[ObsSpan], b: Iterable[ObsSpan]) -> float:
    """Time during which some span of ``a`` and some span of ``b`` are
    simultaneously active."""
    events: List[Tuple[float, int, int]] = []
    for s in a:
        events.append((s.start, +1, 0))
        events.append((s.end, -1, 0))
    for s in b:
        events.append((s.start, +1, 1))
        events.append((s.end, -1, 1))
    events.sort()
    active = [0, 0]
    last: Optional[float] = None
    total = 0.0
    for t, delta, which in events:
        if last is not None and active[0] > 0 and active[1] > 0:
            total += t - last
        active[which] += delta
        last = t
    return total


def overlap_stats(spans: Iterable[ObsSpan], cat_a: str,
                  cat_b: str) -> Dict[str, object]:
    """How much of category ``cat_b`` is hidden under category ``cat_a``.

    ``overlap_fraction`` is overlap / b-busy (1.0 = every second of *b*
    ran concurrently with *a*, i.e. fully hidden); 0.0 when *b* never
    runs.  For the paper's Fig. 7 call it with ``("allreduce",
    "optimizer")``; for the headline compute-communication overlap claim,
    with ``("compute", "allreduce")`` or ``("compute", "p2p")``.
    """
    spans = list(spans)
    a = [s for s in spans if s.category == cat_a]
    b = [s for s in spans if s.category == cat_b]
    a_busy = busy_time(a)
    b_busy = busy_time(b)
    overlap = overlap_time(a, b)
    return {
        "a": cat_a,
        "b": cat_b,
        "a_busy_s": a_busy,
        "b_busy_s": b_busy,
        "overlap_s": overlap,
        "overlap_fraction": overlap / b_busy if b_busy > 0 else 0.0,
        "n_a": len(a),
        "n_b": len(b),
    }


def _window(spans: Sequence[ObsSpan], t0: Optional[float],
            t1: Optional[float]) -> Tuple[float, float]:
    lo = min(s.start for s in spans) if t0 is None else t0
    hi = max(s.end for s in spans) if t1 is None else t1
    return lo, max(hi, lo)


def _by_track(spans: Iterable[ObsSpan]) -> Dict[Tuple[int, str],
                                                List[ObsSpan]]:
    groups: Dict[Tuple[int, str], List[ObsSpan]] = {}
    for s in spans:
        groups.setdefault((s.rank, s.stream), []).append(s)
    return groups


def utilization_report(spans: Iterable[ObsSpan],
                       t0: Optional[float] = None,
                       t1: Optional[float] = None
                       ) -> List[Dict[str, object]]:
    """Per-``(rank, stream)`` busy time and utilization over the window
    ``[t0, t1]`` (defaulting to the trace extent)."""
    spans = list(spans)
    if not spans:
        return []
    lo, hi = _window(spans, t0, t1)
    window = hi - lo
    rows = []
    for (rank, stream), group in sorted(_by_track(spans).items()):
        clipped = [(max(s.start, lo), min(s.end, hi))
                   for s in group if s.end > lo and s.start < hi]
        busy = _merged_length(clipped)
        rows.append({
            "rank": rank,
            "stream": stream,
            "busy_s": busy,
            "window_s": window,
            "utilization": busy / window if window > 0 else 0.0,
            "spans": len(group),
        })
    return rows


def idle_breakdown(spans: Iterable[ObsSpan],
                   t0: Optional[float] = None,
                   t1: Optional[float] = None) -> List[Dict[str, object]]:
    """Per-track time split: one column per category present, plus
    ``idle_s`` (window minus the union of all spans on the track).

    Because concurrent same-track spans are measured as a union for the
    idle figure but summed per category, the category columns can exceed
    ``window - idle`` on oversubscribed tracks — the union, not the sum,
    is the utilization source of truth.
    """
    spans = list(spans)
    if not spans:
        return []
    lo, hi = _window(spans, t0, t1)
    window = hi - lo
    categories: List[str] = []
    for s in spans:
        if s.category not in categories:
            categories.append(s.category)
    rows = []
    for (rank, stream), group in sorted(_by_track(spans).items()):
        row: Dict[str, object] = {"rank": rank, "stream": stream,
                                  "window_s": window}
        for cat in categories:
            row[f"{cat}_s"] = busy_time(
                s for s in group if s.category == cat)
        row["idle_s"] = window - _merged_length(
            (max(s.start, lo), min(s.end, hi))
            for s in group if s.end > lo and s.start < hi)
        rows.append(row)
    return rows


def message_volume(spans: Iterable[ObsSpan]
                   ) -> Dict[str, Dict[Tuple[int, int], Dict[str, int]]]:
    """Per-tag message matrix from the p2p spans.

    Returns ``{tag: {(src, dst): {"count": n, "bytes": b}}}``.  The source
    and destination come from the span's ``src``/``dst`` meta when present
    (the fabric and the runtime transport both record them), falling back
    to the span's own rank as source.
    """
    out: Dict[str, Dict[Tuple[int, int], Dict[str, int]]] = {}
    for s in spans:
        if s.category != "p2p":
            continue
        meta = s.with_meta()
        src = meta.get("src", s.rank)
        dst = meta.get("dst", -1)
        key = (int(src), int(dst))
        tag = out.setdefault(s.name, {})
        cell = tag.setdefault(key, {"count": 0, "bytes": 0})
        cell["count"] += 1
        cell["bytes"] += int(s.nbytes or 0)
    return out


def message_volume_rows(spans: Iterable[ObsSpan]
                        ) -> List[Dict[str, object]]:
    """The :func:`message_volume` matrix flattened to table rows."""
    rows = []
    for tag, cells in sorted(message_volume(spans).items()):
        for (src, dst), cell in sorted(cells.items()):
            rows.append({"tag": tag, "src": src, "dst": dst,
                         "count": cell["count"], "bytes": cell["bytes"]})
    return rows


def pass_widths(spans: Iterable[ObsSpan]) -> Dict[int, Dict[int, int]]:
    """``{rank: {width: passes}}`` over the compute spans that carry a
    ``width`` (the runtime's stage passes: a group of ``width``
    microbatches run as one stacked pass)."""
    out: Dict[int, Dict[int, int]] = {}
    for s in spans:
        if s.category != "compute":
            continue
        width = s.with_meta().get("width")
        if width is not None:
            hist = out.setdefault(s.rank, {})
            hist[int(width)] = hist.get(int(width), 0) + 1
    return out


def summarize(spans: Iterable[ObsSpan], title: str = "trace") -> str:
    """Terminal summary: utilization per track, overlap stats, volume."""
    spans = list(spans)
    if not spans:
        return f"== {title} ==\n(empty trace)"
    lines = [f"== {title}: {len(spans)} spans =="]
    lines.append("  track utilization:")
    for row in utilization_report(spans):
        lines.append(
            f"    gpu{row['rank']}.{row['stream']:<8} "
            f"busy {row['busy_s']:.6g}s / {row['window_s']:.6g}s "
            f"({100 * row['utilization']:.1f}%), {row['spans']} spans")
    for cat_a, cat_b in (("allreduce", "optimizer"), ("compute", "p2p")):
        stats = overlap_stats(spans, cat_a, cat_b)
        if stats["n_a"] and stats["n_b"]:
            lines.append(
                f"  overlap {cat_a}/{cat_b}: {stats['overlap_s']:.6g}s "
                f"({100 * stats['overlap_fraction']:.1f}% of {cat_b} "
                f"hidden)")
    volume = message_volume_rows(spans)
    if volume:
        total = sum(r["bytes"] for r in volume)
        count = sum(r["count"] for r in volume)
        lines.append(f"  p2p volume: {count} messages, {total} bytes "
                     f"across {len(volume)} (tag, src, dst) routes")
    widths = pass_widths(spans)
    if widths:
        lines.append("  pass widths (microbatches per compute pass: "
                     "passes):")
        for rank, hist in sorted(widths.items()):
            cells = ", ".join(f"{w}: {n}" for w, n in sorted(hist.items()))
            lines.append(f"    gpu{rank}  {cells}")
    return "\n".join(lines)


def render_ascii_timeline(spans: Iterable[ObsSpan], width: int = 100,
                          t0: Optional[float] = None,
                          t1: Optional[float] = None) -> str:
    """Render every track as a fixed-width ASCII row (one char per time
    bin), tracks in first-seen order.

    Each bin shows the first letter of the category of the last span (in
    start order) painted over it, or ``.`` for idle.

    Binning is half-open: a span paints ``[b0, b1)`` so back-to-back spans
    never overwrite each other's boundary bin (the later span starts in
    the bin where the earlier one's exclusive right edge lands).  Spans
    too short to cover a full bin — including zero-width markers — still
    paint the single bin they start in.  A span outside the window
    ``[t0, t1)`` paints nothing: one whose half-open ``[start, end)``
    misses it, or a zero-width marker with ``start`` outside it.
    """
    spans = list(spans)
    if not spans:
        return "(empty timeline)"
    lo, hi = _window(spans, t0, t1)
    if hi <= lo:
        hi = lo + 1.0
    scale = width / (hi - lo)
    rows = {s.track: ["."] * width for s in spans}
    for s in sorted(spans, key=lambda s: (s.start, s.end)):
        if s.start >= hi or (s.end <= lo if s.end > s.start
                             else s.start < lo):
            continue
        b0 = max(0, min(width - 1, int((s.start - lo) * scale)))
        b1 = max(b0 + 1, min(width, int((s.end - lo) * scale)))
        rows[s.track][b0:b1] = s.category[0] * (b1 - b0)
    lines = [f"timeline [{lo:.6g}, {hi:.6g}] ({width} bins)"]
    lines += [f"{track:>24} |{''.join(row)}|" for track, row in rows.items()]
    return "\n".join(lines)
