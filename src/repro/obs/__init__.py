"""repro.obs — the unified observability layer.

One span record, one tracer, shared consumers:

* :mod:`.schema` — :class:`ObsSpan`, the ``(rank, stream, name, start,
  end, category, microbatch, nbytes)`` record both substrates emit;
* :mod:`.tracer` — :class:`Tracer`, which both record into: the
  discrete-event machine (:mod:`repro.cluster`) with simulated seconds,
  the functional runtime, serving engine and fleet with wall-clock ones;
* :mod:`.export` — Chrome-trace/Perfetto JSON and CSV exporters;
* :mod:`.report` — utilization, compute-communication overlap, idle
  breakdown and message-volume reports (the math behind the paper's
  Fig. 7 evidence) and the ASCII timeline;
* :mod:`.protocol` — the communication-protocol recorder and verifier
  both transports and the DES messenger feed
  (:class:`~repro.obs.protocol.TraceRecorder`,
  :class:`~repro.obs.protocol.ProtocolError`).

``python -m repro trace`` runs a configured scenario on either substrate
and emits the trace plus a terminal summary.
"""

from .export import chrome_trace, csv_rows, write_chrome_trace, write_csv
from .jsonl import (
    append_spans_jsonl,
    chrome_trace_multiprocess,
    merge_rank_jsonl,
    read_spans_jsonl,
    write_chrome_trace_multiprocess,
)
from .report import (
    busy_time,
    idle_breakdown,
    message_volume,
    message_volume_rows,
    overlap_stats,
    overlap_time,
    pass_widths,
    render_ascii_timeline,
    summarize,
    utilization_report,
)
from .schema import (
    CATEGORIES,
    STREAMS,
    ObsSpan,
    member_events,
    validate_span,
)
from .tracer import Tracer

__all__ = [
    "CATEGORIES",
    "STREAMS",
    "ObsSpan",
    "member_events",
    "validate_span",
    "Tracer",
    "chrome_trace",
    "csv_rows",
    "write_chrome_trace",
    "write_csv",
    "append_spans_jsonl",
    "chrome_trace_multiprocess",
    "merge_rank_jsonl",
    "read_spans_jsonl",
    "write_chrome_trace_multiprocess",
    "busy_time",
    "idle_breakdown",
    "message_volume",
    "message_volume_rows",
    "overlap_stats",
    "overlap_time",
    "pass_widths",
    "render_ascii_timeline",
    "summarize",
    "utilization_report",
]
