"""repro.obs — the unified observability layer.

One span schema, two producers, shared consumers:

* :mod:`.schema` — :class:`ObsSpan`, the ``(rank, stream, name, start,
  end, category, microbatch, nbytes)`` record both substrates emit, plus
  converters from the sim tracer's spans;
* :mod:`.tracer` — :class:`RuntimeTracer`, the wall-clock tracer the
  functional runtime (:mod:`repro.runtime`) hooks into;
* :mod:`.export` — Chrome-trace/Perfetto JSON and CSV exporters;
* :mod:`.report` — utilization, compute-communication overlap, idle
  breakdown and message-volume reports (the math behind the paper's
  Fig. 7 evidence);
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
    summarize,
    utilization_report,
)
from .schema import (
    CATEGORIES,
    STREAMS,
    ObsSpan,
    from_sim_span,
    from_sim_tracer,
    member_events,
    validate_span,
)
from .tracer import RuntimeTracer

__all__ = [
    "CATEGORIES",
    "STREAMS",
    "ObsSpan",
    "from_sim_span",
    "from_sim_tracer",
    "member_events",
    "validate_span",
    "RuntimeTracer",
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
    "summarize",
    "utilization_report",
]
