"""Static analysis and runtime-verification layer.

Three pillars protect the contracts the rest of the codebase relies on:

* :mod:`repro.analysis.lint` — repo-specific AST lint rules (REP001-REP012)
  runnable as ``python -m repro.analysis lint <paths>`` or via the opt-in
  ``pytest -m lint`` gate.

* :mod:`repro.analysis.model` — a *pre-run* communication model checker.
  Every built-in rank-program variant (AxoNN message-driven, 1F1B, GPipe,
  the serve engine) is symbolically executed against a capture transport
  to extract its communication skeleton, then every interleaving of the
  resulting channel automaton is explored (DFS over consumed-count states
  — the Mazurkiewicz-trace quotient is the partial-order reduction) to
  prove deadlock-freedom, complete send/recv matching, and per-column
  collective-order consistency before any run happens.

* :mod:`repro.analysis.races` — a FastTrack-style happens-before race
  detector for the process backend's shared-memory rings, fed by the
  ``ring-push``/``ring-pop`` sync events the instrumented
  :class:`~repro.runtime.shm.ShmRing` records into per-rank trace JSONL.

This package sits on top of the layers it checks: it imports the
runtime, the schedules and the serve engine, and nothing below it imports
it.  The communication verifier every transport records into is
:mod:`repro.obs.protocol`, and the autograd sanitizer the tensor tape
consults is :mod:`repro.nn.sanitizer`; each lives with its users.
"""

from .lint import LintIssue, RULES, lint_paths, lint_source
from .races import (
    Race,
    RaceError,
    RingEvent,
    assert_race_free,
    check_races,
    drop_release,
    load_ring_events,
    ring_events_from_spans,
    synthetic_ring_events,
)

__all__ = [
    "LintIssue",
    "RULES",
    "lint_paths",
    "lint_source",
    "Race",
    "RaceError",
    "RingEvent",
    "assert_race_free",
    "check_races",
    "drop_release",
    "load_ring_events",
    "ring_events_from_spans",
    "synthetic_ring_events",
]
