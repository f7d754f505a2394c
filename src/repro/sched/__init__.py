"""repro.sched — pipeline schedules as data.

The subsystem closing ROADMAP's "Schedule-as-data: searched then
verified" loop:

* :mod:`repro.sched.ir` — the typed task IR and its validator;
* :mod:`repro.sched.builders` — AxoNN, 1F1B, GPipe, interleaved and
  ZB-H1 zero-bubble expressed as pure data;
* :mod:`repro.sched.compile` — lowering to ordinary ``yield RECV`` rank
  programs (``AxoNNTrainer(schedule=...)`` runs them on the cooperative
  and process backends, the model checker proves them);
* :mod:`repro.sched.metrics` — IR-derived critical path / bubble /
  peak-activation analytics;
* :mod:`repro.sched.des` — schedule-driven DES emission (imported
  lazily: it pulls in the whole simulator);
* :mod:`repro.sched.search` — DES-scored schedule search with the
  functional substrate as acceptance oracle (lazy for the same reason).
"""

from .builders import (SCHEDULE_NAMES, build_schedule, flushing_order,
                       schedule_chunks)
from .compile import lower_rank
from .ir import (BWD, FWD, RECV_ACT, RECV_GRAD, SEND_ACT, SEND_GRAD, W,
                 Schedule, ScheduleError, Task, channel_of, required_deps,
                 validate)
from .metrics import (CriticalPath, critical_path, ir_bubble_fraction,
                      peak_resident_activations, unit_cost)

__all__ = [
    "SCHEDULE_NAMES", "build_schedule", "flushing_order", "schedule_chunks",
    "lower_rank",
    "BWD", "FWD", "RECV_ACT", "RECV_GRAD", "SEND_ACT", "SEND_GRAD", "W",
    "Schedule", "ScheduleError", "Task", "channel_of", "required_deps",
    "validate",
    "CriticalPath", "critical_path", "ir_bubble_fraction",
    "peak_resident_activations", "unit_cost",
]
