"""repro.sched — pipeline schedules as data.

The subsystem closing ROADMAP's "Schedule-as-data: searched then
verified" loop:

* :mod:`repro.sched.ir` — the typed task IR and its validator;
* :mod:`repro.sched.builders` — AxoNN, 1F1B, GPipe, interleaved and
  ZB-H1 zero-bubble expressed as pure data;
* :mod:`repro.sched.metrics` — IR-derived critical path / bubble /
  peak-activation analytics;
* :mod:`repro.sched.des` — schedule-driven DES emission (imported
  lazily: it pulls in the whole simulator);
* :mod:`repro.sched.search` — DES-scored schedule search (lazy for the
  same reason).

A schedule is plain data: this package imports nothing from the
functional runtime.  The runtime lowers a schedule into a rank program
(:func:`repro.runtime.rankprog.lower_rank`, beside Algorithm 2's
:func:`~repro.runtime.rankprog.inter_layer_step`), which
``AxoNNTrainer(schedule=...)`` runs on the cooperative and process
backends and the model checker proves; the search's acceptance oracle,
a replay against the serial trainer, is
:func:`repro.experiments.replay_winner`.
"""

from .builders import (SCHEDULE_NAMES, build_schedule, flushing_order,
                       schedule_chunks)
from .ir import (BWD, FWD, RECV_ACT, RECV_GRAD, SEND_ACT, SEND_GRAD, W,
                 Schedule, ScheduleError, Task, channel_of, required_deps,
                 validate)
from .metrics import (CriticalPath, critical_path, ir_bubble_fraction,
                      peak_resident_activations, unit_cost)

__all__ = [
    "SCHEDULE_NAMES", "build_schedule", "flushing_order", "schedule_chunks",
    "BWD", "FWD", "RECV_ACT", "RECV_GRAD", "SEND_ACT", "SEND_GRAD", "W",
    "Schedule", "ScheduleError", "Task", "channel_of", "required_deps",
    "validate",
    "CriticalPath", "critical_path", "ir_bubble_fraction",
    "peak_resident_activations", "unit_cost",
]
