"""The trace monitor (Extrae analogue).

:func:`trace_run` runs a configuration with an enabled telemetry session,
whose :class:`Tracer` collects every compute-phase record, MPI record and
task record into a :class:`Trace` — the raw material for the POP model, the
timeline views and the Paraver export.  Unlike real instrumentation it is
exact and overhead free (the paper quotes 0.6-2.2 % monitor overhead; a
simulator pays none).

The record classes themselves live in :mod:`repro.telemetry.trace`; this
module re-exports them.  Tracing is opt-in: a plain ``run_fft_phase``
records nothing — use ``trace_run``, ``RunConfig(telemetry=True)`` or an
explicit telemetry session to observe a run.
"""

from __future__ import annotations

import typing as _t

from repro.core.config import RunConfig
from repro.core.driver import RunResult, run_fft_phase
from repro.telemetry import Telemetry
from repro.telemetry.trace import Trace, Tracer

__all__ = ["Trace", "Tracer", "trace_run"]


def trace_run(config: RunConfig, **run_kwargs: _t.Any) -> tuple[RunResult, Trace]:
    """Run a configuration in an enabled telemetry session; returns
    (result, the session's trace).

    A ``telemetry=`` keyword supplies the (enabled) session to record into;
    otherwise a fresh one is used.
    """
    run_kwargs.setdefault("telemetry", Telemetry(enabled=True))
    result = run_fft_phase(config, **run_kwargs)
    return result, result.telemetry.trace
