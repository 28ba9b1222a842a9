"""Performance tracing and analysis (the Extrae + Paraver + POP toolchain).

The paper's methodology is as much a contribution as its optimization: trace
the run (Extrae), inspect timelines and histograms (Paraver), and condense
everything into the multiplicative POP efficiency model (Tables I/II).
This package reproduces that workflow against the simulator:

* :mod:`~repro.perf.tracer` — ``trace_run``, the one-call "run with
  tracing" entry point: a telemetry-enabled run whose session trace holds
  every compute-phase, MPI and task record;
* :mod:`~repro.perf.popmodel` — the factor columns of Tables I/II: the POP
  efficiency factors of :func:`repro.analysis.pop.pop_factors` (transfer
  measured by a replay on ``ideal_network``, trivially exact in a
  simulator) plus the scalability rows: computation scalability =
  IPC x instruction scalability; global = PE x CS;
* :mod:`~repro.perf.timeline` — Fig. 3/7 artifacts: per-stream phase
  timelines, MPI call maps, communicator structure, IPC histograms;
* :mod:`~repro.perf.paraver` — a Paraver-like trace format (.prv state /
  event / communication records with .pcf/.row sidecars) writer and parser;
* :mod:`~repro.perf.report` — ASCII rendering of the factor tables and
  series the experiments print;
* :mod:`~repro.perf.whatif` — Dimemas-style replays on altered machines.

Comparing two runs (``perf diff``, ``perf check``, ``compare``) is the
regression triage of :mod:`repro.analysis.triage`.
"""

from repro.perf.tracer import Trace, Tracer, trace_run
from repro.perf.popmodel import (
    BaseMetrics,
    FactorSet,
    RunAggregates,
    factors_from_aggregates,
    factors_from_run,
    ideal_network,
)
from repro.perf.timeline import (
    communicator_structure,
    ipc_histogram,
    mpi_intervals,
    phase_intervals,
    phase_summary,
)
from repro.perf.paraver import read_prv, write_prv
from repro.perf.report import format_factor_table, format_series
from repro.perf.whatif import runtime_attribution, whatif_sweep

__all__ = [
    "Trace",
    "Tracer",
    "trace_run",
    "BaseMetrics",
    "FactorSet",
    "RunAggregates",
    "factors_from_run",
    "factors_from_aggregates",
    "ideal_network",
    "phase_intervals",
    "mpi_intervals",
    "phase_summary",
    "ipc_histogram",
    "communicator_structure",
    "write_prv",
    "read_prv",
    "format_factor_table",
    "format_series",
    "whatif_sweep",
    "runtime_attribution",
]
