"""Performance analytics over recorded telemetry (the POP toolchain).

The telemetry layer records; this package explains.  It consumes what a run
already emits — span trees, compute/MPI/task records, hardware counters,
run and sweep manifests — and produces the three artifacts the paper's
methodology rests on:

* the **POP multiplicative efficiency model** per run and per phase
  (:mod:`repro.analysis.pop`); its :func:`~repro.analysis.pop.pop_factors`
  is also the arithmetic of the Table I/II columns
  (:mod:`repro.perf.popmodel`),
* the **critical path** through the simulated timeline and the ompss task
  graph (:mod:`repro.analysis.critpath`),
* **regression triage** for manifest pairs — the phase-by-phase manifest
  diff and which phase, which factor, which counter moved
  (:mod:`repro.analysis.triage`), the one comparison behind ``perf diff``,
  ``perf check``, ``analyze A B`` and ``compare``.

Everything here is read-only over existing data: analyzing a run never
perturbs the simulation (the golden-manifest gate pins this).

Entry points
------------
:func:`analyze_run` (a live :class:`~repro.core.driver.RunResult`; what
run manifests embed as their ``analysis`` section),
:func:`analyze_session` (a telemetry session, used by the driver at
finalization), :func:`analyze_manifest` / :func:`triage_pair` /
:func:`analyze_sweep` (JSON artifacts, used by the CLI).
"""

from __future__ import annotations

import dataclasses
import typing as _t
import warnings

from repro.analysis.critpath import (
    CriticalPath,
    GraphCriticalPath,
    critical_path_from_trace,
    graph_critical_path,
    slack_histogram,
)
from repro.analysis.pop import (
    CommLayerSplit,
    PhaseEfficiency,
    PopDecomposition,
    StreamTimeline,
    decompose,
    timelines_from_counters,
    timelines_from_trace,
)
from repro.analysis.triage import TriageFinding, TriageReport, triage_pair

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.core.driver import RunResult
    from repro.machine.counters import CounterSet
    from repro.telemetry import Telemetry

__all__ = [
    "ANALYSIS_SCHEMA_VERSION",
    "RunAnalysis",
    "analyze_run",
    "analyze_session",
    "analyze_manifest",
    "analyze_sweep",
    "efficiency_summary",
    # re-exports
    "PopDecomposition",
    "PhaseEfficiency",
    "CommLayerSplit",
    "StreamTimeline",
    "decompose",
    "timelines_from_trace",
    "timelines_from_counters",
    "CriticalPath",
    "GraphCriticalPath",
    "critical_path_from_trace",
    "graph_critical_path",
    "slack_histogram",
    "TriageFinding",
    "TriageReport",
    "triage_pair",
]

ANALYSIS_SCHEMA_VERSION = 1


@dataclasses.dataclass
class RunAnalysis:
    """The derived analytics of one run (embedded as ``manifest["analysis"]``)."""

    pop: PopDecomposition | None
    critical_path: CriticalPath | None
    task_graph: GraphCriticalPath | None
    unclosed_spans: int

    def to_dict(self) -> dict:
        return {
            "schema_version": ANALYSIS_SCHEMA_VERSION,
            "unclosed_spans": self.unclosed_spans,
            "pop": self.pop.to_dict() if self.pop is not None else None,
            "critical_path": (
                self.critical_path.to_dict() if self.critical_path is not None else None
            ),
            "task_graph": (
                self.task_graph.to_dict() if self.task_graph is not None else None
            ),
        }


def analyze_session(
    tel: "Telemetry",
    makespan_s: float,
    counters: "CounterSet | None" = None,
    ideal_time_s: float | None = None,
) -> RunAnalysis:
    """Analyze a finalized telemetry session.

    Called by the driver at run finalization (and usable standalone on any
    session).  Prefers the trace records (full sync/transfer split and a
    timeline critical path); falls back to the hardware ``counters`` for
    compute-only factors when the session carries no trace.
    """
    unclosed = sum(1 for s in tel.spans.all() if s.t_end is None)
    if unclosed:
        warnings.warn(
            f"{unclosed} span(s) still open at run finalization — the span "
            "tree is truncated (crashed or fault-killed task?); analysis "
            "and exports see incomplete intervals",
            RuntimeWarning,
            stacklevel=2,
        )

    timelines = timelines_from_trace(tel.trace)
    if not timelines and counters is not None:
        timelines = timelines_from_counters(counters)
    pop = (
        decompose(timelines, makespan_s, ideal_time_s=ideal_time_s)
        if timelines and makespan_s > 0
        else None
    )

    critical = None
    if tel.trace.compute or tel.trace.mpi:
        critical = critical_path_from_trace(tel.trace, makespan_s)

    graph = _task_graph_analysis(tel)
    return RunAnalysis(
        pop=pop, critical_path=critical, task_graph=graph, unclosed_spans=unclosed
    )


def _task_graph_analysis(tel: "Telemetry") -> GraphCriticalPath | None:
    """CPM over the exported ompss dependency edges (task versions only)."""
    if not tel.trace.tasks:
        return None
    tasks: dict[tuple[int, int], tuple[str, float]] = {}
    for rank, rec in tel.trace.tasks:
        # "pack:('it', 1)" / "fft_z[0:10]" -> task type "pack" / "fft_z".
        kind = rec.name.split("[", 1)[0].split(":", 1)[0].rstrip("0123456789")
        tasks[(rank, rec.tid)] = (kind, rec.duration)
    edges = [
        ((rank, pred), (rank, succ))
        for rank, pred, succ in tel.task_edges
        if (rank, pred) in tasks and (rank, succ) in tasks
    ]
    try:
        return graph_critical_path(tasks, edges)
    except ValueError:
        # A truncated trace (fault-killed run) can expose a malformed
        # subgraph; analysis degrades to "no task view" rather than failing
        # the run summary.
        return None


def analyze_run(
    result: "RunResult", ideal_time_s: float | None = None
) -> RunAnalysis:
    """Analyze a completed :class:`~repro.core.driver.RunResult`."""
    tel = result.telemetry
    if tel is not None and tel.enabled:
        stashed = getattr(tel, "analysis", None)
        if stashed is not None and ideal_time_s is None:
            return stashed
        return analyze_session(
            tel, result.phase_time, result.cpu.counters, ideal_time_s
        )
    timelines = timelines_from_counters(result.cpu.counters)
    pop = (
        decompose(timelines, result.phase_time, ideal_time_s=ideal_time_s)
        if timelines and result.phase_time > 0
        else None
    )
    return RunAnalysis(pop=pop, critical_path=None, task_graph=None, unclosed_spans=0)


# ---------------------------------------------------------------------------
# Manifest-level entry points (the CLI's substrate)


def analyze_manifest(manifest: dict) -> dict:
    """The ``analysis`` section of a run manifest, with context attached.

    Returns ``{"label", "phase_time_s", "analysis"}``.  Raises
    :class:`ValueError` when the manifest predates the analysis section —
    the caller should regenerate it with telemetry enabled.
    """
    section = manifest.get("analysis")
    if section is None:
        raise ValueError(
            "manifest has no 'analysis' section; regenerate it with a "
            "telemetry-enabled run (RunConfig(telemetry=True) or the CLI "
            "run command)"
        )
    return {
        "label": manifest.get("config", {}).get("label", "?"),
        "phase_time_s": manifest.get("timing", {}).get("phase_time_s"),
        "analysis": section,
    }


def analyze_sweep(manifest: dict) -> list[dict]:
    """Efficiency series across a sweep manifest's points.

    Returns one row per point (task order) with the POP factors of its
    summary's analysis section; points without one carry ``None`` factors
    (e.g. a custom reducer that drops the manifest).
    """
    rows = []
    for key, entry in manifest.get("points", {}).items():
        summary = entry.get("summary") or {}
        row: dict[str, _t.Any] = {
            "point": key,
            "phase_time_s": entry.get("phase_time_s"),
            "failed": bool(entry.get("failed", False)),
        }
        section = summary.get("analysis") if isinstance(summary, dict) else None
        pop = (section or {}).get("pop")
        if pop:
            row.update(efficiency_summary(pop))
        else:
            row.update(
                {
                    "parallel_efficiency": None,
                    "load_balance": None,
                    "serialization_efficiency": None,
                    "transfer_efficiency": None,
                }
            )
        rows.append(row)
    return rows


#: The four headline factors, in report order.
FACTOR_KEYS = (
    "parallel_efficiency",
    "load_balance",
    "serialization_efficiency",
    "transfer_efficiency",
)


def efficiency_summary(pop: dict) -> dict:
    """The headline factor columns of one ``analysis.pop`` dict."""
    return {k: pop.get(k) for k in FACTOR_KEYS}
