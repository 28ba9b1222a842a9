"""Automated regression triage: from "it got slower" to "here is why".

:func:`diff_manifests` aligns two run manifests (baseline A, candidate B)
phase by phase; :func:`triage_pair` turns that alignment into a
:class:`TriageReport` — a ranked list of :class:`TriageFinding` rows naming
what moved: the phase, the efficiency factor, the MPI layer, the engine
counter.  The report is what ``perf diff``, ``perf check``, ``compare`` and
the A/B mode of ``analyze`` print; it serializes to JSON and renders to
text via :mod:`repro.analysis.render`.  :func:`manifest_regressions` is the
``perf check`` gate.

Findings are heuristic rankings over exact data — every number in a
finding comes straight from the manifests; only the ordering ("dominant")
is judgment, by absolute seconds moved (phases/MPI) and absolute factor
drop (efficiencies).
"""

from __future__ import annotations

import dataclasses
import typing as _t

__all__ = [
    "PhaseDelta",
    "ManifestDiff",
    "diff_manifests",
    "manifest_regressions",
    "TriageFinding",
    "TriageReport",
    "triage_pair",
]


@dataclasses.dataclass(frozen=True)
class PhaseDelta:
    """One phase's aggregate change between runs A and B."""

    name: str
    time_a: float
    time_b: float
    ipc_a: float
    ipc_b: float

    @property
    def relative(self) -> float:
        """Relative time change (B vs A; negative = faster)."""
        if self.time_a <= 0:
            return float("inf") if self.time_b > 0 else 0.0
        return self.time_b / self.time_a - 1.0


@dataclasses.dataclass
class ManifestDiff:
    """Aligned view of two run manifests (A = baseline, B = candidate)."""

    label_a: str
    label_b: str
    phase_time_a: float
    phase_time_b: float
    phases: list[PhaseDelta]
    mpi_a: dict[str, float]  # communicator layer -> accumulated seconds
    mpi_b: dict[str, float]

    @property
    def runtime_relative(self) -> float:
        """Relative phase-runtime change (B vs A; negative = faster)."""
        if self.phase_time_a <= 0:
            return float("inf") if self.phase_time_b > 0 else 0.0
        return self.phase_time_b / self.phase_time_a - 1.0


def _manifest_phases(manifest: dict) -> dict[str, dict]:
    return {
        name: entry
        for name, entry in manifest.get("phases", {}).items()
        if isinstance(entry, dict)
    }


def _mpi_times(manifest: dict) -> dict[str, float]:
    return {
        layer: float(entry.get("time_s", 0.0))
        for layer, entry in manifest.get("mpi", {}).items()
    }


def diff_manifests(manifest_a: dict, manifest_b: dict) -> ManifestDiff:
    """Align two run manifests phase by phase (union of phase names)."""
    phases_a = _manifest_phases(manifest_a)
    phases_b = _manifest_phases(manifest_b)
    phases = []
    for name in sorted(set(phases_a) | set(phases_b)):
        a = phases_a.get(name, {})
        b = phases_b.get(name, {})
        phases.append(
            PhaseDelta(
                name=name,
                time_a=float(a.get("time_s", 0.0)),
                time_b=float(b.get("time_s", 0.0)),
                ipc_a=float(a.get("ipc", 0.0)),
                ipc_b=float(b.get("ipc", 0.0)),
            )
        )
    return ManifestDiff(
        label_a=manifest_a["config"]["label"],
        label_b=manifest_b["config"]["label"],
        phase_time_a=float(manifest_a["timing"]["phase_time_s"]),
        phase_time_b=float(manifest_b["timing"]["phase_time_s"]),
        phases=phases,
        mpi_a=_mpi_times(manifest_a),
        mpi_b=_mpi_times(manifest_b),
    )


def manifest_regressions(
    baseline: dict, candidate: dict, threshold: float = 0.05
) -> list[str]:
    """Regression-gate check: violations of ``candidate`` vs ``baseline``.

    Flags the simulated phase runtime and any per-phase compute time that
    grew by more than ``threshold`` (relative).  An empty list means the
    candidate passes.
    """
    if threshold < 0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    diff = diff_manifests(baseline, candidate)
    violations = []
    if diff.runtime_relative > threshold:
        violations.append(
            f"phase runtime regressed {diff.runtime_relative * 100:+.1f}% "
            f"({diff.phase_time_a * 1e3:.3f} ms -> {diff.phase_time_b * 1e3:.3f} ms), "
            f"threshold {threshold * 100:.1f}%"
        )
    for p in diff.phases:
        if p.time_a > 0 and p.relative > threshold:
            violations.append(
                f"phase {p.name!r} compute time regressed {p.relative * 100:+.1f}% "
                f"({p.time_a * 1e3:.3f} ms -> {p.time_b * 1e3:.3f} ms)"
            )
    return violations


#: Finding kinds, in severity/report order.
KIND_RUNTIME = "runtime"
KIND_PHASE = "phase"
KIND_FACTOR = "efficiency_factor"
KIND_MPI = "mpi_layer"
KIND_COUNTER = "counter"


@dataclasses.dataclass(frozen=True)
class TriageFinding:
    """One attributed change between baseline and candidate."""

    kind: str  # runtime | phase | efficiency_factor | mpi_layer | counter
    subject: str  # phase name, factor name, layer, counter path
    value_a: float
    value_b: float
    delta: float  # B - A, in the subject's unit
    relative: float  # (B - A) / A, or inf when A == 0
    severity: float  # ranking key within the report (unitless)
    detail: str

    def to_dict(self) -> dict:
        doc = dataclasses.asdict(self)
        if self.relative == float("inf"):
            doc["relative"] = None
        return doc


@dataclasses.dataclass
class TriageReport:
    """The structured blame report of one A/B comparison."""

    label_a: str
    label_b: str
    verdict: str  # "regression" | "improvement" | "neutral"
    runtime_a_s: float
    runtime_b_s: float
    runtime_relative: float
    threshold: float
    findings: list[TriageFinding]

    @property
    def dominant(self) -> TriageFinding | None:
        """The highest-severity finding other than the runtime headline."""
        for f in self.findings:
            if f.kind != KIND_RUNTIME:
                return f
        return None

    @property
    def dominant_phase(self) -> str | None:
        for f in self.findings:
            if f.kind == KIND_PHASE:
                return f.subject
        return None

    @property
    def dominant_factor(self) -> str | None:
        for f in self.findings:
            if f.kind == KIND_FACTOR:
                return f.subject
        return None

    def to_dict(self) -> dict:
        return {
            "label_a": self.label_a,
            "label_b": self.label_b,
            "verdict": self.verdict,
            "runtime_a_s": self.runtime_a_s,
            "runtime_b_s": self.runtime_b_s,
            "runtime_relative": (
                self.runtime_relative
                if self.runtime_relative != float("inf")
                else None
            ),
            "threshold": self.threshold,
            "dominant_phase": self.dominant_phase,
            "dominant_factor": self.dominant_factor,
            "findings": [f.to_dict() for f in self.findings],
        }


def _relative(a: float, b: float) -> float:
    if a == 0.0:
        return float("inf") if b != 0.0 else 0.0
    return (b - a) / a


def _pop_of(manifest: dict) -> dict:
    """The run's ``analysis.pop`` factors (empty when it has none)."""
    return (manifest.get("analysis") or {}).get("pop") or {}


#: The factor keys triage tracks, mapped to report names.
_FACTORS = (
    "load_balance",
    "serialization_efficiency",
    "transfer_efficiency",
    "parallel_efficiency",
)

#: Engine/dataplane counters worth naming in a blame report (paths into the
#: manifest; deltas are reported raw, severity is relative).
_COUNTERS = (
    ("engine.cpu.rebalances", "cpu rebalances"),
    ("engine.cpu.events", "cpu engine events"),
    ("engine.network.rebalances", "network rebalances"),
    ("engine.network.events", "network engine events"),
    ("dataplane.kernel_calls", "kernel calls"),
)


def _lookup(doc: dict, dotted: str) -> float | None:
    node: _t.Any = doc
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return float(node) if isinstance(node, (int, float)) else None


def triage_pair(
    baseline: dict, candidate: dict, threshold: float = 0.02
) -> TriageReport:
    """Build the blame report for ``candidate`` vs ``baseline``.

    ``threshold`` is the relative runtime change below which the verdict is
    ``"neutral"`` and findings are informational only.
    """
    if threshold < 0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    diff = diff_manifests(baseline, candidate)
    rel = diff.runtime_relative
    if rel > threshold:
        verdict = "regression"
    elif rel < -threshold:
        verdict = "improvement"
    else:
        verdict = "neutral"

    findings: list[TriageFinding] = []
    runtime_delta = diff.phase_time_b - diff.phase_time_a
    findings.append(
        TriageFinding(
            kind=KIND_RUNTIME,
            subject="phase_runtime",
            value_a=diff.phase_time_a,
            value_b=diff.phase_time_b,
            delta=runtime_delta,
            relative=rel,
            severity=abs(runtime_delta),
            detail=(
                f"simulated phase runtime {diff.phase_time_a * 1e3:.3f} ms -> "
                f"{diff.phase_time_b * 1e3:.3f} ms"
            ),
        )
    )

    # Phases: ranked by absolute seconds moved (the same direction as the
    # runtime change ranks above opposite movers at equal magnitude).
    direction = 1.0 if runtime_delta >= 0 else -1.0
    for p in diff.phases:
        delta = p.time_b - p.time_a
        if delta == 0.0:
            continue
        findings.append(
            TriageFinding(
                kind=KIND_PHASE,
                subject=p.name,
                value_a=p.time_a,
                value_b=p.time_b,
                delta=delta,
                relative=p.relative,
                severity=abs(delta) * (1.0 if delta * direction > 0 else 0.5),
                detail=(
                    f"compute time {p.time_a * 1e3:.3f} ms -> {p.time_b * 1e3:.3f} ms; "
                    f"IPC {p.ipc_a:.3f} -> {p.ipc_b:.3f}"
                ),
            )
        )

    # Efficiency factors: severity scales the factor drop into runtime terms.
    pop_a, pop_b = _pop_of(baseline), _pop_of(candidate)
    for name in _FACTORS:
        a, b = pop_a.get(name), pop_b.get(name)
        if not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
            continue
        delta = float(b) - float(a)
        if abs(delta) < 1e-12:
            continue
        findings.append(
            TriageFinding(
                kind=KIND_FACTOR,
                subject=name,
                value_a=float(a),
                value_b=float(b),
                delta=delta,
                relative=_relative(float(a), float(b)),
                # A factor drop of d explains ~d x runtime; weight against
                # the baseline runtime so factors and phases rank together.
                severity=abs(delta) * diff.phase_time_a
                * (1.0 if -delta * direction > 0 else 0.5),
                detail=f"{name.replace('_', ' ')} {a:.4f} -> {b:.4f}",
            )
        )

    for layer in sorted(set(diff.mpi_a) | set(diff.mpi_b)):
        a = diff.mpi_a.get(layer, 0.0)
        b = diff.mpi_b.get(layer, 0.0)
        delta = b - a
        if delta == 0.0:
            continue
        findings.append(
            TriageFinding(
                kind=KIND_MPI,
                subject=layer,
                value_a=a,
                value_b=b,
                delta=delta,
                relative=_relative(a, b),
                severity=abs(delta) * (1.0 if delta * direction > 0 else 0.5),
                detail=f"MPI {layer} time {a * 1e3:.3f} ms -> {b * 1e3:.3f} ms",
            )
        )

    # Counters rank by relative movement, scaled well below time findings —
    # they explain, they do not headline.
    counter_scale = max(abs(runtime_delta), diff.phase_time_a * threshold, 1e-12)
    for dotted, label in _COUNTERS:
        a = _lookup(baseline, dotted)
        b = _lookup(candidate, dotted)
        if a is None or b is None or a == b:
            continue
        findings.append(
            TriageFinding(
                kind=KIND_COUNTER,
                subject=dotted,
                value_a=a,
                value_b=b,
                delta=b - a,
                relative=_relative(a, b),
                severity=min(abs(_relative(a, b)), 1.0) * counter_scale * 0.25,
                detail=f"{label} {a:.0f} -> {b:.0f}",
            )
        )

    findings.sort(key=lambda f: (-f.severity, f.kind, f.subject))
    return TriageReport(
        label_a=diff.label_a,
        label_b=diff.label_b,
        verdict=verdict,
        runtime_a_s=diff.phase_time_a,
        runtime_b_s=diff.phase_time_b,
        runtime_relative=rel,
        threshold=threshold,
        findings=findings,
    )
