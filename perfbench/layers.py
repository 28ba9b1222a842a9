"""Layer boundaries of the ``repro`` package and the hooks that observe them.

Every boundary is a public function or method of one layer.  Tracing
replaces each with a wrapper that opens a :class:`~perfbench.spans.SpanClock`
span for the call and restores the original afterwards; nothing under
``src/`` changes.  Functions a module imported by name are patched at each
importing module as well, because that module calls its own reference.

:class:`RunLog` wraps :func:`repro.core.driver.run_fft_phase` in traced and
untraced runs alike and keeps a few simulated statistics of every run: they
make the simulated fingerprint and the per-run counters.
"""

from __future__ import annotations

import contextlib
import importlib
import threading
import time
import typing as _t

from perfbench.spans import SpanClock

__all__ = ["BOUNDARIES", "LAYERS", "MpiCounter", "RunLog", "Patches", "instrument"]

_COLLECTIVES = (
    "alltoall", "alltoallw", "barrier", "bcast", "allreduce", "gather",
    "allgather", "reduce", "scatter_from_root", "split", "dup",
)

#: ``(layer, owner, attribute)``: owner is ``module`` or ``module:Class``.
BOUNDARIES: tuple[tuple[str, str, str], ...] = (
    ("simkit", "repro.simkit.simulator:Simulator", "run"),
    ("simkit", "repro.simkit.fluid:FluidResource", "submit"),
    ("simkit", "repro.simkit.fluid:FluidResource", "cancel"),
    ("machine", "repro.machine.cpu:CpuModel", "compute"),
    ("machine", "repro.machine.contention:BandwidthContentionAllocator", "allocate_batch"),
    *(("mpisim", "repro.mpisim.communicator:Communicator", name) for name in _COLLECTIVES),
    ("mpisim", "repro.mpisim.world:MpiWorld", "launch"),
    ("ompss", "repro.ompss.runtime:TaskRuntime", "submit"),
    ("ompss", "repro.ompss.runtime:TaskRuntime", "taskloop"),
    ("ompss", "repro.ompss.runtime:TaskRuntime", "taskwait"),
    *(
        ("core", "repro.core.redistribute", name)
        for name in (
            "pack_fw_plan", "pack_bw_plan", "scatter_fw_plan",
            "scatter_bw_plan", "pencil_zy_plan", "pencil_yx_plan",
        )
    ),
    ("core", "repro.core.driver", "distribute_coefficients"),
    ("core", "repro.core.driver", "make_band_coefficients"),
    ("core", "repro.core.driver", "make_potential"),
    ("core", "repro.core.pipeline:FftPhaseContext", "acquire"),
    ("core", "repro.core.pipeline:FftPhaseContext", "release"),
    ("core", "repro.core.pipeline:FftPhaseContext", "recv_buffer"),
    ("driver", "repro.core.driver", "run_fft_phase"),
    ("driver", "repro.sweep.engine", "run_fft_phase"),
    ("fft", "repro.fft.backends.engine:KernelEngine", "plan"),
    ("fft", "repro.fft.backends.engine:KernelEngine", "cft_1z"),
    ("fft", "repro.fft.backends.engine:KernelEngine", "cft_2xy"),
    ("fft", "repro.fft.backends.engine:KernelEngine", "rfft"),
    ("telemetry", "repro.telemetry.trace:Tracer", "on_compute"),
    ("telemetry", "repro.telemetry.trace:Tracer", "on_mpi"),
    ("telemetry", "repro.telemetry.trace:Tracer", "on_task"),
    ("analysis", "repro.analysis", "analyze_session"),
    ("analysis", "repro.perf.popmodel:RunAggregates", "from_run"),
    ("analysis", "repro.perf.popmodel", "factors_from_aggregates"),
    ("analysis", "repro.experiments.table1", "factors_from_aggregates"),
    ("sweep", "repro.sweep", "run_sweep"),
    ("sweep", "repro.sweep.engine", "run_sweep"),
    ("service", "repro.service.server:ServiceCore", "submit"),
    ("service", "repro.service.server:ServiceCore", "finish"),
    ("validate", "repro.core.driver:RunResult", "validate"),
)

#: Coroutine boundaries: each resumption step is one span.
COROUTINE_BOUNDARIES: tuple[tuple[str, str, str], ...] = (
    ("service", "repro.service.server:AsyncService", "submit"),
)

#: Every layer a traced run reports.  ``validate`` is the dense-reference
#: check the benchmark runs outside its timed region; ``bench`` is the
#: benchmark's own bookkeeping inside the traced region (run summaries).
LAYERS = (
    "simkit", "machine", "mpisim", "ompss", "core", "driver", "fft",
    "telemetry", "analysis", "sweep", "service", "validate", "bench",
)


def _resolve(owner: str) -> _t.Any:
    module_name, _, class_name = owner.partition(":")
    target = importlib.import_module(module_name)
    return getattr(target, class_name) if class_name else target


def boundary_name(owner: str, attr: str) -> str:
    """Short call-count key, e.g. ``CpuModel.compute`` or ``run_fft_phase``."""
    _, _, class_name = owner.partition(":")
    return f"{class_name}.{attr}" if class_name else attr


class Patches:
    """Attribute replacements that :meth:`restore` undoes in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[_t.Any, str, _t.Any]] = []

    def replace(self, owner: str, attr: str, make: _t.Callable[[_t.Callable], _t.Callable]) -> None:
        """Set ``owner.attr`` to ``make(current callable)``.

        Class attributes are read from the class ``__dict__`` so that a
        classmethod keeps its descriptor.
        """
        target = _resolve(owner)
        raw = target.__dict__[attr] if isinstance(target, type) else getattr(target, attr)
        if isinstance(raw, classmethod):
            new: _t.Any = classmethod(make(raw.__func__))
        else:
            new = make(raw)
        self._undo.append((target, attr, raw))
        setattr(target, attr, new)

    def restore(self) -> None:
        while self._undo:
            target, attr, raw = self._undo.pop()
            setattr(target, attr, raw)


class MpiCounter:
    """MPI observer counting collective calls and payload bytes."""

    def __init__(self) -> None:
        self.collectives = 0
        self.bytes = 0.0
        self._lock = threading.Lock()

    def on_mpi(self, record: _t.Any) -> None:
        with self._lock:
            if record.src is None:
                self.collectives += 1
            self.bytes += record.bytes_sent

    def hook_launch(self, launch: _t.Callable) -> _t.Callable:
        """``MpiWorld.launch`` that first registers this counter on the world."""
        counter = self

        def launch_observed(world, *args, **kwargs):
            world.add_mpi_observer(counter.on_mpi)
            return launch(world, *args, **kwargs)

        return launch_observed


class RunLog:
    """Simulated statistics and host time of every ``run_fft_phase`` call."""

    def __init__(self) -> None:
        self.records: list[dict] = []
        #: Set while tracing: the log's own bookkeeping is then a span.
        self.clock: SpanClock | None = None
        #: Called before every run when set (the host-speed probe).
        self.before_run: _t.Callable[[], None] | None = None

    def wrap(self, run_fft_phase: _t.Callable) -> _t.Callable:
        log = self

        def run_logged(config, *args, **kwargs):
            if log.before_run is not None:
                log.before_run()
            t0 = time.perf_counter()
            result = run_fft_phase(config, *args, **kwargs)
            wall = time.perf_counter() - t0
            clock = log.clock
            token = clock.enter() if clock is not None else None
            try:
                log.records.append(summarize_run(result, wall))
            finally:
                if token is not None:
                    clock.exit(token, "bench", "RunLog.summarize")
            return result

        return run_logged

    def install(self, patches: Patches) -> None:
        """Log the driver entry point at every call site the workloads use."""
        patches.replace("repro.core.driver", "run_fft_phase", self.wrap)
        patches.replace("repro.sweep.engine", "run_fft_phase", self.wrap)


def summarize_run(result: _t.Any, wall_s: float) -> dict:
    """The simulated statistics (fingerprint) and host counters of one run."""
    config = result.config
    engine = result.cpu.engine_stats()
    dataplane = result.dataplane or {}
    return {
        "sim": {
            "workload": [config.ecutwfc, config.alat, config.nbnd],
            "label": config.label(),
            "decomposition": config.decomposition,
            "n_nodes": config.n_nodes,
            "ideal_network": result.knl is not None and result.knl.net_latency == 0.0,
            "phase_time": result.phase_time,
            "events": result.sim.n_dispatched,
            "average_ipc": result.average_ipc,
            "failed": bool(result.failed),
        },
        "request_key": (
            config.ecutwfc, config.alat, config.nbnd, config.ranks,
            config.taskgroups, config.version, config.seed,
        ),
        "wall_s": wall_s,
        "rebalances": engine.get("n_rebalances", 0),
        "coalesced": engine.get("n_coalesced", 0),
        "alloc_hits": engine.get("alloc_cache_hits", 0),
        "alloc_misses": engine.get("alloc_cache_misses", 0),
        "pack_copies": dataplane.get("pack_copies", 0),
        "arena_acquires": dataplane.get("acquires", 0),
        "arena_reuse_hits": dataplane.get("reuse_hits", 0),
        "kernel_calls": dataplane.get("kernel_calls", 0),
        "kernel_rows": dataplane.get("kernel_rows", 0),
        "inter_node_bytes": float(getattr(result.world.network, "inter_bytes", 0.0)),
    }


@contextlib.contextmanager
def instrument(clock: SpanClock, log: RunLog, mpi: MpiCounter) -> _t.Iterator[None]:
    """Wrap every layer boundary for the duration of the block."""
    patches = Patches()
    try:
        patches.replace("repro.mpisim.world:MpiWorld", "launch", mpi.hook_launch)
        for layer, owner, attr in BOUNDARIES:
            name = boundary_name(owner, attr)
            patches.replace(owner, attr, lambda fn, l=layer, n=name: clock.wrap(l, n, fn))
        for layer, owner, attr in COROUTINE_BOUNDARIES:
            name = boundary_name(owner, attr)
            patches.replace(
                owner, attr, lambda fn, l=layer, n=name: clock.wrap_coroutine(l, n, fn)
            )
        log.clock = clock
        yield
    finally:
        log.clock = None
        patches.restore()
