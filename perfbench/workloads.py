"""The three workloads: paper tables, data plane and service bursts.

Each workload offers the same three steps to the runner:

* ``setup()`` — one cold set-up from empty process caches (geometry cache
  cleared); returns the seconds spent in cold ``build_geometry`` calls;
* ``measure(seconds)`` — operations for about ``seconds`` of wall time;
* ``fixed_pass(seconds)`` — a fixed amount of work, identical on every
  call, so an untraced and a traced pass can be compared;

and both passes return a :class:`Pass`.  Operations are timed with the
host clock; correctness checks (validation against the dense reference,
finite table cells) run outside the timed region.  ``measure`` also times
every operation at the reference host speed (:mod:`perfbench.hostspeed`),
with a probe before and after each run of the program.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import math
import sys
import time
import traceback
import typing as _t

from perfbench.hostspeed import REFERENCE_PROBE_S, SegmentClock, probe
from perfbench.layers import RunLog
from perfbench.stats import median, table_mae_pp

__all__ = ["WORKLOADS", "Pass", "PaperTables", "DataPlane", "Service"]

#: Ranks of the paper's N x 8 columns (Tables I and II).
PAPER_RANKS = (1, 2, 4, 8, 16)
#: Largest tolerated relative error of a data-mode run vs. the dense reference.
VALIDATE_TOL = 1e-10


@dataclasses.dataclass
class Pass:
    """What one measured or fixed pass of a workload produced."""

    #: Host seconds of each operation.
    op_s: list[float] = dataclasses.field(default_factory=list)
    #: Seconds of each operation at the reference host speed (``measure`` only).
    ref_s: list[float] = dataclasses.field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: Every output check passed.
    correct: bool = True
    #: Simulated statistics; equal documents mean identical simulated output.
    sim: _t.Any = None
    #: :class:`RunLog` records of the runs in this pass.
    runs: list[dict] = dataclasses.field(default_factory=list)
    #: Main-thread wall seconds of the pass.
    wall_s: float = 0.0
    #: Host seconds of the work itself, the base of overhead ratios:
    #: the operations for the closed-loop workloads, the summed run time
    #: on the worker threads for the service.
    busy_s: float = 0.0
    #: Workload-specific figures (printed, and used by traced metrics).
    extra: dict = dataclasses.field(default_factory=dict)


def _report_exception(where: str) -> None:
    print(f"perfbench: exception in {where}:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def _build_geometries(configs: _t.Iterable[_t.Any]) -> float:
    """Cold-build the geometry of each config; returns the seconds spent."""
    from repro.core.driver import build_geometry

    build_geometry.cache_clear()
    t0 = time.perf_counter()
    for c in configs:
        build_geometry(
            c.alat, c.ecutwfc, c.dual, c.layout_scatter, c.layout_groups, c.decomposition
        )
    return time.perf_counter() - t0


def _unique_sims(runs: _t.Iterable[dict]) -> list[str]:
    """Distinct simulated-statistics records, order-free."""
    return sorted({json.dumps(r["sim"], sort_keys=True) for r in runs})


class PaperTables:
    """Tables I and II in meta mode, serially, with ideal-network replays."""

    name = "paper_tables"

    def __init__(self, seed: int, log: RunLog) -> None:
        del seed  # fixed inputs: the paper's workload
        self.log = log

    def _configs(self) -> list:
        from repro.experiments.common import paper_config

        return [
            paper_config(n, version)
            for version in ("original", "ompss_perfft")
            for n in PAPER_RANKS
        ]

    def setup(self) -> float:
        return _build_geometries(self._configs())

    def _op(self, out: Pass, clock: SegmentClock | None = None) -> None:
        """Both tables; with ``clock``, probed before every run of the program."""
        from repro.experiments.paperdata import PAPER
        from repro.experiments.table1 import run_table1
        from repro.experiments.table2 import run_table2

        first = len(self.log.records)
        try:
            if clock is not None:
                clock.start()
                self.log.before_run = clock.split
            t0 = time.perf_counter()
            table1 = run_table1(PAPER_RANKS, jobs=1)
            table2 = run_table2(PAPER_RANKS, jobs=1)
            elapsed = time.perf_counter() - t0
            if clock is not None:
                elapsed, scaled = clock.stop()
                out.ref_s.append(scaled)
        except Exception:
            _report_exception("paper_tables")
            out.attempted += 1
            out.failed += 1
            out.correct = False
            return
        finally:
            self.log.before_run = None
        runs = self.log.records[first:]
        out.op_s.append(elapsed)
        out.busy_s += elapsed
        out.runs.extend(runs)
        tables = {"table1": table1.data["columns"], "table2": table2.data["columns"]}
        cells = [v for cols in tables.values() for col in cols.values() for v in col.values()]
        bad_cells = sum(1 for v in cells if not math.isfinite(v))
        out.attempted += len(runs) + len(cells)
        out.failed += sum(1 for r in runs if r["sim"]["failed"]) + bad_cells
        if bad_cells:
            out.correct = False
            return
        sim = {"runs": [r["sim"] for r in runs], "tables": tables}
        if out.sim is None:
            out.sim = sim
        elif sim != out.sim:
            # The tables are deterministic: two repetitions must agree exactly.
            out.correct = False
        labels = PAPER["config_labels"]
        out.extra["table1_mae_pp"] = table_mae_pp(tables["table1"], PAPER["table1"], labels)
        out.extra["table2_mae_pp"] = table_mae_pp(tables["table2"], PAPER["table2"], labels)

    def measure(self, seconds: float) -> Pass:
        out = Pass()
        clock = SegmentClock()
        t0 = time.perf_counter()
        while True:
            self._op(out, clock)
            elapsed = time.perf_counter() - t0
            last = out.op_s[-1] if out.op_s else elapsed
            if not out.op_s or elapsed + last > seconds:
                break
        out.wall_s = time.perf_counter() - t0
        return out

    def fixed_pass(self, seconds: float) -> Pass:
        del seconds  # one reproduction of both tables
        out = Pass()
        t0 = time.perf_counter()
        self._op(out)
        out.wall_s = time.perf_counter() - t0
        return out


#: The data-plane cells: the 8x8 slab run on one node and the 4x2 pencil
#: run over four nodes, both ecut 30 Ry / alat 10 Bohr / 32 bands.
_DATA_WORKLOAD = dict(ecutwfc=30.0, alat=10.0, nbnd=32, version="original", data_mode=True)
DATA_CELLS = (
    ("slab", dict(ranks=8, taskgroups=8)),
    ("pencil", dict(ranks=4, taskgroups=2, decomposition="pencil", n_nodes=4)),
)
#: Slab + pencil pairs in each untraced and traced pass of a traced run.
TRACE_PAIRS = 4


class DataPlane:
    """Data-mode runs alternating the slab and pencil cells, validated."""

    name = "dataplane"

    def __init__(self, seed: int, log: RunLog) -> None:
        self.seed = seed
        self.log = log

    def _config(self, cell: int, data_seed: int):
        from repro.core.config import RunConfig

        return RunConfig(**_DATA_WORKLOAD, **DATA_CELLS[cell][1], seed=data_seed)

    def _data_seed(self, pair: int, cell: int) -> int:
        """Distinct non-negative coefficient/potential seed per run."""
        return (self.seed * 1_000_003 + 2 * pair + cell) % (2**31)

    def setup(self) -> float:
        from repro.core import driver

        seconds = _build_geometries(self._config(i, 0) for i in range(len(DATA_CELLS)))
        for i in range(len(DATA_CELLS)):
            driver.run_fft_phase(self._config(i, 0))  # warm plans and arenas
        return seconds

    def _pair(self, out: Pass, pair: int, clock: SegmentClock | None = None) -> None:
        """One slab + pencil pair; with ``clock``, each run between probes."""
        from repro.core import driver

        op = scaled = 0.0
        for cell in range(len(DATA_CELLS)):
            config = self._config(cell, self._data_seed(pair, cell))
            out.attempted += 1
            try:
                if clock is not None:
                    clock.start()
                t0 = time.perf_counter()
                result = driver.run_fft_phase(config)
                elapsed = time.perf_counter() - t0
                if clock is not None:
                    elapsed, run_scaled = clock.stop()
                    scaled += run_scaled
                op += elapsed
                error = result.validate()  # untimed
            except Exception:
                _report_exception("dataplane")
                out.failed += 1
                out.correct = False
                return
            out.runs.append(self.log.records[-1])
            if result.failed:
                out.failed += 1
            if not error <= VALIDATE_TOL:
                out.failed += 1
                out.correct = False
                print(f"perfbench: {DATA_CELLS[cell][0]} run error {error:.3e}", file=sys.stderr)
            out.extra["max_error"] = max(out.extra.get("max_error", 0.0), error)
        out.op_s.append(op)
        out.busy_s += op
        if clock is not None:
            out.ref_s.append(scaled)

    def _finish(self, out: Pass, t0: float) -> Pass:
        out.wall_s = time.perf_counter() - t0
        out.sim = _unique_sims(out.runs)
        if out.op_s:
            complex_bands = len(DATA_CELLS) * _DATA_WORKLOAD["nbnd"] // 2
            out.extra["bands_per_s"] = complex_bands / median(out.op_s)
        return out

    def measure(self, seconds: float) -> Pass:
        out = Pass()
        clock = SegmentClock()
        t0 = time.perf_counter()
        pair = 0
        while True:
            self._pair(out, pair, clock)
            pair += 1
            elapsed = time.perf_counter() - t0
            if elapsed + elapsed / pair > seconds:
                break
        return self._finish(out, t0)

    def fixed_pass(self, seconds: float) -> Pass:
        del seconds
        out = Pass()
        t0 = time.perf_counter()
        for pair in range(TRACE_PAIRS):
            self._pair(out, pair)
        return self._finish(out, t0)


#: The request stream: a seeded :class:`~repro.service.LoadSpec` with the
#: default class mix, 2x2 ``original`` + ``ompss_perfft``, 20% repeats and a
#: 2 s deadline.  Its arrival times are not used (see :class:`Service`).
SERVICE_LOAD = dict(rate_rps=10.0, duration_s=600.0, deadline_s=2.0, ranks=2, taskgroups=2,
                    repeat_fraction=0.2)
#: Requests per burst.  A burst is due all at once; the next one is due
#: when the last request of the previous one completed.
BURST = 16
#: Bursts in each untraced and traced pass of a traced run.
TRACE_BURSTS = 12
_SERVED = ("ok", "memoized", "batched")


class Service:
    """Seeded request bursts against the asyncio service front end.

    Bursts keep both workers busy and the queue a few requests deep, with
    every request timed from its due time.  A Poisson open loop at 5-10
    req/s would be the more natural traffic, but its latency medians spread
    by 0.2-0.6 (quartile distance over median) between runs on a 2-core
    host: the share of requests that overlap on the two workers, and so
    contend for the interpreter lock, changes from run to run.
    """

    name = "service"

    def __init__(self, seed: int, log: RunLog) -> None:
        self.seed = seed
        self.log = log

    def _requests(self) -> list:
        from repro.service import LoadSpec, generate_arrivals

        return [r for _, r in generate_arrivals(LoadSpec(seed=self.seed, **SERVICE_LOAD))]

    def setup(self) -> float:
        return asyncio.run(self._setup())

    async def _setup(self) -> float:
        """Cold geometry, a started service and one warm run per (class, version)."""
        from repro.core.config import RunConfig
        from repro.service import GRID_CLASSES, AsyncService, ServiceConfig, LoadSpec, preset_request

        spec = LoadSpec(**SERVICE_LOAD)
        requests = [
            preset_request(
                grid_class, ranks=spec.ranks, taskgroups=spec.taskgroups,
                version=version, seed=0,
            )
            for grid_class in sorted(GRID_CLASSES)
            for version in spec.versions
        ]
        seconds = _build_geometries(
            RunConfig(
                ecutwfc=r.ecutwfc, alat=r.alat, nbnd=r.nbnd, ranks=r.ranks,
                taskgroups=r.taskgroups, version=r.version,
            )
            for r in requests
        )
        service = AsyncService(ServiceConfig())
        await service.start()
        try:
            for request in requests:
                await service.submit(request)
        finally:
            await service.drain()
        return seconds

    def measure(self, seconds: float) -> Pass:
        return asyncio.run(self._pass(seconds=seconds))

    def fixed_pass(self, seconds: float) -> Pass:
        del seconds
        return asyncio.run(self._pass(bursts=TRACE_BURSTS))

    async def _pass(self, seconds: float | None = None, bursts: int | None = None) -> Pass:
        """Bursts for about ``seconds`` of wall time, or exactly ``bursts``.

        A timed pass (``seconds``) probes the host speed before and after
        every burst and scales the burst's latencies by the mean probe.
        """
        from repro.service import AsyncService, ServiceConfig

        requests = self._requests()
        out = Pass()
        first = len(self.log.records)
        t_wall = time.perf_counter()
        service = AsyncService(ServiceConfig())
        await service.start()
        served: list[tuple[_t.Any, str, float, float]] = []
        errors: list[BaseException] = []

        async def one(due: float, request: _t.Any) -> None:
            late = time.monotonic() - due
            reply = await service.submit(request)
            served.append((request, reply["verdict"], time.monotonic() - due, late))

        done = 0
        try:
            while done * BURST < len(requests):
                before = probe() if seconds is not None else 0.0
                start = len(served)
                due = time.monotonic()
                burst = requests[done * BURST:(done + 1) * BURST]
                results = await asyncio.gather(*(one(due, r) for r in burst), return_exceptions=True)
                raised = [r for r in results if isinstance(r, BaseException)]
                errors += raised
                if seconds is not None:
                    scale = 2.0 * REFERENCE_PROBE_S / (before + probe())
                    out.ref_s += [
                        lat * scale if verdict in _SERVED else math.inf
                        for _, verdict, lat, _ in served[start:]
                    ]
                    out.ref_s += [math.inf] * len(raised)
                out.attempted += len(burst)
                done += 1
                elapsed = time.perf_counter() - t_wall
                if done == bursts or (seconds is not None and elapsed + elapsed / done > seconds):
                    break
        finally:
            await service.drain()
        out.wall_s = time.perf_counter() - t_wall
        out.runs = self.log.records[first:]
        out.busy_s = sum(r["wall_s"] for r in out.runs)

        for err in errors:
            print(f"perfbench: service request raised {err!r}", file=sys.stderr)
        out.failed = len(errors) + sum(1 for _, verdict, _, _ in served if verdict not in _SERVED)
        out.correct = not errors
        # A refused or failed request misses every latency limit.
        out.op_s = [lat if verdict in _SERVED else math.inf for _, verdict, lat, _ in served]
        out.op_s += [math.inf] * len(errors)

        # Queue wait = latency minus the request's own run on a worker.
        run_walls: dict[tuple, list[float]] = {}
        for r in out.runs:
            run_walls.setdefault(r["request_key"], []).append(r["wall_s"])
        waits = []
        for request, verdict, latency, _ in served:
            key = (
                request.ecutwfc, request.alat, request.nbnd, request.ranks,
                request.taskgroups, request.version, request.seed,
            )
            if verdict in ("ok", "batched") and run_walls.get(key):
                waits.append(latency - run_walls[key].pop(0))
        counts = service.core.counts
        out.sim = _unique_sims(out.runs)
        out.extra.update(
            late_s=[late for _, _, _, late in served],
            queue_wait_s=waits,
            run_s=[r["wall_s"] for r in out.runs],
            memo_hit_ratio=counts["memoized"] / max(counts["submitted"], 1),
            retries=counts["retries"],
            degraded=counts["degraded"],
            shed=counts["shed"],
            verdicts={v: counts[v] for v in ("ok", "memoized", "batched", "shed", "expired", "failed")},
        )
        return out


WORKLOADS: dict[str, type] = {w.name: w for w in (PaperTables, DataPlane, Service)}
