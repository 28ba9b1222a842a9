"""Benchmark entry point.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper_tables --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation,
operation times at the reference host speed of :mod:`perfbench.hostspeed`;
``--trace 1`` runs a fixed amount of work twice, untraced and then with a
span at every layer boundary, and reports the per-layer metrics.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are notes
for a human reader (simulated fingerprint, host reference, tails).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import resource
import sys
import time

# One BLAS thread: an idle OpenBLAS worker spins on the second of the
# reference host's two cores and takes it from the program.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = pathlib.Path(__file__).resolve().parent.parent
#: Cold set-ups per run: at least ``SETUP_REPEATS``, and more until they
#: have taken ``SETUP_SECONDS`` (short set-ups need more for a steady
#: median), at most ``SETUP_MAX_REPEATS``.  ``setup_s`` is their median.
SETUP_REPEATS = 5
SETUP_SECONDS = 4.0
SETUP_MAX_REPEATS = 40


def _import_paths() -> None:
    for path in (ROOT / "src", ROOT):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host_fft_gflops(repeats: int = 15) -> float:
    """numpy FFT throughput on the data-plane z-stick block (host reference).

    The block holds every z-stick of the ecut 30 Ry / alat 10 Bohr grid,
    one complex128 row of length ``nr3`` per stick; one pass transforms all
    rows.  Throughput counts ``5 N log2 N`` flops per length-N transform,
    timed as the median of ``repeats`` passes.
    """
    import numpy as np

    from perfbench.stats import median
    from repro.core.driver import build_geometry

    _cell, desc, _layout = build_geometry(10.0, 30.0, 4.0, 1, 1)
    n, rows = desc.nr3, desc.sticks.nsticks
    rng = np.random.default_rng(0)
    block = rng.standard_normal((rows, n)) + 1j * rng.standard_normal((rows, n))
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        np.fft.fft(block, axis=1)
        times.append(time.perf_counter() - t0)
    return 5.0 * n * np.log2(n) * rows / median(times) / 1e9


def _setups(workload, repeats: int, seconds: float = 0.0) -> tuple[list[float], list[float], float]:
    """At least ``repeats`` cold set-ups, and more until they took ``seconds``,
    each between two host-speed probes: their raw seconds, their seconds at
    the reference host speed, and the last one's geometry seconds."""
    from perfbench.hostspeed import SegmentClock

    clock = SegmentClock()
    raw, scaled, grids = [], [], 0.0
    while len(raw) < repeats or (sum(raw) < seconds and len(raw) < SETUP_MAX_REPEATS):
        clock.start()
        grids = workload.setup()
        raw_s, scaled_s = clock.stop()
        raw.append(raw_s)
        scaled.append(scaled_s)
    return raw, scaled, grids


def run_untraced(workload, args, notes: list[str]) -> dict:
    from perfbench.stats import fingerprint, median, tail

    setups, ref_setups, _ = _setups(workload, SETUP_REPEATS, SETUP_SECONDS)
    result = workload.measure(args.seconds)
    op_p50 = median(result.ref_s)
    if math.isinf(op_p50):
        # Most requests were refused: report the pass length, which every
        # served latency stayed under, and say so.
        notes.append("most operations missed; op_p50_ref_s reports the pass wall time")
        op_p50 = result.wall_s
    finite = [v for v in result.op_s if not math.isinf(v)]
    notes.append(
        f"setup_s: {len(setups)} cold set-ups, median {median(setups):.4f} s raw,"
        f" {median(ref_setups):.4f} s at the reference host speed"
    )
    notes.append(
        f"operations: {len(result.op_s)}, median {median(result.op_s):.4f} s raw,"
        f" {median(result.ref_s):.4f} s at the reference host speed"
    )
    t = tail(result.op_s)
    notes.append(
        f"tail: p{t[0]:g} = {t[1]:.4f} s over {len(result.op_s)} samples"
        if t else f"tail: fewer than 21 samples ({len(result.op_s)}), no tail percentile"
    )
    if len(finite) < len(result.op_s):
        notes.append(f"{len(result.op_s) - len(finite)} operations missed (refused/failed)")
    notes.append(f"simulated fingerprint: {fingerprint(result.sim)}")
    _extra_notes(result, notes)
    metrics = {
        "op_p50_ref_s": _metric(op_p50, "s"),
        "setup_s": _metric(median(ref_setups), "s"),
        "peak_rss_mb": _metric(_peak_rss_mb(), "MB"),
    }
    return {"pass": result, "metrics": metrics}


def _extra_notes(result, notes: list[str]) -> None:
    from perfbench.stats import tail

    extra = result.extra
    for key in ("table1_mae_pp", "table2_mae_pp", "bands_per_s", "max_error"):
        if key in extra:
            notes.append(f"{key}: {extra[key]:.6g}")
    if "late_s" in extra:
        late = tail(extra["late_s"])
        if late:
            notes.append(f"loadgen late p{late[0]:g}: {late[1]:.4f} s")
        notes.append(f"verdicts: {json.dumps(extra['verdicts'], sort_keys=True)}")


def run_traced(workload, args, notes: list[str]) -> dict:
    from perfbench.layers import LAYERS, MpiCounter, instrument
    from perfbench.spans import SpanClock
    from perfbench.stats import fingerprint, median, tail

    _, _, grids_s = _setups(workload, 1)
    plain = workload.fixed_pass(args.seconds)
    clock, mpi = SpanClock(), MpiCounter()
    with instrument(clock, workload.log, mpi):
        traced = workload.fixed_pass(args.seconds)
    same = plain.sim == traced.sim
    notes.append(f"simulated fingerprint untraced {fingerprint(plain.sim)}, traced {fingerprint(traced.sim)}")
    if not same:
        notes.append("MISMATCH: the traced pass simulated different statistics")
    _extra_notes(plain, notes)

    self_s = clock.self_times()
    calls = clock.calls()
    layer_sum = sum(self_s.get(layer, 0.0) for layer in LAYERS)
    other = traced.wall_s - layer_sum
    notes.append(
        f"traced wall {traced.wall_s:.4f} s = layers {layer_sum:.4f} s + other {other:.4f} s;"
        " simkit self time includes executor generator bodies that no wrapped call covers"
    )
    if clock.open_spans():
        notes.append(f"WARNING: {clock.open_spans()} spans left open")

    runs = traced.runs
    events = sum(r["sim"]["events"] for r in plain.runs)
    rebalances = sum(r["rebalances"] for r in runs)
    alloc = sum(r["alloc_hits"] + r["alloc_misses"] for r in runs)
    acquires = sum(r["arena_acquires"] for r in runs)
    extra = plain.extra

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def p50(key: str) -> float:
        return median(extra.get(key, []))

    late = tail(extra.get("late_s", []))
    latency = tail(plain.op_s) if "late_s" in extra else None
    metrics = {f"{layer}.self_s": _metric(self_s.get(layer, 0.0), "s") for layer in LAYERS}
    metrics["driver.assembly_s"] = metrics.pop("driver.self_s")
    metrics.update({
        "simkit.events": _metric(events, "count"),
        "simkit.us_per_event": _metric(1e6 * ratio(plain.busy_s, events), "us"),
        "machine.compute_calls": _metric(calls.get("CpuModel.compute", 0), "count"),
        "machine.rebalances": _metric(rebalances, "count"),
        "machine.coalesced_ratio": _metric(ratio(sum(r["coalesced"] for r in runs), rebalances), "ratio"),
        "machine.alloc_memo_hit_ratio": _metric(ratio(sum(r["alloc_hits"] for r in runs), alloc), "ratio"),
        "mpisim.collectives": _metric(mpi.collectives, "count"),
        "mpisim.bytes": _metric(mpi.bytes, "B"),
        "mpisim.inter_node_bytes": _metric(sum(r["inter_node_bytes"] for r in runs), "B"),
        "ompss.tasks": _metric(calls.get("TaskRuntime.submit", 0), "count"),
        "core.pack_copies": _metric(sum(r["pack_copies"] for r in runs), "count"),
        "core.arena_reuse_ratio": _metric(ratio(sum(r["arena_reuse_hits"] for r in runs), acquires), "ratio"),
        "driver.runs": _metric(calls.get("run_fft_phase", 0), "count"),
        "fft.kernel_calls": _metric(sum(r["kernel_calls"] for r in runs), "count"),
        "fft.kernel_rows": _metric(sum(r["kernel_rows"] for r in runs), "count"),
        "grids.setup_s": _metric(grids_s, "s"),
        "telemetry.records": _metric(
            sum(calls.get(f"Tracer.{hook}", 0) for hook in ("on_compute", "on_mpi", "on_task")), "count"
        ),
        "service.queue_wait_p50_s": _metric(p50("queue_wait_s"), "s"),
        "service.run_p50_s": _metric(p50("run_s"), "s"),
        "service.memo_hit_ratio": _metric(extra.get("memo_hit_ratio", 0.0), "ratio"),
        "service.retries": _metric(extra.get("retries", 0), "count"),
        "service.degraded": _metric(extra.get("degraded", 0), "count"),
        "service.shed": _metric(extra.get("shed", 0), "count"),
        "service.latency_tail_s": _metric(latency[1] if latency else 0.0, "s"),
        "loadgen.late_tail_s": _metric(late[1] if late else 0.0, "s"),
        "other.self_s": _metric(other, "s"),
        "trace.wall_s": _metric(traced.wall_s, "s"),
        "trace.overhead_frac": _metric(ratio(traced.busy_s - plain.busy_s, plain.busy_s), "ratio"),
        "host.fft_gflops": _metric(host_fft_gflops(), "GFLOP/s"),
    })
    traced.correct = traced.correct and plain.correct and same
    traced.attempted += plain.attempted
    traced.failed += plain.failed
    return {"pass": traced, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    _import_paths()
    try:
        import repro  # the program under test
    except ImportError as exc:
        print(f"perfbench: cannot import the repro package: {exc}", file=sys.stderr)
        return 2
    if not pathlib.Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: repro must come from {ROOT / 'src'}, not {repro.__file__}", file=sys.stderr)
        return 2
    from perfbench.layers import Patches, RunLog
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    log = RunLog()
    patches = Patches()
    log.install(patches)
    notes: list[str] = []
    try:
        workload = WORKLOADS[args.workload](args.seed, log)
        run = run_traced if args.trace else run_untraced
        out = run(workload, args, notes)
    finally:
        patches.restore()
    if not args.trace:
        notes.append(f"host reference: numpy FFT {host_fft_gflops():.3f} GFLOP/s on the z-stick block")
    result = out["pass"]
    for line in notes:
        print(f"# {line}")
    print(json.dumps({
        "correct": bool(result.correct and result.attempted > 0),
        "attempted": int(max(result.attempted, 1)),
        "failed": int(result.failed),
        "metrics": out["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
