"""Non-blocking-collectives baseline: software pipelining without tasks.

The classic MPI-only way to overlap communication with computation — what a
careful programmer does *instead of* a task runtime: issue the scatter for
iteration ``i`` (``MPI_Ialltoall``), compute iteration ``i+1``'s G-space
stages while it is in flight, and only then wait.  The schedule, per rank,
with A = prepare+pack+fft_z, B = xy+vofr+xy, C = fft_z+unpack::

    A(0); issue Sfw(0)
    for it:
        A(it+1)                 # overlaps Sfw(it)'s transfer
        wait Sfw(it); B(it)
        issue Sbw(it); issue Sfw(it+1)
        wait Sbw(it); C(it)     # Sfw(it+1) still in flight

In the simulator "issuing" a collective is calling it without yielding the
returned event — the transfer progresses through the fluid network while
the rank computes.  This gives the executor comparison its third corner:
static synchronous (original), static pipelined (this), and the paper's
dynamic task-based versions.

Double-buffering note: iteration ``it+1``'s pack Alltoallv completes while
``Sfw(it)`` may still be in flight, which is exactly why per-iteration
explicit keys (not call order) match the collectives.
"""

from __future__ import annotations

import typing as _t

from repro import telemetry as _telemetry
from repro.core import redistribute as redist_mod
from repro.core.pipeline import (
    FftPhaseContext,
    exchange,
    band_chain_steps,
    step_fft_xy,
    step_fft_z,
    step_pack,
    step_prepare,
    step_unpack,
    step_vofr,
)

__all__ = ["make_pipelined_program"]


def _stage_a(ctx: FftPhaseContext, bands, unit_key, thread=0):
    """prepare + pack + forward fft_z for one iteration."""
    coeffs = yield from step_prepare(ctx, bands, thread)
    group = yield from step_pack(ctx, coeffs, key=(unit_key, "pack"), thread=thread)
    group = yield from step_fft_z(ctx, group, +1, thread)
    return group


def _issue_scatter_fw(ctx: FftPhaseContext, group, key):
    """Join the forward scatter (stick block -> planes) without waiting."""
    plan = redist_mod.scatter_fw_plan(ctx.layout, ctx.r, ctx.data_mode)
    return exchange(ctx, ctx.scatter_comm, plan, group, key)


def _issue_scatter_bw(ctx: FftPhaseContext, planes, key):
    """Join the backward scatter (planes -> stick block) without waiting."""
    plan = redist_mod.scatter_bw_plan(ctx.layout, ctx.r, ctx.data_mode)
    return exchange(ctx, ctx.scatter_comm, plan, planes, key)


def make_pipelined_program(
    ctx_of: _t.Callable[[object], FftPhaseContext],
    n_iterations: int,
    start_iteration: int = 0,
):
    """Build the per-rank program with depth-2 software pipelining.

    ``start_iteration`` skips iterations completed by a prior attempt
    (checkpoint resume); the prologue then primes the pipeline for the
    first remaining iteration.  Must be the same on every rank.
    """

    def program(rank):
        ctx = ctx_of(rank)
        if start_iteration >= n_iterations:
            return ctx
        T = ctx.layout.T
        cost = ctx.cost
        tel = _telemetry.current()
        track = (rank.rank, 0)

        def clock():
            return rank.sim.now

        def bands_of(it):
            return [it * T + t for t in range(T)]

        def key(it):
            return ("it", it)

        if ctx.layout.decomposition == "pencil":
            # Pencil mode: the middle section is two row/col transposes, not
            # one scatter collective — the depth-2 issue/wait schedule below
            # is slab-shaped, so run the band chain synchronously instead
            # (the task-based executors provide the overlapped pencil runs).
            with tel.spans.span(track, "exec_pipelined", "executor", clock):
                for it in range(start_iteration, n_iterations):
                    with tel.spans.span(
                        track, f"iteration {it}", "iteration", clock,
                        bands=bands_of(it),
                    ):
                        yield from band_chain_steps(ctx, bands_of(it), key(it))
            return ctx

        with tel.spans.span(track, "exec_pipelined", "executor", clock):
            # Prologue: stage A and forward-scatter issue for the first
            # iteration this attempt runs.
            first = start_iteration
            with tel.spans.span(track, "prologue", "pipeline-step", clock):
                group = yield from _stage_a(ctx, bands_of(first), key(first))
                yield rank.compute("scatter_reorder", 0.5 * cost.scatter_marshal(ctx.r))
            ev_fw = _issue_scatter_fw(
                ctx, group, (key(first), "sfw", bands_of(first)[ctx.t])
            )

            next_group = None
            for it in range(start_iteration, n_iterations):
                my_band = bands_of(it)[ctx.t]
                with tel.spans.span(
                    track, f"iteration {it}", "iteration", clock, bands=bands_of(it)
                ):
                    # Overlap: compute the next iteration's G-space stages
                    # while the current forward scatter is in flight.
                    if it + 1 < n_iterations:
                        next_group = yield from _stage_a(
                            ctx, bands_of(it + 1), key(it + 1)
                        )

                    # The event resolves to the receive buffer: the planes
                    # arrived in place.
                    planes = yield ev_fw
                    yield rank.compute("scatter_reorder", 0.5 * cost.scatter_marshal(ctx.r))

                    planes = yield from step_fft_xy(ctx, planes, +1)
                    planes = yield from step_vofr(ctx, planes)
                    planes = yield from step_fft_xy(ctx, planes, -1)

                    yield rank.compute("scatter_reorder", 0.5 * cost.scatter_marshal(ctx.r))
                    ev_bw = _issue_scatter_bw(ctx, planes, (key(it), "sbw", my_band))
                    if it + 1 < n_iterations:
                        yield rank.compute(
                            "scatter_reorder", 0.5 * cost.scatter_marshal(ctx.r)
                        )
                        ev_fw = _issue_scatter_fw(
                            ctx, next_group, (key(it + 1), "sfw", bands_of(it + 1)[ctx.t])
                        )

                    group_back = yield ev_bw
                    yield rank.compute("scatter_reorder", 0.5 * cost.scatter_marshal(ctx.r))
                    group_back = yield from step_fft_z(ctx, group_back, -1)
                    yield from step_unpack(
                        ctx, group_back, bands_of(it), key=(key(it), "unpack")
                    )
        return ctx

    return program

