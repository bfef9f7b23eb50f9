"""Executor-phase data transportation: gather, scatter, scatter-with-op.

These are the CHAOS primitives that *use* a built schedule (paper Phase F).
Data arrays live one-per-rank; each may be 1-D (scalars per element) or
2-D (``(n, k)`` — e.g. xyz coordinates), moved row-wise.  Ghost regions are
separate arrays sized ``schedule.ghost_size[p]`` so the same local array
can serve many schedules.

``gather``   — owners push copies of requested elements into requesters'
               ghost buffers (prefetch before a loop).
``scatter``  — ghost values return to their owners, overwriting.
``scatter_op`` — ghost values return and are *combined* (np.add etc.),
               the irregular-reduction path for ``x(ia(i)) += ...``.

Every function takes an :class:`~repro.core.context.ExecutionContext`
first; the context's *backend* (:mod:`repro.core.backends`) executes the
transport: ``serial`` reproduces the historical pair-loop semantics,
and ``vectorized`` (the default) executes a compiled flat plan with
fused numpy operations.

**Fused pipelines.**  Consecutive collectives in one loop body can run
as a single fused pass: wrap each in a phase constructor
(:func:`gather_phase`, :func:`scatter_phase`, :func:`scatter_op_phase`,
plus :func:`~repro.core.lightweight.append_phase` and
:func:`~repro.core.remap.remap_phase`) and hand the chain to
:func:`run_pipeline`.  When the chain is legal to fuse
(:func:`fusable`: no stage reads an array another stage writes, only
named-ufunc combiners) the backend executes one combined
pack → permute → apply pipeline over the compiled plans
(:func:`~repro.core.compiled.compile_fused`); otherwise — and on any
backend without a one-pass implementation — it falls back to the
reference phase-by-phase path.  Results, traffic and clocks are
bitwise-identical either way.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.compiled import (
    FusedPlan,
    FusedStage,
    StageBind,
    compile_fused,
    compile_lightweight_schedule,
    compile_remap_plan,
    compile_schedule,
)
from repro.core.context import ensure_context
from repro.core.reuse import FUSED_SUFFIX
from repro.core.schedule import Schedule


def _ghost_like(local: np.ndarray, n_ghost: int) -> np.ndarray:
    shape = (n_ghost,) + local.shape[1:]
    return np.zeros(shape, dtype=local.dtype)


def allocate_ghosts(
    sched: Schedule, data: list[np.ndarray]
) -> list[np.ndarray]:
    """Fresh ghost buffers matching ``data``'s dtype/row-shape."""
    return [_ghost_like(d, g) for d, g in zip(data, sched.ghost_size)]


def gather(
    ctx,
    sched: Schedule,
    data: list[np.ndarray],
    ghosts: list[np.ndarray] | None = None,
    category: str = "comm",
) -> list[np.ndarray]:
    """Fetch off-processor elements into ghost buffers.

    Returns the ghost arrays (newly allocated unless ``ghosts`` given).
    After the call, rank ``p``'s copy of remote element with buffer slot
    ``s`` is at ``ghosts[p][s]``; localized indices ``n_local + s`` from
    the inspector address it directly when local and ghost arrays are
    stacked (see :func:`stack_local_ghost`).
    """
    ctx = ensure_context(ctx, "gather")
    machine = ctx.machine
    machine.check_per_rank(data, "data")
    if ghosts is None:
        ghosts = allocate_ghosts(sched, data)
    machine.check_per_rank(ghosts, "ghosts")
    plan = compile_schedule(sched)
    for p in machine.ranks():
        if plan.send_max[p] >= np.asarray(data[p]).shape[0]:
            raise IndexError(
                f"rank {p}: schedule wants element {int(plan.send_max[p])} "
                f"but local array has {np.asarray(data[p]).shape[0]}"
            )
        g = np.asarray(ghosts[p])
        if g.shape[0] < sched.ghost_size[p]:
            raise ValueError(
                f"rank {p}: ghost buffer {g.shape[0]} < required "
                f"{sched.ghost_size[p]}"
            )
    return ctx.backend.gather(ctx, sched, data, ghosts, category)


def scatter(
    ctx,
    sched: Schedule,
    data: list[np.ndarray],
    ghosts: list[np.ndarray],
    category: str = "comm",
) -> None:
    """Return ghost values to their owners, overwriting local elements.

    The exact reverse of :func:`gather`: rank ``p`` sends
    ``ghosts[p][sched.recv_view(p, q)]`` back to ``q``, which writes them
    at ``sched.send_view(q, p)``.
    """
    ctx = ensure_context(ctx, "scatter")
    ctx.machine.check_per_rank(data, "data")
    ctx.machine.check_per_rank(ghosts, "ghosts")
    ctx.backend.scatter(ctx, sched, data, ghosts, None, category)


def scatter_op(
    ctx,
    sched: Schedule,
    data: list[np.ndarray],
    ghosts: list[np.ndarray],
    op: Callable = np.add,
    category: str = "comm",
) -> None:
    """Return ghost contributions and combine with ``op`` at the owner.

    ``op`` must be a numpy ufunc with an ``.at`` method (``np.add``,
    ``np.maximum``, ...); accumulation order across sources is by source
    rank, deterministic.  This implements irregular reductions: each rank
    accumulates into its ghost copy during the executor loop, then one
    ``scatter_op(np.add)`` folds all contributions into the owners.
    """
    ctx = ensure_context(ctx, "scatter_op")
    if not hasattr(op, "at"):
        raise TypeError(f"op {op!r} must be a ufunc with an .at method")
    ctx.machine.check_per_rank(data, "data")
    ctx.machine.check_per_rank(ghosts, "ghosts")
    ctx.backend.scatter(ctx, sched, data, ghosts, op, category)


def stack_local_ghost(
    data: list[np.ndarray], ghosts: list[np.ndarray]
) -> list[np.ndarray]:
    """Concatenate local and ghost regions per rank.

    The inspector numbers off-processor references ``n_local + slot``, so
    an executor loop can fancy-index one stacked array with localized
    indices.  (Copies; write results back explicitly if mutated.)
    """
    if len(data) != len(ghosts):
        raise ValueError("data/ghosts rank-count mismatch")
    return [np.concatenate([d, g], axis=0) for d, g in zip(data, ghosts)]


def split_local_ghost(
    stacked: list[np.ndarray], n_locals: list[int]
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Inverse of :func:`stack_local_ghost`."""
    if len(stacked) != len(n_locals):
        raise ValueError("stacked/n_locals rank-count mismatch")
    data = [s[:n] for s, n in zip(stacked, n_locals)]
    ghosts = [s[n:] for s, n in zip(stacked, n_locals)]
    return data, ghosts


# ----------------------------------------------------------------------
# fused pipelines
# ----------------------------------------------------------------------
class PipelinePhase:
    """One collective inside a :func:`run_pipeline` chain.

    Built by the phase constructors (:func:`gather_phase`,
    :func:`scatter_phase`, :func:`scatter_op_phase`,
    :func:`~repro.core.lightweight.append_phase`,
    :func:`~repro.core.remap.remap_phase`); ``sources`` are the arrays
    the stage reads, ``dests`` the arrays it writes (``None`` for the
    value-returning kinds, whose outputs the backend allocates).
    """

    __slots__ = ("kind", "sched", "sources", "dests", "op")

    def __init__(self, kind, sched, sources, dests=None, op=None):
        self.kind = kind
        self.sched = sched
        self.sources = sources
        self.dests = dests
        self.op = op

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"PipelinePhase({self.kind!r})"

    def _prepare(self, ctx) -> tuple[FusedStage, StageBind]:
        """Validate like the unfused wrapper; compile the stage plan."""
        machine = ctx.machine
        if self.kind == "gather":
            machine.check_per_rank(self.sources, "data")
            if self.dests is None:
                self.dests = allocate_ghosts(self.sched, self.sources)
            machine.check_per_rank(self.dests, "ghosts")
            plan = compile_schedule(self.sched)
            for p in machine.ranks():
                if plan.send_max[p] >= np.asarray(self.sources[p]).shape[0]:
                    raise IndexError(
                        f"rank {p}: schedule wants element "
                        f"{int(plan.send_max[p])} but local array has "
                        f"{np.asarray(self.sources[p]).shape[0]}"
                    )
                g = np.asarray(self.dests[p])
                if g.shape[0] < self.sched.ghost_size[p]:
                    raise ValueError(
                        f"rank {p}: ghost buffer {g.shape[0]} < required "
                        f"{self.sched.ghost_size[p]}"
                    )
            return (FusedStage("gather", self.sched, plan),
                    StageBind(self.sources, self.dests))
        if self.kind == "scatter":
            if self.op is not None and not hasattr(self.op, "at"):
                raise TypeError(
                    f"op {self.op!r} must be a ufunc with an .at method"
                )
            machine.check_per_rank(self.dests, "data")
            machine.check_per_rank(self.sources, "ghosts")
            plan = compile_schedule(self.sched)
            return (FusedStage("scatter", self.sched, plan, op=self.op),
                    StageBind(self.sources, self.dests))
        if self.kind == "append":
            machine.check_per_rank(self.sources, "values")
            plan = compile_lightweight_schedule(self.sched)
            for p in machine.ranks():
                v = np.asarray(self.sources[p])
                expected = plan.send_idx[p].size
                if v.shape[0] != expected:
                    raise ValueError(
                        f"rank {p}: values has {v.shape[0]} elements, "
                        f"schedule covers {expected}"
                    )
            return (FusedStage("append", self.sched, plan),
                    StageBind(self.sources))
        if self.kind == "remap":
            machine.check_per_rank(self.sources, "data")
            plan = compile_remap_plan(self.sched)
            for p in machine.ranks():
                if plan.send_max[p] >= np.asarray(self.sources[p]).shape[0]:
                    raise IndexError(
                        f"rank {p}: remap plan wants element "
                        f"{int(plan.send_max[p])} but local array has "
                        f"{np.asarray(self.sources[p]).shape[0]} rows"
                    )
            return (FusedStage("remap", self.sched, plan),
                    StageBind(self.sources))
        raise ValueError(f"unknown pipeline phase kind {self.kind!r}")


def gather_phase(
    sched: Schedule,
    data: list[np.ndarray],
    ghosts: list[np.ndarray] | None = None,
) -> PipelinePhase:
    """A :func:`gather` as a pipeline phase (ghosts allocated if None)."""
    return PipelinePhase("gather", sched, data, dests=ghosts)


def scatter_phase(
    sched: Schedule,
    data: list[np.ndarray],
    ghosts: list[np.ndarray],
) -> PipelinePhase:
    """A :func:`scatter` (overwrite) as a pipeline phase."""
    return PipelinePhase("scatter", sched, ghosts, dests=data)


def scatter_op_phase(
    sched: Schedule,
    data: list[np.ndarray],
    ghosts: list[np.ndarray],
    op: Callable = np.add,
) -> PipelinePhase:
    """A :func:`scatter_op` (combining) as a pipeline phase."""
    return PipelinePhase("scatter", sched, ghosts, dests=data, op=op)


def _root(a: np.ndarray) -> np.ndarray:
    """The array owning ``a``'s memory (follows the view chain)."""
    if not isinstance(a, np.ndarray):
        a = np.asarray(a)
    base = a.base
    while isinstance(base, np.ndarray):
        a = base
        base = a.base
    return a


def fusable(phases) -> tuple[bool, str]:
    """Whether a phase chain is legal to fuse; ``(ok, reason)``.

    Legality rules (conservative — a ``False`` here only means the
    chain runs phase-by-phase instead):

    * combiners must be *named numpy ufuncs* (``np.add``, ...), the only
      ops every backend can apply;
    * no stage may *read* an array any stage *writes* (compared by
      owning memory): the fused executor packs every stage's sources
      before applying any stage, so a later stage reading an earlier
      stage's output would see stale data.  Stages may freely *write*
      the same target (even all of them): the apply pass runs ranks
      outer, stages inner, preserving the sequential stage order per
      array.
    """
    writes = set()
    for phase in phases:
        if phase.op is not None and not (
            isinstance(phase.op, np.ufunc)
            and getattr(np, phase.op.__name__, None) is phase.op
        ):
            return False, "combiner is not a named numpy ufunc"
        for d in phase.dests or ():
            writes.add(id(_root(d)))
    for phase in phases:
        for s in phase.sources:
            if id(_root(s)) in writes:
                return False, "a stage reads an array another stage writes"
    return True, ""


def _fused_for(ctx, stages, loop_id) -> FusedPlan:
    """The chain's :class:`FusedPlan`, through the context's
    :class:`~repro.core.reuse.ScheduleCache` when a loop id is given."""
    if loop_id is None:
        return compile_fused(stages)
    cache = ctx.schedule_cache
    key = loop_id + FUSED_SUFFIX
    cached = cache.peek(key)
    if cached is not None and cached.matches(stages):
        # genuine reuse: route through get_or_build so the hit counts
        # (the entry's only dep is its own key, so this cannot rebuild)
        fused, _ = cache.get_or_build(key, (key,), lambda: cached)
        return fused
    # first build, or some stage's schedule was rebuilt under the same
    # loop id: bump the entry's own dep key so get_or_build rebuilds
    # (builds += 1) without resetting the hit counter the way
    # invalidate() would — and without the stale probe counting a hit
    cache.record.touch(key)
    fused, _ = cache.get_or_build(key, (key,),
                                  lambda: compile_fused(stages))
    return fused


def run_pipeline(
    ctx,
    phases,
    category: str = "comm",
    loop_id: str | None = None,
) -> list:
    """Run a chain of collectives, fused into one pass where legal.

    Returns one result per phase, matching the unfused primitives:
    the ghost arrays for gather, ``None`` for scatter/scatter_op, fresh
    per-rank arrays for append/remap.  When :func:`fusable` rejects the
    chain the phases run through their ordinary primitives in order —
    results, traffic and clocks are identical either way; fusion only
    changes how fast the data moves.

    ``loop_id`` keys the chain's :class:`~repro.core.compiled.FusedPlan`
    through the context's schedule cache (under
    ``loop_id + FUSED_SUFFIX``), so adaptive loops reuse the fused plan
    across iterations and its hit/build counters are observable via
    ``ScheduleCache.fused_stats`` / ``ChaosRuntime.cache_stats``.
    """
    ctx = ensure_context(ctx, "run_pipeline")
    phases = list(phases)
    if not phases:
        return []
    stages = []
    binds = []
    for phase in phases:
        stage, bind = phase._prepare(ctx)
        stages.append(stage)
        binds.append(bind)
    ok, _reason = fusable(phases)
    if ok:
        fused = _fused_for(ctx, stages, loop_id)
        return ctx.backend.run_fused(ctx, fused, binds, category)
    # illegal chain: the reference multi-pass path, explicitly through
    # the base implementation so one-pass overrides are bypassed
    from repro.core.backends.base import Backend
    return Backend.run_fused(ctx.backend, ctx,
                             FusedPlan(stages=tuple(stages)), binds,
                             category)
