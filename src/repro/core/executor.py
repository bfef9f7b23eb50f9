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
first.  **One executor path:** each primitive here — and
:func:`~repro.core.lightweight.scatter_append[_multi]` and
:func:`~repro.core.remap.remap_array` — is a one-stage
:func:`run_pipeline` call.  :meth:`PipelinePhase._prepare` is the one
place arguments are validated, and the context's backend
(:mod:`repro.core.backends`) executes the chain through its one executor
method, ``run_fused``: ``serial`` runs each stage through its per-pair
reference primitive, and ``vectorized`` (the default) moves each stage
with one composed flat kernel over the compiled plans.

**Fused pipelines.**  Consecutive collectives in one loop body can run
as a single chain: wrap each in a phase constructor
(:func:`gather_phase`, :func:`scatter_phase`, :func:`scatter_op_phase`,
plus :func:`~repro.core.lightweight.append_phase` and
:func:`~repro.core.remap.remap_phase`) and hand the chain to
:func:`run_pipeline`.  When the chain is legal to fuse (:func:`fusable`:
no stage reads an array another stage writes) the backend runs it as one
:func:`~repro.core.compiled.compile_fused` plan, charging every stage
before any data moves; otherwise each phase runs as its own one-stage
chain, in order.  Results, traffic and clocks are bitwise-identical
either way.
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
    return run_pipeline(ctx, [gather_phase(sched, data, ghosts)],
                        category)[0]


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
    run_pipeline(ctx, [scatter_phase(sched, data, ghosts)], category)


def scatter_op(
    ctx,
    sched: Schedule,
    data: list[np.ndarray],
    ghosts: list[np.ndarray],
    op: Callable = np.add,
    category: str = "comm",
) -> None:
    """Return ghost contributions and combine with ``op`` at the owner.

    ``op`` must have a ufunc-style ``.at`` method (``np.add``,
    ``np.maximum``, ...); accumulation order across sources is by source
    rank, deterministic.  This implements irregular reductions: each rank
    accumulates into its ghost copy during the executor loop, then one
    ``scatter_op(np.add)`` folds all contributions into the owners.
    """
    ctx = ensure_context(ctx, "scatter_op")
    run_pipeline(ctx, [scatter_op_phase(sched, data, ghosts, op)],
                 category)


#: the combiners with a known identity — the value a reduction's ghost
#: accumulators start at, so a slot no iteration touched folds into its
#: owner as a no-op.  ±inf stands for the dtype's extreme value.
REDUCTION_IDENTITIES = {
    np.add: 0,
    np.multiply: 1,
    np.maximum: -np.inf,
    np.minimum: np.inf,
}


def reduction_identity(op, dtype) -> np.generic:
    """The identity of combiner ``op`` as a ``dtype`` scalar.

    ``±inf`` becomes the integer dtype's extreme (``True``/``False`` for
    bool).  An op outside :data:`REDUCTION_IDENTITIES` raises
    :class:`TypeError`.
    """
    try:
        value = REDUCTION_IDENTITIES[op]
    except (KeyError, TypeError):
        raise TypeError(
            f"op {op!r} has no known identity; reductions support "
            f"{', '.join(u.__name__ for u in REDUCTION_IDENTITIES)}"
        ) from None
    dtype = np.dtype(dtype)
    if np.isinf(value) and dtype.kind in "biu":
        if dtype.kind == "b":
            value = value > 0
        else:
            info = np.iinfo(dtype)
            value = info.max if value > 0 else info.min
    return dtype.type(value)


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
    value-returning kinds, whose outputs the backend allocates).  An
    append phase's ``sources`` is a tuple of aligned attribute sets
    moved over one set of messages; ``multi`` makes its result the list
    of new sets instead of the single new set.
    """

    __slots__ = ("kind", "sched", "sources", "dests", "op", "multi")

    def __init__(self, kind, sched, sources, dests=None, op=None,
                 multi=False):
        self.kind = kind
        self.sched = sched
        self.sources = sources
        self.dests = dests
        self.op = op
        self.multi = multi

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"PipelinePhase({self.kind!r})"

    def reads(self) -> list:
        """Every array the phase reads."""
        if self.kind == "append":
            return [a for values in self.sources for a in values]
        return list(self.sources)

    def _prepare(self, ctx) -> tuple[FusedStage, StageBind]:
        """Validate the arguments; compile the stage plan."""
        machine = ctx.machine
        if self.kind == "gather":
            machine.check_per_rank(self.sources, "data")
            if self.dests is None:
                self.dests = allocate_ghosts(self.sched, self.sources)
            machine.check_per_rank(self.dests, "ghosts")
            plan = compile_schedule(self.sched)
            for p in machine.ranks():
                n = np.asarray(self.sources[p]).shape[0]
                if plan.send_max[p] >= n:
                    raise IndexError(
                        f"rank {p}: schedule wants element "
                        f"{int(plan.send_max[p])} but local array has {n}"
                    )
                g = np.asarray(self.dests[p]).shape[0]
                if g < self.sched.ghost_size[p]:
                    raise ValueError(
                        f"rank {p}: ghost buffer {g} < required "
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
            for j, values in enumerate(self.sources):
                machine.check_per_rank(
                    values, f"arrays[{j}]" if self.multi else "values")
            plan = compile_lightweight_schedule(self.sched)
            for p in machine.ranks():
                expected = plan.send_idx[p].size
                for j, values in enumerate(self.sources):
                    got = np.asarray(values[p]).shape[0]
                    if got == expected:
                        continue
                    if self.multi:
                        raise ValueError(
                            f"rank {p}, attribute {j}: {got} elements, "
                            f"schedule covers {expected}"
                        )
                    raise ValueError(
                        f"rank {p}: values has {got} elements, "
                        f"schedule covers {expected}"
                    )
            return (FusedStage("append", self.sched, plan),
                    StageBind(list(self.sources)))
        if self.kind == "remap":
            machine.check_per_rank(self.sources, "data")
            plan = compile_remap_plan(self.sched)
            for p in machine.ranks():
                n = np.asarray(self.sources[p]).shape[0]
                if plan.send_max[p] >= n:
                    raise IndexError(
                        f"rank {p}: remap plan wants element "
                        f"{int(plan.send_max[p])} but local array has "
                        f"{n} rows"
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

    The one legality rule (conservative — a ``False`` here only means
    the chain runs phase-by-phase instead): no stage may *read* an array
    any stage *writes* (compared by owning memory).  A backend's
    ``run_fused`` may pack every stage's sources before applying any
    stage, so a later stage reading an earlier stage's output could see
    stale data.  Stages may freely *write* the same target (even all of
    them): stages apply in chain order.  A one-stage chain is always
    legal — its sources are packed before it writes — so
    :func:`run_pipeline` only asks about longer chains.
    """
    writes = set()
    for phase in phases:
        for d in phase.dests or ():
            writes.add(id(_root(d)))
    for phase in phases:
        for s in phase.reads():
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

    Returns one result per phase, matching the primitives: the ghost
    arrays for gather, ``None`` for scatter/scatter_op, fresh per-rank
    arrays for append/remap.  Every phase is validated before any data
    moves.  When :func:`fusable` rejects the chain, each phase runs as
    its own one-stage chain, in order — results, traffic and clocks are
    identical either way; fusion only changes how fast the data moves.

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
    backend = ctx.backend
    if len(phases) == 1 or fusable(phases)[0]:
        out = backend.run_fused(ctx, _fused_for(ctx, stages, loop_id),
                                binds, category)
    else:
        out = []
        for stage, bind in zip(stages, binds):
            out += backend.run_fused(ctx, compile_fused((stage,)), [bind],
                                     category)
    for i, phase in enumerate(phases):
        if phase.kind == "append" and not phase.multi:
            out[i] = out[i][0]
    return out
