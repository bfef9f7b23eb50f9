"""Compiled communication plans and shared CSR-layout helpers.

The schedules themselves (:class:`~repro.core.schedule.Schedule`,
:class:`~repro.core.lightweight.LightweightSchedule`,
:class:`~repro.core.remap.RemapPlan`) are CSR-native: each rank stores
one concatenated int64 index vector plus a per-partner offset vector.
The helpers here (:func:`concat_csr`, :func:`split_csr`,
:func:`csr_counts`, :func:`grouped_arange`, :func:`stream_perm`) define
that layout in one place for builders and consumers alike.

A *compiled* plan adds the machine-wide view on top: a single global
permutation that reorders the machine-wide *send stream* (sender-major,
destination-minor) into the machine-wide *receive stream*
(receiver-major, source-minor).  With those arrays in hand an executor
backend can move all data for a collective with a handful of fused numpy
operations — one ``take`` per rank plus one permutation — regardless of
how many rank pairs communicate.  Because the schedules already store
flat buffers, compilation performs no flattening of its own: it shares
the schedule's arrays and only derives the count matrix and the global
permutation.

Compilation is performed once per schedule and cached on the schedule
object itself (schedules are immutable after construction), so repeated
executor calls — the common case the paper's inspector/executor split is
built around — pay nothing.

On top of single plans sits *plan fusion*: a :class:`FusedPlan` composes
a chain of compiled plans (a schedule gather feeding a scatter/apply, a
schedule + lightweight + remap sequence in one loop body) into one
combined execution — a single scratch stream per stage plus one
pack/permute/apply index triple each, all lazily derived from the
per-plan caches above and cached on the lead plan alongside the
``_cached`` compile results.  ``Backend.run_fused`` is the backends'
whole executor protocol: every collective, fused chain or single
primitive, runs as a :class:`FusedPlan`.  Legality of multi-stage chains
is decided by the executor layer (:func:`repro.core.executor.fusable`).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Any, NamedTuple

import numpy as np

_CACHE_ATTR = "_compiled_plan"
_FUSED_CACHE_ATTR = "_fused_plans"


# ---------------------------------------------------------------------
# CSR layout helpers
# ---------------------------------------------------------------------
def concat_csr(parts, group: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate arrays into a ``(flat, offsets)`` CSR pair.

    ``offsets`` delimits one segment per part; with ``group > 1`` every
    ``group`` consecutive parts fold into a single segment (used when
    merging schedules: one segment per destination, several source
    schedules each).  ``flat`` is int64, ``offsets`` has
    ``len(parts) // group + 1`` entries.
    """
    sizes = np.array([np.asarray(a).size for a in parts], dtype=np.int64)
    if group > 1:
        sizes = sizes.reshape(-1, group).sum(axis=1)
    offsets = offsets_from_counts(sizes)
    if offsets[-1]:
        flat = np.concatenate(
            [np.asarray(a, dtype=np.int64).ravel() for a in parts]
        )
    else:
        flat = np.zeros(0, dtype=np.int64)
    return flat, offsets


def split_csr(flat: np.ndarray, offsets: np.ndarray) -> list[np.ndarray]:
    """Split a CSR-flattened array into its per-segment views.

    ``offsets`` is the ``(n_segments + 1,)`` delimiter vector; segment
    ``i`` is ``flat[offsets[i]:offsets[i + 1]]``.  The inverse of
    :func:`concat_csr`; returns views, not copies.
    """
    return [flat[int(offsets[i]):int(offsets[i + 1])]
            for i in range(offsets.size - 1)]


def csr_counts(offsets: list[np.ndarray]) -> np.ndarray:
    """Per-rank offset vectors → dense ``(n, n)`` segment-size matrix."""
    return np.diff(np.stack(offsets), axis=1)


def offsets_from_counts(counts_row: np.ndarray) -> np.ndarray:
    """Segment sizes → the ``(n + 1,)`` CSR offset vector (inverse of
    ``np.diff``; the one construction every builder performs)."""
    off = np.zeros(counts_row.size + 1, dtype=np.int64)
    np.cumsum(counts_row, out=off[1:])
    return off


def normalize_csr(
    flats: list[np.ndarray], offsets: list[np.ndarray], n_segments: int,
    what: str,
) -> tuple[list[np.ndarray], list[np.ndarray], np.ndarray]:
    """Coerce per-rank CSR buffers to int64 and validate their shape.

    Each offset vector must be ``(n_segments + 1,)``, start at 0, be
    non-decreasing, and end at its flat array's length.  Returns the
    coerced buffers plus the dense segment-size matrix (validation
    computes it anyway, constructors reuse it for consistency checks).
    """
    if len(flats) != len(offsets):
        raise ValueError(f"{what}: need one offset vector per flat array")
    flats = [np.asarray(a, dtype=np.int64) for a in flats]
    offsets = [np.asarray(o, dtype=np.int64) for o in offsets]
    for i, off in enumerate(offsets):
        if off.shape != (n_segments + 1,):
            raise ValueError(
                f"{what}[{i}]: offsets must have shape ({n_segments + 1},),"
                f" got {off.shape}"
            )
    off_mat = np.stack(offsets)
    sizes = np.array([a.size for a in flats], dtype=np.int64)
    counts = np.diff(off_mat, axis=1)
    bad = ((off_mat[:, 0] != 0) | (off_mat[:, -1] != sizes)
           | (counts < 0).any(axis=1))
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise ValueError(
            f"{what}[{i}]: offsets must run non-decreasing from 0 to "
            f"{sizes[i]}, got {offsets[i].tolist()}"
        )
    return flats, offsets, counts


def zero_csr(n_ranks: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """All-empty per-rank CSR buffers (``n_ranks`` empty segments each)."""
    return (
        [np.zeros(0, dtype=np.int64) for _ in range(n_ranks)],
        [np.zeros(n_ranks + 1, dtype=np.int64) for _ in range(n_ranks)],
    )


def grouped_arange(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(starts[i], starts[i] + sizes[i])``.

    Fully vectorized — the standard "grouped arange" construction used
    to build stream permutations without a Python loop per rank pair.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    total = int(sizes.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    starts = np.asarray(starts, dtype=np.int64)
    prefix = np.cumsum(sizes) - sizes  # exclusive prefix sum
    return (np.repeat(starts - prefix, sizes)
            + np.arange(total, dtype=np.int64))


def stream_perm(counts: np.ndarray, self_first: bool = False) -> np.ndarray:
    """Sender-major → receiver-major permutation of a global stream.

    ``counts[p, q]`` is the number of elements ``p`` sends to ``q``.  The
    send stream concatenates each sender's segments destination-ascending;
    the returned permutation reorders it receiver-major with sources
    ascending (``self_first=True``: each receiver's own kept-local segment
    first, then the other sources ascending — append-order semantics).
    """
    n = counts.shape[0]
    send_base = offsets_from_counts(counts.sum(axis=1))
    row_off = np.zeros((n, n + 1), dtype=np.int64)
    np.cumsum(counts, axis=1, out=row_off[:, 1:])
    # starts[p, q] = global send-stream position of the p -> q segment
    starts = send_base[:n, None] + row_off[:, :n]
    if self_first:
        # source visit order per receiver: itself first, then ascending
        eye = np.arange(n)
        src_order = np.argsort(eye[None, :] != eye[:, None],
                               axis=1, kind="stable")
        receivers = eye[:, None]
        sizes = counts[src_order, receivers].ravel()
        seg_starts = starts[src_order, receivers].ravel()
    else:
        sizes = counts.T.ravel()
        seg_starts = starts.T.ravel()
    return grouped_arange(seg_starts, sizes)


@dataclass
class CompiledPlan:
    """Machine-wide flat form of a CSR-native communication plan.

    ``send_idx[p]`` / ``send_off[p]`` are the plan's own CSR buffers
    (shared, not copied): rank ``p``'s pack selections concatenated
    destination-ascending with the ``(n_ranks + 1,)`` offset vector.
    ``place_idx[p]`` (when the plan places, rather than appends) holds
    the placement slots in *receive-stream* order — the order arrivals
    appear after applying :attr:`perm`.

    ``perm`` maps the global send stream to the global receive stream:
    ``recv_stream = send_stream[perm]``.  ``send_base``/``recv_base``
    delimit each rank's slice of the respective global stream.
    """

    n_ranks: int
    send_idx: list[np.ndarray]
    send_off: list[np.ndarray]
    place_idx: list[np.ndarray] | None
    counts: np.ndarray          # (n, n): counts[p, q] = elements p -> q
    send_base: np.ndarray       # (n + 1,) global send-stream offsets
    recv_base: np.ndarray       # (n + 1,) global receive-stream offsets
    perm: np.ndarray            # send stream -> receive stream
    send_max: np.ndarray        # (n,) max pack index per rank (-1 if none)
    _inv_perm: np.ndarray | None = field(default=None, repr=False)
    _layouts: dict = field(default_factory=dict, repr=False)

    @property
    def total(self) -> int:
        """Elements moved machine-wide (including rank-local segments)."""
        return int(self.perm.size)

    def inv_perm(self) -> np.ndarray:
        """Receive-stream -> send-stream permutation (lazily computed).

        Used by reverse-direction collectives (scatter): values packed in
        receive-stream order are delivered to send-stream positions.
        """
        if self._inv_perm is None:
            inv = np.empty(self.perm.size, dtype=np.int64)
            inv[self.perm] = np.arange(self.perm.size, dtype=np.int64)
            self._inv_perm = inv
        return self._inv_perm

    def recv_slice(self, rank: int, k: int = 1) -> slice:
        """Slice of the global receive stream holding ``rank``'s arrivals.

        ``k`` scales the bounds for flattened (scalar-element) streams.
        """
        return slice(int(self.recv_base[rank]) * k,
                     int(self.recv_base[rank + 1]) * k)

    def send_slice(self, rank: int, k: int = 1) -> slice:
        """Slice of the global send stream packed by ``rank``."""
        return slice(int(self.send_base[rank]) * k,
                     int(self.send_base[rank + 1]) * k)

    # -- composed flat layouts (cached per data layout) -----------------
    #
    # The simulated machine holds every rank's data in one process, so a
    # collective can be executed as ONE flat gather over the per-rank
    # arrays concatenated along axis 0.  The compositions below fold the
    # pack selection, the global permutation, and the row→scalar
    # expansion into single precomputed index vectors, keyed by the
    # concatenation layout (per-rank leading sizes) and the row width
    # ``k`` — both stable across executor calls in steady state.

    def forward_flat(self, sizes: tuple[int, ...], k: int) -> np.ndarray:
        """Scalar gather indices into ravel(concat(source arrays)),
        ordered as the global receive stream."""
        key = ("fwd", sizes, k)
        out = self._layouts.get(key)
        if out is None:
            base = np.zeros(self.n_ranks + 1, dtype=np.int64)
            np.cumsum(np.asarray(sizes, dtype=np.int64), out=base[1:])
            rows = np.concatenate(
                [self.send_idx[p] + base[p] for p in range(self.n_ranks)]
            ) if self.total else np.zeros(0, dtype=np.int64)
            out = _expand(rows[self.perm], k)
            self._layouts[key] = out
        return out

    def reverse_flat(self, sizes: tuple[int, ...], k: int) -> np.ndarray:
        """Scalar gather indices into ravel(concat(ghost arrays)),
        ordered as the global *send* stream (the scatter direction)."""
        key = ("rev", sizes, k)
        out = self._layouts.get(key)
        if out is None:
            base = np.zeros(self.n_ranks + 1, dtype=np.int64)
            np.cumsum(np.asarray(sizes, dtype=np.int64), out=base[1:])
            rows = np.concatenate(
                [self.place_idx[p] + base[p] for p in range(self.n_ranks)]
            ) if self.total else np.zeros(0, dtype=np.int64)
            out = _expand(rows[self.inv_perm()], k)
            self._layouts[key] = out
        return out

    # -- machine-wide streams (cached) ----------------------------------
    #
    # The concatenations below give one flat array per plan instead of a
    # per-rank list: ``place_stream`` holds the scalar placement indices
    # of the whole receive stream (rank ``p``'s segment is delimited by
    # ``recv_base[p] * k``), ``send_stream`` the scalar apply indices of
    # the whole send stream (delimited by ``send_base[p] * k``).  The
    # executor's rank loops slice them by stream bounds, and the fused
    # layouts compose them with the forward/reverse gathers.

    def place_stream(self, k: int) -> np.ndarray:
        """All ranks' scalar placement indices, receive-stream order."""
        key = ("pstream", k)
        out = self._layouts.get(key)
        if out is None:
            out = (np.concatenate([_expand(a, k) for a in self.place_idx])
                   if self.total
                   else np.zeros(0, dtype=np.int64))
            self._layouts[key] = out
        return out

    def send_stream(self, k: int) -> np.ndarray:
        """All ranks' scalar apply indices, send-stream order."""
        key = ("sstream", k)
        out = self._layouts.get(key)
        if out is None:
            out = (np.concatenate([_expand(a, k) for a in self.send_idx])
                   if self.total
                   else np.zeros(0, dtype=np.int64))
            self._layouts[key] = out
        return out

    # -- destination-sorted compositions (fused one-pass executors) -----
    #
    # Sorting each rank's (source, destination) index pairs by
    # destination turns the apply phase's scattered stores into
    # ascending ones — and, when a rank's slots are dense (0..n-1 in
    # order, the common case for exact-size ghost buffers, appends and
    # remaps), into one contiguous write.  The argsort is *stable*, so
    # duplicate destinations keep their stream order and a fancy assign
    # (last write wins) lands bitwise-identical values; reordering is
    # only ever legal for placement, never for combiners, whose fold
    # order the unsorted vectors preserve.

    def forward_sorted(
        self, sizes: tuple[int, ...], k: int
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """:meth:`forward_flat` ∘ :meth:`place_stream`, sorted by
        destination per receiving rank; ``(src, dst)`` with ``dst`` of
        ``None`` when every rank's slots are dense."""
        key = ("sfwd", sizes, k)
        out = self._layouts.get(key)
        if out is None:
            out = _sort_segments(self.forward_flat(sizes, k),
                                 self.place_stream(k), self.recv_base, k)
            self._layouts[key] = out
        return out

    def reverse_sorted(
        self, sizes: tuple[int, ...], k: int
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """:meth:`reverse_flat` ∘ :meth:`send_stream`, sorted by
        destination per sending rank (the scatter direction)."""
        key = ("srev", sizes, k)
        out = self._layouts.get(key)
        if out is None:
            out = _sort_segments(self.reverse_flat(sizes, k),
                                 self.send_stream(k), self.send_base, k)
            self._layouts[key] = out
        return out


class CompiledSchedule(CompiledPlan):
    """Compiled form of :class:`~repro.core.schedule.Schedule`."""


class CompiledLightweightSchedule(CompiledPlan):
    """Compiled form of a light-weight (append-order) schedule.

    ``place_idx`` is ``None``: arrivals append, they are never permuted
    into prescribed slots.  The receive stream for rank ``p`` is ordered
    kept-local first, then arrivals by source rank — matching
    :func:`repro.core.lightweight.scatter_append` semantics exactly.
    """


class CompiledRemapPlan(CompiledPlan):
    """Compiled form of :class:`~repro.core.remap.RemapPlan`."""


def _expand(rows: np.ndarray, k: int) -> np.ndarray:
    """Row indices → scalar indices for a raveled ``(n, k)`` array."""
    if k == 1:
        return rows
    return (rows[:, None] * k + np.arange(k, dtype=np.int64)).reshape(-1)


def _sort_segments(
    src: np.ndarray, dst: np.ndarray, base: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray | None]:
    """Sort each rank's ``(src, dst)`` index pairs by destination.

    ``base`` is the row-offset vector delimiting rank segments in the
    stream (``recv_base`` or ``send_base``).  A segment whose
    destinations are unique (ghost slots, remap placements) is ordered by
    one counting pass; one with duplicate destinations (overwrite
    scatters of elements several ranks referenced) falls back to a
    stable argsort, so duplicates keep stream order and a fancy assign
    through the sorted pair is bitwise-identical to the unsorted one.
    Returns ``(sorted_src, sorted_dst)``; ``sorted_dst`` is ``None`` when
    every segment is dense (``0..len-1`` in order), in which case the
    apply collapses to one contiguous write per rank.
    """
    sf = np.empty_like(src)
    sp = np.empty_like(dst)
    dense = True
    for p in range(base.size - 1):
        lo, hi = int(base[p]) * k, int(base[p + 1]) * k
        n = hi - lo
        if n == 0:
            continue
        seg_dst = dst[lo:hi]
        top = int(seg_dst.max()) + 1
        inv = np.full(top, -1, dtype=np.int64)
        inv[seg_dst] = np.arange(n, dtype=np.int64)
        hit = inv >= 0
        order = inv[hit]
        if order.size == n:
            # unique destinations: the slot-ordered positions, and the
            # occupied slots themselves, in ascending order
            sp[lo:hi] = np.flatnonzero(hit)
            dense = dense and top == n
        else:
            order = np.argsort(seg_dst, kind="stable")
            sp[lo:hi] = seg_dst[order]
            dense = False
        sf[lo:hi] = src[lo:hi][order]
    return sf, (None if dense else sp)


def _compile(
    cls,
    n: int,
    send_idx: list[np.ndarray],
    send_off: list[np.ndarray],
    place_idx: list[np.ndarray] | None,
    self_first: bool = False,
) -> CompiledPlan:
    """Derive the machine-wide view of CSR-native plan buffers.

    The per-rank ``send_idx`` / ``send_off`` / ``place_idx`` arrays are
    shared with the plan (plans are immutable after construction); only
    the count matrix, stream bases and the global permutation are new.
    """
    counts = csr_counts(send_off)
    send_max = np.array(
        [int(a.max()) if a.size else -1 for a in send_idx], dtype=np.int64
    )
    send_base = offsets_from_counts(counts.sum(axis=1))
    recv_base = offsets_from_counts(counts.sum(axis=0))
    return cls(
        n_ranks=n,
        send_idx=send_idx,
        send_off=send_off,
        place_idx=place_idx,
        counts=counts,
        send_base=send_base,
        recv_base=recv_base,
        perm=stream_perm(counts, self_first=self_first),
        send_max=send_max,
    )


def _cached(sched, builder):
    plan = getattr(sched, _CACHE_ATTR, None)
    if plan is None:
        plan = builder()
        setattr(sched, _CACHE_ATTR, plan)
    return plan


def compile_schedule(sched) -> CompiledSchedule:
    """Machine-wide view of a :class:`Schedule`; cached on the schedule.

    The schedule's flat buffers are shared directly: ``recv_slots`` is
    already the receive stream's placement order (source-ascending).
    """
    return _cached(
        sched,
        lambda: _compile(
            CompiledSchedule, sched.n_ranks, sched.send_indices,
            sched.send_offsets, sched.recv_slots,
        ),
    )


def compile_lightweight_schedule(sched) -> CompiledLightweightSchedule:
    """Machine-wide view of a :class:`LightweightSchedule`; cached."""
    return _cached(
        sched,
        lambda: _compile(
            CompiledLightweightSchedule, sched.n_ranks, sched.send_sel,
            sched.send_offsets, None, self_first=True,
        ),
    )


def compile_remap_plan(plan) -> CompiledRemapPlan:
    """Machine-wide view of a :class:`RemapPlan`; cached on the plan."""
    return _cached(
        plan,
        lambda: _compile(
            CompiledRemapPlan, plan.n_ranks, plan.send_sel,
            plan.send_offsets, plan.place_sel,
        ),
    )


# ---------------------------------------------------------------------
# plan fusion
# ---------------------------------------------------------------------
#: stage kinds whose data flows send stream → receive stream; the rest
#: ("scatter", with or without a combiner) flow the reverse direction
FORWARD_KINDS = frozenset({"gather", "append", "remap"})

#: every stage kind a fused pipeline understands
STAGE_KINDS = FORWARD_KINDS | {"scatter"}


class FusedStage(NamedTuple):
    """One collective inside a fused pipeline.

    ``kind`` names the executor primitive (``"gather"``, ``"scatter"``
    — with ``op`` for the combining variant — ``"append"``,
    ``"remap"``); ``sched`` is the CSR-native plan object the reference
    backends dispatch on, ``plan`` its compiled machine-wide view, and
    ``op`` the combiner for scatter stages (``None`` overwrites).  A
    named tuple: one is built per collective call.
    """

    kind: str
    sched: Any
    plan: CompiledPlan
    op: Any = None


@dataclass
class StageBind:
    """Per-call data binding for one fused stage.

    ``sources`` are the arrays the stage packs from (local data for the
    forward kinds, ghost buffers for scatter); ``dests`` are the arrays
    it writes into — ``None`` for the value-returning kinds (append,
    remap), whose outputs the backend allocates.  An append stage moves
    one or more aligned attribute sets over one set of messages, so its
    ``sources`` is a list of per-rank sets (``sources[j][p]``) and its
    result one new per-rank list per set.
    """

    sources: list
    dests: list | None = None


class _StageLayout:
    """One stage's composed index vectors for a fixed data layout.

    Each stage collapses to a single composed pass — destination slots
    fancy-assigned straight from the flattened source concat, with no
    intermediate stream.  ``src_index`` maps destination stream
    positions to source scalars; ``dst_index`` maps them into the
    per-rank destination buffers (``None`` for appends, which fill
    contiguously).  Assign-mode stages additionally carry the
    destination-sorted pair ``(sf, sp)`` from the plan's
    ``forward_sorted`` / ``reverse_sorted`` caches: stores land in
    ascending order (``sp`` is ``None`` when dense — one contiguous
    write).  Combining stages never sort; the unsorted vectors preserve
    the ufunc's fold order bit for bit.
    """

    __slots__ = ("mode", "dtype", "op", "bounds", "row_bounds",
                 "src_index", "dst_index", "sf", "sp")

    def __init__(self, stage: FusedStage, k: int, dtype: np.dtype,
                 sizes: tuple[int, ...]):
        plan = stage.plan
        self.dtype = dtype
        self.op = stage.op
        if stage.kind in FORWARD_KINDS:
            # local data, send order → receive stream → placement slots
            self.src_index = plan.forward_flat(sizes, k)
            base = plan.recv_base
            if stage.kind == "append":
                self.dst_index = None
                self.mode = "fill"
                self.sf = self.sp = None
            else:
                self.dst_index = plan.place_stream(k)
                self.mode = "assign"
                self.sf, self.sp = plan.forward_sorted(sizes, k)
        else:
            # ghost data, receive order → send stream → local elements
            self.src_index = plan.reverse_flat(sizes, k)
            base = plan.send_base
            self.dst_index = plan.send_stream(k)
            if stage.op is None:
                self.mode = "assign"
                self.sf, self.sp = plan.reverse_sorted(sizes, k)
            else:
                self.mode = "accum"
                self.sf = self.sp = None
        # scalar and row stream bounds as plain lists: the apply
        # kernel's rank loop slices with these every call
        self.row_bounds = base.tolist()
        self.bounds = [int(b) * k for b in self.row_bounds]


@dataclass
class FusedPlan:
    """A chain of compiled plans executed as one combined pipeline.

    The stages keep their individual count matrices and accounting —
    traffic and clocks are charged per stage, identical to the unfused
    sequence — but a backend's fused executor moves each stage's data
    in a single composed pass (destination slots assigned straight from
    the flattened sources through one permutation), instead of one full
    gather → exchange → apply round per phase.  Layouts (the composed
    index vectors of every stage's source sets) are derived lazily per
    chain of ``(row width, dtype, source sizes)`` keys and cached for the
    plan's lifetime, like the single-plan ``_layouts`` caches they
    borrow from.
    """

    stages: tuple[FusedStage, ...]
    _layouts: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if not self.stages:
            raise ValueError("a fused plan needs at least one stage")
        n = self.stages[0].plan.n_ranks
        for stage in self.stages:
            if stage.kind not in STAGE_KINDS:
                raise ValueError(f"unknown fused stage kind {stage.kind!r}")
            if stage.plan.n_ranks != n:
                raise ValueError("fused stages span different machines")
        self.stages = tuple(self.stages)

    @property
    def n_ranks(self) -> int:
        return self.stages[0].plan.n_ranks

    def matches(self, stages) -> bool:
        """Whether this fused plan was built from exactly ``stages``
        (same compiled plans by identity, same kinds and combiners) —
        the staleness check for cache layers keyed by loop id."""
        if len(stages) != len(self.stages):
            return False
        return all(
            mine.plan is theirs.plan and mine.kind == theirs.kind
            and mine.op is theirs.op
            for mine, theirs in zip(self.stages, stages)
        )

    def layout(self, key: tuple) -> list[_StageLayout]:
        """Composed layouts for one key holding, per stage, a tuple of
        ``(k, dtype, sizes)`` — one per source set; the result is flat,
        one layout per set, stage order then set order."""
        out = self._layouts.get(key)
        if out is None:
            out = [
                _StageLayout(stage, k, np.dtype(dtype), sizes)
                for stage, sets in zip(self.stages, key)
                for k, dtype, sizes in sets
            ]
            self._layouts[key] = out
        return out


def compile_fused(stages) -> FusedPlan:
    """Fused view of a stage chain; its layouts are cached on the lead
    compiled plan.

    The cache key is the chain identity — kinds and the ids of plan
    objects and combiners.  The entry holds only the layouts and weak
    references to the other stages' plans: a plan's cache must not
    reference the stages, which reference the plan, or every superseded
    schedule would stay alive until the cyclic garbage collector runs.
    A weak reference that no longer names the stage's plan (its id was
    recycled) rebuilds the entry; a combiner's id cannot be recycled
    while a layout built for it holds it.
    """
    stages = tuple(stages)
    lead = stages[0].plan
    key = tuple([(s.kind, id(s.plan), id(s.op)) for s in stages])
    cache = getattr(lead, _FUSED_CACHE_ATTR, None)
    if cache is None:
        cache = {}
        setattr(lead, _FUSED_CACHE_ATTR, cache)
    entry = cache.get(key)
    if entry is None or any(ref() is not s.plan
                            for ref, s in zip(entry[0], stages[1:])):
        entry = cache[key] = (
            tuple(weakref.ref(s.plan) for s in stages[1:]), {})
    return FusedPlan(stages=stages, _layouts=entry[1])
