"""Vectorized backend: batched inspector engine + compiled executor plans.

**Inspector half.**  Index analysis uses the open-addressed int64 key
store (:class:`~repro.core.hashtable.OpenAddressedKeyStore`): probing and
insertion of a whole indirection array run as a handful of numpy passes
instead of one dict operation per key, and localization reuses the
``np.unique`` inverse so each distinct index is translated once.
Schedule generation groups stamped entries by owner with a stable argsort
plus ``np.bincount`` and emits the CSR-native
:class:`~repro.core.schedule.Schedule` buffers directly — the owner-grouped
request stream *is* the receive storage, and each receiver's flat send
buffer is one concatenation of request segments, so no per-pair list is
ever assembled — while charging the size/request
exchanges straight from count matrices via
:meth:`Machine.exchange_compiled`; translation-table lookups build their
request/reply matrices the same way, with page-miss detection for
``paged`` storage done by ``np.isin`` against the sorted page cache.

**Executor half.**  The backend's one executor method is
:meth:`VectorizedBackend.run_fused`; every collective (gather, scatter,
scatter-with-op, append, remap) reaches it as a one-stage chain, legal
multi-stage chains as one call.  Instead of visiting every ``(p, q)``
rank pair in Python, it derives (once, cached) the machine-wide view of
each schedule's CSR buffers — the global send-stream → receive-stream
permutation of :mod:`repro.core.compiled` — and because the simulated
machine holds every rank's data in one process, each stage's data moves
with ONE composed flat gather.  The plan caches the composed scalar
index vectors — pack selection ∘ global permutation ∘ row→scalar
expansion, sorted by destination for placement — keyed by the data
layout, so a steady-state stage is essentially

    concat(sources)  →  one fancy-gather  →  per-rank placement / ufunc.at

Accounting goes through :meth:`Machine.exchange_compiled`, which charges
clocks/traffic straight from the plan's count matrix.  Results are
bitwise identical to :class:`SerialBackend` — accumulation visits sources
in the same rank-ascending order the pair loop uses, and flattening rows
to scalars preserves each scalar's fold order — and traffic statistics
match message-for-message.  Inputs the flat layout cannot express
without changing semantics (per-rank dtype or row-shape mismatches,
where concatenation would promote values; non-contiguous arrays, where
raveling would copy) fall back wholesale to the serial reference's
``run_fused``.
"""

from __future__ import annotations

import numpy as np

from repro.core.backends.base import (
    Backend,
    BackendResources,
    register_backend,
    row_nbytes,
)
from repro.core.compiled import offsets_from_counts
from repro.core.hashtable import OpenAddressedKeyStore


def _flat_layout(arrays):
    """``(leading sizes, trailing shape, row width, dtype)`` when every
    per-rank array is C-contiguous with one dtype and row shape; else
    ``None``."""
    first = np.asarray(arrays[0])
    trailing = first.shape[1:]
    dtype = first.dtype
    k = 1
    for dim in trailing:
        k *= int(dim)
    sizes = []
    for a in arrays:
        a = np.asarray(a)
        if (a.shape[1:] != trailing or a.dtype != dtype
                or not a.flags.c_contiguous):
            return None
        sizes.append(a.shape[0])
    return tuple(sizes), trailing, k, dtype


def _serial():
    # resolved lazily to avoid a circular import at module load
    from repro.core.backends.serial import SerialBackend
    from repro.core.backends.base import get_backend
    return get_backend(SerialBackend.name)


# ----------------------------------------------------------------------
# dtype-specialized fused apply kernels
# ----------------------------------------------------------------------
def _fused_assign_generic(flat, st, lo, hi, dst):
    """Placement for any dtype: one composed fancy assign, straight from
    the flattened source concat into the destination slots."""
    dst[st.dst_index[lo:hi]] = flat[st.src_index[lo:hi]]


def _fused_accum(flat, st, lo, hi, dst):
    """Combining stages: ``op.at`` through the unsorted composed pair,
    which keeps the serial reference's fold order bit for bit."""
    st.op.at(dst, st.dst_index[lo:hi], flat[st.src_index[lo:hi]])


def _fused_assign_sorted(flat, st, lo, hi, dst):
    """float64/int64 fast path: the destination-sorted composed pair —
    stores land in ascending order, and when the rank's slots are dense
    the whole segment collapses to one contiguous write.  Bitwise-safe
    because duplicate destinations keep stream order (see
    ``_sort_segments``)."""
    seg = flat[st.sf[lo:hi]]
    if st.sp is None:
        dst[:hi - lo] = seg
    else:
        dst[st.sp[lo:hi]] = seg


def default_fused_registry() -> dict:
    """The stock dtype-specialized kernel registry, keyed ``(dtype, op
    name)``.

    Populated into ``BackendResources.fused_kernels`` at ``open(ctx)``
    time.  Only pure-placement specializations are registered: a
    combining stage (``op.at``) must keep numpy's exact accumulation
    grouping to stay bitwise-identical to the serial reference, so
    combiners always run the generic unsorted path.  Any ``(dtype, op)``
    pair missing from the registry falls back to the generic numpy
    kernel — the fallback is mandatory, specializations only ever add
    speed.
    """
    registry: dict = {}
    for dt in (np.dtype(np.float64), np.dtype(np.int64)):
        registry[(dt, None)] = _fused_assign_sorted
    return registry


@register_backend
class VectorizedBackend(Backend):
    """Batched inspector + compiled-plan executor (no per-key or
    per-pair Python loops)."""

    name = "vectorized"

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def open(self, ctx) -> BackendResources:
        res = BackendResources(self)
        res.fused_kernels = default_fused_registry()
        return res

    # ------------------------------------------------------------------
    # inspector phase: index analysis
    # ------------------------------------------------------------------
    def make_key_store(self):
        return OpenAddressedKeyStore()

    def chaos_hash(self, ctx, htables, ttable, idx, stamp, category):
        from repro.core.inspector import _INSERT_COST, _PROBE_COST

        machine = ctx.machine
        # Step 1: probe; one unique pass per rank, inverse kept so the
        # final localization is a gather instead of a second probe.
        new_per_rank: list[np.ndarray] = []
        uniq_per_rank: list[np.ndarray] = []
        inv_per_rank: list[np.ndarray] = []
        cnt_per_rank: list[np.ndarray] = []
        for p in machine.ranks():
            machine.charge_memops(p, _PROBE_COST * idx[p].size, category)
            uniq, inv, cnt = np.unique(idx[p], return_inverse=True,
                                       return_counts=True)
            uniq_per_rank.append(uniq)
            inv_per_rank.append(inv)
            cnt_per_rank.append(cnt)
            new_per_rank.append(htables[p].store.missing(uniq))

        # Step 2: translate only the new uniques.
        owners, offsets = ttable.dereference(ctx, new_per_rank,
                                             category=category)

        # Step 3: insert, stamp, localize via the unique inverse.
        localized: list[np.ndarray] = []
        for p in machine.ranks():
            ht = htables[p]
            new = new_per_rank[p]
            machine.charge_memops(p, _INSERT_COST * new.size, category)
            ht.insert_translated(new, owners[p], offsets[p])
            if idx[p].size:
                uniq = uniq_per_rank[p]
                slots = ht.lookup_slots(uniq)
                ht.stamp_slots(slots, stamp, counts=cnt_per_rank[p])
                machine.charge_memops(p, uniq.size, category)
                loc_uniq = np.where(
                    ht.proc[slots] == ht.rank,
                    ht.off[slots],
                    ht.n_local + ht.buf[slots],
                ).astype(np.int64)
                localized.append(loc_uniq[inv_per_rank[p]])
            else:
                ht.registry.acquire(stamp)  # stamp exists on empty ranks
                localized.append(np.zeros(0, dtype=np.int64))
        return localized

    # ------------------------------------------------------------------
    # inspector phase: schedule generation
    # ------------------------------------------------------------------
    def build_schedule(self, ctx, htables, expr, category):
        from repro.core.schedule import Schedule

        machine = ctx.machine
        n = machine.n_ranks

        counts = np.zeros((n, n), dtype=np.int64)  # [p][q]: p requests of q
        requests: list[np.ndarray] = []   # flat, owner-ascending, per rank
        recv_slots: list[np.ndarray] = []
        recv_offsets: list[np.ndarray] = []
        ghost_size = [0] * n
        for p in machine.ranks():
            # owner-grouped request stream for one rank
            ht = htables[p]
            sel_expr = ht.expr(expr) if isinstance(expr, str) else expr
            slots = ht.select(sel_expr, off_processor_only=True)
            ghost_size[p] = ht.ghost_capacity()
            machine.charge_memops(p, ht.n_entries + 2 * slots.size,
                                  category)
            if slots.size == 0:
                z = np.zeros(0, dtype=np.int64)
                requests.append(z)
                recv_slots.append(z)
                recv_offsets.append(offsets_from_counts(counts[p]))
                continue
            owners = ht.proc[slots]
            # owners are ranks < n: a narrow dtype makes the stable radix
            # argsort several times cheaper than on int64
            if n <= np.iinfo(np.uint16).max:
                order = np.argsort(owners.astype(np.uint16), kind="stable")
            else:
                order = np.argsort(owners, kind="stable")
            slots = slots[order]
            counts[p] = np.bincount(owners[order], minlength=n)
            # fancy indexing already yields fresh arrays; the schedule
            # constructor coerces dtype only if it is not int64 yet
            requests.append(ht.off[slots])
            recv_slots.append(ht.buf[slots])
            recv_offsets.append(offsets_from_counts(counts[p]))

        # Size exchange (schedule setup), then the request exchange —
        # charged from count matrices; the request data itself becomes
        # the receivers' send lists directly: each receiver's flat send
        # buffer is one concatenation of the senders' request segments
        # (sources ascending), no nested per-pair lists anywhere.
        machine.alltoall_lengths_compiled(counts, tag="sched_sizes",
                                          category=category)
        machine.exchange_compiled(counts, 8, tag="sched_requests",
                                  category=category)
        recv_totals = counts.sum(axis=0)

        send_indices = []
        send_offsets = []
        for q in machine.ranks():
            send_offsets.append(offsets_from_counts(counts[:, q]))
            if recv_totals[q]:
                send_indices.append(np.concatenate([
                    requests[p][recv_offsets[p][q]:recv_offsets[p][q + 1]]
                    for p in np.flatnonzero(counts[:, q])
                ]))
                machine.charge_memops(q, int(recv_totals[q]), category)
            else:
                send_indices.append(np.zeros(0, dtype=np.int64))
        return Schedule(
            n_ranks=n,
            send_indices=send_indices,
            send_offsets=send_offsets,
            recv_slots=recv_slots,
            recv_offsets=recv_offsets,
            ghost_size=ghost_size,
        )

    # ------------------------------------------------------------------
    # inspector phase: translation-table lookups
    # ------------------------------------------------------------------
    def translation_lookup(self, ctx, ttable, qs, category):
        from repro.core.translation import _ENTRY_BYTES

        m = ctx.machine
        if ttable.storage == "replicated":
            for p in m.ranks():
                m.charge_memops(p, qs[p].size, category)
            return
        n = m.n_ranks
        counts = np.zeros((n, n), dtype=np.int64)  # requests p -> home
        for p in m.ranks():
            q = qs[p]
            if q.size == 0:
                continue
            if ttable.storage == "paged":
                uniq_pages = np.unique(q // ttable.page_size)
                cache = ttable._page_cache[p]
                # same admit path as the serial reference: identical
                # cache state, identical re-fetch traffic under a budget
                missing = cache.admit(uniq_pages, ttable.page_budget(ctx))
                if missing.size:
                    starts = np.minimum(missing * ttable.page_size,
                                        ttable.dist.n_global - 1)
                    homes = ttable._table_dist.owner(starts)
                    counts[p] = (np.bincount(homes, minlength=n)
                                 * ttable.page_size)
                m.charge_memops(p, q.size, category)  # local cache probes
            else:
                homes = ttable._table_dist.owner(q)
                counts[p] = np.bincount(homes, minlength=n)
        # request: 8 bytes/index; reply: _ENTRY_BYTES per entry, shipped
        # as whole int64 words exactly like the serial reference
        m.exchange_compiled(counts, 8, tag="ttable_lookup_req",
                            category=category)
        reply_words = (counts.T * _ENTRY_BYTES) // 8
        m.exchange_compiled(reply_words, 8, tag="ttable_lookup_rep",
                            category=category)
        served = counts.sum(axis=0)
        for h in m.ranks():
            m.charge_memops(h, int(served[h]), category)

    # ------------------------------------------------------------------
    # stage chains
    # ------------------------------------------------------------------
    def run_fused(self, ctx, fused, binds, category):
        """One-pass execution: every source set moves with a single
        composed kernel.

        Per set the data path is one fancy gather through the composed
        ``pack ∘ permute ∘ place`` index vector — destination slots
        written straight from the flattened source concat, with no
        intermediate exchange stream.  Pure-placement stages use the
        destination-sorted variant from the dtype registry (ascending
        stores, contiguous when dense); combining stages keep the
        unsorted ``op.at`` fold order; append sets return their gathered
        slices as the new arrays.  Accounting is charged per stage in
        stage order before any data moves; since the data pass never
        touches the machine, the clock/traffic call sequence is exactly
        the serial one.  Sets are packed and applied one at a time, in
        stage order, so only one source concat is alive at once.  Inputs
        the flat layout cannot express fall back to the serial reference
        chain.
        """
        machine = ctx.machine
        key = []
        moves = []  # (sources, trailing shape) per source set
        for stage, bind in zip(fused.stages, binds):
            sets = bind.sources if stage.kind == "append" else (bind.sources,)
            skey = []
            for sources in sets:
                layout = _flat_layout(sources)
                if layout is None or (
                        bind.dests is not None
                        and (_flat_layout(bind.dests) or ())[1:] != layout[1:]):
                    return _serial().run_fused(ctx, fused, binds, category)
                sizes, trailing, k, dtype = layout
                skey.append((k, dtype, sizes))
                moves.append((sources, trailing))
            key.append(tuple(skey))
        layouts = iter(zip(fused.layout(tuple(key)), moves))

        for stage, bind in zip(fused.stages, binds):
            _charge_stage(machine, stage, bind, category)

        # dtype-specialized kernels for the pure-placement stages;
        # combiners keep the generic ``op.at`` path (bitwise contract)
        registry = getattr(ctx.resources, "fused_kernels", None) or {}
        ranks = machine.ranks()
        results = []
        for stage, bind in zip(fused.stages, binds):
            if stage.kind == "append":
                sets = []
                for _ in bind.sources:
                    st, (sources, trailing) = next(layouts)
                    flat = np.concatenate(sources, axis=0).reshape(-1)
                    b, rows = st.bounds, st.row_bounds
                    sets.append([
                        flat[st.src_index[b[p]:b[p + 1]]].reshape(
                            (rows[p + 1] - rows[p],) + trailing)
                        for p in ranks
                    ])
                results.append(sets)
                continue
            st, (sources, trailing) = next(layouts)
            flat = np.concatenate(sources, axis=0).reshape(-1)
            if stage.kind == "remap":
                dests = [np.zeros((int(m),) + trailing, dtype=st.dtype)
                         for m in stage.sched.new_sizes]
                results.append(dests)
            else:
                dests = bind.dests
                results.append(dests if stage.kind == "gather" else None)
            if st.mode == "accum":
                kernel = _fused_accum
            else:
                kernel = registry.get((st.dtype, None),
                                      _fused_assign_generic)
            b = st.bounds
            for p in ranks:
                if b[p + 1] > b[p]:
                    kernel(flat, st, b[p], b[p + 1], dests[p].reshape(-1))
        return results


#: the traffic tag each placing stage kind charges its exchange under
_EXCHANGE_TAGS = {"gather": "gather", "scatter": "scatter",
                  "remap": "remap_data"}


def _charge_stage(machine, stage, bind, category) -> None:
    """Charge one stage exactly like the serial collective:
    pre-copyops, the compiled exchange, post-copyops, in that order."""
    plan = stage.plan
    ranks = machine.ranks()
    if stage.kind == "append":
        # k aligned attribute sets share one set of messages
        sets = bind.sources
        n_attr = len(sets)
        for p in ranks:
            machine.charge_copyops(p, n_attr * plan.send_idx[p].size,
                                   category)
        nbytes = [row_nbytes(np.asarray(v)) for v in sets[0]]
        for values in sets[1:]:
            nbytes = [b + row_nbytes(np.asarray(v))
                      for b, v in zip(nbytes, values)]
        machine.exchange_compiled(plan.counts, nbytes,
                                  tag="scatter_append", category=category)
        for p in ranks:
            arrived = int(plan.recv_base[p + 1] - plan.recv_base[p])
            from_others = arrived - int(plan.counts[p, p])
            if from_others:
                machine.charge_copyops(p, n_attr * from_others, category)
        return
    # gather and remap pack send selections and place arrivals; scatter
    # runs the same plan backwards
    if stage.kind == "scatter":
        pre, post, counts = plan.place_idx, plan.send_idx, plan.counts.T
    else:
        pre, post, counts = plan.send_idx, plan.place_idx, plan.counts
    for p in ranks:
        if pre[p].size:
            machine.charge_copyops(p, pre[p].size, category)
    machine.exchange_compiled(
        counts, [row_nbytes(np.asarray(a)) for a in bind.sources],
        tag=_EXCHANGE_TAGS[stage.kind], category=category,
    )
    for p in ranks:
        if post[p].size:
            machine.charge_copyops(p, post[p].size, category)
