"""The inspector phase: index analysis (``CHAOS_hash``) and localization.

``chaos_hash`` is the paper's two-step inspector front half (§3.2.2): it
enters an indirection array's global indices into the per-rank hash
tables, translating only the indices *not already present* (the adaptive
reuse win), assigns ghost-buffer slots to new off-processor references,
marks every touched entry with the indirection array's stamp, and returns
the indirection array rewritten to localized indices.

The back half — schedule generation from stamped entries — lives in
:mod:`repro.core.schedule`.

Every function takes an :class:`~repro.core.context.ExecutionContext`
first: the context carries the machine and the resolved *backend*
(:mod:`repro.core.backends`) executing the analysis — ``serial``
analyses indices one dict operation at a time (the reference semantics),
``vectorized`` (the default) probes and inserts whole arrays through a
batched open-addressed key store.  The same backend also performs the
translation-table lookups ``chaos_hash`` triggers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.context import ensure_context
from repro.core.distribution import as_index_array
from repro.core.hashtable import IndexHashTable, StampExpr, StampRegistry
from repro.core.translation import TranslationTable

#: memops charged per hash probe / per new-entry insert
_PROBE_COST = 1
_INSERT_COST = 3

#: scratch stamp used to build delta schedules; acquired and released
#: within one delta_rebuild_schedule call
_DELTA_STAMP = "__delta__"


def make_hash_tables(
    ctx, ttable: TranslationTable
) -> list[IndexHashTable]:
    """One hash table per rank for arrays distributed like ``ttable``.

    All tables share one :class:`StampRegistry` so stamp names mean the
    same thing on every rank.  The context's backend selects the key
    store backing each table (dict reference vs batched open
    addressing); every store assigns identical slots, so the choice only
    affects wall-clock speed.
    """
    ctx = ensure_context(ctx, "make_hash_tables")
    registry = StampRegistry()
    return [
        IndexHashTable(
            rank=p,
            n_local=ttable.dist.local_size(p),
            registry=registry,
            store=ctx.backend.make_key_store(),
        )
        for p in ctx.machine.ranks()
    ]


def as_index_arrays(arrays: list, what: str) -> list[np.ndarray]:
    """Per-rank index arrays as int64 (``None`` is an empty array),
    each through :func:`~repro.core.distribution.as_index_array`, whose
    errors name the argument and the rank."""
    return [np.zeros(0, dtype=np.int64) if x is None
            else as_index_array(x, f"{what} on rank {p}")
            for p, x in enumerate(arrays)]


def chaos_hash(
    ctx,
    htables: list[IndexHashTable],
    ttable: TranslationTable,
    indices: list[np.ndarray | None],
    stamp: str,
    category: str = "inspector",
) -> list[np.ndarray]:
    """Hash one indirection array into the tables; return localized copy.

    ``indices[p]`` is rank ``p``'s slice of the indirection array (global
    indices into the data array described by ``ttable``).  Only indices
    absent from the hash table are translated through the translation
    table — re-hashing a mostly-unchanged indirection array is cheap.

    Returns per-rank localized index arrays: owned references become local
    offsets, off-processor references become ``n_local + buffer_slot``.
    """
    ctx = ensure_context(ctx, "chaos_hash")
    m = ctx.machine
    m.check_per_rank(htables, "hash tables")
    m.check_per_rank(indices, "indices")
    idx = as_index_arrays(indices, "indices")
    return ctx.backend.chaos_hash(ctx, htables, ttable, idx, stamp, category)


def clear_stamp(
    ctx,
    htables: list[IndexHashTable],
    stamp: str,
    release: bool = False,
    purge: bool | None = None,
    category: str = "inspector",
) -> int:
    """Clear a stamp on every rank (paper: before re-hashing a regenerated
    non-bonded list, its old entries are cleared and the stamp reused).

    ``purge`` (default: follows ``release``) deletes entries whose stamp
    mask becomes empty — their key-store keys are tombstoned and their
    rows/ghost slots recycled, so releasing a stamp shrinks the tables
    instead of growing them monotonically across adaptive steps.
    Returns the total number of entries that carried the stamp.
    """
    ctx = ensure_context(ctx, "clear_stamp")
    m = ctx.machine
    m.check_per_rank(htables, "hash tables")
    if purge is None:
        purge = release
    total = 0
    for p in m.ranks():
        ht = htables[p]
        m.charge_memops(p, ht.n_entries, category)
        if stamp in ht.registry:
            total += ht.clear_stamp(stamp, release=False, purge=purge)
    if release and htables and stamp in htables[0].registry:
        htables[0].registry.release(stamp)
    return total


@dataclass
class DeltaRehash:
    """Result of :func:`rehash_delta`: what a subset update touched.

    ``affected_slots[p]`` — hash-table slots whose stamp state may have
    changed on rank ``p`` (union of old and new value slots);
    ``pre_masks[p]`` — those slots' stamp masks *before* the update;
    ``localized[p]`` — the new values at the touched positions, already
    localized.  Feed into :func:`delta_rebuild_schedule` to repair a
    cached schedule.
    """

    affected_slots: list[np.ndarray]
    pre_masks: list[np.ndarray]
    localized: list[np.ndarray]


def rehash_delta(
    ctx,
    htables: list[IndexHashTable],
    ttable: TranslationTable,
    stamp: str,
    old_indices: list[np.ndarray | None],
    new_indices: list[np.ndarray | None],
    category: str = "inspector",
) -> DeltaRehash:
    """Re-hash only the *touched subset* of an indirection array.

    ``old_indices[p]`` / ``new_indices[p]`` are the previous and new
    global-index values at the touched positions of rank ``p``'s slice
    (aligned, same length).  Never-seen new values are translated and
    inserted exactly as a cold :func:`chaos_hash` would (sorted-unique
    order, so slot/ghost assignment is identical), and the stamp's
    per-slot reference counts are reconciled — the resulting stamp masks
    match a full clear + rehash of the updated array bit for bit.  Cost
    scales with the touched subset, not the array.

    Requires the stamp to have been hashed with reference counts
    (:func:`chaos_hash` always does) — a stamp manipulated through
    uncounted :meth:`IndexHashTable.stamp_slots` calls must fall back to
    the full clear/rehash path.
    """
    ctx = ensure_context(ctx, "rehash_delta")
    m = ctx.machine
    m.check_per_rank(htables, "hash tables")
    m.check_per_rank(old_indices, "old indices")
    m.check_per_rank(new_indices, "new indices")
    old = as_index_arrays(old_indices, "old indices")
    new = as_index_arrays(new_indices, "new indices")
    uniq_old: list[np.ndarray] = []
    cnt_old: list[np.ndarray] = []
    uniq_new: list[np.ndarray] = []
    inv_new: list[np.ndarray] = []
    cnt_new: list[np.ndarray] = []
    pre_slots: list[np.ndarray] = []
    missing: list[np.ndarray] = []
    for p in m.ranks():
        ht = htables[p]
        if old[p].size != new[p].size:
            raise ValueError(
                f"rank {p}: old/new touched values must be aligned "
                f"({old[p].size} vs {new[p].size})"
            )
        m.charge_memops(
            p, _PROBE_COST * (old[p].size + new[p].size), category
        )
        uo, co = np.unique(old[p], return_counts=True)
        un, iv, cn = np.unique(new[p], return_inverse=True,
                               return_counts=True)
        if not ht.has_stamp_counts(stamp):
            if uo.size:
                raise ValueError(
                    f"stamp {stamp!r} has no reference counts on rank "
                    f"{p}; hash it with chaos_hash before delta updates"
                )
            # the original hash saw an empty slice on this rank: start
            # the stamp's refcount plane at zero
            ht.stamp_slots(np.zeros(0, dtype=np.int64), stamp,
                           counts=np.zeros(0, dtype=np.int64))
        slots = ht.lookup_slots(un)
        uniq_old.append(uo)
        cnt_old.append(co)
        uniq_new.append(un)
        inv_new.append(iv)
        cnt_new.append(cn)
        pre_slots.append(slots)
        missing.append(un[slots < 0])

    # translate only the never-seen values (collective)
    owners, offsets = ttable.dereference(ctx, missing, category=category)

    affected: list[np.ndarray] = []
    pre_masks: list[np.ndarray] = []
    localized: list[np.ndarray] = []
    for p in m.ranks():
        ht = htables[p]
        m.charge_memops(p, _INSERT_COST * missing[p].size, category)
        # insert_translated assigns slots in sorted-unique key order —
        # exactly the order ``missing[p]`` is in — so the fresh slots
        # drop straight into the probe results without a second lookup
        fresh = ht.insert_translated(missing[p], owners[p], offsets[p])
        slots_new = pre_slots[p]
        if fresh.size:
            slots_new = slots_new.copy()
            slots_new[slots_new < 0] = fresh
        slots_old = ht.lookup_slots(uniq_old[p])
        if np.any(slots_old < 0):
            bad = uniq_old[p][slots_old < 0][0]
            raise KeyError(
                f"rank {p}: old value {int(bad)} was never hashed"
            )
        aff = np.unique(np.concatenate([slots_old, slots_new]))
        pre = ht.mask[aff].copy()
        ht.stamp_delta(stamp, slots_new, cnt_new[p], slots_old,
                       cnt_old[p])
        m.charge_memops(p, aff.size, category)
        affected.append(aff)
        pre_masks.append(pre)
        # localize through the unique inverse: owned -> local offset,
        # off-processor -> n_local + ghost buf (matches ht.localize)
        loc_un = np.where(
            ht.proc[slots_new] == ht.rank,
            ht.off[slots_new],
            ht.n_local + ht.buf[slots_new],
        ).astype(np.int64)
        localized.append(loc_un[inv_new[p]] if new[p].size
                         else np.zeros(0, dtype=np.int64))
    return DeltaRehash(affected_slots=affected, pre_masks=pre_masks,
                       localized=localized)


def delta_rebuild_schedule(
    ctx,
    htables: list[IndexHashTable],
    expr: StampExpr | str,
    base_schedule,
    rehash: DeltaRehash,
    category: str = "inspector",
):
    """Repair a cached schedule after a :func:`rehash_delta`.

    Selects the entries that *entered* ``expr``'s selection (scratch-
    stamps them and builds a small delta schedule through the backend
    seam — every backend for free), collects the ghost slots of
    entries that *left*, and splices both into ``base_schedule``.  The
    result is bitwise-identical to a cold ``build_schedule`` over the
    updated tables; cost scales with the touched subset plus one
    table scan, not with a full request exchange.
    """
    from repro.core.schedule import build_schedule, splice_schedules

    ctx = ensure_context(ctx, "delta_rebuild_schedule")
    m = ctx.machine
    m.check_per_rank(htables, "hash tables")
    registry = htables[0].registry
    if _DELTA_STAMP in registry:
        raise RuntimeError(
            "delta_rebuild_schedule is not re-entrant (scratch stamp "
            f"{_DELTA_STAMP!r} is live)"
        )
    registry.acquire(_DELTA_STAMP)
    try:
        dropped_bufs: list[np.ndarray] = []
        for p in m.ranks():
            ht = htables[p]
            aff = rehash.affected_slots[p]
            post = ht.mask[aff]
            sel = ht.expr(expr) if isinstance(expr, str) else expr
            was = sel.matches(rehash.pre_masks[p])
            now = sel.matches(post)
            offp = ht.proc[aff] != ht.rank
            newly = aff[now & ~was & offp]
            dropped = aff[was & ~now & offp]
            dropped_bufs.append(ht.buf[dropped].astype(np.int64))
            if newly.size:
                bit = registry.mask_of(_DELTA_STAMP)
                ht.mask[newly] |= bit
            m.charge_memops(p, aff.size, category)
        delta = build_schedule(ctx, htables, _DELTA_STAMP,
                               category=category)
        return splice_schedules(ctx, htables, base_schedule, delta,
                                dropped_bufs, category=category)
    finally:
        for ht in htables:
            ht.clear_stamp(_DELTA_STAMP, release=False, purge=False)
        registry.release(_DELTA_STAMP)


def localize_only(
    ctx,
    htables: list[IndexHashTable],
    indices: list[np.ndarray | None],
    category: str = "inspector",
) -> list[np.ndarray]:
    """Localize indirection arrays already fully present in the tables.

    This is the fast path for *unchanged* indirection arrays: a pure
    lookup, no translation-table traffic at all.
    """
    ctx = ensure_context(ctx, "localize_only")
    m = ctx.machine
    m.check_per_rank(htables, "hash tables")
    m.check_per_rank(indices, "indices")
    idx = as_index_arrays(indices, "indices")
    return ctx.backend.localize(ctx, htables, idx, category)
