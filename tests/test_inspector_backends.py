"""Inspector-phase backend equivalence: serial vs vectorized engine.

The serial backend (dict key store, per-pair Python loops) defines the
semantics; the vectorized inspector engine (open-addressed key store,
argsort/bincount grouping, count-matrix accounting) must be
observationally identical on randomized adaptive workloads:

* bitwise-identical localized indices, ghost-slot assignment, and
  hash-table entry state (``g``/``proc``/``off``/``buf``/``mask``);
* bitwise-identical schedules (send lists, permutation lists, sizes)
  for plain, merged (``a | b``) and incremental (``b - a``) stamp
  expressions, through stamp clear/release/reacquire cycles;
* identical traffic statistics, message-for-message, under every
  translation-table storage policy (replicated / distributed / paged);
* per-rank virtual clocks equal to float round-off (the vectorized path
  sums message times in bulk).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BlockDistribution,
    DictKeyStore,
    ExecutionContext,
    OpenAddressedKeyStore,
    StampRegistry,
    TranslationTable,
    build_lightweight_schedule,
    build_schedule,
    chaos_hash,
    clear_stamp,
    localize_only,
    make_hash_tables,
    rehash_delta,
    split_by_block,
)
from repro.sim import Machine

from conftest import ALL_BACKENDS as BACKENDS

STORAGES = ("replicated", "distributed", "paged")


def _clock_snapshots(machine):
    return [c.snapshot() for c in machine.clocks]


def _assert_clocks_match(a, b):
    for ca, cb in zip(a, b):
        for key in set(ca) | set(cb):
            assert ca.get(key, 0.0) == pytest.approx(
                cb.get(key, 0.0), rel=1e-9, abs=1e-15
            ), key


def _table_state(ht):
    n = ht.n_entries
    return (ht.g[:n].copy(), ht.proc[:n].copy(), ht.off[:n].copy(),
            ht.buf[:n].copy(), ht.mask[:n].copy(), ht.n_ghost)


def _schedule_state(sched):
    return (
        [a.copy() for a in sched.send_indices],
        [o.copy() for o in sched.send_offsets],
        [a.copy() for a in sched.recv_slots],
        [o.copy() for o in sched.recv_offsets],
        list(sched.ghost_size),
    )


def _assert_schedules_equal(a, b):
    *buffers_a, ga = a
    *buffers_b, gb = b
    assert ga == gb
    for per_rank_a, per_rank_b in zip(buffers_a, buffers_b):
        for x, y in zip(per_rank_a, per_rank_b):
            assert np.array_equal(x, y)


def _run_pipeline(backend, seed, n_ranks, n, n_ref, storage):
    """Hash two indirection arrays, adapt one, build plain / merged /
    incremental schedules, localize; return everything observable."""
    rng = np.random.default_rng(seed)
    m = Machine(n_ranks, record_messages=True)
    tt = TranslationTable.from_map(
        m, rng.integers(0, n_ranks, n), storage=storage, page_size=16
    )
    ctx = ExecutionContext.resolve(m, backend)
    hts = make_hash_tables(ctx, tt)
    idx_a = split_by_block(rng.integers(0, n, n_ref), m)
    idx_b = split_by_block(rng.integers(0, n, max(0, n_ref // 2)), m)
    loc_a = chaos_hash(ctx, hts, tt, idx_a, "a")
    loc_b = chaos_hash(ctx, hts, tt, idx_b, "b")
    sched_a = build_schedule(ctx, hts, "a")
    merged = build_schedule(ctx, hts, hts[0].expr("a", "b"))
    incremental = build_schedule(
        ctx, hts, hts[0].expr("b") - hts[0].expr("a")
    )
    # adaptive step: array b changes, stamp cleared and re-hashed
    clear_stamp(ctx, hts, "b")
    idx_b2 = split_by_block(rng.integers(0, n, max(0, n_ref // 3)), m)
    loc_b2 = chaos_hash(ctx, hts, tt, idx_b2, "b")
    merged2 = build_schedule(ctx, hts, hts[0].expr("a", "b"))
    loc_again = localize_only(ctx, hts, idx_a)
    return {
        "loc": (loc_a, loc_b, loc_b2, loc_again),
        "tables": [_table_state(ht) for ht in hts],
        "schedules": [_schedule_state(s)
                      for s in (sched_a, merged, incremental, merged2)],
        "traffic": m.traffic.snapshot(),
        "messages": list(m.traffic.messages),
        "clocks": _clock_snapshots(m),
    }


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n_ranks=st.integers(1, 6),
    n=st.integers(1, 120),
    n_ref=st.integers(0, 300),
    storage=st.sampled_from(STORAGES),
)
def test_inspector_pipeline_equivalence(seed, n_ranks, n, n_ref, storage):
    a = _run_pipeline("serial", seed, n_ranks, n, n_ref, storage)
    for other in BACKENDS[1:]:
        b = _run_pipeline(other, seed, n_ranks, n, n_ref, storage)
        for la, lb in zip(a["loc"], b["loc"]):
            for x, y in zip(la, lb):
                assert np.array_equal(x, y)
                assert x.dtype == y.dtype
        for ta, tb in zip(a["tables"], b["tables"]):
            for x, y in zip(ta[:-1], tb[:-1]):
                assert np.array_equal(x, y)
            assert ta[-1] == tb[-1]  # n_ghost
        for sa, sb in zip(a["schedules"], b["schedules"]):
            _assert_schedules_equal(sa, sb)
        assert a["traffic"] == b["traffic"]
        assert a["messages"] == b["messages"]
        _assert_clocks_match(a["clocks"], b["clocks"])


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n_ranks=st.integers(1, 5),
    n=st.integers(1, 100),
    rounds=st.integers(1, 3),
)
def test_stamp_release_reacquire_cycles_agree(seed, n_ranks, n, rounds):
    """The paper's stamp-reuse pattern: clear + release the non-bonded
    stamp each regeneration, reacquire the freed bit, rebuild merged and
    incremental schedules — identical across backends every round."""
    results = {}
    for backend in BACKENDS:
        rng = np.random.default_rng(seed)
        m = Machine(n_ranks, record_messages=True)
        tt = TranslationTable.from_map(m, rng.integers(0, n_ranks, n))
        ctx = ExecutionContext.resolve(m, backend)
        hts = make_hash_tables(ctx, tt)
        base = split_by_block(rng.integers(0, n, 2 * n), m)
        chaos_hash(ctx, hts, tt, base, "bonds")
        per_round = []
        for _ in range(rounds):
            nb = split_by_block(rng.integers(0, n, 3 * n), m)
            loc = chaos_hash(ctx, hts, tt, nb, "nb")
            merged = build_schedule(ctx, hts, hts[0].expr("bonds", "nb"))
            inc = build_schedule(
                ctx, hts, hts[0].expr("nb") - hts[0].expr("bonds")
            )
            per_round.append((loc, _schedule_state(merged),
                              _schedule_state(inc)))
            clear_stamp(ctx, hts, "nb", release=True)
        results[backend] = (per_round, m.traffic.snapshot(),
                            _clock_snapshots(m))
    a = results["serial"]
    for other in BACKENDS[1:]:
        b = results[other]
        for (loc_a, ma, ia), (loc_b, mb, ib) in zip(a[0], b[0]):
            for x, y in zip(loc_a, loc_b):
                assert np.array_equal(x, y)
            _assert_schedules_equal(ma, mb)
            _assert_schedules_equal(ia, ib)
        assert a[1] == b[1]
        _assert_clocks_match(a[2], b[2])


# ---------------------------------------------------------------------
# key stores
# ---------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 100_000),
    n_batches=st.integers(1, 5),
    batch=st.integers(0, 200),
    key_bits=st.sampled_from([4, 16, 40, 62]),
)
def test_key_stores_agree(seed, n_batches, batch, key_bits):
    """Open-addressed store returns exactly what the dict store does,
    across growth, collisions and arbitrary key magnitudes."""
    rng = np.random.default_rng(seed)
    ref, fast = DictKeyStore(), OpenAddressedKeyStore()
    next_slot = 0
    for _ in range(n_batches):
        keys = np.unique(rng.integers(0, 1 << key_bits, batch))
        new = ref.missing(keys)
        assert np.array_equal(new, fast.missing(keys))
        slots = np.arange(next_slot, next_slot + new.size, dtype=np.int64)
        next_slot += new.size
        ref.insert(new, slots)
        fast.insert(new, slots)
        probe = rng.integers(0, 1 << key_bits, batch)
        assert np.array_equal(ref.lookup(probe), fast.lookup(probe))
        assert len(ref) == len(fast)
    for k in rng.integers(0, 1 << key_bits, 20).tolist():
        assert (k in ref) == (k in fast)


class TestOpenAddressedKeyStore:
    def test_growth_preserves_entries(self):
        s = OpenAddressedKeyStore()
        keys = np.arange(0, 10_000, 7, dtype=np.int64)
        s.insert(keys, np.arange(keys.size, dtype=np.int64))
        assert s._cap > OpenAddressedKeyStore.MIN_CAP  # grew
        assert np.array_equal(s.lookup(keys),
                              np.arange(keys.size, dtype=np.int64))
        assert s.lookup(np.array([1, 8, 15]))[0] == -1

    def test_duplicate_insert_rejected(self):
        s = OpenAddressedKeyStore()
        s.insert(np.array([5]), np.array([0]))
        with pytest.raises(ValueError, match="duplicate insert"):
            s.insert(np.array([5]), np.array([1]))

    def test_intra_batch_duplicate_rejected(self):
        s = OpenAddressedKeyStore()
        with pytest.raises(ValueError, match="duplicate insert"):
            s.insert(np.array([3, 4, 3]), np.arange(3))

    def test_negative_keys_rejected(self):
        s = OpenAddressedKeyStore()
        with pytest.raises(ValueError, match="non-negative"):
            s.insert(np.array([-1]), np.array([0]))

    def test_negative_keys_lookup_absent(self):
        # -1 is the empty-slot sentinel: a probe for it must not match
        # an empty slot and report a stale slot value
        s = OpenAddressedKeyStore()
        s.insert(np.array([5, 7, 9]), np.array([0, 1, 2]))
        assert s.lookup(np.array([-1, 5, -3, 9])).tolist() == [-1, 0, -1, 2]
        assert s.missing(np.array([-1, 5])).tolist() == [-1]
        assert -1 not in s

    def test_empty_ops(self):
        s = OpenAddressedKeyStore()
        empty = np.zeros(0, dtype=np.int64)
        s.insert(empty, empty)
        assert s.lookup(empty).size == 0
        assert s.missing(empty).size == 0
        assert len(s) == 0

    def test_lookup_before_any_insert(self):
        s = OpenAddressedKeyStore()
        assert s.lookup(np.array([0, 99])).tolist() == [-1, -1]
        assert 0 not in s


def test_make_hash_tables_uses_backend_key_store():
    m = Machine(3)
    tt = TranslationTable.from_map(m, np.array([0, 1, 2, 0, 1, 2]))
    serial = make_hash_tables(ExecutionContext.resolve(m, "serial"), tt)
    vec = make_hash_tables(ExecutionContext.resolve(m, "vectorized"), tt)
    assert all(ht.store.kind == "dict" for ht in serial)
    assert all(ht.store.kind == "open-addressed" for ht in vec)
    # one shared registry per group, as before
    assert all(ht.registry is serial[0].registry for ht in serial)


# ---------------------------------------------------------------------
# stamp registry free-bit bookkeeping
# ---------------------------------------------------------------------
class TestStampRegistryBits:
    def test_lowest_free_bit_first(self):
        r = StampRegistry()
        assert r.acquire("a") == 1 << 0
        assert r.acquire("b") == 1 << 1
        assert r.acquire("c") == 1 << 2
        r.release("b")
        assert r.acquire("d") == 1 << 1  # freed bit reused first
        assert r.acquire("e") == 1 << 3

    def test_release_reacquire_cycles(self):
        r = StampRegistry()
        for cycle in range(200):
            assert r.acquire("nb") == 1 << 0
            assert r.release("nb") == 1 << 0
        assert r.acquire("other") == 1 << 0

    def test_interleaved_release_order(self):
        r = StampRegistry()
        for i in range(10):
            r.acquire(f"s{i}")
        for name in ("s7", "s2", "s5"):
            r.release(name)
        # lowest-first regardless of release order
        assert r.acquire("x") == 1 << 2
        assert r.acquire("y") == 1 << 5
        assert r.acquire("z") == 1 << 7

    def test_exhaustion_after_churn(self):
        r = StampRegistry()
        for i in range(StampRegistry.MAX_STAMPS):
            r.acquire(f"s{i}")
        r.release("s30")
        r.acquire("replacement")
        with pytest.raises(RuntimeError):
            r.acquire("one-too-many")


# ---------------------------------------------------------------------
# translation-table edge cases
# ---------------------------------------------------------------------
class TestTranslationZeroSize:
    @pytest.mark.parametrize("storage", STORAGES)
    def test_empty_distribution_builds_free(self, storage):
        m = Machine(4, record_messages=True)
        tt = TranslationTable.from_map(m, np.zeros(0, dtype=np.int64),
                                       storage=storage)
        assert m.traffic.n_messages == 0
        assert m.traffic.total_bytes == 0
        assert tt.memory_per_rank(0) == 0

    @pytest.mark.parametrize("storage", STORAGES)
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_empty_queries_cost_no_messages(self, storage, backend):
        m = Machine(4, record_messages=True)
        tt = TranslationTable.from_map(m, np.arange(8) % 4, storage=storage)
        m.reset_traffic()
        owners, offsets = tt.dereference(ExecutionContext.resolve(m, backend),
                                        [None] * 4)
        assert m.traffic.n_messages == 0
        assert all(o.size == 0 for o in owners)
        assert all(o.size == 0 for o in offsets)


# ---------------------------------------------------------------------
# index ingest: non-integral indices are rejected, never truncated
# ---------------------------------------------------------------------
def _ingest_env(backend):
    m = Machine(2)
    ctx = ExecutionContext.resolve(m, backend)
    tt = TranslationTable(m, BlockDistribution(8, 2))
    return ctx, tt, make_hash_tables(ctx, tt)


def _ingest_error(fn) -> str:
    with pytest.raises(TypeError) as info:
        fn()
    return str(info.value)


def test_non_integral_indices_rejected_identically():
    """``[0., 1.5, 7.9, 3.]`` once hashed as ``[0, 1, 4, 3]`` and
    ``[0.9, 1.2]`` once built a schedule to ranks ``[0, 1]``; every
    backend now raises the same TypeError at the API boundary."""
    floats = [np.array([0.0, 1.5, 7.9, 3.0]), None]
    errors = {}
    for backend in BACKENDS:
        ctx, tt, hts = _ingest_env(backend)
        chaos_hash(ctx, hts, tt, [np.array([0, 3]), None], "s")
        errors[backend] = (
            _ingest_error(lambda: chaos_hash(ctx, hts, tt, floats, "t")),
            _ingest_error(lambda: localize_only(ctx, hts, floats)),
            _ingest_error(lambda: rehash_delta(
                ctx, hts, tt, "s", [None, np.array([4])],
                [None, np.array([np.inf])])),
            _ingest_error(lambda: build_lightweight_schedule(
                ctx, [np.array([0.9, 1.2]), np.zeros(0, dtype=np.int64)])),
            _ingest_error(lambda: chaos_hash(
                ctx, hts, tt, [None, np.array(["1"])], "t")),
        )
    assert errors["serial"][0] == (
        "indices on rank 0 must be integers; got non-integral value 1.5")
    assert errors["serial"][2].startswith("new indices on rank 1")
    assert errors["serial"][3].startswith("dest_ranks on rank 0")
    assert errors["serial"][4].startswith("indices on rank 1 must be an "
                                          "integer array")
    for backend in BACKENDS[1:]:
        assert errors[backend] == errors["serial"]


@pytest.mark.parametrize("backend", BACKENDS)
def test_integral_float_indices_accepted(backend):
    results = []
    for idx, dest in (
        ([np.array([0, 1, 7, 3]), []], [np.array([1, 0]), [1]]),
        ([np.array([0.0, 1.0, 7.0, 3.0]), []], [np.array([1.0, 0.0]), [1.0]]),
    ):
        ctx, tt, hts = _ingest_env(backend)
        loc = chaos_hash(ctx, hts, tt, idx, "s")
        lw = build_lightweight_schedule(ctx, dest)
        results.append((loc, lw.recv_counts))
    (loc_i, counts_i), (loc_f, counts_f) = results
    assert [a.tolist() for a in loc_f] == [[0, 1, 4, 3], []]
    assert all(np.array_equal(a, b) for a, b in zip(loc_i, loc_f))
    assert np.array_equal(counts_i, counts_f)
