"""Where each layer is entered, for the traced run.

Every entry is ``(owner, attribute, span name[, counter[, gauge]])``.  Functions
are wrapped at the module that imported them, because that binding is
the one the caller looks up; methods are wrapped on their class.  The
span name is ``<layer>.<what>``; the per-layer metric ``<layer>.<what>_s``
is the op's time inside spans of that name.
"""

from __future__ import annotations


def _refs(indices) -> int:
    """Number of index references in a per-rank list of index arrays."""
    return int(sum(0 if a is None else len(a) for a in indices))


def hash_refs(args, kwargs) -> int:
    """``chaos_hash(ctx, htables, ttable, indices, stamp)``: refs hashed."""
    return _refs(args[3] if len(args) > 3 else kwargs["indices"])


def delta_refs(args, kwargs) -> int:
    """``rehash_delta(ctx, htables, ttable, stamp, old, new)``: refs touched."""
    return _refs(args[4] if len(args) > 4 else kwargs["old_indices"])


def _messages(args, kwargs) -> int:
    """Messages sent so far by the context's machine; the context is the
    first argument of every executor entry point."""
    return args[0].traffic.n_messages


def _hits(args, kwargs) -> int:
    """Hits so far of the ``ScheduleCache`` whose method was called."""
    return args[0].total_stats().hits


def _plan_miss(args, kwargs) -> int:
    """1 when ``compile_*(plan)`` will build the compiled view (the
    result is cached on the plan object after the first call)."""
    from repro.core.compiled import _CACHE_ATTR
    return int(getattr(args[0], _CACHE_ATTR, None) is None)


def _layout_miss(args, kwargs) -> int:
    """1 when ``FusedPlan.layout(key)`` will derive a new fused layout."""
    fused, key = args[0], args[1]
    return int(key not in fused._layouts)


def trace_sites() -> list[tuple]:
    import repro.apps.charmm.parallel as charmm
    import repro.apps.dsmc.parallel as dsmc
    import repro.core.api as api
    import repro.core.backends.vectorized as vec
    import repro.core.compiled as compiled
    import repro.core.executor as executor
    import repro.core.lightweight as lightweight
    import repro.core.remap as remap
    import repro.lang.program as program
    import repro.partitioners.base as pbase
    from repro.core.reuse import ScheduleCache
    from repro.core.translation import TranslationTable
    from repro.sim.machine import Machine

    sites = [
        # apps: the drivers' own compute kernels
        (charmm, "build_nonbonded_list", "apps.nb_list"),
        (charmm, "bond_pair_forces", "apps.force_kernel"),
        (charmm, "nonbond_pair_forces", "apps.force_kernel"),
        (dsmc, "collide_cells", "apps.collide"),
        # partitioners
        (pbase, "run_partitioner", "partitioners.partition"),
        (charmm, "run_partitioner", "partitioners.partition"),
        (dsmc, "run_partitioner", "partitioners.partition"),
        # reuse
        (ScheduleCache, "get_or_build", "reuse.lookup", None, _hits),
        # lang
        (program, "compile_program", "lang.compile"),
        (program.ProgramInstance, "__init__", "lang.bind"),
        (program.ProgramInstance, "execute", "lang.execute"),
        (program.ProgramInstance, "run_loop", "lang.execute"),
        # inspector
        (TranslationTable, "__init__", "inspector.translation"),
        (dsmc, "build_lightweight_schedule", "inspector.lightweight"),
        (program, "build_lightweight_schedule", "inspector.lightweight"),
        (api, "rehash_delta", "inspector.delta", delta_refs),
        (api, "delta_rebuild_schedule", "inspector.delta"),
        (api, "localize_only", "inspector.localize"),
        (charmm, "partition_iterations", "inspector.iterations"),
        (program, "partition_iterations", "inspector.iterations"),
        # plan: compiled views and fused layouts
        (executor, "compile_fused", "plan.compile"),
        (compiled.FusedPlan, "layout", "plan.compile", _layout_miss),
    ]
    # executor: spans count the messages they send
    sites += [(owner, attr, name, None, _messages) for owner, attr, name in [
        (api, "gather", "executor.gather"),
        (program, "gather", "executor.gather"),
        (api, "scatter", "executor.scatter"),
        (api, "scatter_op", "executor.scatter"),
        (program, "scatter_op", "executor.scatter"),
        (charmm, "run_pipeline", "executor.pipeline"),
        (dsmc, "run_pipeline", "executor.pipeline"),
        (dsmc, "scatter_append_multi", "executor.append"),
        (program, "scatter_append", "executor.append"),
        (charmm, "remap", "executor.remap"),
        (dsmc, "remap", "executor.remap"),
        (api, "remap", "executor.remap"),
        (api, "remap_array", "executor.remap"),
        (program, "remap", "executor.remap"),
        (program, "remap_array", "executor.remap"),
    ]]
    for mod in (charmm, api, program):
        sites += [
            (mod, "chaos_hash", "inspector.hash", hash_refs),
            (mod, "clear_stamp", "inspector.hash"),
            (mod, "make_hash_tables", "inspector.hash"),
            (mod, "build_schedule", "inspector.schedule"),
        ]
    for mod in (executor, lightweight, remap, vec):
        for fn in ("compile_schedule", "compile_lightweight_schedule",
                   "compile_remap_plan"):
            if hasattr(mod, fn):
                sites.append((mod, fn, "plan.compile", _plan_miss))
    # sim: virtual-clock and traffic charging
    for meth in ("charge_compute", "charge_memops", "charge_copyops",
                 "charge_time", "barrier", "exchange_compiled", "alltoallv",
                 "alltoall_lengths", "alltoall_lengths_compiled",
                 "allgather", "bcast", "allreduce"):
        sites.append((Machine, meth, "sim.charge"))
    return sites
