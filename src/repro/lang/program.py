"""Compiled-program runtime: execute mini-Fortran-D against a machine.

``compile_program`` runs the front end (parse → analyze → lower);
``ProgramInstance`` binds a compiled program to a simulated machine and
host arrays, then executes it with the same structure the paper's
compiler-generated code has:

* ``DISTRIBUTE`` statements build translation tables and (on
  redistribution) embed CHAOS ``remap`` calls for every aligned array;
* each irregular loop runs as inspector + executor, with a
  :class:`~repro.core.reuse.ScheduleCache` consulted first — the §5.3.1
  record of "whether any indirection array used in the loop has been
  modified since the last time the inspector was invoked";
* ``REDUCE(APPEND, …)`` nests lower to light-weight schedules and
  ``scatter_append`` (§5.2.1).

``interpret_sequential`` executes the same program on plain numpy arrays
— the oracle the parallel execution is tested against.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core.context import resolve_component
from repro.core.distribution import (
    BlockDistribution,
    CyclicDistribution,
    Distribution,
    IrregularDistribution,
)
from repro.core.executor import (
    gather,
    reduction_identity,
    scatter_op,
    stack_local_ghost,
)
from repro.core.inspector import chaos_hash, clear_stamp, make_hash_tables
from repro.core.iteration import partition_iterations, split_by_block
from repro.core.lightweight import build_lightweight_schedule, scatter_append
from repro.core.remap import remap, remap_array
from repro.core.reuse import CacheStats
from repro.core.schedule import build_schedule
from repro.core.translation import TranslationTable
from repro.lang.analysis import Analyzer, analyze
from repro.lang.ast_nodes import (
    AlignStmt,
    ArrayDecl,
    ArrayRef,
    Assign,
    BinOp,
    Call,
    DecompositionStmt,
    DistributeStmt,
    Expr,
    Forall,
    FullSlice,
    Num,
    Program,
    Reduce,
    UnaryOp,
    VarRef,
)
from repro.lang.codegen import lower_program
from repro.lang.errors import ExecutionError
from repro.lang.parser import parse_program
from repro.lang.plans import AppendPlan, LocalPlan, ReductionPlan

#: monotonically increasing ProgramInstance ids for cache scoping
_PROGRAM_COUNTER = itertools.count()

#: REDUCE op name -> combiner (identities: ``reduction_identity``)
_REDUCE_OPS = {
    "SUM": np.add,
    "MAX": np.maximum,
    "MIN": np.minimum,
    "PROD": np.multiply,
}

_INTRINSICS = {
    "abs": np.abs,
    "sqrt": np.sqrt,
    "exp": np.exp,
    "log": np.log,
    "sin": np.sin,
    "cos": np.cos,
    "sign": np.sign,
}


@dataclass
class CompiledProgram:
    """Front-end output: AST + analysis + lowered plans."""

    source: str
    ast: Program
    analyzer: Analyzer
    plans: dict[str, Any]

    def loop_ids(self) -> list[str]:
        return [nest.loop_id for nest in self.analyzer.loops]


def compile_program(source: str) -> CompiledProgram:
    """Parse, analyze and lower a mini-Fortran-D program."""
    ast = parse_program(source)
    analyzer = analyze(ast)
    plans = lower_program(analyzer)
    return CompiledProgram(source=source, ast=ast, analyzer=analyzer,
                           plans=plans)


@dataclass
class _DecompState:
    size: int
    ttable: TranslationTable | None = None
    htables: list | None = None
    version: int = 0


class ProgramInstance:
    """One compiled program bound to a machine and data bindings.

    ``bindings`` supplies initial values: 1-D numpy arrays for declared /
    aligned arrays, list-of-arrays for ragged cell arrays, ints/floats for
    scalar loop bounds.  Distributed arrays may be given as global arrays;
    they are scattered when their decomposition is distributed.
    """

    def __init__(
        self,
        compiled: CompiledProgram,
        ctx,
        bindings: dict[str, Any] | None = None,
        ttable_storage: str = "replicated",
    ):
        ctx = resolve_component(ctx, "ProgramInstance")
        self.compiled = compiled
        #: the one execution context generated code runs against — its
        #: backend covers index analysis, schedule generation and
        #: executor data transport; its record/cache drive §5.3.1 reuse
        self.ctx = ctx
        self.machine = ctx.machine
        self.ttable_storage = ttable_storage
        self.symbols = compiled.analyzer.symbols
        self.host: dict[str, Any] = {}
        self.local: dict[str, list[np.ndarray]] = {}   # distributed 1-D
        self.ragged: dict[str, list[list[np.ndarray]]] = {}  # per-rank rows
        self.decomps: dict[str, _DecompState] = {
            name: _DecompState(size=d.size)
            for name, d in self.symbols.decomps.items()
        }
        self.record = ctx.record
        self.cache = ctx.schedule_cache
        #: unique cache namespace: loop ids are program-relative, so two
        #: instances sharing one context (and hence one ScheduleCache)
        #: must not collide on "loop1"-style keys; a process-wide counter
        #: (never recycled, unlike id()) keeps scopes distinct
        self._cache_scope = f"prog{next(_PROGRAM_COUNTER)}"
        if bindings:
            for k, v in bindings.items():
                self.host[k] = v
        # allocate declared-but-unbound arrays
        for name, info in self.symbols.arrays.items():
            if name not in self.host and not info.ragged:
                shape = info.shape if info.shape else (
                    (self.symbols.decomps[info.decomposition].size,)
                    if info.decomposition else (0,)
                )
                dtype = np.float64 if info.dtype == "real" else np.int64
                self.host[name] = np.zeros(shape, dtype=dtype)

    # ==================================================================
    # lifecycle
    # ==================================================================
    def close(self) -> None:
        """Tear down the context's backend resources (idempotent)."""
        self.ctx.close()

    def __enter__(self) -> "ProgramInstance":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ==================================================================
    # helpers
    # ==================================================================
    def _decomp_of(self, array: str) -> str:
        info = self.symbols.array(array)
        if info.decomposition is None:
            raise ExecutionError(f"array {array!r} is not distributed")
        return info.decomposition

    def _ttable(self, decomp: str) -> TranslationTable:
        st = self.decomps[decomp]
        if st.ttable is None:
            raise ExecutionError(
                f"decomposition {decomp!r} used before DISTRIBUTE"
            )
        return st.ttable

    def _htables(self, decomp: str):
        st = self.decomps[decomp]
        if st.htables is None:
            st.htables = make_hash_tables(self.ctx, st.ttable)
        return st.htables

    def _aligned_arrays(self, decomp: str) -> list[str]:
        return [
            n for n, info in self.symbols.arrays.items()
            if info.decomposition == decomp
        ]

    def get_array(self, name: str) -> Any:
        """Current global value (assembles distributed arrays host-side)."""
        info = self.symbols.arrays.get(name)
        if info is not None and info.ragged and name in self.ragged:
            dist = self._ttable(info.decomposition).dist
            rows: list[np.ndarray | None] = [None] * dist.n_global
            for p in self.machine.ranks():
                for c, row in zip(dist.global_indices(p).tolist(),
                                  self.ragged[name][p]):
                    rows[c] = row
            return [
                r if r is not None else np.zeros(0) for r in rows
            ]
        if name in self.local:
            dist = self._ttable(self._decomp_of(name)).dist
            first = self.local[name][0]
            out = np.zeros((dist.n_global,) + first.shape[1:],
                           dtype=first.dtype)
            for p in self.machine.ranks():
                out[dist.global_indices(p)] = self.local[name][p]
            return out
        if name in self.host:
            return self.host[name]
        raise ExecutionError(f"array {name!r} has no value")

    def set_array(self, name: str, value: Any) -> None:
        """Update an array's value and record the modification (§5.3.1)."""
        info = self.symbols.arrays.get(name)
        self.record.touch(name)
        if info is not None and info.ragged:
            self._set_ragged(name, value)
            return
        arr = np.asarray(value)
        self.host[name] = arr
        if name in self.local:
            dist = self._ttable(self._decomp_of(name)).dist
            if arr.shape[0] != dist.n_global:
                raise ExecutionError(
                    f"{name!r}: value has {arr.shape[0]} elements, "
                    f"distribution expects {dist.n_global}"
                )
            self.local[name] = [
                arr[dist.global_indices(p)] for p in self.machine.ranks()
            ]

    def _set_ragged(self, name: str, rows: list) -> None:
        info = self.symbols.array(name)
        self.host[name] = [np.asarray(r, dtype=np.float64) for r in rows]
        if info.decomposition and self.decomps[info.decomposition].ttable:
            dist = self.decomps[info.decomposition].ttable.dist
            self.ragged[name] = [
                [self.host[name][c] for c in dist.global_indices(p).tolist()]
                for p in self.machine.ranks()
            ]

    # ==================================================================
    # execution
    # ==================================================================
    def execute(self) -> None:
        """Run every statement of the program once, in order."""
        for stmt in self.compiled.ast.statements:
            if isinstance(stmt, (ArrayDecl, DecompositionStmt)):
                continue
            if isinstance(stmt, AlignStmt):
                self._exec_align(stmt)
            elif isinstance(stmt, DistributeStmt):
                self._exec_distribute(stmt)
            elif isinstance(stmt, Forall):
                nest = next(
                    n for n in self.compiled.analyzer.loops
                    if n.outer is stmt
                )
                self.run_loop(nest.loop_id)
            else:
                raise ExecutionError(
                    f"cannot execute statement {type(stmt).__name__}",
                    getattr(stmt, "line", None),
                )

    def redistribute(self, decomp: str, map_array: str) -> None:
        """Re-execute an irregular DISTRIBUTE for ``decomp`` using the
        current value of ``map_array`` — what the compiler-generated code
        does when the program reaches a DISTRIBUTE statement again
        (Table 6 redistributes every 25 iterations)."""
        self._exec_distribute(
            DistributeStmt(decomp, "MAP", map_array, 0)
        )

    def _exec_align(self, stmt: AlignStmt) -> None:
        st = self.decomps[stmt.target]
        if st.ttable is not None:
            for name in stmt.arrays:
                self._distribute_array(name, st.ttable.dist)

    def _exec_distribute(self, stmt: DistributeStmt) -> None:
        st = self.decomps[stmt.target]
        n = st.size
        m = self.machine
        if stmt.scheme == "BLOCK":
            dist: Distribution = BlockDistribution(n, m.n_ranks)
        elif stmt.scheme == "CYCLIC":
            dist = CyclicDistribution(n, m.n_ranks)
        else:
            map_values = np.asarray(self.get_array(stmt.map_array),
                                    dtype=np.int64)
            if map_values.shape[0] != n:
                raise ExecutionError(
                    f"map array {stmt.map_array!r} has {map_values.shape[0]}"
                    f" entries, decomposition {stmt.target!r} needs {n}",
                    stmt.line,
                )
            if map_values.size and (map_values.min() < 0
                                    or map_values.max() >= m.n_ranks):
                raise ExecutionError(
                    "map entries must be ranks in [0, n_ranks)", stmt.line
                )
            dist = IrregularDistribution(map_values, m.n_ranks)

        old = st.ttable
        st.ttable = TranslationTable(m, dist, storage=self.ttable_storage)
        st.version += 1
        st.htables = None
        self.record.touch(f"__decomp__:{stmt.target}")
        if old is None:
            for name in self._aligned_arrays(stmt.target):
                self._distribute_array(name, dist)
        else:
            # redistribution: one remap plan moves every aligned array
            plan = remap(self.ctx, old.dist, dist, category="remap")
            for name in self._aligned_arrays(stmt.target):
                info = self.symbols.array(name)
                if info.ragged:
                    self._set_ragged(name, self.host.get(name, []))
                elif name in self.local:
                    self.local[name] = remap_array(
                        self.ctx, plan, self.local[name], category="remap",
                    )

    def _distribute_array(self, name: str, dist: Distribution) -> None:
        info = self.symbols.array(name)
        if info.ragged:
            rows = self.host.get(name)
            if rows is not None:
                self._set_ragged(name, rows)
            return
        g = np.asarray(self.host.get(
            name, np.zeros(dist.n_global,
                           dtype=np.float64 if info.dtype == "real"
                           else np.int64)
        ))
        if g.shape[0] != dist.n_global:
            raise ExecutionError(
                f"array {name!r} has {g.shape[0]} elements, decomposition "
                f"expects {dist.n_global}"
            )
        self.local[name] = [g[dist.global_indices(p)]
                            for p in self.machine.ranks()]

    # ==================================================================
    # loops
    # ==================================================================
    def run_loop(self, loop_id: str) -> None:
        """Execute one loop (inspector reused when nothing changed)."""
        plan = self.compiled.plans[loop_id]
        if isinstance(plan, LocalPlan):
            self._exec_local(plan)
        elif isinstance(plan, AppendPlan):
            self._exec_append(plan)
        elif isinstance(plan, ReductionPlan):
            self._exec_reduction(plan)
        else:  # pragma: no cover - lowering guarantees the cases above
            raise ExecutionError(f"unknown plan type {type(plan).__name__}")

    # ---- bounds ------------------------------------------------------
    def _bound_value(self, expr: Expr) -> int:
        if isinstance(expr, Num):
            return int(expr.value)
        if isinstance(expr, VarRef):
            v = self.host.get(expr.name)
            if v is None or np.ndim(v) != 0:
                raise ExecutionError(
                    f"loop bound {expr.name!r} must be a bound scalar",
                    expr.line,
                )
            return int(v)
        raise ExecutionError("unsupported loop bound", getattr(expr, "line", None))

    # ---- index-space construction -------------------------------------
    def _iteration_space(self, plan: ReductionPlan) -> dict[str, Any]:
        """Per-rank global index arrays for every subscript pattern.

        Returns ``{"gidx": {pattern_key: [per-rank np arrays]},
        "n_iter": [per-rank iteration counts]}`` (0-based indices).
        """
        nest = plan.nest
        m = self.machine
        decomp = nest.decomposition
        tt = self._ttable(decomp)
        dist = tt.dist
        lo = self._bound_value(nest.outer.lower)
        hi = self._bound_value(nest.outer.upper)
        if lo != 1:
            raise ExecutionError("outer FORALL must start at 1",
                                 nest.outer.line)

        gidx: dict[str, list[np.ndarray]] = {}
        if nest.kind == "csr":
            if hi != dist.n_global:
                raise ExecutionError(
                    "CSR outer loop must span the decomposition",
                    nest.outer.line,
                )
            inblo = np.asarray(self.get_array(nest.csr_offsets),
                               dtype=np.int64)
            jname = None
            for pat in plan.index_patterns:
                if pat.kind == "indirect":
                    jname = pat.indirection
            offsets0 = inblo - 1  # 1-based positions -> 0-based CSR offsets
            i_per, jv_per = [], []
            for p in m.ranks():
                rows = dist.global_indices(p)
                counts = offsets0[rows + 1] - offsets0[rows]
                total = int(counts.sum())
                i_exp = np.repeat(rows, counts)
                if jname is not None and total:
                    jarr = np.asarray(self.get_array(jname), dtype=np.int64)
                    starts = offsets0[rows]
                    shift = np.concatenate(([0], np.cumsum(counts)[:-1]))
                    flat = (np.repeat(starts - shift, counts)
                            + np.arange(total, dtype=np.int64))
                    jv = jarr[flat] - 1
                else:
                    jv = np.zeros(total, dtype=np.int64)
                i_per.append(i_exp)
                jv_per.append(jv)
                m.charge_memops(p, 2 * total, "inspector")
            for pat in plan.index_patterns:
                if pat.kind == "loopvar" and pat.loopvar == nest.outer.var:
                    gidx[pat.key()] = i_per
                elif pat.kind == "indirect":
                    gidx[pat.key()] = jv_per
                else:
                    raise ExecutionError(
                        f"unsupported pattern {pat.key()} in CSR loop",
                        nest.outer.line,
                    )
            n_iter = [a.size for a in i_per]
        elif nest.kind == "ragged":
            if hi != dist.n_global:
                raise ExecutionError(
                    "ragged outer loop must span the decomposition",
                    nest.outer.line,
                )
            sizes = np.asarray(self.get_array(nest.csr_offsets),
                               dtype=np.int64)
            routing_rows = None
            for pat in plan.index_patterns:
                if pat.kind == "indirect2":
                    routing_rows = self.get_array(pat.indirection)
            cell_per, val_per = [], []
            for p in m.ranks():
                rows = dist.global_indices(p)
                counts = sizes[rows]
                cell_exp = np.repeat(rows, counts)
                if routing_rows is not None:
                    vals = (
                        np.concatenate(
                            [np.asarray(routing_rows[c][: sizes[c]],
                                        dtype=np.int64)
                             for c in rows.tolist()]
                        ) - 1
                        if rows.size and counts.sum()
                        else np.zeros(0, dtype=np.int64)
                    )
                else:
                    vals = np.zeros(cell_exp.size, dtype=np.int64)
                cell_per.append(cell_exp)
                val_per.append(vals)
                m.charge_memops(p, 2 * cell_exp.size, "inspector")
            for pat in plan.index_patterns:
                if pat.kind == "loopvar" and pat.loopvar == nest.outer.var:
                    gidx[pat.key()] = cell_per
                elif pat.kind == "indirect2":
                    gidx[pat.key()] = val_per
                else:
                    raise ExecutionError(
                        f"unsupported pattern {pat.key()} in ragged loop",
                        nest.outer.line,
                    )
            n_iter = [a.size for a in cell_per]
        else:  # flat
            n_total = hi - lo + 1
            ind_values: dict[str, np.ndarray] = {}
            for pat in plan.index_patterns:
                if pat.kind == "indirect":
                    arr = np.asarray(self.get_array(pat.indirection),
                                     dtype=np.int64)
                    if arr.shape[0] < n_total:
                        raise ExecutionError(
                            f"indirection {pat.indirection!r} shorter than "
                            "the loop range", nest.outer.line,
                        )
                    ind_values[pat.key()] = arr[:n_total] - 1
                elif pat.kind == "loopvar":
                    if n_total != dist.n_global:
                        raise ExecutionError(
                            "direct references require the loop to span "
                            "the decomposition", nest.outer.line,
                        )
                    ind_values[pat.key()] = np.arange(n_total, dtype=np.int64)
                else:
                    raise ExecutionError(
                        f"unsupported pattern {pat.key()} in flat loop",
                        nest.outer.line,
                    )
            # Phase C/D: almost-owner-computes over the accessed elements
            keys = list(ind_values)
            accesses = [
                [split_by_block(ind_values[k], m)[p] for k in keys]
                for p in m.ranks()
            ]
            assign = partition_iterations(
                self.ctx, tt, accesses, rule="almost-owner-computes",
                category="inspector",
            )
            for k in keys:
                gidx[k] = assign.remap_iteration_data(
                    self.ctx, split_by_block(ind_values[k], m),
                    category="inspector",
                )
            n_iter = [gidx[keys[0]][p].size for p in m.ranks()] if keys \
                else [0] * m.n_ranks
        return {"gidx": gidx, "n_iter": n_iter}

    # ---- inspector -----------------------------------------------------
    def _inspect(self, plan: ReductionPlan) -> dict[str, Any]:
        nest = plan.nest
        decomp = nest.decomposition
        deps = plan.dependency_names() + (f"__decomp__:{decomp}",)

        def build():
            tt = self._ttable(decomp)
            hts = self._htables(decomp)
            space = self._iteration_space(plan)
            loc: dict[str, list[np.ndarray]] = {}
            for pat in plan.index_patterns:
                stamp = plan.stamp_for(pat)
                if stamp in hts[0].registry:
                    clear_stamp(self.ctx, hts, stamp, category="inspector")
                loc[pat.key()] = chaos_hash(
                    self.ctx, hts, tt, space["gidx"][pat.key()], stamp,
                    category="inspector",
                )
            expr = hts[0].expr(*[plan.stamp_for(p)
                                 for p in plan.index_patterns])
            sched = build_schedule(self.ctx, hts, expr,
                                   category="inspector")
            return {
                "schedule": sched,
                "loc": loc,
                "gidx": space["gidx"],
                "n_iter": space["n_iter"],
            }

        value, _rebuilt = self.cache.get_or_build(
            self.cache_key(plan.loop_id), deps, build
        )
        return value

    def cache_key(self, loop_id: str) -> str:
        """This instance's ScheduleCache key for one of its loops (the
        cache is per context and shared, so keys are instance-scoped)."""
        return f"{self._cache_scope}:{loop_id}"

    def cache_stats(self, loop_id: str) -> "CacheStats":
        """Structured counters of this instance's cached value for a loop
        (a :class:`~repro.core.reuse.CacheStats`; compares equal to and
        unpacks as the historical ``(hits, builds)`` tuple)."""
        return self.cache.stats(self.cache_key(loop_id))

    def total_cache_stats(self) -> "CacheStats":
        """Aggregate :class:`CacheStats` over this instance's loops."""
        return self.cache.total_stats(prefix=f"{self._cache_scope}:")

    # ---- expression evaluation ------------------------------------------
    def _eval(self, expr: Expr, env: dict[str, Any], rank: int):
        if isinstance(expr, Num):
            return expr.value
        if isinstance(expr, Call):
            args = [self._eval(a, env, rank) for a in expr.args]
            return _INTRINSICS[expr.func](*args)
        if isinstance(expr, UnaryOp):
            v = self._eval(expr.operand, env, rank)
            return -v
        if isinstance(expr, BinOp):
            a = self._eval(expr.left, env, rank)
            b = self._eval(expr.right, env, rank)
            if expr.op == "+":
                return a + b
            if expr.op == "-":
                return a - b
            if expr.op == "*":
                return a * b
            if expr.op == "/":
                return a / b
            if expr.op == "**":
                return a ** b
            raise ExecutionError(f"unknown operator {expr.op!r}", expr.line)
        if isinstance(expr, VarRef):
            if expr.name in env["loop_vars"]:
                key = f"var:{expr.name}"
                if key in env["gidx"]:
                    return env["gidx"][key][rank].astype(np.float64) + 1.0
                raise ExecutionError(
                    f"loop variable {expr.name!r} not available as a value",
                    expr.line,
                )
            v = self.host.get(expr.name)
            if v is not None and np.ndim(v) == 0:
                return float(v)
            raise ExecutionError(f"unbound scalar {expr.name!r}", expr.line)
        if isinstance(expr, ArrayRef):
            info = self.symbols.arrays.get(expr.name)
            if info is None:
                raise ExecutionError(f"undeclared array {expr.name!r}",
                                     expr.line)
            pat_key = env["pattern_of"](expr)
            if info.decomposition is not None and expr.name in env["stacked"]:
                idx = env["loc"][pat_key][rank]
                return env["stacked"][expr.name][rank][idx]
            # replicated array: index by global values
            g = np.asarray(self.get_array(expr.name))
            idx = env["gidx"][pat_key][rank]
            return g[idx]
        if isinstance(expr, FullSlice):
            raise ExecutionError("':' only allowed in REDUCE(APPEND) targets",
                                 expr.line)
        raise ExecutionError(f"cannot evaluate {type(expr).__name__}")

    # ---- reduction executor ----------------------------------------------
    def _exec_reduction(self, plan: ReductionPlan) -> None:
        nest = plan.nest
        m = self.machine
        decomp = nest.decomposition
        if decomp is None:
            raise ExecutionError("reduction loop touches no distributed array",
                                 nest.outer.line)
        state = self._inspect(plan)
        sched = state["schedule"]
        loop_vars = {nest.outer.var} | (
            {nest.inner.var} if nest.inner else set()
        )

        def pattern_of(ref: ArrayRef) -> str:
            from repro.lang.analysis import classify_subscript
            return classify_subscript(ref.subscripts[0], loop_vars).key()

        # gather every distributed array read in the loop
        stacked: dict[str, list[np.ndarray]] = {}
        read_arrays = set(plan.gather_arrays)
        for stmt in nest.statements:
            from repro.lang.ast_nodes import array_refs
            for ref in array_refs(stmt.value):
                info = self.symbols.arrays.get(ref.name)
                if info is not None and info.decomposition == decomp \
                        and not info.ragged:
                    read_arrays.add(ref.name)
        ghosts_of: dict[str, list[np.ndarray]] = {}
        for name in sorted(read_arrays):
            if name not in self.local:
                raise ExecutionError(f"array {name!r} not distributed yet",
                                     nest.outer.line)
            g = gather(self.ctx, sched, self.local[name], category="comm")
            ghosts_of[name] = g
            stacked[name] = stack_local_ghost(self.local[name], g)

        env = {
            "stacked": stacked,
            "loc": state["loc"],
            "gidx": state["gidx"],
            "pattern_of": pattern_of,
            "loop_vars": loop_vars,
        }

        # accumulate per target array (zero/identity-initialized stacked)
        target_names = {t.array for t in plan.reduce_targets}
        acc: dict[str, list[np.ndarray]] = {}
        ops: dict[str, Any] = {}
        for stmt in nest.statements:
            if isinstance(stmt, Reduce):
                if stmt.op not in _REDUCE_OPS:
                    raise ExecutionError(f"unsupported REDUCE op {stmt.op}",
                                         stmt.line)
                prev = ops.get(stmt.target.name)
                if prev is not None and prev is not _REDUCE_OPS[stmt.op]:
                    raise ExecutionError(
                        "mixed reduction ops on one target", stmt.line
                    )
                ops[stmt.target.name] = _REDUCE_OPS[stmt.op]
        for name in target_names:
            identity = reduction_identity(ops[name], np.float64)
            locs = self.local[name]
            acc[name] = [
                np.full(locs[p].shape[0] + sched.ghost_size[p], identity,
                        dtype=np.float64)
                for p in m.ranks()
            ]

        for p in m.ranks():
            for stmt in nest.statements:
                if isinstance(stmt, Reduce):
                    contrib = self._eval(stmt.value, env, p)
                    key = pattern_of(stmt.target)
                    idx = state["loc"][key][p]
                    if np.ndim(contrib) == 0:
                        contrib = np.full(idx.size, float(contrib))
                    ops[stmt.target.name].at(acc[stmt.target.name][p], idx,
                                             contrib)
                elif isinstance(stmt, Assign):
                    value = self._eval(stmt.value, env, p)
                    key = pattern_of(stmt.target)
                    idx = state["loc"][key][p]
                    tgt = stacked.get(stmt.target.name)
                    if tgt is None:
                        raise ExecutionError(
                            "assignment target must be gathered", stmt.line
                        )
                    tgt[p][idx] = value
            m.charge_compute(
                p, plan.compute_ops_per_iter * state["n_iter"][p], "compute"
            )

        # fold accumulators into owners: local part elementwise, ghost part
        # via scatter_op
        for name in target_names:
            ufunc = ops[name]
            ghost_acc = []
            for p in m.ranks():
                n_local = self.local[name][p].shape[0]
                local_acc = acc[name][p][:n_local]
                self.local[name][p][...] = ufunc(
                    self.local[name][p], local_acc.astype(
                        self.local[name][p].dtype, copy=False
                    )
                )
                ghost_acc.append(acc[name][p][n_local:].astype(
                    self.local[name][p].dtype, copy=False
                ))
            scatter_op(self.ctx, sched, self.local[name], ghost_acc, ufunc,
                       category="comm")
        m.barrier()

    # ---- local loops ------------------------------------------------------
    def _exec_local(self, plan: LocalPlan) -> None:
        nest = plan.nest
        m = self.machine
        decomp = nest.decomposition
        if decomp is None:
            # purely replicated loop: run host-side on rank 0's budget
            raise ExecutionError(
                "local loops must touch a distributed array", nest.outer.line
            )
        dist = self._ttable(decomp).dist
        hi = self._bound_value(nest.outer.upper)
        if hi != dist.n_global:
            raise ExecutionError(
                "local loop must span the decomposition", nest.outer.line
            )
        for p in m.ranks():
            for stmt in nest.statements:
                if not isinstance(stmt, Assign):
                    raise ExecutionError("local loops support assignments only",
                                         stmt.line)
                if not (len(stmt.target.subscripts) == 1
                        and isinstance(stmt.target.subscripts[0], VarRef)):
                    raise ExecutionError(
                        "local assignment must use the loop variable",
                        stmt.line,
                    )
                if isinstance(stmt.value, Num):
                    self.local[stmt.target.name][p][...] = stmt.value.value
                else:
                    raise ExecutionError(
                        "only constant local assignments are supported",
                        stmt.line,
                    )
            m.charge_compute(p, dist.local_size(p), "compute")
        m.barrier()

    # ---- append loops -------------------------------------------------------
    def _exec_append(self, plan: AppendPlan) -> None:
        """REDUCE(APPEND): light-weight-schedule data movement (§5.2.1)."""
        nest = plan.nest
        m = self.machine
        decomp = self._decomp_of(plan.target)
        tt = self._ttable(decomp)
        dist = tt.dist
        sizes = np.asarray(self.get_array(plan.size_array), dtype=np.int64)
        routing = self.get_array(plan.routing)
        source = self.get_array(plan.source)

        dest_cell_per, values_per = [], []
        for p in m.ranks():
            rows = dist.global_indices(p)
            cells_vals = []
            vals = []
            for c in rows.tolist():
                k = int(sizes[c])
                if k == 0:
                    continue
                cells_vals.append(np.asarray(routing[c][:k],
                                             dtype=np.int64) - 1)
                vals.append(np.asarray(source[c][:k], dtype=np.float64))
            dest_cell = (np.concatenate(cells_vals) if cells_vals
                         else np.zeros(0, dtype=np.int64))
            value = (np.concatenate(vals) if vals
                     else np.zeros(0, dtype=np.float64))
            if dest_cell.size and (
                dest_cell.min() < 0 or dest_cell.max() >= dist.n_global
            ):
                raise ExecutionError(
                    f"routing array {plan.routing!r} holds out-of-range cells",
                    nest.outer.line,
                )
            dest_cell_per.append(dest_cell)
            values_per.append(value)
            m.charge_memops(p, 2 * dest_cell.size, "inspector")

        dest_rank = [tt.owner_local(d) if d.size else d
                     for d in dest_cell_per]
        sched = build_lightweight_schedule(self.ctx, dest_rank,
                                           category="inspector")
        arrived_vals = scatter_append(self.ctx, sched, values_per,
                                      category="comm")
        arrived_cells = scatter_append(self.ctx, sched, dest_cell_per,
                                       category="comm")
        # regroup arrivals into ragged rows of the target
        new_rows_global: list[np.ndarray | None] = [None] * dist.n_global
        for p in m.ranks():
            cells = arrived_cells[p]
            vals = arrived_vals[p]
            rows = dist.global_indices(p)
            order = np.argsort(cells, kind="stable")
            sc = cells[order]
            sv = vals[order]
            bounds = np.searchsorted(sc, rows)
            bounds_hi = np.searchsorted(sc, rows, side="right")
            for c, lo, hi2 in zip(rows.tolist(), bounds.tolist(),
                                  bounds_hi.tolist()):
                new_rows_global[c] = sv[lo:hi2]
            m.charge_memops(p, vals.size, "comm")
        m.barrier()
        self.host[plan.target] = [
            r if r is not None else np.zeros(0) for r in new_rows_global
        ]
        self.record.touch(plan.target)
        self._set_ragged(plan.target, self.host[plan.target])


# =====================================================================
# sequential oracle
# =====================================================================
def interpret_sequential(compiled: CompiledProgram,
                         bindings: dict[str, Any]) -> dict[str, Any]:
    """Execute the program on plain numpy arrays (no machine, no CHAOS).

    Distribution directives are no-ops; loops run in order with
    ``np.ufunc.at`` semantics.  Returns the final value of every array.
    """
    symbols = compiled.analyzer.symbols
    state: dict[str, Any] = {}
    for k, v in bindings.items():
        if isinstance(v, list):
            state[k] = [np.asarray(r).copy() for r in v]
        elif np.ndim(v) == 0:
            state[k] = v
        else:
            state[k] = np.asarray(v).copy()
    for name, info in symbols.arrays.items():
        if name not in state and not info.ragged:
            shape = info.shape if info.shape else (
                (symbols.decomps[info.decomposition].size,)
                if info.decomposition else (0,)
            )
            state[name] = np.zeros(
                shape, dtype=np.float64 if info.dtype == "real" else np.int64
            )

    def bound(expr) -> int:
        if isinstance(expr, Num):
            return int(expr.value)
        if isinstance(expr, VarRef):
            return int(state[expr.name])
        raise ExecutionError("unsupported loop bound")

    def eval_expr(expr, idx_env):
        if isinstance(expr, Num):
            return expr.value
        if isinstance(expr, Call):
            return _INTRINSICS[expr.func](
                *[eval_expr(a, idx_env) for a in expr.args]
            )
        if isinstance(expr, UnaryOp):
            return -eval_expr(expr.operand, idx_env)
        if isinstance(expr, BinOp):
            a, b = eval_expr(expr.left, idx_env), eval_expr(expr.right, idx_env)
            if expr.op == "+":
                return a + b
            if expr.op == "-":
                return a - b
            if expr.op == "*":
                return a * b
            if expr.op == "/":
                return a / b
            return a ** b
        if isinstance(expr, VarRef):
            if expr.name in idx_env:
                return idx_env[expr.name].astype(np.float64) + 1.0
            return float(state[expr.name])
        if isinstance(expr, ArrayRef):
            idx = ref_index(expr, idx_env)
            return np.asarray(state[expr.name])[idx]
        raise ExecutionError("cannot evaluate expression")

    def ref_index(ref: ArrayRef, idx_env):
        sub = ref.subscripts[0]
        if isinstance(sub, VarRef):
            return idx_env[sub.name]
        if isinstance(sub, ArrayRef):
            inner_idx = tuple(
                idx_env[s.name] for s in sub.subscripts
                if isinstance(s, VarRef)
            )
            arr = state[sub.name]
            if isinstance(arr, list):  # ragged routing: (slot, cell)
                slot, cell = inner_idx
                vals = np.array(
                    [arr[c][s] for s, c in zip(slot.tolist(), cell.tolist())],
                    dtype=np.int64,
                )
                return vals - 1
            return np.asarray(arr, dtype=np.int64)[inner_idx[0]] - 1
        raise ExecutionError("unsupported subscript")

    for nest in compiled.analyzer.loops:
        hi = bound(nest.outer.upper)
        if nest.kind == "local_assign":
            for stmt in nest.statements:
                state[stmt.target.name][:hi] = stmt.value.value
            continue
        if nest.kind == "cell_append":
            plan = compiled.plans[nest.loop_id]
            sizes = np.asarray(state[plan.size_array], dtype=np.int64)
            routing = state[plan.routing]
            source = state[plan.source]
            new_rows = [[] for _ in range(hi)]
            for c in range(hi):
                for s in range(int(sizes[c])):
                    dest = int(routing[c][s]) - 1
                    new_rows[dest].append(float(source[c][s]))
            state[plan.target] = [np.asarray(r, dtype=np.float64)
                                  for r in new_rows]
            continue
        # flat / csr / ragged reductions
        if nest.kind == "csr":
            inblo = np.asarray(state[nest.csr_offsets], dtype=np.int64) - 1
            rows = np.arange(hi, dtype=np.int64)
            counts = inblo[rows + 1] - inblo[rows]
            i_exp = np.repeat(rows, counts)
            total = int(counts.sum())
            starts = inblo[rows]
            shift = np.concatenate(([0], np.cumsum(counts)[:-1]))
            flat = (np.repeat(starts - shift, counts)
                    + np.arange(total, dtype=np.int64))
            idx_env = {nest.outer.var: i_exp,
                       "__csr_flat__": flat}
            if nest.inner is not None:
                idx_env[nest.inner.var] = flat  # positions into jnb
        elif nest.kind == "ragged":
            sizes = np.asarray(state[nest.csr_offsets], dtype=np.int64)
            rows = np.arange(hi, dtype=np.int64)
            cell_exp = np.repeat(rows, sizes[rows])
            slot_exp = (np.arange(cell_exp.size, dtype=np.int64)
                        - np.repeat(np.concatenate(
                            ([0], np.cumsum(sizes[rows])[:-1])), sizes[rows]))
            idx_env = {nest.outer.var: cell_exp}
            if nest.inner is not None:
                idx_env[nest.inner.var] = slot_exp
        else:  # flat
            idx_env = {nest.outer.var: np.arange(hi, dtype=np.int64)}

        # In CSR loops, jnb(j) means "value at position j of jnb": our
        # ref_index handles ArrayRef subscripts by indexing the indirection
        # with the inner variable's positions.
        for stmt in nest.statements:
            if isinstance(stmt, Reduce):
                ufunc = _REDUCE_OPS[stmt.op]
                tgt_idx = ref_index(stmt.target, idx_env)
                contrib = eval_expr(stmt.value, idx_env)
                if np.ndim(contrib) == 0:
                    contrib = np.full(np.size(tgt_idx), float(contrib))
                ufunc.at(state[stmt.target.name], tgt_idx, contrib)
            elif isinstance(stmt, Assign):
                tgt_idx = ref_index(stmt.target, idx_env)
                state[stmt.target.name][tgt_idx] = eval_expr(stmt.value,
                                                             idx_env)
    return state
