"""The four workloads: inputs from a seed, timed episodes, output checks.

A run repeats *episodes* of one workload on the same generated inputs.
An episode sets the program up from those inputs, runs a fixed number
of ops, and keeps its final outputs and its exact counts, so

* ``setup_s`` has one sample per episode (the median is reported);
* every episode must reproduce the first one bitwise, outputs and counts
  alike — a difference is a nondeterminism failure, not noise;
* the oracle check runs once per run, on the first episode, outside
  every timed region.

An *op* is one MD step, one DSMC step, one mesh step or one served job.
An *adapt op* changes the access pattern: non-bonded list regeneration,
cell remap, delta repair, or (served) a job that regenerates its
non-bonded list and re-runs the loop.  The first op of an episode is
part of set-up and is not an op sample.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import itertools
from dataclasses import dataclass, field
from time import perf_counter, perf_counter_ns
from typing import Any

import numpy as np

from repro.apps.charmm import ParallelMD, SequentialMD, build_solvated_system
from repro.apps.dsmc import (
    CartesianGrid,
    DSMCConfig,
    ParallelDSMC,
    SequentialDSMC,
)
from repro.apps.dsmc.particles import FlowConfig
from repro.core import ChaosRuntime, ExecutionContext, IrregularReduction
from repro.partitioners import RCB
from repro.serve import JobSpec, ProgramServer, ServerConfig, run_job_inline
from repro.sim import Machine
from repro.sim.metrics import load_balance_index
import repro.lang.program as program
import repro.partitioners.base as pbase

SIZES = ("full", "tiny")


@dataclass
class Episode:
    setup_s: float
    #: ``(kind, seconds)`` per op after the first; kind is "op" or "adapt"
    ops: list[tuple[str, float]]
    #: final outputs, compared bitwise across episodes
    state: tuple
    #: exact counts of the simulated result (sim.*, reuse.*)
    counts: dict
    traced: bool = False
    extra: dict = field(default_factory=dict)
    #: how this episode failed to repeat the first one
    problems: list = field(default_factory=list)


def op_span(tracer, name: str, op_id: int):
    return tracer.op(name, op_id) if tracer else contextlib.nullcontext()


def states_equal(a, b) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(map(states_equal, a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(
            states_equal(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    return a == b


def _sim_counts(ctx, n_ops: int, load_balance: float) -> dict:
    traffic = ctx.traffic.snapshot()
    cache = ctx.schedule_cache.total_stats()
    return {
        "sim.messages_per_op": traffic["n_messages"] / n_ops,
        "sim.bytes_per_op": traffic["total_bytes"] / n_ops,
        "sim.virtual_s_per_op": ctx.machine.execution_time() / n_ops,
        "sim.load_balance": load_balance,
        **_reuse_counts(cache.hits, cache.builds, cache.delta_rebuilds,
                        cache.resident_bytes),
    }


def _reuse_counts(hits, builds, deltas, resident) -> dict:
    lookups = hits + builds + deltas
    return {
        "reuse.hit_rate": hits / lookups if lookups else 0.0,
        "reuse.builds": builds,
        "reuse.delta_rebuilds": deltas,
        "reuse.resident_bytes": resident,
    }


class Workload:
    """One named workload; subclasses fill in the four hooks."""

    name = ""
    #: ops per episode, and the fewest episodes a run may have
    episode_ops = {"full": 0, "tiny": 0}
    min_episodes = {"full": 3, "tiny": 2}
    #: oracle ops run after each episode
    oracle_steps = {"full": 0, "tiny": 0}

    def __init__(self, seed: int, size: str = "full",
                 backend: str = "vectorized"):
        if size not in SIZES:
            raise ValueError(f"unknown size {size!r}")
        self.seed = int(seed)
        self.size = size
        self.backend = backend
        self.n_ops = self.episode_ops[size]
        self._op_ids = itertools.count(1)
        #: the oracle's wall time per non-adapt op, over all its passes
        self.baseline: list[float] = []
        self._oracle = self.oracle()
        self._expected = None
        self.generate()

    def generate(self) -> None:
        """Make the inputs from the seed (untimed)."""
        raise NotImplementedError

    def episode(self, tracer=None) -> Episode:
        """Set up from the inputs, run ``n_ops`` ops, keep outputs."""
        raise NotImplementedError

    def oracle(self):
        """One pass of the sequential oracle over an episode's ops, as a
        generator: yields each op's wall time (``None`` for set-up and
        adapt ops) and returns the oracle's outputs."""
        raise NotImplementedError

    def compare(self, first: Episode, expected) -> list[str]:
        """Problems found comparing the first episode with the oracle."""
        raise NotImplementedError

    def run_oracle(self) -> None:
        """Advance the oracle by ``oracle_steps`` ops.  Called between
        episodes, so its timings see the same host as the episodes'."""
        for _ in range(self.oracle_steps[self.size]):
            try:
                t = next(self._oracle)
            except StopIteration as stop:
                if self._expected is None:
                    self._expected = (stop.value,)
                self._oracle = self.oracle()
                continue
            if t is not None:
                self.baseline.append(t)

    def check(self, first: Episode) -> list[str]:
        """Oracle check of the first episode (untimed); finishes the
        oracle's first pass if the episodes did not."""
        while self._expected is None:
            self.run_oracle()
        return self.compare(first, self._expected[0])

    def _timed_steps(self, tracer, step, is_adapt) -> list:
        """Run ops 1..n_ops-1 of an episode, one ``step(k)`` each."""
        ops = []
        for k in range(1, self.n_ops):
            kind = "adapt" if is_adapt(k) else "op"
            t0 = perf_counter()
            with op_span(tracer, f"apps.{kind}", next(self._op_ids)):
                step(k)
            ops.append((kind, perf_counter() - t0))
        return ops


# ----------------------------------------------------------------------
# charmm_md — the paper's headline application (Tables 1-2)
# ----------------------------------------------------------------------
class CharmmMD(Workload):
    """Solvated system, RCB, merged schedules, 16 ranks, non-bonded list
    regenerated every 10 steps (the paper regenerates every 25).

    The synthetic system starts with overlapping atoms.  At the default
    time step it heats until the trajectory is chaotic: rounding
    differences from the parallel run's (legitimate) summation order
    grow about fivefold per step and leave the oracle's 1e-9 tolerance
    within ten steps.  A 0.0002 time step with strong Berendsen coupling
    keeps them near 1e-12 over an episode.
    """

    name = "charmm_md"
    episode_ops = {"full": 30, "tiny": 12}
    min_episodes = {"full": 4, "tiny": 2}
    oracle_steps = {"full": 8, "tiny": 12}
    update_every = 10
    md_args = dict(dt=0.0002, update_every=update_every,
                   thermostat_temperature=1.0, thermostat_tau=0.0002)

    def generate(self) -> None:
        if self.size == "full":
            self.n_ranks = 16
            self.system = build_solvated_system(
                n_protein=600, n_waters=1150, density=2.9, seed=self.seed)
        else:
            self.n_ranks = 4
            self.system = build_solvated_system(
                n_protein=40, n_waters=50, density=0.6, seed=self.seed)

    def episode(self, tracer=None) -> Episode:
        system = self.system.copy()
        t0 = perf_counter()
        with op_span(tracer, "apps.setup", next(self._op_ids)):
            ctx = ExecutionContext.resolve(Machine(self.n_ranks),
                                           self.backend)
            md = ParallelMD(system, ctx, partitioner=RCB(),
                            schedule_mode="merged", **self.md_args)
            md.run(1)
        setup_s = perf_counter() - t0
        with md:
            ops = self._timed_steps(
                tracer, lambda k: md.run(1),
                lambda k: k % self.update_every == 0)
            state = (md.global_positions(), md.global_velocities(),
                     np.asarray(md.trace.potential_energy),
                     np.asarray(md.trace.kinetic_energy),
                     list(md.trace.nb_pairs_history))
            counts = _sim_counts(ctx, self.n_ops, md.load_balance())
        return Episode(setup_s, ops, state, counts)

    def oracle(self):
        seq = SequentialMD(self.system.copy(), **self.md_args)
        for k in range(self.n_ops):
            t0 = perf_counter()
            # SequentialMD.run counts steps per call; stepping one at a
            # time, the list regeneration its loop does at global step k
            # is issued here, exactly as run(n_ops) would
            if k > 0 and k % self.update_every == 0:
                seq.refresh_nonbonded_list()
                seq._forces, seq._pe = seq.compute_forces()
            seq.run(1)
            yield (perf_counter() - t0
                   if k > 0 and k % self.update_every else None)
        return seq

    def compare(self, first: Episode, seq) -> list[str]:
        pos, vel, pe, ke, pairs = first.state
        problems = []
        s = seq.system
        err = max(np.abs(pos - s.positions).max(),
                  np.abs(vel - s.velocities).max())
        if not err < 1e-9:
            problems.append(f"trajectory differs from SequentialMD by {err}")
        if not (np.allclose(pe, seq.trace.potential_energy, rtol=1e-9)
                and np.allclose(ke, seq.trace.kinetic_energy, rtol=1e-9)):
            problems.append("energy trace differs from SequentialMD")
        if pairs != seq.trace.nb_pairs_history:
            problems.append("non-bonded list sizes differ from "
                            "SequentialMD")
        return problems


# ----------------------------------------------------------------------
# dsmc_plume — the paper's second application (Tables 4-5)
# ----------------------------------------------------------------------
class DsmcPlume(Workload):
    """3-D plume, 16 ranks, light-weight migration, RCB cell remap every
    10 steps; inflow chosen so the population stays near steady."""

    name = "dsmc_plume"
    episode_ops = {"full": 40, "tiny": 12}
    min_episodes = {"full": 4, "tiny": 2}
    oracle_steps = {"full": 12, "tiny": 12}
    remap_every = 10

    def generate(self) -> None:
        if self.size == "full":
            self.n_ranks = 16
            self.grid = CartesianGrid((16, 8, 8))
            n0, inflow = 50_000, 1_100
        else:
            self.n_ranks = 4
            self.grid = CartesianGrid((8, 4, 4))
            n0, inflow = 1_500, 40
        self.config = DSMCConfig(
            n_initial=n0, inflow_rate=inflow, dt=0.4,
            initial_profile="plume", flow=FlowConfig(seed=self.seed),
            collision_seed=7919 * self.seed + 1)

    def episode(self, tracer=None) -> Episode:
        t0 = perf_counter()
        with op_span(tracer, "apps.setup", next(self._op_ids)):
            ctx = ExecutionContext.resolve(Machine(self.n_ranks),
                                           self.backend)
            par = ParallelDSMC(self.grid, ctx, self.config,
                               migration="lightweight", partitioner=RCB())
            par.run(1)
        setup_s = perf_counter() - t0
        with par:
            ops = self._timed_steps(
                tracer,
                lambda k: par.run(1, remap_every=self.remap_every,
                                  remap_partitioner=RCB()),
                lambda k: k % self.remap_every == 0)
            state = (par.canonical_state(),
                     list(par.trace.n_collisions))
            counts = _sim_counts(ctx, self.n_ops, par.load_balance())
        return Episode(setup_s, ops, state, counts)

    def oracle(self):
        seq = SequentialDSMC(self.grid, self.config)
        for k in range(self.n_ops):
            t0 = perf_counter()
            seq.step()
            yield (perf_counter() - t0
                   if k > 0 and k % self.remap_every else None)
        return seq

    def compare(self, first: Episode, seq) -> list[str]:
        problems = []
        if not states_equal(first.state[0], seq.canonical_state()):
            problems.append("particle state differs bitwise from "
                            "SequentialDSMC")
        if first.state[1] != seq.trace.n_collisions:
            problems.append("collision counts differ from SequentialDSMC")
        return problems


# ----------------------------------------------------------------------
# mesh_adapt — the Figure-1 irregular reduction with delta repair
# ----------------------------------------------------------------------
def _schedules_equal(a, b) -> bool:
    return a.ghost_size == b.ghost_size and all(
        np.array_equal(x[p], y[p])
        for x, y in ((a.send_indices, b.send_indices),
                     (a.send_offsets, b.send_offsets),
                     (a.recv_slots, b.recv_slots),
                     (a.recv_offsets, b.recv_offsets))
        for p in range(a.n_ranks))


def _identity(xv):
    return xv


class MeshAdapt(Workload):
    """``y(ia(i)) += x(ib(i))`` over a locality-biased mesh through
    ``ChaosRuntime``/``IrregularReduction``; every 4th step rewires 2% of
    the edges and repairs the cached schedule from the touched
    positions.  Node values are small integers held as floats, so every
    sum is exact whatever the order and the oracle compares bitwise."""

    name = "mesh_adapt"
    episode_ops = {"full": 40, "tiny": 12}
    min_episodes = {"full": 3, "tiny": 2}
    oracle_steps = {"full": 40, "tiny": 12}
    adapt_every = 4
    churn = 0.02

    def generate(self) -> None:
        if self.size == "full":
            self.n_ranks, n, n_edges, window = 16, 200_000, 800_000, 2_000
        else:
            self.n_ranks, n, n_edges, window = 4, 2_000, 8_000, 50
        rng = np.random.default_rng(self.seed)
        self.coords = rng.random((n, 2))
        # locality order: row-major over a coarse grid of cells
        side = max(1, int(np.sqrt(n) / 4))
        cell = np.minimum((self.coords * side).astype(np.int64), side - 1)
        order = np.lexsort((cell[:, 1], cell[:, 0]))
        rank = np.empty(n, dtype=np.int64)
        rank[order] = np.arange(n)

        def near(nodes):
            step = rng.integers(-window, window + 1, nodes.size)
            return order[np.clip(rank[nodes] + step, 0, n - 1)]

        self.ia = rng.integers(0, n, n_edges)
        self.ib = near(self.ia)
        self.x = rng.integers(0, 8, n).astype(np.float64)
        # the rewiring of every adapt step: edge ids and new endpoints
        self.rewire = {}
        for k in range(self.adapt_every, self.episode_ops[self.size],
                       self.adapt_every):
            edges = np.sort(rng.choice(n_edges, int(self.churn * n_edges),
                                       replace=False))
            self.rewire[k] = (edges, near(self.ia[edges]))

    def episode(self, tracer=None) -> Episode:
        P = self.n_ranks
        t0 = perf_counter()
        with op_span(tracer, "apps.setup", next(self._op_ids)):
            machine = Machine(P)
            rt = ChaosRuntime(ExecutionContext.resolve(machine, self.backend))
            labels = pbase.run_partitioner(machine, RCB(), self.coords).labels
            ttable = rt.irregular_table(labels)
            # owner-computes: each edge runs on the owner of ia
            by_owner = np.argsort(labels[self.ia], kind="stable")
            bounds = np.searchsorted(labels[self.ia][by_owner],
                                     np.arange(P + 1))
            edges = [by_owner[bounds[p]:bounds[p + 1]] for p in range(P)]
            x = rt.distribute(self.x, ttable)
            y = rt.zeros_like_table(ttable)
            ib = [self.ib[e] for e in edges]
            loop = IrregularReduction(rt, ttable, name="mesh").bind(
                ia=[self.ia[e] for e in edges], ib=ib)
            loop.setup()
            loop.execute(y, "ia", _identity, {"x": (x, "ib")})
        setup_s = perf_counter() - t0
        # where each global edge sits: its rank and position there
        edge_rank = labels[self.ia]
        edge_pos = np.empty(self.ia.size, dtype=np.int64)
        for p in range(P):
            edge_pos[edges[p]] = np.arange(edges[p].size)

        ops = []
        first_repair = None
        with rt:
            for k in range(1, self.n_ops):
                update = None
                if k in self.rewire:
                    ids, dst = self.rewire[k]
                    touched, new = [], []
                    for p in range(P):
                        mine = edge_rank[ids] == p
                        pos = edge_pos[ids[mine]]
                        arr = ib[p].copy()
                        arr[pos] = dst[mine]
                        touched.append(pos)
                        new.append(arr)
                    update = (new, touched)
                    ib = new
                kind = "op" if update is None else "adapt"
                t0 = perf_counter()
                with op_span(tracer, f"apps.{kind}", next(self._op_ids)):
                    if update is None:
                        loop.setup()      # schedule reuse check: a hit
                    else:
                        loop.adapt("ib", update[0], touched=update[1])
                    loop.execute(y, "ia", _identity, {"x": (x, "ib")})
                ops.append((kind, perf_counter() - t0))
                if update is not None and first_repair is None:
                    first_repair = (loop.schedule, update[0])
            lb = load_balance_index(machine.clocks.category_times("compute"))
            counts = _sim_counts(rt.ctx, self.n_ops, lb)
            state = (y.to_global(),)
        return Episode(setup_s, ops, state, counts, extra={"check": dict(
            repair=first_repair, edges=edges, labels=labels)})

    def oracle(self):
        ib = self.ib.copy()
        y = np.zeros(self.x.size)
        for k in range(self.n_ops):
            if k in self.rewire:
                ids, dst = self.rewire[k]
                ib[ids] = dst
            t0 = perf_counter()
            np.add.at(y, self.ia, self.x[ib])
            yield (perf_counter() - t0
                   if k > 0 and k not in self.rewire else None)
        return y

    def compare(self, first: Episode, y) -> list[str]:
        problems = []
        if not np.array_equal(first.state[0], y):
            problems.append("reduction result differs from the np.add.at "
                            "oracle")
        # the first delta-repaired schedule must equal the full
        # clear/rehash/rebuild of the same update on the same tables
        ex = first.extra["check"]
        repaired, new_ib = ex["repair"]
        machine = Machine(self.n_ranks)
        with ChaosRuntime(ExecutionContext.resolve(machine,
                                                   self.backend)) as rt:
            ttable = rt.irregular_table(ex["labels"])
            loop = IrregularReduction(rt, ttable, name="mesh").bind(
                ia=[self.ia[e] for e in ex["edges"]],
                ib=[self.ib[e] for e in ex["edges"]])
            loop.setup()
            full = loop.adapt("ib", new_ib)
            if not _schedules_equal(full, repaired):
                problems.append("delta-repaired schedule differs from a "
                                "full rebuild")
        return problems


# ----------------------------------------------------------------------
# served_programs — mini-Fortran-D jobs through ProgramServer
# ----------------------------------------------------------------------
FIGURE8 = """
      REAL x({n}), y({n})
      INTEGER ia({e}), ib({e})
C$ DECOMPOSITION reg({n})
C$ DISTRIBUTE reg(BLOCK)
C$ ALIGN x, y WITH reg
      FORALL i = 1, {e}
        REDUCE(SUM, x(ia(i)), y(ib(i)))
      END DO
"""

FIGURE10 = """
      REAL*8 x({n}), y({n}), dx({n}), dy({n})
      INTEGER map({n}), jnb({e}), inblo({n1})
C$ DECOMPOSITION reg({n})
C$ DISTRIBUTE reg(BLOCK)
C$ ALIGN x, y, dx, dy WITH reg
C$ DISTRIBUTE reg(map)
L1:   FORALL i = 1, {n}
        FORALL j = inblo(i), inblo(i+1) - 1
          REDUCE (SUM, dx(jnb(j)), x(jnb(j)) - x(i))
          REDUCE (SUM, dy(jnb(j)), y(jnb(j)) - y(i))
          REDUCE (SUM, dx(i), x(i) - x(jnb(j)))
          REDUCE (SUM, dy(i), y(i) - y(jnb(j)))
        END DO
      END DO
"""


@dataclass(kw_only=True)
class BenchJob(JobSpec):
    """A mini-Fortran-D job; with ``new_jnb`` it is an adapt job that
    regenerates its non-bonded list and runs the loop again.

    The result carries the fetched arrays and the job machine's load
    balance.  ``tracer``/``trace_op``/``trace_parent`` join the job's
    worker-thread spans to the op span its client records.
    """

    source: str
    bindings: dict[str, Any]
    fetch: tuple[str, ...]
    new_jnb: np.ndarray | None = None
    tracer: Any = field(default=None, repr=False, compare=False)
    trace_op: int = 0
    trace_parent: int = 0

    @property
    def adapt(self) -> bool:
        return self.new_jnb is not None

    def run(self, ctx, control) -> dict:
        if self.tracer is None:
            return self._run(ctx, control)
        with self.tracer.adopt("serve.job_run", self.trace_op,
                               self.trace_parent):
            return self._run(ctx, control)

    def _run(self, ctx, control) -> dict:
        control.check()
        compiled = program.compile_program(self.source)
        inst = program.ProgramInstance(
            compiled, ctx, {k: v.copy() for k, v in self.bindings.items()})
        control.check()
        inst.execute()
        if self.adapt:
            inst.set_array("jnb", self.new_jnb.copy())
            inst.run_loop(compiled.loop_ids()[0])
        out = {n: np.asarray(inst.get_array(n)) for n in self.fetch}
        out["load_balance"] = load_balance_index(
            ctx.clocks.category_times("compute"))
        return out

    def expected(self) -> dict:
        """The sequential interpreter's result for the same job."""
        compiled = program.compile_program(self.source)
        state = program.interpret_sequential(compiled, self.bindings)
        if self.adapt:
            state["jnb"] = self.new_jnb
            state = program.interpret_sequential(compiled, state)
        return {n: state[n] for n in self.fetch}


class ServedPrograms(Workload):
    """Closed loop: two tenants each submit a job to
    ``ProgramServer(max_concurrency=1)`` and await its verdict before
    sending the next, so one tenant's job queues behind the other's.
    With two running jobs the GIL interleaves them on a 2-core host and
    the latency tail follows host noise (p90 spread 25-49% over ten
    seeds); one running job at a time keeps queue wait a measured,
    steady part of the latency.  The jobs are a seeded mix of the Figure-8 edge
    loop, the Figure-10 non-bonded loop, and Figure-10 with one list
    regeneration (the adapt op) on small inputs.  Integer-valued data
    keep every sum exact, so results compare bitwise with the
    sequential interpreter."""

    name = "served_programs"
    #: jobs per tenant per episode
    episode_ops = {"full": 24, "tiny": 6}
    min_episodes = {"full": 4, "tiny": 2}
    oracle_steps = {"full": 12, "tiny": 6}
    tenants = 2
    job_ranks = 4
    #: every this many jobs, the sample compared with run_job_inline
    sample_every = 4

    def generate(self) -> None:
        full = self.size == "full"
        rng = np.random.default_rng(self.seed)
        # fixed shares (2:2:1) in a seeded order, so every seed runs the
        # same mix; each tenant opens with a Figure-8 job, so set-up
        # (server start to first verdict) times the same kind of job
        n_adapt = self.n_ops // 5
        n_fig8 = (self.n_ops - n_adapt) // 2
        rest = (["fig8"] * (n_fig8 - 1) + ["fig10_adapt"] * n_adapt
                + ["fig10"] * (self.n_ops - n_adapt - n_fig8))
        self.jobs = [
            [self._job(rng, kind, t, full)
             for kind in ["fig8", *rng.permutation(rest)]]
            for t in range(self.tenants)
        ]

    def _job(self, rng, kind: str, tenant: int, full: bool) -> BenchJob:
        common = dict(tenant=f"t{tenant}", n_ranks=self.job_ranks,
                      backend=self.backend,
                      seed=int(rng.integers(1 << 30)))
        vals = lambda n: rng.integers(-4, 5, n).astype(np.float64)  # noqa
        if kind == "fig8":
            n, e = (400, 1600) if full else (40, 160)
            return BenchJob(
                name="fig8", source=FIGURE8.format(n=n, e=e), fetch=("x",),
                bindings=dict(x=vals(n), y=vals(n),
                              ia=rng.integers(1, n + 1, e),
                              ib=rng.integers(1, n + 1, e)),
                **common)
        n, deg = (150, 12) if full else (30, 4)
        rows = rng.integers(0, deg, n)
        inblo = np.ones(n + 1, dtype=np.int64)
        inblo[1:] = 1 + np.cumsum(rows)
        e = int(rows.sum())
        jnb = rng.integers(1, n + 1, e)
        new_jnb = None
        if kind == "fig10_adapt":
            new_jnb = jnb.copy()
            moved = rng.choice(e, max(1, e // 10), replace=False)
            new_jnb[moved] = rng.integers(1, n + 1, moved.size)
        coords = rng.random((n, 3))
        return BenchJob(
            name=str(kind),
            source=FIGURE10.format(n=n, e=e, n1=n + 1),
            fetch=("dx", "dy"),
            bindings=dict(x=vals(n), y=vals(n), dx=np.zeros(n),
                          dy=np.zeros(n), jnb=jnb, inblo=inblo,
                          map=RCB().partition(coords, self.job_ranks).labels),
            new_jnb=new_jnb, **common)

    def episode(self, tracer=None) -> Episode:
        return asyncio.run(self._fleet(tracer))

    async def _fleet(self, tracer) -> Episode:
        done = []    # (tenant, index, adapt, latency_ns, verdict)
        t_start = perf_counter_ns()
        server = ProgramServer(ServerConfig(
            max_concurrency=1, per_tenant=1,
            queue_limit=2 * self.tenants))

        async def tenant(t):
            for i, spec in enumerate(self.jobs[t]):
                op_id = next(self._op_ids)
                sid = tracer.new_id() if tracer else 0
                spec = dataclasses.replace(spec, tracer=tracer,
                                           trace_op=op_id, trace_parent=sid)
                t0 = perf_counter_ns()
                verdict = await (await server.submit(spec)).wait()
                t1 = perf_counter_ns()
                if tracer:
                    tracer.record(sid, "serve.adapt" if spec.adapt
                                  else "serve.op", t0, t1, None, op_id)
                done.append((t, i, spec.adapt, t0, t1, verdict))

        try:
            await asyncio.gather(*(tenant(t) for t in range(self.tenants)))
        finally:
            t_drain = perf_counter_ns()
            await server.close()
            drain_s = (perf_counter_ns() - t_drain) / 1e9
        # the first verdict ends set-up; the jobs after it are the ops
        first = done[0]
        setup_s = (first[4] - t_start) / 1e9
        ops = [("adapt" if a else "op", (t1 - t0) / 1e9)
               for _, _, a, t0, t1, _ in done[1:]]
        # job order, not completion order, so float sums repeat exactly
        verdicts = dict(sorted(((t, i), v) for t, i, _, _, _, v in done))
        state = {key: (v.status.value, v.result)
                 for key, v in verdicts.items()}
        n_jobs = len(done)
        tr = [v.stats.get("traffic", {}) for v in verdicts.values()]
        cache = [v.stats.get("cache", {}) for v in verdicts.values()]
        ok = [v for v in verdicts.values() if v.ok]
        total = lambda rows, k: sum(r.get(k, 0) for r in rows)  # noqa
        counts = {
            "sim.messages_per_op": total(tr, "n_messages") / n_jobs,
            "sim.bytes_per_op": total(tr, "total_bytes") / n_jobs,
            "sim.virtual_s_per_op": sum(
                v.stats["clock"]["execution"] for v in ok) / n_jobs,
            "sim.load_balance": float(np.mean(
                [v.result["load_balance"] for v in ok])) if ok else 0.0,
            **_reuse_counts(total(cache, "hits"), total(cache, "builds"),
                            total(cache, "delta_rebuilds"),
                            total(cache, "resident_bytes")),
        }
        extra = {
            "failed": sum(not v.ok for v in verdicts.values()),
            "timed_ops": len(ops),
            "timed_wall_s": (done[-1][4] - first[4]) / 1e9,
            "drain_s": drain_s,
            "jobs": [((t1 - t0) / 1e9, v.started_at - v.submitted_at,
                      v.finished_at - v.started_at)
                     for _, _, _, t0, t1, v in done[1:]],
        }
        return Episode(setup_s, ops, state, counts, extra=extra)

    def oracle(self):
        """Solo runs (``run_job_inline``) of the sampled jobs."""
        solo = {}
        for t in range(self.tenants):
            for i in range(0, self.n_ops, self.sample_every):
                spec = self.jobs[t][i]
                t0 = perf_counter()
                solo[(t, i)] = run_job_inline(spec)
                yield None if spec.adapt else perf_counter() - t0
        return solo

    def compare(self, first: Episode, solos) -> list[str]:
        problems = []
        bad = [k for k, (status, _) in first.state.items() if status != "done"]
        if bad:
            problems.append(f"{len(bad)} verdicts were not DONE, first "
                            f"{bad[0]}")
        for (t, i), solo in solos.items():
            spec = self.jobs[t][i]
            status, served = first.state[(t, i)]
            if status == "done" and not states_equal(served, solo):
                problems.append(f"job {t}/{i} served result differs "
                                "from run_job_inline")
            want = spec.expected()
            if not all(np.array_equal(solo[k], want[k]) for k in want):
                problems.append(f"job {t}/{i} result differs from the "
                                "sequential interpreter")
        return problems


WORKLOADS = {w.name: w for w in (CharmmMD, DsmcPlume, MeshAdapt,
                                 ServedPrograms)}
