"""End-to-end, layer-attributed benchmark of the CHAOS reproduction.

Run one workload from the root of the repository::

    python3 e2e_bench/run.py --workload charmm_md --seed 1 --seconds 12 \
        --trace 0

``--trace 0`` measures the end-to-end metrics with nothing patched.
``--trace 1`` alternates untraced episodes with traced ones and reports
the per-layer metrics from the traced episodes, plus the tracing
overhead.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the full
record (host context, sample counts, exact counts, problems) goes to
``e2e_bench/out/``.  The exit code is 0 only when every output check
passed.  See ``e2e_bench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

from tracing import LAYERS, Tracer, check_tree, per_op

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: end-to-end metrics (untraced runs) and their units
END_TO_END = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_p90_s": "s",
    "adapt_p50_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mib": "MiB",
}

#: exact counts of the simulated result: identical for one seed
EXACT = {
    "sim.messages_per_op": "count",
    "sim.bytes_per_op": "B",
    "sim.virtual_s_per_op": "virtual_s",   # simulated, not wall, time
    "sim.load_balance": "ratio",
    "reuse.hit_rate": "ratio",
    "reuse.builds": "count",
    "reuse.delta_rebuilds": "count",
    "reuse.resident_bytes": "B",
}

#: span names whose per-op time is reported as ``<name>_s``
TIMED_SPANS = (
    "apps.force_kernel", "apps.collide", "apps.nb_list",
    "inspector.hash", "inspector.schedule", "inspector.delta",
    "inspector.lightweight", "executor.append", "executor.pipeline",
    "executor.gather", "executor.scatter", "executor.remap",
    "plan.compile", "sim.charge", "partitioners.partition",
    "lang.compile", "lang.bind", "lang.execute",
)

#: per-layer metrics (traced runs) and their units
PER_LAYER = {
    # the sequential oracle on the same inputs: the plain single-process
    # baseline, reported beside op_p50_s but not gated (it times numpy
    # and the reference drivers, not the parallel runtime)
    "baseline.op_p50_s": "s",
    "apps.self_s": "s",
    **{f"{name}_s": "s" for name in TIMED_SPANS},
    "inspector.hash_refs": "count",
    "inspector.delta_refs": "count",
    "executor.calls": "count",
    "plan.compiles": "count",
    "plan.runs_per_compile": "ratio",
    "sim.charge_calls": "count",
    **EXACT,
    "serve.queue_wait_s": "s",
    "serve.run_s": "s",
    "serve.overhead_s": "s",
    "serve.failed": "count",
    "serve.drain_s": "s",
    **{f"{layer}.self_share": "ratio" for layer in LAYERS},
    "trace.accounted_frac": "ratio",
    "trace.overhead_frac": "ratio",
}

#: runs stop adding episodes after this long, samples or not
EPISODE_BUDGET_S = 120.0
#: non-adapt op samples a full-size run collects, so p90 has >= 10 beyond
MIN_OP_SAMPLES = 105


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny is the smoke size the benchmark's tests use")
    ap.add_argument("--backend", default="vectorized",
                    help="executor backend for ad-hoc comparisons")
    ap.add_argument("--out", default=str(HERE / "out"),
                    help="directory for the full record and the spans")
    return ap.parse_args(argv)


# ----------------------------------------------------------------------
# host context
# ----------------------------------------------------------------------
def calibrate() -> float:
    """Fixed pure-numpy kernel, median of 5, in ms: shows host drift
    between runs without being used to normalise any metric."""
    import numpy as np
    a = np.random.default_rng(12345).random(400_000)
    idx = (a * 1000).astype(np.int64)
    times = []
    for _ in range(5):
        t0 = perf_counter()
        np.sort(a)
        np.bincount(idx, weights=a, minlength=1000)
        times.append(perf_counter() - t0)
    return 1e3 * statistics.median(times)


def host_context(args) -> dict:
    import numpy as np
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "backend": args.backend,
        "seed": args.seed,
        "size": args.size,
    }


def source_digest() -> str:
    """Digest of the program and benchmark sources: exact counts are
    compared only between runs of identical code."""
    h = hashlib.sha1()
    files = sorted((ROOT / "src").rglob("*.py")) + sorted(HERE.glob("*.py"))
    for f in files:
        h.update(str(f.relative_to(ROOT)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()[:16]


# ----------------------------------------------------------------------
# episodes
# ----------------------------------------------------------------------
def run_episodes(wl, seconds: float, traced: bool):
    """Episodes until ``seconds`` have passed and the samples suffice.
    Traced runs alternate untraced and traced episodes."""
    from layers import trace_sites

    tracer = Tracer() if traced else None
    sites = trace_sites() if traced else None
    tiny = wl.size == "tiny"
    episodes = []
    t_start = perf_counter()
    while True:
        use_trace = traced and len(episodes) % 2 == 1
        if use_trace:
            with tracer.installed(sites):
                ep = wl.episode(tracer)
        else:
            ep = wl.episode(None)
        ep.traced = use_trace
        if episodes:
            # compare with the first episode now and drop the outputs, so
            # memory does not grow with the number of episodes
            ep.problems = repeat_problems(episodes[0], ep, len(episodes))
            ep.state = None
            ep.extra.pop("check", None)   # the oracle checks episode 0
        episodes.append(ep)
        wl.run_oracle()
        elapsed = perf_counter() - t_start
        if elapsed >= EPISODE_BUDGET_S:
            break
        if elapsed < seconds or len(episodes) < wl.min_episodes[wl.size]:
            continue
        if traced:
            if sum(e.traced for e in episodes) >= 2 or tiny:
                break
        elif tiny or sum(k == "op" for e in episodes
                         for k, _ in e.ops) >= MIN_OP_SAMPLES:
            break
    return episodes, tracer


def op_times(episodes, kind: str) -> list[float]:
    return [t for e in episodes for k, t in e.ops if k == kind]


def quantile(values, q: float) -> float:
    import numpy as np
    return float(np.quantile(np.asarray(values), q)) if values else 0.0


def end_to_end(episodes) -> tuple[dict, dict]:
    steady = op_times(episodes, "op")
    adapt = op_times(episodes, "adapt")
    if "timed_wall_s" in episodes[0].extra:
        n = sum(e.extra["timed_ops"] for e in episodes)
        wall = sum(e.extra["timed_wall_s"] for e in episodes)
    else:
        n = len(steady) + len(adapt)
        wall = sum(steady) + sum(adapt)
    metrics = {
        "setup_s": statistics.median(e.setup_s for e in episodes),
        "op_p50_s": quantile(steady, 0.5),
        "op_p90_s": quantile(steady, 0.9),
        "adapt_p50_s": quantile(adapt, 0.5),
        "ops_per_s": n / wall if wall > 0 else 0.0,
        "peak_rss_mib": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    samples = {"episodes": len(episodes), "setup": len(episodes),
               "op": len(steady), "adapt": len(adapt),
               "beyond_op_p90": sum(t > metrics["op_p90_s"] for t in steady)}
    return metrics, samples


def per_layer(episodes, tracer, baseline) -> dict:
    traced = [e for e in episodes if e.traced]
    plain = [e for e in episodes if not e.traced]
    ops = per_op(tracer.spans).values()

    def kind(o):
        return o["root"].rsplit(".", 1)[1]

    def select(name):
        """Ops that ran span ``name``: the non-setup ones, or the setup
        ones when only set-up runs it."""
        ran = [o for o in ops if o["calls"].get(name)]
        steady = [o for o in ran if kind(o) != "setup"]
        return steady or ran

    def med(values):
        return statistics.median(values) if values else 0.0

    m = {"baseline.op_p50_s": quantile(baseline, 0.5)}
    steady_ops = [o for o in ops if kind(o) != "setup"]
    m["apps.self_s"] = med([o["self"]["apps"] / 1e9 for o in steady_ops])
    for name in TIMED_SPANS:
        m[f"{name}_s"] = med([o["incl"][name] / 1e9 for o in select(name)])
    m["inspector.hash_refs"] = med(
        [o["count"]["inspector.hash"] for o in select("inspector.hash")])
    m["inspector.delta_refs"] = med(
        [o["count"]["inspector.delta"] for o in select("inspector.delta")])

    def executor_calls(o):
        return sum(c for n, c in o["calls"].items()
                   if n.startswith("executor."))

    m["executor.calls"] = med(
        [executor_calls(o) for o in steady_ops if executor_calls(o)])
    compiles = sum(o["count"]["plan.compile"] for o in ops) / len(traced)
    runs = sum(executor_calls(o) for o in ops) / len(traced)
    m["plan.compiles"] = compiles
    m["plan.runs_per_compile"] = runs / compiles if compiles else 0.0
    m["sim.charge_calls"] = med(
        [o["calls"]["sim.charge"] for o in select("sim.charge")])
    for k in EXACT:
        m[k] = traced[0].counts[k]

    jobs = [j for e in traced for j in e.extra.get("jobs", ())]
    m["serve.queue_wait_s"] = med([q for _, q, _ in jobs])
    m["serve.run_s"] = med([r for _, _, r in jobs])
    m["serve.overhead_s"] = med([lat - q - r for lat, q, r in jobs])
    m["serve.failed"] = sum(e.extra.get("failed", 0) for e in episodes)
    m["serve.drain_s"] = med([e.extra["drain_s"] for e in traced
                              if "drain_s" in e.extra])

    wall = sum(o["wall"] for o in ops)
    for layer in LAYERS:
        m[f"{layer}.self_share"] = sum(
            o["self"][layer] for o in ops) / wall
    m["trace.accounted_frac"] = sum(
        m[f"{layer}.self_share"] for layer in LAYERS)
    untraced_p50 = quantile(op_times(plain, "op"), 0.5)
    m["trace.overhead_frac"] = (
        quantile(op_times(traced, "op"), 0.5) / untraced_p50 - 1.0
        if untraced_p50 else 0.0)
    return m


# ----------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------
def repeat_problems(first, ep, i: int) -> list[str]:
    """Episode ``i`` must repeat the first bitwise: outputs and exact
    counts."""
    from workloads import states_equal

    problems = []
    diff = [k for k in EXACT if ep.counts[k] != first.counts[k]]
    if diff:
        problems.append(f"nondeterminism: episode {i} counts {diff} "
                        "differ from episode 0")
    if not states_equal(ep.state, first.state):
        problems.append(f"nondeterminism: episode {i} outputs differ "
                        "from episode 0")
    return problems


def count_guard(args, counts: dict) -> list[str]:
    """Runs of one seed on identical code must repeat the exact counts."""
    folder = Path(args.out) / "counts"
    folder.mkdir(parents=True, exist_ok=True)
    key = (f"{args.workload}-{args.size}-{args.backend}-seed{args.seed}"
           f"-{source_digest()}.json")
    path = folder / key
    if path.exists():
        before = json.loads(path.read_text())
        diff = [k for k in EXACT if before.get(k) != counts[k]]
        if diff:
            return [f"nondeterminism: counts {diff} differ from an earlier "
                    f"run of seed {args.seed} ({path.name})"]
        return []
    path.write_text(json.dumps({k: counts[k] for k in EXACT}, indent=1))
    return []


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources at {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    host = host_context(args)
    host["calibration_ms_before"] = calibrate()
    wl = WORKLOADS[args.workload](args.seed, args.size, args.backend)
    episodes, tracer = run_episodes(wl, args.seconds, bool(args.trace))
    host["calibration_ms_after"] = calibrate()

    oracle_problems = wl.check(episodes[0])
    problems = oracle_problems + [p for e in episodes for p in e.problems]
    problems += count_guard(args, episodes[0].counts)
    attempted = sum(len(e.ops) + 1 for e in episodes)
    spoiled = attempted if oracle_problems else sum(
        len(e.ops) + 1 for e in episodes if e.problems)
    spoiled += sum(e.extra.get("failed", 0) for e in episodes)
    failed = min(attempted, spoiled)

    e2e, samples = end_to_end(episodes)
    baseline = quantile(wl.baseline, 0.5)
    samples["baseline"] = len(wl.baseline)
    if args.trace:
        problems += check_tree(tracer.spans)[:5]
        values = per_layer(episodes, tracer, wl.baseline)
        units = PER_LAYER
    else:
        values, units = e2e, END_TO_END
    correct = not problems and failed == 0
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    record = {"host": host, "samples": samples, "end_to_end": e2e,
              "baseline.op_p50_s": baseline,
              "failed_frac": failed / attempted, "counts": episodes[0].counts,
              "problems": problems, "metrics": metrics}
    (out / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if tracer is not None:
        tracer.dump(out / f"{stem}.spans.jsonl.gz")

    print(f"{args.workload} seed={args.seed} size={args.size} "
          f"trace={args.trace}: {samples}")
    for k, v in metrics.items():
        print(f"  {k:32s} {v['value']:.6g} {v['unit']}")
    print(f"  {'sequential oracle op p50':32s} {baseline:.6g} s "
          "(baseline.op_p50_s)")
    for p in problems:
        print(f"  PROBLEM: {p}")
    print("host " + json.dumps(host))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
