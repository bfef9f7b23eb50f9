"""Smoke tests of the benchmark at its tiny size.

Run from the root of the repository::

    python3 -m pytest e2e_bench/tests -q
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from conftest import BENCH
from layers import trace_sites
from run import EXACT, repeat_problems
from tracing import Tracer, check_tree, per_op, self_times
from workloads import WORKLOADS

ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def run_bench(tmp_path, workload, seed, trace, cwd=ROOT):
    cmd = [sys.executable, "e2e_bench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace),
           "--size", "tiny", "--out", str(tmp_path)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def test_workloads_match_spec():
    assert sorted(NAMES) == sorted(WORKLOADS)


@pytest.mark.parametrize("workload", NAMES)
def test_every_metric_emitted_with_unit(tmp_path, workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = run_bench(tmp_path, workload, 3, trace)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == want
        for v in result["metrics"].values():
            assert isinstance(v["value"], (int, float))


@pytest.mark.parametrize("workload", NAMES)
def test_seed_changes_inputs_not_metric_names(tmp_path, workload):
    def inputs(seed):
        wl = WORKLOADS[workload](seed, "tiny")
        return {k: v for k, v in vars(wl).items() if not k.startswith("_")}

    assert repr(inputs(1)) != repr(inputs(2))
    names = []
    for seed in (1, 2):
        proc = run_bench(tmp_path, workload, seed, 0)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        names.append(sorted(json.loads(
            proc.stdout.strip().splitlines()[-1])["metrics"]))
    assert names[0] == names[1]


@pytest.mark.parametrize("workload", NAMES)
def test_span_tree_well_formed(workload):
    wl = WORKLOADS[workload](5, "tiny")
    tracer = Tracer()
    with tracer.installed(trace_sites()):
        ep = wl.episode(tracer)
    assert check_tree(tracer.spans) == []
    assert all(t >= 0 for t in self_times(tracer.spans).values())
    ops = per_op(tracer.spans)
    # every op sample has a root span; served set-up is the first job
    assert len(ops) >= len(ep.ops)
    for o in ops.values():
        # the layer self times of an op add up to its wall time
        assert sum(o["self"].values()) == o["wall"]
        assert o["wall"] > 0
    layers_seen = {layer for o in ops.values() for layer, t in
                   o["self"].items() if t > 0}
    assert {"inspector", "executor", "sim"} <= layers_seen
    # executor spans carry the messages they sent
    assert sum(s.count for s in tracer.spans
               if s.name.startswith("executor.")) > 0
    # patches are gone after the block
    import repro.core.api as api
    assert not hasattr(api.gather, "__wrapped__")


@pytest.mark.parametrize("workload", NAMES)
def test_tracing_does_not_change_results(workload):
    wl = WORKLOADS[workload](7, "tiny")
    plain = wl.episode(None)
    tracer = Tracer()
    with tracer.installed(trace_sites()):
        traced = wl.episode(tracer)
    assert repeat_problems(plain, traced, 1) == []


@pytest.mark.parametrize("workload", NAMES)
def test_checks_catch_wrong_outputs(workload):
    wl = WORKLOADS[workload](2, "tiny")
    ep = wl.episode(None)
    assert wl.check(ep) == []

    def corrupt(state):
        if isinstance(state, np.ndarray):
            bad = state.copy()
            bad.flat[0] += 1
            return bad
        if isinstance(state, tuple):
            return (corrupt(state[0]),) + state[1:]
        if isinstance(state, dict):
            key = next(iter(state))
            status, result = state[key]
            return {**state, key: (status, {**result, "x" if "x" in result
                                            else "dx": np.zeros(1)})}
        raise TypeError(type(state))

    bad = replace(ep, state=corrupt(ep.state))
    assert wl.check(bad), "oracle check missed a corrupted output"
    assert repeat_problems(ep, bad, 1)
    drift = replace(ep, counts={**ep.counts, "sim.messages_per_op":
                                ep.counts["sim.messages_per_op"] + 1})
    problems = repeat_problems(ep, drift, 1)
    assert any("nondeterminism" in p for p in problems)
    assert set(EXACT) <= set(ep.counts)


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "e2e_bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(tmp_path / "out", "charmm_md", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
