"""Repeatability check: ten seeds per workload, one or two sets.

For every workload and end-to-end metric it prints the spread of the
ten values — the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of their median —
and, with two sets, how far the second set's median moved in the
metric's worse direction.  A spread above the metric's bound in
``BENCHMARK.json`` (``setup_s`` excepted) or a shift worse than the
bound fails the check; a spread above a third of the bound is flagged
as not yet steady.  Runs go one at a time so they do not compete for
cores.  From the root of the repository::

    python3 e2e_bench/repeat.py --workloads charmm_md,mesh_adapt --sets 2
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or not result.get("correct"):
        raise SystemExit(f"{workload} seed {seed} failed "
                         f"(exit {proc.returncode}):\n{proc.stdout[-2000:]}"
                         f"\n{proc.stderr[-2000:]}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--sets", type=int, choices=(1, 2), default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args(argv)

    metrics = {m["name"]: m for m in spec["end_to_end"]}
    failed = False
    record = {}
    for workload in args.workloads.split(","):
        sets = []
        for s in range(args.sets):
            seeds = range(100 * s + 1, 100 * s + 1 + args.seeds)
            runs = [run_once(workload, seed, args.seconds, 0)
                    for seed in seeds]
            sets.append(runs)
            print(f"{workload} set {s + 1}: {len(runs)} runs", flush=True)
        record[workload] = sets
        for name, m in metrics.items():
            bound = m["bound"]
            cols = []
            for runs in sets:
                values = [r[name] for r in runs]
                sp = spread(values)
                steady = sp <= bound / 3
                if sp > bound and name != "setup_s":
                    failed = True
                cols.append(f"median {statistics.median(values):.5g} "
                            f"spread {sp:6.1%}{'' if steady else ' !'}")
            if len(sets) == 2:
                m1, m2 = (statistics.median(r[name] for r in runs)
                          for runs in sets)
                worse = (m2 - m1) / m1 if m["better"] == "lower" \
                    else (m1 - m2) / m1
                failed |= worse > bound
                cols.append(f"shift {worse:+6.1%} (bound {bound:.0%})")
            print(f"  {name:18s} " + " | ".join(cols))
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / "repeat.json").write_text(json.dumps(record, indent=1))
    print("FAIL" if failed else "OK")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
