#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py                                     # trace 0 only
    python3 bench/spread.py --label <commit> --out bench/baseline.json

It runs every workload on seeds 1..10.  For each end-to-end metric it prints
the median of the 10 runs and the distance between their first and third
quartiles as a share of the median (statistics.quantiles, n=4), next to the
bound in BENCHMARK.json; the exit status is 1 if a spread reaches a third of
its bound.  The raw times that run.py prints beside its result get the same
summary.  With --out it also makes traced runs on seeds 1 and 2 and writes
the medians, spreads, layer split and environment to a JSON file.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)
TRACE_SEEDS = (1, 2)
SPLIT = ("incidence.self_s", "triangles.self_s", "bounds.self_s",
         "pointfile.parse_s", "cli.self_s")


def run_once(spec: dict, workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """The result of one run, and the raw times printed on its "raw" line."""
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    if cmd[0] == "python3":
        cmd[0] = sys.executable
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect output\n{proc.stderr}")
    raw = next((json.loads(l[4:]) for l in lines if l.startswith("raw ")), {})
    return result, raw


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "runs": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", default="", help="commit the figures belong to")
    ap.add_argument("--out", help="write a baseline JSON file here")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    baseline = {
        "label": args.label,
        "environment": {"nproc": os.cpu_count(), "python": platform.python_version(),
                        "machine": platform.machine(), "system": platform.system()},
        "run_seconds": spec["run_seconds"],
        "seeds": list(SEEDS),
        "workloads": {},
    }
    steady = True
    for w in spec["workloads"]:
        name = w["name"]
        runs, raws = zip(*(run_once(spec, name, seed, 0) for seed in SEEDS))
        entry = {"why": w["why"],
                 "attempted": sum(r["attempted"] for r in runs),
                 "failed": sum(r["failed"] for r in runs),
                 "end_to_end": {}, "raw": {}}
        print(f"{name}: {entry['attempted']} commands, {entry['failed']} failed")
        for metric, m in bounds.items():
            s = summarize([r["metrics"][metric]["value"] for r in runs])
            entry["end_to_end"][metric] = {"unit": m["unit"], **s}
            mark = "ok"
            if s["spread"] >= m["bound"] / 3:
                mark, steady = "WIDE", False
            print(f"  {metric:<12} median {s['median']:<12.6g} spread {s['spread']:.3f}"
                  f"  bound {m['bound']}  {mark}  runs "
                  + " ".join(f"{v:.4g}" for v in s["runs"]))
        for metric in raws[0]:
            s = summarize([r[metric]["value"] for r in raws])
            entry["raw"][metric] = {"unit": raws[0][metric]["unit"], **s}
            print(f"  {metric:<12} median {s['median']:<12.6g} spread {s['spread']:.3f}"
                  "  (raw, no bound)")
        if args.out:
            traced = [run_once(spec, name, seed, 1)[0]["metrics"] for seed in TRACE_SEEDS]
            layer = {k: {"value": statistics.median(t[k]["value"] for t in traced),
                         "unit": traced[0][k]["unit"]} for k in traced[0]}
            total = sum(layer[k]["value"] for k in SPLIT)
            entry["per_layer"] = layer
            entry["layer_split"] = {k: layer[k]["value"] / total for k in SPLIT}
            print("  split " + "  ".join(f"{k} {v:.1%}" for k, v in entry["layer_split"].items()))
        baseline["workloads"][name] = entry
    if args.out:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracing import PER_LAYER
        baseline["per_layer_moves"] = {name: [{"metric": e2e, "workload": w} for e2e, w in moves]
                                       for name, (_, _, moves) in PER_LAYER.items()}
        Path(args.out).write_text(json.dumps(baseline, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
