#!/usr/bin/env python3
"""Fast self-test of the end-to-end benchmark.

Usage, from the root of a checkout:

    python3 e2ebench/selftest.py

Runs one short pass of every workload under the default and the
confirmation seed, and one short traced pass of each. Asserts that each
result line names exactly the metrics BENCHMARK.json lists, that no
request failed (failed_ratio 0), and that a run fed a deliberately
corrupted reference exits non-zero without reporting a correct result.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LAYERS = json.loads((HERE / "layers.json").read_text())
SEEDS = (LAYERS["default_seed"], LAYERS["confirmation_seed"])
SECONDS = "1"


def run(workload, seed, trace, *extra):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", SECONDS, "--trace", str(trace),
           *extra]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)


def result_line(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []

    def check(label, proc, names):
        if proc.returncode != 0:
            problems.append(f"{label}: exit {proc.returncode}: "
                            f"{proc.stderr.strip()[-500:]}")
            return
        res = result_line(proc)
        if set(res) != {"correct", "attempted", "failed", "metrics"}:
            problems.append(f"{label}: result keys {sorted(res)}")
            return
        if not res["correct"] or res["failed"] != 0 or res["attempted"] < 1:
            problems.append(f"{label}: correct={res['correct']} "
                            f"failed={res['failed']}")
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        if got != names:
            problems.append(f"{label}: metrics {sorted(got)} != "
                            f"{sorted(names)}")
        if "ok_ratio" in res["metrics"] and \
                res["metrics"]["ok_ratio"]["value"] != 1:
            problems.append(f"{label}: failed_ratio is not 0")
        print(f"ok  {label}: {res['attempted']} requests", flush=True)

    for w in spec["workloads"]:
        name = w["name"]
        for seed in SEEDS:
            check(f"{name} seed {seed}", run(name, seed, 0), e2e)
        check(f"{name} traced", run(name, SEEDS[0], 1), layers)

    for name in ("shards2", "daemon_edit"):
        proc = run(name, SEEDS[0], 0, "--corrupt-reference")
        res = result_line(proc) if proc.returncode == 0 else None
        if proc.returncode == 0 or (res and res.get("correct")):
            problems.append(f"{name}: a corrupted reference went unnoticed")
        else:
            print(f"ok  {name}: corrupted reference fails "
                  f"(exit {proc.returncode})", flush=True)

    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
