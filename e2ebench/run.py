#!/usr/bin/env python3
"""End-to-end checker benchmark: build from source, run workloads.

Usage, from the root of a checkout:

    python3 e2ebench/run.py --workload shards2 --seed 1 --seconds 33 --trace 0
    python3 e2ebench/run.py --workload all          # every workload in turn

Builds e2ebench/ (which pulls in ../src) as a Release CMake project in
$CARGO_TARGET_DIR/e2ebench, or .bench_build/e2ebench when that is unset,
then runs the e2e_bench program. Its stdout passes through unchanged; the
last line is the result object (correct, attempted, failed, metrics).
Build output goes to stderr. Exits non-zero, without a result line, when
the sources or the toolchain are missing or the run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("shards2", "protocol_cache_j2", "daemon_edit")
DEFAULT_SEED = json.loads((HERE / "layers.json").read_text())["default_seed"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
# At most two busy threads on a shared 4-core host.
BUILD_JOBS = "2"


def build_dir() -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "e2ebench"


def build(bdir: Path) -> None:
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"e2ebench: no program sources under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        sys.exit("e2ebench: cmake not found")
    if not (bdir / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(bdir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", str(bdir), "-j", BUILD_JOBS,
                    "--target", "e2e_bench", "mccheck"],
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=33)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="flip the references (self-test: must fail)")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    bdir = build_dir()
    try:
        build(bdir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        print(f"e2ebench: build failed: {e}", file=sys.stderr)
        return 2

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    worst = 0
    for workload in workloads:
        cmd = [str(bdir / "e2e_bench"),
               "--workload", workload,
               "--seed", str(args.seed),
               "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--mccheck", str(bdir / "mc_src" / "driver" / "mccheck"),
               "--workdir", str(bdir / "work"),
               "--expected", str(HERE / "expected_daemon_edit.json")]
        if args.corrupt_reference:
            cmd.append("--corrupt-reference")
        sys.stdout.flush()
        try:
            rc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            print(f"e2ebench: {workload} exceeded {RUN_TIMEOUT_S} s",
                  file=sys.stderr)
            rc = 3
        worst = max(worst, rc)
    return worst


if __name__ == "__main__":
    sys.exit(main())
