#!/usr/bin/env python3
"""Build the programs and run one benchmark run of one workload.

    python3 perfbench/run.py --workload serve_2k --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout. The first call configures and
builds crh_cli, crh_serve and the load generator into .bench_build (or
$CARGO_TARGET_DIR when set); later calls rebuild only what changed. The
last line of standard output is the run's JSON result. See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import os
import signal
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("serve_2k", "serve_200k", "batch_crh", "batch_parallel")
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(root, build_dir):
    log_path = build_dir / "build.log"
    build_dir.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    # Configuring every time is cheap once cached, and picks up build-file
    # changes before the targets are named.
    steps = [["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", str(build_dir), "-j", jobs, "--target",
              "perfbench_loadgen", "crh_cli", "crh_serve"]]
    with open(log_path, "a") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                tail = log_path.read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed; see {log_path}")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "CMakeLists.txt").is_file():
        fail(f"no program sources under {root / 'src'}; run from a source checkout")
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = root / build_dir
    build(root, build_dir)

    work_dir = build_dir / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    trace_dir = build_dir / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    command = [str(build_dir / "perfbench_loadgen"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--bin-dir", str(build_dir / "crh" / "src"), "--work-dir", str(work_dir),
               "--trace-file", str(trace_dir / f"{args.workload}-{args.seed}.json")]
    # Its own process group, so a timeout also stops every daemon and CLI
    # process the load generator started.
    loadgen = subprocess.Popen(command, start_new_session=True)
    try:
        code = loadgen.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(loadgen.pid, signal.SIGKILL)
        loadgen.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S}s")
    sys.exit(code)


if __name__ == "__main__":
    main()
