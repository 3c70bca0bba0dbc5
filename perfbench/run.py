#!/usr/bin/env python3
"""Build and run the hcsim benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper_repro --seed 1 --seconds 20 --trace 0

The first run configures and builds perfbench (and the hcsim library it
links) into the build directory: $CARGO_TARGET_DIR when set, otherwise
.bench_build. Later runs rebuild only what changed. The last line of
standard output is the benchmark's JSON result; see perfbench/NOTES.md.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("paper_repro", "scale_1m", "fault_drills", "metadata_storm")


def build(build_dir):
    """Configure (once) and build the perfbench binary; return its path."""
    log = os.path.join(build_dir, "perfbench-build.log")
    os.makedirs(build_dir, exist_ok=True)
    steps = []
    # A configure step that failed leaves a cache but no build files.
    if not any(os.path.exists(os.path.join(build_dir, f)) for f in ("Makefile", "build.ninja")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench", "-j4"])
    # Keep the compiler's temporary files inside the build directory too.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT, env=env).returncode != 0:
                with open(log) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.exit("perfbench: build failed (log: %s)" % log)
    return os.path.join(build_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        sys.exit("perfbench: --seed must be >= 0 and --seconds >= 1")

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workloads", os.path.join(HERE, "workloads.json"),
           "--reference", os.path.join(HERE, "reference")]
    if args.trace:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(trace_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
