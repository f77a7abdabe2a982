#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <market-scan|deep-flow|daemon-mix> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a full checkout. Builds the benchmark package
(perfbench/Cargo.toml) and the `flowdroid` CLI from source into
$CARGO_TARGET_DIR (default .bench_build), then runs the benchmark, whose
last stdout line is the JSON result. Build output goes to stderr.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Longest a single measured run may take before it is stopped.
RUN_TIMEOUT_S = 170


def main():
    if not (os.path.isfile(os.path.join(ROOT, "Cargo.toml"))
            and os.path.isdir(os.path.join(ROOT, "crates"))):
        sys.stderr.write("perfbench: no repository sources next to perfbench/; "
                         "run from a full checkout\n")
        return 2
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(ROOT, "Cargo.toml"), "-p", "flowdroid", "--bin", "flowdroid"],
    ]
    for cmd in builds:
        built = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if built.returncode != 0:
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            return 2
    release = os.path.join(target, "release")
    argv = [os.path.join(release, "perfbench")] + sys.argv[1:] + [
        "--flowdroid", os.path.join(release, "flowdroid"),
        # Relative, so Unix socket paths under it stay short.
        "--workdir", ".perfbench_work",
    ]
    # A session of its own, so a stuck run is stopped with every
    # process it started (the daemon child included).
    bench = subprocess.Popen(argv, cwd=ROOT, start_new_session=True)
    try:
        return bench.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s; stopped\n" % RUN_TIMEOUT_S)
        os.killpg(bench.pid, signal.SIGKILL)
        bench.wait()
        return 3


if __name__ == "__main__":
    sys.exit(main())
