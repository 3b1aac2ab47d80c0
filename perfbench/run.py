#!/usr/bin/env python3
"""Build hbmvolt's benchmark from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep-cold --seed 1 --seconds 20 --trace 0

Everything the build and the run write stays under .bench_build/ in the
current directory (Go build cache, binary, scratch files, span dumps).
The last line of standard output is the benchmark's JSON result; the
exit code is the benchmark's (non-zero if the build fails or any output
is wrong).
"""
import os
import signal
import subprocess
import sys
import time


def main():
    root = os.getcwd()
    src = os.path.dirname(os.path.abspath(__file__))
    out = os.path.join(root, ".bench_build")
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(out, "gocache"),
        GOMODCACHE=os.path.join(out, "gomodcache"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
        GOFLAGS="",
        CGO_ENABLED="0",
    )
    binary = os.path.join(out, "perfbench")
    # Build output goes to stderr: stdout's last line is the result.
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=src, env=env,
                           stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1

    child = subprocess.Popen([binary, *sys.argv[1:]], cwd=root, env=env)

    # A stop signal is passed on: the benchmark stops its own children
    # and exits. One that has not exited 10 s later is killed.
    stopping = []

    def stop(signum, _frame):
        stopping.append(time.monotonic())
        child.send_signal(signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    while True:
        try:
            return child.wait(timeout=1)
        except subprocess.TimeoutExpired:
            if stopping and time.monotonic() - stopping[0] > 10:
                child.kill()


if __name__ == "__main__":
    sys.exit(main())
