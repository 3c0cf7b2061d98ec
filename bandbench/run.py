#!/usr/bin/env python3
"""Build and run the band benchmark.

Run from the root of a checkout:

    python3 bandbench/run.py --workload default --seed 42 --seconds 20 --trace 0

The script builds the Go program in bandbench/ (a module of its own that
imports the repository's packages through a replace directive) into the
build directory, then runs it with the given arguments and passes its
output and exit code through. Every file the Go toolchain writes -- build
cache, module cache, telemetry -- stays inside the build directory, which
is $CARGO_TARGET_DIR when set and .bench_build otherwise.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def run(cmd, env, timeout):
    """Runs cmd to completion, killing it if it overruns timeout."""
    proc = subprocess.Popen(cmd, env=env)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"run.py: {cmd[0]} exceeded {timeout}s", file=sys.stderr)
        return 1


def main():
    root = os.getcwd()
    src = os.path.join(root, "bandbench")
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    out = os.path.join(build, "bandbench")
    os.makedirs(out, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(out, "gocache"),
        "GOMODCACHE": os.path.join(out, "gomodcache"),
        "GOPATH": os.path.join(out, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(out, "config"),
        "GOENV": "off",
        "GOFLAGS": "-mod=readonly",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
    })
    binary = os.path.join(out, "bandbench")
    code = run(["go", "-C", src, "build", "-o", binary, "."], env, BUILD_TIMEOUT_S)
    if code != 0:
        print("run.py: build failed", file=sys.stderr)
        return code
    args = sys.argv[1:]
    return run([binary] + args, env, RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
