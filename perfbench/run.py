#!/usr/bin/env python3
"""Build the perfbench program from source and run it.

Run from the repository root; every argument is passed on, e.g.

    python3 perfbench/run.py --workload fig6-local --seed 42 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 7

The Go build cache, the binary and the benchmark's scratch files all live
under .bench_build/ in the repository root, so nothing is written outside
it; the program runs with the same Go environment, because traced runs
call `go tool pprof`. A failed build exits non-zero without printing a
result line.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def main():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOMODCACHE=os.path.join(BUILD, "gomodcache"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        # The go command keeps its env file and telemetry under the user
        # config directory; point that inside the build directory too.
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        HOME=os.path.join(BUILD, "home"),
        GOFLAGS="-mod=mod",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOSUMDB="off",
    )
    for d in ("gocache", "tmp", "config", "home", "bin"):
        os.makedirs(os.path.join(BUILD, d), exist_ok=True)
    binary = os.path.join(BUILD, "bin", "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        sys.exit(1)
    os.chdir(ROOT)
    os.execve(binary, [binary] + sys.argv[1:], env)


if __name__ == "__main__":
    main()
