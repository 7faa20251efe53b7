#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 42 --seconds 35 --trace 0

The Go build cache, the binary and everything the benchmark writes stay
under .bench_build/ in the checkout. Arguments are passed to the binary
unchanged; see perfbench/main.go for them. The exec time goes to the binary
in PERFBENCH_START_NS, so its set-up time starts at the exec. A failed
build exits non-zero without printing a result.
"""

import os
import subprocess
import sys
import time


def main() -> int:
    root = os.getcwd()
    src = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build")
    binary = os.path.join(build, "perfbench", "perfbench")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=tmp,
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="",
        GOWORK="off",
    )
    try:
        built = subprocess.run(
            ["go", "build", "-o", binary, "."],
            cwd=src,
            env=env,
            stdout=sys.stderr,
            stderr=sys.stderr,
        )
    except OSError as err:
        print(f"perfbench: cannot run go: {err}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    os.environ["PERFBENCH_START_NS"] = str(time.time_ns())
    os.execv(binary, [binary] + sys.argv[1:])
    return 1  # not reached


if __name__ == "__main__":
    sys.exit(main())
