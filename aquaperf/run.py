#!/usr/bin/env python3
"""Build the aquaperf benchmark from source and run it.

Run from the root of a checkout:

    python3 aquaperf/run.py --workload live-qos-read --seed 1 --seconds 10 --trace 0

The Go build cache, the binary, WAL files and span dumps all go under the
build directory: $CARGO_TARGET_DIR if set (relative to the current
directory), else .bench_build. Every other argument is passed to the
benchmark binary unchanged. A build failure (for instance outside a
checkout, where the aqua module next to this directory is missing) exits
non-zero without printing a result.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    os.makedirs(build, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOTMPDIR": os.path.join(build, "gotmp"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOMODCACHE": os.path.join(build, "gopath", "pkg", "mod"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOWORK": "off",
        "GOFLAGS": "",
    })
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(build, "aquaperf")
    try:
        built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                               stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"aquaperf: build failed: {e}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("aquaperf: build failed", file=sys.stderr)
        return 1
    args = [binary, "--work-dir", os.path.join(build, "work"),
            "--spans-dir", os.path.join(build, "spans")] + sys.argv[1:]
    sys.stdout.flush()
    os.execv(binary, args)


if __name__ == "__main__":
    sys.exit(main())
