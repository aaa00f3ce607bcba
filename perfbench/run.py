#!/usr/bin/env python3
"""Build perfbench from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload tail-inproc --seed 1 --seconds 20 --trace 0

The Go build cache, the binary and every file a run writes stay under
.bench_build/ in the repository root. The last line of standard output is
the run's JSON result; see perfbench/README.md.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def main():
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOTMPDIR": os.path.join(BUILD, "tmp"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOMODCACHE": os.path.join(BUILD, "gopath", "pkg", "mod"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "",
        "GOWORK": "off",
        "TMPDIR": os.path.join(BUILD, "tmp"),
    })
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(BUILD, "perfbench")
    try:
        build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                               stdout=sys.stderr, stderr=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    sys.stdout.flush()
    args = [binary, "-workdir", BUILD] + sys.argv[1:]
    try:
        return subprocess.run(args, env=env, timeout=178).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
