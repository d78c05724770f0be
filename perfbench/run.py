#!/usr/bin/env python3
"""Build the simulator benchmark from this checkout and run it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout.  The benchmark and the simulator
library it drives are built from source with CMake (Release) into
.bench_build/ at the checkout root; build output goes to stderr, so
the last line of stdout is the benchmark's result object.  The
workloads and metrics are described in perfbench/metrics.json.

--selftest replays a tiny instance of every workload with and without
the timing decorators and checks that the output digests and decorator
counts agree, and that the metrics the binary prints are the ones
BENCHMARK.json and perfbench/metrics.json list.
"""

import hashlib
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "perfbench")


def build():
    subprocess.run(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "--parallel", jobs],
                   stdout=sys.stderr, check=True)


def source_id():
    """The git commit when the checkout is a repository, else a hash
    of the simulator sources (the benchmark's own checkout is not)."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30)
            if out.returncode == 0:
                return "git:" + out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(ROOT, "src")):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def selftest():
    code = subprocess.run([BINARY, "--selftest"]).returncode
    listed = subprocess.run([BINARY, "--list-metrics"], capture_output=True,
                            text=True, check=True).stdout.split("\n")
    printed = {tuple(line.split()) for line in listed if line}
    for path in ("BENCHMARK.json", "perfbench/metrics.json"):
        with open(os.path.join(ROOT, path)) as f:
            spec = json.load(f)
        declared = {(kind, m["name"], m["unit"])
                    for kind in ("end_to_end", "per_layer")
                    for m in spec[kind]}
        if printed != declared:
            print("%s: metrics printed but not listed: %s; listed but not "
                  "printed: %s" % (path, sorted(printed - declared),
                                   sorted(declared - printed)))
            code = 1
    return code


def main():
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 1
    if sys.argv[1:] == ["--selftest"]:
        return selftest()
    return subprocess.run([BINARY] + sys.argv[1:] +
                          ["--commit", source_id()]).returncode


if __name__ == "__main__":
    sys.exit(main())
