#!/usr/bin/env python3
"""Build and run dacsim's host-performance benchmark (see README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Builds this directory's CMake package, which compiles the simulator from
../src, into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench
under the repository root), then runs the benchmark in place of this
script. Build output goes to stderr; the last line on stdout is the JSON
result. --self-test builds and runs the benchmark's own tests instead.
"""

import os
import subprocess
import sys


def build(here, build_dir, target):
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", here, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target", target,
                    "-j", str(os.cpu_count() or 2)],
                   stdout=sys.stderr, check=True)


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                 or os.path.join(root, ".bench_build"))
    if not os.path.isfile(os.path.join(root, "src", "harness", "runner.h")):
        print("perfbench: simulator sources not found in src/",
              file=sys.stderr)
        return 2
    # Relative paths keep the service's unix socket path short.
    os.chdir(root)
    build_dir = os.path.relpath(os.path.join(target_dir, "perfbench"))
    out_dir = os.path.relpath(os.path.join(target_dir, "perfbench-out"))
    digests = os.path.relpath(os.path.join(here, "pinned_digests.tsv"))

    self_test = sys.argv[1:] == ["--self-test"]
    try:
        build(here, build_dir,
              "perfbench_tests" if self_test else "perfbench")
    except (OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 1
    if self_test:
        return subprocess.run(["ctest", "--output-on-failure"],
                              cwd=build_dir).returncode
    exe = os.path.join(build_dir, "perfbench")
    os.execv(exe, [exe] + sys.argv[1:] +
             ["--digests", digests, "--out", out_dir])


if __name__ == "__main__":
    sys.exit(main())
