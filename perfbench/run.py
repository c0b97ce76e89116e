#!/usr/bin/env python3
"""Builds and runs the ccsig pipeline benchmark.

    python3 perfbench/run.py --workload link10 --seed 1 --seconds 12 --trace 0

Run from the repository root. The first run configures and builds the
benchmark (perfbench/CMakeLists.txt: the library sources under src/ plus
the benchmark binary) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that is unset; later runs only rebuild what
changed. Build output goes to stderr. The binary then runs in a scratch
directory next to the build, and its standard output — notes, then one JSON line — is passed
through unchanged, as is its exit status. Afterwards only the span trace
of a --trace 1 run is kept in that directory.
"""
import os
import shutil
import subprocess
import sys


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                         "perfbench")
    build = os.path.join(root, build)
    jobs = str(min(4, os.cpu_count() or 1))
    configure = ["cmake", "-S", here, "-B", build, "-DCMAKE_BUILD_TYPE=Release"]
    compile_ = ["cmake", "--build", build, "-j", jobs, "--target",
                "pipeline_bench"]
    for cmd in ([] if os.path.exists(os.path.join(build, "CMakeCache.txt"))
                else [configure]) + [compile_]:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 3

    # Scratch files (captures, verdict logs, the verdict socket, traces)
    # live in one directory per run; the relative socket path stays short.
    work = os.path.join(build, "work")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    binary = os.path.join(build, "pipeline_bench")
    done = subprocess.run([binary] + sys.argv[1:], cwd=work)
    # Keep only the span traces; the captures run to hundreds of MB.
    for name in os.listdir(work):
        if not name.endswith(".json"):
            os.remove(os.path.join(work, name))
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
