#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Configures and builds perfbench/ (which
pulls in the repository's own sources for the vcal library and the vcalc
binary) as a Release build under $CARGO_TARGET_DIR (default .bench_build),
records the environment, then runs one workload in a private scratch
directory that is removed at exit. The last line of stdout is the JSON
result; everything else goes to stderr. See perfbench/README.md.
"""
import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys

WORKLOADS = ("stencil", "remap", "serve_mix", "cli")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def sources_present():
    return all(os.path.isfile(p) for p in
               ("CMakeLists.txt", "src/CMakeLists.txt", "tools/vcalc.cpp"))


def build(build_dir):
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", "perfbench", "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs,
                    "--target", "perfbench", "vcalc"],
                   stdout=sys.stderr, check=True)


def cmake_cache(build_dir, key):
    with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith(key + ":"):
                return line.split("=", 1)[1].strip()
    return ""


def source_digest():
    """The commit when the checkout is a git work tree, else a digest of
    the sources the benchmark builds."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for root in ("src", "tools", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(path.encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "sources-sha256:" + h.hexdigest()[:16]


def environment(build_dir, seed):
    cxx = cmake_cache(build_dir, "CMAKE_CXX_COMPILER")
    version = subprocess.run([cxx, "--version"], capture_output=True,
                             text=True).stdout.splitlines()
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    build_type = cmake_cache(build_dir, "CMAKE_BUILD_TYPE")
    return {
        "nproc": os.cpu_count(),
        "compiler": version[0] if version else cxx,
        "build_type": build_type,
        "release": build_type == "Release",
        "cpu": cpu,
        "omp": {k: v for k, v in os.environ.items() if k.startswith("OMP_")},
        "commit": source_digest(),
        "seed": seed,
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not sources_present():
        log("run from the repository root: no vcal sources here")
        return 2

    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, "perfbench")
    # Compilers and the program write temporaries under TMPDIR: keep them
    # inside the checkout.
    os.makedirs(os.path.join(root, "tmp"), exist_ok=True)
    os.environ["TMPDIR"] = os.path.abspath(os.path.join(root, "tmp"))
    build(build_dir)

    env_record = environment(build_dir, args.seed)
    if not env_record["release"]:
        log(f"WARNING: {env_record['build_type'] or 'untyped'} build, "
            "timings are not comparable with Release")
    log("environment " + json.dumps(env_record, sort_keys=True))
    with open(os.path.join(build_dir, f"env-{args.workload}-{args.seed}.json"), "w") as f:
        json.dump(env_record, f, indent=2, sort_keys=True)

    # Relative paths keep the UNIX socket paths of the server and the
    # proc channels short wherever the checkout lives.
    work = os.path.join(root, f"run-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(os.path.join(work, "tmp"))
    child_env = dict(os.environ, TMPDIR=os.path.abspath(os.path.join(work, "tmp")))
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--vcalc", os.path.join(build_dir, "vcal", "tools", "vcalc"),
           "--work", work,
           "--spans", os.path.join(build_dir, f"spans-{args.workload}-{args.seed}.json")]
    try:
        proc = subprocess.Popen(cmd, env=child_env)
        try:
            return proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            log(f"timed out after {RUN_TIMEOUT_S} s")
            return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
