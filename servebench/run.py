#!/usr/bin/env python3
"""Builds the serving benchmark from source and runs one workload.

    python3 servebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The vizquery library (src/) and the
servebench binary are built with CMake (Release) into .bench_build. The
binary's output files (the traced run's Chrome trace, one result file per
run) go to .servebench/.

The last line of stdout is the result object: correct, attempted, failed
and metrics. The line before it records the environment: workload, seed,
held-out seed, nproc, client threads, build type, git sha (when the tree is
a git checkout) and a digest of the sources that were built.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print("servebench: " + msg, file=sys.stderr, flush=True)


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no library sources under src/; cannot build")
        return None
    # The compiler's temporary files stay inside the build tree too.
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target",
                  "servebench"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True, env=env)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            log("build failed: " + " ".join(cmd))
            return None
    binary = os.path.join(out, "servebench")
    return binary if os.path.isfile(binary) else None


def source_digest():
    digest = hashlib.sha256()
    for top in ("src", "servebench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build(os.path.join(ROOT, ".bench_build"))
    if binary is None:
        return 1

    out_dir = os.path.join(ROOT, ".servebench")
    os.makedirs(os.path.join(out_dir, "results"), exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", out_dir]
    started = time.time()
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        log("servebench exited with code %d" % done.returncode)
        return done.returncode or 1
    env = json.loads(lines[-2])["env"]
    result = json.loads(lines[-1])
    env["git_sha"] = git_sha()
    env["source_sha"] = source_digest()
    env["run_s"] = round(time.time() - started, 3)

    name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    with open(os.path.join(out_dir, "results", name), "w") as f:
        json.dump({"env": env, "result": result}, f, indent=1)
    print(json.dumps({"env": env}))
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
