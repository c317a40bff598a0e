#!/usr/bin/env python3
"""Builds the vpd library, the vpdd daemon and the perfbench program from the
sources of this checkout, then runs one benchmark workload.

    python3 perfbench/run.py --workload fault_nk --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; a run whose outputs fail
the correctness gate still prints it, then exits with 1. Other modes:

    --workload all   run every workload, each in its own process
    --self-test      run each workload twice with the same seed and check
                     that the deterministic counters and output digests
                     repeat exactly

See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

WORKLOADS = ["fault_nk", "sweep_fine", "droop_mix", "vpdd_mixed"]
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    """Configures (once) and builds the perfbench program and vpdd; returns paths."""
    for needed in ("src/CMakeLists.txt", "tools/vpdd.cpp"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail(f"{needed} not found: run from a full checkout")
    os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "build.log")
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out_dir, "-j", jobs,
                  "--target", "perfbench", "vpdd"])
    with open(log_path, "w") as log:
        for cmd in steps:
            done = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT)
            if done.returncode:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed (log: " + log_path + ")")
    return os.path.join(out_dir, "perfbench"), os.path.join(out_dir, "vpdd")


def source_id():
    """Git commit when available, plus a digest of the benchmarked sources."""
    commit = "none"
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True)
        if out.returncode == 0:
            commit = out.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return f"{commit}+src:{digest.hexdigest()[:12]}"


def run_one(binaries, workload, seed, seconds, trace, commit, capture):
    """Runs the perfbench program once; returns (exit code, stdout text or None)."""
    program, vpdd = binaries
    work_dir = os.path.join(os.path.dirname(program), "work")
    os.makedirs(work_dir, exist_ok=True)
    cmd = [program, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--vpdd", vpdd, "--work-dir", work_dir, "--commit", commit]
    # A session of its own, so that a timeout stops the program and any vpdd
    # it started together.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE if capture else None,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    return proc.returncode, out


def parse_output(text):
    lines = text.strip().splitlines()
    record = next((json.loads(l[len("record "):]) for l in lines
                   if l.startswith("record ")), None)
    return record, json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    binaries = build(build_dir())
    commit = source_id()

    def run_checked(name):
        """Runs one workload and returns its output. A run that exits
        non-zero (wrong outputs or an error) stops here, its output on
        stderr."""
        code, out = run_one(binaries, name, args.seed, args.seconds,
                            args.trace, commit, capture=True)
        if code != 0:
            sys.stderr.write(out or "")
            fail(f"{name} exited with {code}")
        return out

    if args.self_test:
        names = WORKLOADS if args.workload == "all" else [args.workload]
        ok = True
        for name in names:
            rec_a, _ = parse_output(run_checked(name))
            rec_b, _ = parse_output(run_checked(name))
            same = rec_a["deterministic"] == rec_b["deterministic"]
            ok = ok and same
            print(f"{name:12s} deterministic counters "
                  f"{'repeat' if same else 'DIFFER'}; outputs correct")
            if not same:
                print(json.dumps(rec_a["deterministic"]))
                print(json.dumps(rec_b["deterministic"]))
        print(json.dumps({"self_test": "pass" if ok else "fail"}))
        sys.exit(0 if ok else 1)

    if args.workload != "all":
        code, _ = run_one(binaries, args.workload, args.seed, args.seconds,
                          args.trace, commit, capture=False)
        sys.exit(code)

    results = {}
    for name in WORKLOADS:
        out = run_checked(name)
        sys.stdout.write("\n".join(out.strip().splitlines()[:-1]) + "\n")
        results[name] = parse_output(out)[1]
    print(json.dumps({"workloads": results}))

if __name__ == "__main__":
    main()
