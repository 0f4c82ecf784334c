#!/usr/bin/env python3
"""Build and run the KCM end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload warm_point --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

The first call configures and builds perfbench/CMakeLists.txt (Release)
into $CARGO_TARGET_DIR, or .bench_build when it is unset; later calls
only re-check the build. The benchmark's last stdout line is one JSON
object with the keys correct, attempted, failed and metrics. Every run
works in a fresh directory under the build directory and removes it.

--selftest runs every workload briefly with each check deliberately
given a wrong expectation and verifies that the check counts exactly
the operations it should as failed.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["warm_point", "sim_heavy", "durable_rw"]
# A run must end within 180 s of its start; the build is not counted.
RUN_LIMIT_S = 170


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(bdir):
    """Configure once, then bring the build up to date."""
    for needed in ("src/kcm/kcm.hh", "tools/kcm_serverd.cc"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            log("the KCM sources are missing (%s); nothing to build" % needed)
            return False
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=sys.stderr) != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return subprocess.call(["cmake", "--build", bdir, "-j", jobs],
                           stdout=sys.stderr) == 0


def run_once(bdir, workload, seed, seconds, trace, corrupt=None,
             capture=False):
    """Run the driver once in a fresh work directory. Returns
    (exit code, stdout text or None, stderr text or None)."""
    work = tempfile.mkdtemp(prefix="run-", dir=bdir)
    cmd = [os.path.join(bdir, "kcm_perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--bin-dir", bdir,
           "--work-dir", work]
    if trace:
        traces = os.path.join(bdir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--spans-out",
                os.path.join(traces, "%s-seed%s.jsonl" % (workload, seed))]
    if corrupt:
        cmd += ["--corrupt", corrupt]
    pipe = subprocess.PIPE if capture else None
    child = subprocess.Popen(cmd, stdout=pipe, stderr=pipe, text=True)

    def forward(signum, _frame):
        child.send_signal(signum)

    old = {s: signal.signal(s, forward)
           for s in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP)}
    try:
        out, err = child.communicate(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        log("run exceeded %d s; stopping it" % RUN_LIMIT_S)
        child.terminate()
        out, err = child.communicate()
        child.returncode = child.returncode or 1
    finally:
        for s, h in old.items():
            signal.signal(s, h)
        shutil.rmtree(work, ignore_errors=True)
    return child.returncode, out, err


def selftest(bdir):
    """Each wrong expectation must fail exactly the operations it
    touches, on top of the failures a clean run counts."""
    kinds = {"warm_point": ["answer", "cycles"],
             "sim_heavy": ["answer", "cycles"],
             "durable_rw": ["answer", "cycles", "model"]}
    ok = True
    for workload in WORKLOADS:
        base = None
        for corrupt in [None] + kinds[workload]:
            code, out, err = run_once(bdir, workload, 7, 1, False, corrupt,
                                      capture=True)
            if code != 0:
                log("%s/%s: exit %d\n%s" % (workload, corrupt, code, err))
                ok = False
                continue
            result = json.loads(out.strip().splitlines()[-1])
            if corrupt is None:
                base = result
                good = result["correct"]
                log("%s clean: attempted %d failed %d correct %s"
                    % (workload, result["attempted"], result["failed"],
                       result["correct"]))
                ok = ok and good
                continue
            expect = None
            for line in err.splitlines():
                if line.startswith("perfbench: corrupted_ops="):
                    expect = int(line.split("=")[1])
            got = result["failed"] - base["failed"]
            # A wrong store model must also fail the recovery check.
            good = expect is not None and got == expect and (
                corrupt != "model" or not result["correct"])
            log("%s --corrupt %s: %d extra failed ops, expected %s: %s"
                % (workload, corrupt, got, expect, "ok" if good else "FAIL"))
            ok = ok and good
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")

    bdir = build_dir()
    os.makedirs(bdir, exist_ok=True)
    started = time.time()
    if not build(bdir):
        log("build failed")
        return 1
    log("build ready in %.1f s" % (time.time() - started))

    if args.selftest:
        return 0 if selftest(bdir) else 1
    code, _, _ = run_once(bdir, args.workload, args.seed, args.seconds,
                          bool(args.trace))
    return code


if __name__ == "__main__":
    sys.exit(main())
