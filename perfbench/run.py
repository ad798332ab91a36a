#!/usr/bin/env python3
"""The cloudmc benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload ws-ddr3 --seed 1 --seconds 25 --trace 0

Run from the repository root. It builds the simulator from src/ with
perfbench/CMakeLists.txt into .bench_build/ (or $CARGO_TARGET_DIR when
set), runs the measuring binary once, checks the simulated outputs,
prints every metric by name with its unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json and --trace 1
its per-layer metrics. failed/attempted is the share of output checks
that failed. At --seed 1 the simulated metrics must also match the
digests pinned in perfbench/digests.json; every other seed salts each
workload preset's seed and runs every check except the digest.
"""

import argparse
import hashlib
import json
import os
import pathlib
import platform
import subprocess
import sys
import time

ROOT = pathlib.Path.cwd()
HERE = pathlib.Path(__file__).resolve().parent
DEFAULT_SEED = 1
TIME_LIMIT_S = 170.0


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "cloudmc"


def build(jobs):
    """Configure (once) and build the measuring binary; return its path."""
    if not (ROOT / "src" / "sim" / "system.hh").is_file():
        raise RuntimeError("no simulator sources under ./src; run from the "
                           "repository root")
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, timeout=600)
    subprocess.run(["cmake", "--build", str(out), "-j", str(jobs)],
                   check=True, stdout=sys.stderr, timeout=900)
    return out / "cloudmc_perf"


def source_digest():
    """Hash of the simulator and benchmark sources, for unversioned trees."""
    h = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for p in sorted(base.rglob("*")):
            if p.is_file():
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    # Only ask git inside a checkout of its own, so nothing outside the
    # working tree is read.
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def cpu_model():
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_binary(binary, args, deadline):
    env = {k: v for k, v in os.environ.items() if not k.startswith("CLOUDMC_")}
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.Popen([str(binary)] + args, stdout=subprocess.PIPE,
                            text=True, env=env, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("measuring binary ran out of time")
    if proc.returncode != 0:
        raise RuntimeError(f"measuring binary exited {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    start = time.monotonic()
    deadline = start + TIME_LIMIT_S

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        log(f"unknown workload {args.workload!r}; choose from {names}")
        return 2
    if args.seed < 0:
        log("--seed must be a non-negative integer")
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    try:
        binary = build(jobs=max(1, min(4, os.cpu_count() or 1)))
        build_s = time.monotonic() - start
        # Deadline for a slow first build: measure from after it.
        deadline = max(deadline, time.monotonic() + 150.0)
        selftest = run_binary(binary, ["--self-test"], deadline)
        cache = build_dir() / f"results_cache_{os.getpid()}.csv"
        res = run_binary(binary, [
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--cache", str(cache)], deadline)
    except (RuntimeError, OSError, subprocess.SubprocessError,
            ValueError) as e:
        log(f"benchmark failed: {e}")
        return 1

    attempted = selftest["attempted"] + res["attempted"]
    failed = selftest["failed"] + res["failed"]
    failures = selftest["failures"] + res["failures"]
    # The default seed pins every workload's simulated outputs.
    if args.seed == DEFAULT_SEED and not args.trace:
        pinned = json.loads((HERE / "digests.json").read_text())
        attempted += 1
        if pinned.get(args.workload) != res["digest"]:
            failed += 1
            failures.append(f"metric digest {res['digest']} != pinned "
                            f"{pinned.get(args.workload)}")
    missing = sorted(set(units) - set(res["metrics"]))
    if missing:
        log(f"binary did not report {missing}")
        return 1

    context = dict(res["context"])
    context.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "cpu_model": cpu_model(), "nproc": len(os.sched_getaffinity(0)),
        "build_type": res["build_type"], "compiler": res["compiler"],
        "git_sha": git_sha(), "source_digest": source_digest(),
        "build_s": round(build_s, 3), "digest": res["digest"],
        "failed_frac": failed / attempted,
    })
    print("context " + json.dumps(context, sort_keys=True))
    for f in failures:
        print(f"FAILED CHECK: {f}")
    for name in units:
        print(f"{name:32s} {res['metrics'][name]:>18.6f} {units[name]}")
    print(f"{'failed_frac':32s} {failed / attempted:>18.6f} "
          f"({failed}/{attempted} checks)")
    metrics = {n: {"value": res["metrics"][n], "unit": u}
               for n, u in units.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
