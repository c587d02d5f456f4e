#!/usr/bin/env python3
"""Repository benchmark for the mac3d simulator.

Run from the repository root:

    python3 perfbench/run.py --workload stream-policies --seed 1 \
        --seconds 40 --trace 0

Builds perfbench/ (which compiles the simulator from ../src) into
.bench_build/perfbench, runs the measuring program for one workload,
checks every simulated result against the expected record in
perfbench/expected.json, prints provenance and a metric table, and ends
with one JSON line: {"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --record-expected

re-records the expected simulated results for seeds 0-10 and the held-out
seed (only when the model is meant to change). See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "mac3d_perfbench")
EXPECTED = os.path.join(HERE, "expected.json")
BUILD_TYPE = "Release"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
PAPER_FIG10_AVG = 52.86  # % coalescing efficiency, 8 threads
# Main seeds expected.json always holds (with the held-out seed); a run on
# one of them fails when its record is missing.
RECORDED_SEEDS = range(0, 11)


def log(message):
    print(message, file=sys.stderr, flush=True)


def stale_build_tree():
    """True when BUILD_DIR was configured for another source directory."""
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    if not os.path.isfile(cache):
        return False
    with open(cache, encoding="utf-8", errors="replace") as handle:
        for line in handle:
            if line.startswith("CMAKE_HOME_DIRECTORY:INTERNAL="):
                home = line.split("=", 1)[1].strip()
                return os.path.realpath(home) != os.path.realpath(HERE)
    return True


def build():
    """Configure (once) and build the measuring program; exit 2 on error."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no simulator sources next to perfbench/ "
            "(expected src/CMakeLists.txt)")
        sys.exit(2)
    if stale_build_tree():
        shutil.rmtree(BUILD_DIR)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "mac3d_perfbench"])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as error:
            log("perfbench: build failed: %s" % error)
            sys.exit(2)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            log("perfbench: build step failed: %s" % " ".join(step))
            sys.exit(2)


def measure(workload, seed, seconds, trace, extra=()):
    """Run the measuring program; return its result object."""
    command = [BINARY, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    command += list(extra)
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except (OSError, subprocess.TimeoutExpired) as error:
        log("perfbench: measuring program failed: %s" % error)
        sys.exit(1)
    print(done.stderr.rstrip(), flush=True)  # the metric table
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        log("perfbench: measuring program exited with %d" % done.returncode)
        sys.exit(1)
    return json.loads(lines[-1])


def load_expected():
    if not os.path.isfile(EXPECTED):
        return {}
    with open(EXPECTED, encoding="utf-8") as handle:
        return json.load(handle)


def compare(expected, workload, scale, seed, calls):
    """Mismatching calls against the expected record, or None when the
    record has no entry for this workload, scale and seed."""
    entry = expected.get(workload)
    if not entry or entry.get("scale") != scale:
        return None
    recorded = entry.get("seeds", {}).get(str(seed))
    if recorded is None:
        return None
    mismatches = []
    for label, digest in calls:
        if recorded.get(label) != digest:
            mismatches.append(label)
    if len(recorded) != len(calls):
        mismatches.append("call count %d != recorded %d"
                          % (len(calls), len(recorded)))
    return mismatches


def source_digest():
    """SHA-256 over the simulator and benchmark sources (the checkout the
    benchmark runs in need not be a git repository)."""
    digest = hashlib.sha256()
    for top in ("src", os.path.join("perfbench", "cpp")):
        for directory, subdirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            subdirs.sort()
            for name in sorted(files):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def commit():
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True,
                              timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run(args):
    build()
    extra = []
    if args.trace:
        extra = ["--spans", os.path.join(
            BUILD_DIR, "spans-%s-%d.json" % (args.workload, args.seed))]
    result = measure(args.workload, args.seed, args.seconds, args.trace,
                     extra)
    expected = load_expected()
    failed = result["failed"]
    failures = list(result["failures"])

    main = compare(expected, args.workload, result["scale"], args.seed,
                   result["calls"])
    heldout = compare(expected, args.workload, result["scale"],
                      result["heldout_seed"], result["heldout_calls"])
    if heldout is None:
        failed += 1
        failures.append("expected record has no held-out seed entry")
    else:
        failed += len(heldout)
        failures += ["held-out %s differs from the expected record" % label
                     for label in heldout]
    if main is None and args.seed in RECORDED_SEEDS:
        failed += 1
        failures.append("expected record has no entry for seed %d"
                        % args.seed)
    elif main:
        failed += len(main) * result["passes"]
        failures += ["%s differs from the expected record" % label
                     for label in main]

    metrics = result["metrics"]
    wanted = declared_metrics(args.trace)
    missing = [name for name in wanted if name not in metrics]
    bad = [name for name, m in metrics.items()
           if not isinstance(m["value"], (int, float))
           or not math.isfinite(m["value"])]
    if missing or bad:
        log("perfbench: missing metrics %s, non-finite metrics %s"
            % (missing, bad))
        sys.exit(1)

    print("provenance: nproc=%d compiler=%s build=%s MAC3D_OBS=%s "
          "MAC3D_CHECKS=%s commit=%s sources=%s"
          % (os.cpu_count() or 0, result["compiler"].replace(" ", "_"),
             result["build_type"], "ON" if result["obs"] else "OFF",
             "ON" if result["checks"] else "OFF", commit(), source_digest()))
    print("expected record: main seed %s, held-out seed %d %s"
          % ("not recorded" if main is None
             else ("match" if not main else "MISMATCH"),
             result["heldout_seed"],
             "match" if heldout == [] else "MISMATCH"))
    print("held-out seed coalescing_eff %.6f bw_eff %.6f (main seed "
          "%.6f / %.6f)"
          % (result["heldout_design"]["coalescing_eff"],
             result["heldout_design"]["bw_eff"],
             result["design"]["coalescing_eff"], result["design"]["bw_eff"]))
    if args.workload == "stream-policies":
        coalescing = result["design"]["coalescing_eff"]
        print("paper gap: coalescing_eff %.2f%% (12-trace average, 8 "
              "threads) vs the paper's Fig. 10 8-thread average %.2f%%: "
              "%+.2f points; stated, not gated. The model is otherwise "
              "unvalidated against hardware."
              % (100 * coalescing, PAPER_FIG10_AVG, 100 * coalescing
                 - PAPER_FIG10_AVG))
    for failure in failures:
        print("FAILED: %s" % failure)
    print("failed_ratio %.6g (%d of %d simulation calls)"
          % (failed / result["attempted"], failed, result["attempted"]))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": {name: metrics[name] for name in wanted},
    }))


def record():
    """Re-record the expected simulated results of every workload."""
    build()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        workloads = [w["name"] for w in json.load(handle)["workloads"]]
    expected = {}
    for workload in workloads:
        entry = {"scale": None, "seeds": {}}
        for seed in RECORDED_SEEDS:
            result = measure(workload, seed, 1, 0, ["--passes", "1"])
            if result["failed"] != 0:
                log("perfbench: %s seed %d failed its checks; not recorded"
                    % (workload, seed))
                sys.exit(1)
            entry["scale"] = result["scale"]
            entry["seeds"][str(seed)] = dict(result["calls"])
            entry["seeds"][str(result["heldout_seed"])] = dict(
                result["heldout_calls"])
        expected[workload] = entry
    with open(EXPECTED, "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")
    log("perfbench: wrote %s" % EXPECTED)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-expected", action="store_true")
    args = parser.parse_args()
    if args.record_expected:
        record()
    elif args.workload:
        run(args)
    else:
        parser.error("--workload is required")


if __name__ == "__main__":
    main()
