#!/usr/bin/env python3
"""Builds the library and the perfbench harness from source, runs one
workload and prints its result as the last line of standard output.

    python3 perfbench/run.py --workload factor-large|serve-small|plan-paper \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout. The build goes to .bench_build/ and
the reports (plus the Chrome trace of a --trace 1 run) to .bench_out/,
both under the checkout root. The metric names and units printed must be
the ones BENCHMARK.json declares; per-layer metrics a workload does not
exercise are reported as 0 and listed under "unmeasured" in the report.
See perfbench/README.md for what each workload and metric means.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_out")
BUILD_TYPE = "Release"
WORKLOADS = ("factor-large", "serve-small", "plan-paper")
# A seed reserved for confirming a claimed gain on inputs not used while
# the change was made (see perfbench/README.md).
HOLDOUT_SEED = 90210
RUN_TIMEOUT_S = 170


def fail(msg, code=3):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeFiles", "Makefile.cmake")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(BUILD, "perfbench")


def source_digest():
    """sha256 over the library and harness sources (the checkout need not
    be a git repository, so this names the code that was measured)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for d, dirs, files in os.walk(base):
            dirs.sort()
            for f in sorted(files):
                p = os.path.join(d, f)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() or None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0", 2)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if args.trace else "end_to_end"]}

    exe = build()
    os.makedirs(OUT, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(OUT, stem + ".trace.json")]
    # The library's defaults are what is measured: no environment override
    # of the kernel tier or the pack cache leaks into a run.
    env = {k: v for k, v in os.environ.items()
           if k not in ("HETSCHED_KERNEL_TIER", "HETSCHED_PACK_CACHE")}
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
    if proc.returncode not in (0, 1) or len(lines) < 2:
        fail(f"harness exited with {proc.returncode}")
    report = json.loads(lines[0])["report"]
    result = json.loads(lines[-1])

    metrics = result["metrics"]
    extra = sorted(set(metrics) - set(declared))
    if extra:
        fail("metrics missing from BENCHMARK.json: " + ", ".join(extra))
    for name, m in metrics.items():
        if m["unit"] != declared[name]:
            fail(f"{name}: unit {m['unit']} != declared {declared[name]}")
    missing = sorted(set(declared) - set(metrics))
    if missing and not args.trace:
        fail("end-to-end metrics not measured: " + ", ".join(missing))
    for name in missing:
        metrics[name] = {"value": 0.0, "unit": declared[name]}
    result["metrics"] = dict(sorted(metrics.items()))

    report["unmeasured"] = missing
    report["holdout_seed"] = HOLDOUT_SEED
    report["provenance"].update({
        "build_type": BUILD_TYPE,
        "commit": commit(),
        "source_sha256": source_digest(),
    })
    with open(os.path.join(OUT, stem + ".json"), "w") as fh:
        json.dump({"report": report, "result": result}, fh, indent=1)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
