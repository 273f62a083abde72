#!/usr/bin/env python3
"""Repository benchmark: build `perfbench/` and run one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selfcheck [--seconds S]
    python3 perfbench/run.py --record-references

Run from the root of a checkout. The Rust program in `perfbench/src` is
built with cargo into `$CARGO_TARGET_DIR` (default `.bench_build`) and
runs the workload in its own process, so `peak_rss_mb` belongs to that
workload alone. When `reference.json` holds the output fingerprint for
the workload and seed, every operation is checked against it; otherwise
every operation must reproduce the run's first one. The last line of
standard output is the result object.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
REFERENCE = BENCH / "reference.json"
WORKLOADS = ["br_epochs", "traffic_race", "fleet_gossip", "fleet_br"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def target_dir():
    return Path(os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build")))


def build():
    """Build the benchmark program; a no-op for cargo when nothing changed."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(BENCH / "Cargo.toml")]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")
    return target_dir() / "release" / "egoist-perfbench"


def references():
    with open(REFERENCE) as f:
        return json.load(f)["fingerprints"]


def run(binary, workload, seed, seconds, trace, expect=None):
    """Run one workload; return (stdout lines, result object)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if expect is not None:
        cmd += ["--expect", expect]
    if trace:
        spans = target_dir() / "perfbench-spans" / f"{workload}-seed{seed}.json"
        spans.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans-out", str(spans)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        fail(f"{workload} exited with code {done.returncode}")
    return lines, json.loads(lines[-1])


def flipped(fingerprint):
    """A reference that no correct run can match."""
    return f"{int(fingerprint, 16) ^ 1:016x}"


def summary_fields(lines):
    """The `key=value` pairs of the program's `#` summary line."""
    head = next(l for l in lines if l.startswith("# "))
    return dict(kv.split("=", 1) for kv in head[2:].split()[1:])


def selfcheck(binary, seconds):
    """Both reference seeds pass on every workload; a flipped reference
    fails every operation. Prints each workload's metrics by name."""
    refs = references()
    ok = True
    for w in WORKLOADS:
        for seed, fp in sorted(refs[w].items()):
            lines, res = run(binary, w, seed, seconds, 0, fp)
            print(lines[0])
            if res["failed"] != 0 or not res["correct"]:
                ok = False
                print(f"FAIL {w} seed {seed}: {res['failed']} of {res['attempted']} failed")
        seed, fp = sorted(refs[w].items())[0]
        _, res = run(binary, w, seed, seconds, 0, flipped(fp))
        tripped = res["failed"] == res["attempted"] >= 1 and not res["correct"]
        ok &= tripped
        print(f"negative control {w}: {res['failed']} of {res['attempted']} failed"
              f" -> {'tripped' if tripped else 'NOT TRIPPED'}")
    print("selfcheck", "passed" if ok else "FAILED")
    return 0 if ok else 1


def record(binary):
    """Rewrite reference.json's fingerprints from fresh single-operation runs."""
    with open(REFERENCE) as f:
        doc = json.load(f)
    for w in WORKLOADS:
        for seed in doc["seeds"]:
            lines, _ = run(binary, w, seed, 1, 0)
            doc["fingerprints"].setdefault(w, {})[str(seed)] = summary_fields(lines)["fingerprint"]
    with open(REFERENCE, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selfcheck", action="store_true")
    ap.add_argument("--record-references", action="store_true")
    args = ap.parse_args()
    if not (args.selfcheck or args.record_references or args.workload):
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    binary = build()
    if args.selfcheck:
        return selfcheck(binary, args.seconds)
    if args.record_references:
        return record(binary)

    expect = references().get(args.workload, {}).get(str(args.seed))
    lines, _ = run(binary, args.workload, args.seed, args.seconds, args.trace, expect)
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
