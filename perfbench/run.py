#!/usr/bin/env python3
"""Build the benchmark, run one workload under a watchdog, print the result.

usage: python3 perfbench/run.py --workload <name|all> --seed <n>
                                --seconds <s> --trace <0|1>

Run from the root of the repository. The benchmark is its own Cargo package
(perfbench/Cargo.toml) with path dependencies on the runtime crates; it is
built in release mode into $CARGO_TARGET_DIR (default perfbench/target).

The binary prints progress lines starting with '#' and, last, one JSON
object with every metric it measured. This script keeps the metrics that
BENCHMARK.json lists for the mode (`end_to_end` for --trace 0, `per_layer`
for --trace 1), prints them as a table with units and sample counts, and
prints as its last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

A run that outlives its deadline is a hang: the process is killed, the ops
of the launch it was in count as failed, and the result reads correct=false.
A run that dies on its own (a panic outside a launch, a signal) is accounted
the same way. Either way the script exits with code 1 after the result.
"""

import argparse
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join("perfbench", "Cargo.toml")
# Every run must end within 180 s of its start once the binary is built.
RUN_LIMIT_S = 170.0
# The longest --seconds the watchdog leaves room for: a run also spends time
# on its inputs, the CoMD reference and a warm round, and a traced run on two
# traced rounds.
MAX_SECONDS = 120.0


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def build():
    """Build the release binary; return its path."""
    cmd = ["cargo", "build", "--release", "--offline", "-q", "--manifest-path", MANIFEST]
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        fail(f"cannot run cargo: {e}")
    if r.returncode != 0:
        fail(f"build failed with exit code {r.returncode}")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join("perfbench", "target")
    return os.path.join(ROOT, target, "release", "perfbench")


def broken_result(lines, how):
    """Account a run that was killed or died, from its '#begin <phase> <ops>'
    / '#end <failed>' lines: the launch that never ended failed all of its
    ops. `how` says what happened ("hung (killed by the watchdog)",
    "crashed (exit code -11)", ...)."""
    attempted = failed = 0
    open_ops, open_phase = 0, None
    for line in lines:
        parts = line.split()
        if parts[:1] == ["#begin"]:
            open_phase, open_ops = parts[1], int(parts[2])
            attempted += open_ops
        elif parts[:1] == ["#end"]:
            failed += int(parts[1])
            open_ops, open_phase = 0, None
    if open_phase is not None:
        failed += open_ops
        cause = f"{open_phase}: launch {how}"
    else:
        failed += 1
        cause = f"run {how} outside a launch"
    return {"correct": False, "attempted": max(attempted, 1), "failed": failed,
            "causes": [cause], "metrics": {}}


def run_one(binary, spec, workload, seed, seconds, trace):
    """Run one workload; return (result dict, metric table) or exit."""
    out_dir = os.path.join(ROOT, "perfbench", "out")
    os.makedirs(out_dir, exist_ok=True)
    # A traced run writes its spans to perfbench/out/trace-<workload>.json.
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    # The child writes to a file, not a pipe: draining a pipe under a
    # timeout (communicate(timeout=...)) wakes this process on every line
    # and made the two rank threads share one CPU, slowing 8 B round trips
    # about sixfold on a two-CPU host.
    log_path = os.path.join(out_dir, f"run-{workload}-trace{trace}.log")
    hung = False
    with open(log_path, "w") as log:
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=log)
        try:
            proc.wait(timeout=RUN_LIMIT_S)
        except subprocess.TimeoutExpired:
            hung = True
            proc.kill()
            proc.wait()
    with open(log_path) as log:
        lines = log.read().splitlines()
    if hung:
        return broken_result(lines, "hung (killed by the watchdog)"), []
    if proc.returncode != 0 or not lines:
        return broken_result(lines, f"crashed (exit code {proc.returncode})"), []
    for line in lines[:-1]:
        if line.startswith("# "):
            print(line)
    try:
        raw = json.loads(lines[-1])
    except ValueError:
        fail(f"last line is not JSON: {lines[-1][:200]!r}")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics, table = {}, []
    for m in wanted:
        got = raw["metrics"].get(m["name"])
        if got is None:
            fail(f"metric {m['name']} missing from the {workload} run")
        if got["unit"] != m["unit"]:
            fail(f"metric {m['name']}: unit {got['unit']} but BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
        table.append((m["name"], got["value"], got["unit"], got["samples"]))
    # The table also shows, not gated: with --trace 0 the failure ratio (0
    # on a good run, so not an end-to-end metric); with --trace 1 the
    # end-to-end values of the traced run's untraced pass, so every rung of
    # the ladder reads next to the number it should move.
    extra = [m["name"] for m in spec["end_to_end"]] if trace else ["ops_failed_ratio"]
    for name in extra:
        got = raw["metrics"].get(name)
        if got is not None:
            table.append((name, got["value"], got["unit"], got["samples"]))
    result = {"correct": raw["correct"], "attempted": raw["attempted"], "failed": raw["failed"],
              "causes": raw["causes"], "metrics": metrics}
    return result, table


def print_table(workload, result, table):
    print(f"# {workload}: correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']}")
    for cause in result["causes"]:
        print(f"#   failure: {cause}")
    for name, value, unit, samples in table:
        print(f"#   {name:<40} {value:>16.6g} {unit:<6} n={samples}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not 0 < args.seconds <= MAX_SECONDS:
        fail(f"--seconds must be in (0, {MAX_SECONDS:g}]; the watchdog kills a run "
             f"at {RUN_LIMIT_S:g} s")
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        fail(f"unknown workload {args.workload!r}; choose from {names} or 'all'")
    binary = build()

    runs = names if args.workload == "all" else [args.workload]
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in runs:
        t0 = time.monotonic()
        result, table = run_one(binary, spec, name, args.seed, args.seconds, args.trace)
        print_table(name, result, table)
        print(f"# {name}: {time.monotonic() - t0:.1f} s")
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        prefix = f"{name}." if len(runs) > 1 else ""
        for k, v in result["metrics"].items():
            merged["metrics"][prefix + k] = v
        if not result["metrics"]:
            print(json.dumps(merged))
            sys.exit(1)
    print(json.dumps(merged))


if __name__ == "__main__":
    main()
