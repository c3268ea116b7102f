#!/usr/bin/env python3
"""Benchmark entry point for the gpup library.

    python3 perfbench/run.py --workload table3_paper --seed 1 --seconds 20 --trace 0

Run from the repository root. Builds perfbench/gpup_perf (and the gpup
library it links) into $CARGO_TARGET_DIR, default .bench_build, runs one
workload, checks its outputs and prints a report. The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}. --trace 0 gives the end-to-end metrics, --trace 1 the
per-layer rows. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402

WORKLOADS = ("table3_paper", "inproc_burst", "serve_rounds")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configure once, then bring gpup_perf up to date. Build output goes
    to stderr so that stdout ends with the result line."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    command = ["cmake", "--build", build_dir, "--target", "gpup_perf", "-j", jobs]
    if subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "gpup_perf")


def table3_mismatch(raw):
    """True when the sweep every op was compared against differs from the
    recorded Table III cycle counts."""
    if not raw["table3_cells"]:
        return False
    with open(os.path.join(HERE, "table3_cycles.json")) as f:
        recorded = json.load(f)["cycles"]
    expected = [c for name in recorded for c in recorded[name]]
    return raw["table3_cells"] != expected


def tail_note(n, q):
    if stats.tail_reportable(n, q):
        return ""
    return " (below the ten-beyond rule: %d beyond)" % stats.samples_beyond(n, q)


def level_metrics(level, name, metrics, notes):
    lat = stats.latencies(level["lat_us"])
    metrics["op_p50_us." + name] = (stats.median(lat), "us")
    metrics["op_p90_us." + name] = (stats.percentile(lat, 0.9), "us")
    # Rates are medians over the blocks of the level, so that a host slow
    # episode covering part of a run moves them less than a run total would.
    blocks = list(zip(level["block_ops"], level["block_wall_s"], level["block_cpu_s"]))
    metrics["cpu_us_per_op." + name] = (
        stats.median([cpu / ops * 1e6 for ops, _, cpu in blocks]), "us")
    if name == "high":
        metrics["ops_per_s.high"] = (stats.median([ops / wall for ops, wall, _ in blocks]), "1/s")
    notes.append(".%s: %d ops in %d blocks; p90 %.1f us%s; p99 %.1f us%s" % (
        name, len(lat), len(level["block_ops"]), metrics["op_p90_us." + name][0],
        tail_note(len(lat), 0.9), stats.percentile(lat, 0.99), tail_note(len(lat), 0.99)))


def end_to_end(raw, notes):
    metrics = {"setup_s": (stats.median(raw["setup_s"]), "s")}
    notes.append("setup_s: median of %d cold set-ups %.4f s; the first %.4f s" % (
        len(raw["setup_s"]), metrics["setup_s"][0], raw["setup_s"][0]))
    for name in ("low", "high"):
        level_metrics(raw[name], name, metrics, notes)
    return metrics


def per_layer(raw, notes):
    # Peak RSS did not repeat within a tenth (see README.md), so it is a
    # traced row, read after the named workload's untraced phase.
    metrics = {"peak_rss_mb": (raw["peak_rss_kb"] / 1024.0, "MB")}
    for row in raw["rows"]:
        metrics[row["name"]] = (row["value"], row["unit"])
        notes.append("%-36s %14.6g %-10s n=%-9d %s"
                     % (row["name"], row["value"], row["unit"], row["samples"], row["base"]))
        if row["call_us"]:
            notes.append("%-36s %14.6g us         n=%-9d p99 per call%s"
                         % ("", stats.percentile(row["call_us"], 0.99), len(row["call_us"]),
                            tail_note(len(row["call_us"]), 0.99)))
    for name in ("low", "high"):
        lat = stats.latencies(raw[name]["lat_us"])
        metrics["op_p99_us." + name] = (stats.percentile(lat, 0.99), "us")
        notes.append("%-36s %14.6g us         n=%-9d untraced ops of the named workload%s"
                     % ("op_p99_us." + name, metrics["op_p99_us." + name][0], len(lat),
                        tail_note(len(lat), 0.99)))
    for workload, timing in raw["passes"].items():
        per_op, rest = stats.remainder_us(timing["traced_us"], timing["layer_total_us"])
        traced = stats.median(timing["traced_us"])
        untraced = stats.median(timing["untraced_us"])
        metrics[workload + ".remainder"] = (rest, "us")
        metrics[workload + ".trace_overhead"] = (traced - untraced, "us")
        layers = ", ".join("%s %.1f" % item for item in per_op.items())
        notes.append("%s .%s: mean traced op %.1f us = %s + remainder %.1f (n=%d); "
                     "median traced %.1f us, untraced %.1f us (n=%d)"
                     % (workload, timing["level"], sum(per_op.values()) + rest, layers, rest,
                        len(timing["traced_us"]), traced, untraced, len(timing["untraced_us"])))
        for kind in ("traced", "untraced"):
            ops = timing[kind + "_us"]
            notes.append("%s %s op p99 %.1f us (n=%d)%s" % (
                workload, kind, stats.percentile(ops, 0.99), len(ops), tail_note(len(ops), 0.99)))
    return metrics


def serve_mix_note(mix):
    """The launch sizes of the seeded serve rounds on each side of the
    runtime's batching bound, so a batching result can name its mix."""
    if mix is None or mix["rounds"] == 0:
        return None
    bound = mix["small_launch_cycles"]
    large = mix["large_rounds"] / mix["rounds"]

    def side(cycles):
        return "at or below" if cycles <= bound else "above"
    return ("serve launch mix (%s, %d seeded rounds): %.1f%% of %d items = %d cycles, %s "
            "BatchConfig::small_launch_cycles %g; %.1f%% of %d items = %d cycles, %s it. "
            "The mix is an assumption, not measured traffic (README.md)"
            % (mix["source"], mix["rounds"], 100 * (1 - large), mix["small_items"],
               mix["small_cycles"], side(mix["small_cycles"]), bound, 100 * large,
               mix["large_items"], mix["large_cycles"], side(mix["large_cycles"])))


def host_record(raw):
    load1 = os.getloadavg()[0]
    steal = None
    if raw["proc_stat_before"] and raw["proc_stat_after"]:
        steal = stats.steal_fraction(raw["proc_stat_before"], raw["proc_stat_after"])
    return {"nproc": raw["nproc"], "loadavg_1m": round(load1, 2),
            "steal_frac": None if steal is None else round(steal, 4)}


def check_names(metrics, trace):
    """Every metric BENCHMARK.json names for this mode must be printed."""
    path = os.path.join(HERE, os.pardir, "BENCHMARK.json")
    if not os.path.exists(path):
        return
    with open(path) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    wrong_unit = [m["name"] for m in wanted
                  if m["name"] in metrics and metrics[m["name"]][1] != m["unit"]]
    if missing or wrong_unit:
        fail("metrics missing %s, wrong unit %s" % (missing, wrong_unit))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build_dir = os.path.abspath(os.path.join(
        os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench"))
    exe = build(build_dir)
    command = [exe, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    # The binary runs in the build directory: its daemon socket lives there.
    try:
        done = subprocess.run(command, cwd=build_dir, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("gpup_perf did not finish within %d s" % RUN_TIMEOUT_S)
    if done.returncode != 0:
        fail("gpup_perf exited with %d" % done.returncode)
    raw = json.loads(done.stdout)

    attempted = raw["attempted"]
    failed = raw["failed"]
    if table3_mismatch(raw):
        failed = attempted
        raw["errors"].append("table3: cycles differ from perfbench/table3_cycles.json")
    notes = []
    metrics = per_layer(raw, notes) if args.trace else end_to_end(raw, notes)
    mix_note = serve_mix_note(raw["serve_mix"])
    if mix_note:
        notes.append(mix_note)
    check_names(metrics, args.trace)

    print("workload %s seed %d (%s)" % (
        args.workload, args.seed,
        "inputs fixed by the paper; the seed does not change them"
        if args.workload == "table3_paper" else "inputs generated from the seed"))
    print("host " + json.dumps(host_record(raw)))
    for note in notes:
        print("  " + note)
    for error in raw["errors"]:
        print("  FAILED: " + error)
    # A failed op's latency is +inf; print it as the largest double so the
    # line stays strict JSON.
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": min(value, sys.float_info.max), "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }
    print(json.dumps(result, allow_nan=False))


if __name__ == "__main__":
    main()
