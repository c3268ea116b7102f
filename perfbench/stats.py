"""Statistics used by perfbench/run.py: percentiles with the ten-beyond
rule, the /proc/stat steal parse and the remainder arithmetic."""

import math
import statistics

# A tail percentile is reported only when at least this many samples lie
# beyond it; with fewer, the value is the largest sample or close to it.
MIN_BEYOND = 10

# /proc/stat "cpu" fields, in order (see proc(5)). guest and guest_nice
# are already counted inside user and nice, so they are not part of the
# total.
CPU_FIELDS = ("user", "nice", "system", "idle", "iowait", "irq", "softirq",
              "steal", "guest", "guest_nice")
TOTAL_FIELDS = CPU_FIELDS[:8]


def latencies(raw):
    """Op latencies with each failed op (recorded as a negative value)
    turned into +inf, so it misses any latency limit."""
    return [math.inf if value < 0 else value for value in raw]


def percentile(samples, q):
    """Nearest-rank percentile: the smallest sample with at least a share
    q of all samples at or below it."""
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError("q must be in (0, 1]")
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def samples_beyond(n, q):
    """How many of n samples lie beyond the nearest-rank q-percentile."""
    return n - max(1, math.ceil(q * n))


def tail_reportable(n, q):
    """The ten-beyond rule: a tail percentile needs MIN_BEYOND samples
    beyond it (p90 needs 100 samples, p99 needs 1000)."""
    return samples_beyond(n, q) >= MIN_BEYOND


def median(values):
    return statistics.median(values)


def parse_cpu_line(line):
    """Parse the aggregate "cpu" line of /proc/stat into named tick
    counts. Kernels older than a field report it as 0."""
    parts = line.split()
    if not parts or parts[0] != "cpu":
        raise ValueError("not the aggregate cpu line of /proc/stat: %r" % line)
    ticks = [int(value) for value in parts[1:]]
    ticks += [0] * (len(CPU_FIELDS) - len(ticks))
    return dict(zip(CPU_FIELDS, ticks))


def steal_fraction(before_line, after_line):
    """Share of all CPU ticks between two /proc/stat readings that the
    hypervisor stole. None when no tick elapsed."""
    before = parse_cpu_line(before_line)
    after = parse_cpu_line(after_line)
    total = sum(after[f] - before[f] for f in TOTAL_FIELDS)
    if total <= 0:
        return None
    return (after["steal"] - before["steal"]) / total


def remainder_us(op_us, layer_total_us):
    """Per-op time not covered by any layer row.

    op_us: wall time of each traced op. layer_total_us: for each layer, its
    total time inside those same ops. Returns (per-op layer times, per-op
    remainder), so that sum(layers) + remainder == mean(op_us)."""
    if not op_us:
        raise ValueError("no traced ops")
    ops = len(op_us)
    per_op = {name: total / ops for name, total in layer_total_us.items()}
    return per_op, statistics.fmean(op_us) - sum(per_op.values())
