"""Statistics, resource readout and span arithmetic for the benchmark.

Kept apart from run.py so test_stats.py can check them on their own.
"""
import math
import statistics


def median(values):
    """Median of a non-empty sequence."""
    return statistics.median(values)


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p% of
    the samples at or below it (p in (0, 100]).  Never interpolates, so
    the result is always a measured value."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def quartile_spread(values):
    """Distance between the first and third quartile as a share of the
    median, with the quartiles of statistics.quantiles(values, n=4)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def rss_mb(rusage):
    """Peak resident set of a reaped child, in MB (10^6 bytes), from the
    rusage os.wait4 returns.  Linux reports ru_maxrss in KiB."""
    return rusage.ru_maxrss * 1024 / 1e6


def self_times(spans):
    """Self time per span name: each span's duration minus the part of
    its interval its direct children cover (overlapping children are
    merged first).  spans: dicts with id, parent, name, start, end."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered = 0
        cur_start = cur_end = None
        kids = sorted(children.get(s["id"], []), key=lambda k: k["start"])
        for k in kids:
            a, b = max(k["start"], s["start"]), min(k["end"], s["end"])
            if b <= a:
                continue
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        own = (s["end"] - s["start"]) - covered
        out[s["name"]] = out.get(s["name"], 0) + own
    return out
