"""Statistics of the end-to-end benchmark, kept apart so they can be tested.

Every function here is pure: run.py feeds it the raw samples the native
driver reports. test_stats.py is its self-test.
"""

import math

# A tail percentile is reported only when at least this many samples lie
# beyond it.
MIN_BEYOND = 10


def percentile(values, q):
    """Nearest-rank q-th percentile (0 < q <= 100) of a non-empty list."""
    if not values:
        raise ValueError("percentile of no samples")
    return sorted(values)[_rank(len(values), q) - 1]


def _rank(n, q):
    # Rounded first so that e.g. 99.9% of 10000 is rank 9990, not 9991.
    return max(1, math.ceil(round(q * n / 100.0, 9)))


def beyond(n, q):
    """Samples strictly beyond the nearest-rank q-th percentile of n."""
    return n - _rank(n, q)


def highest_supported_percentile(n, candidates=(99.9, 99, 95, 90, 75, 50)):
    """The highest candidate percentile with MIN_BEYOND samples beyond it,
    or None when even the lowest has too few."""
    for q in sorted(candidates, reverse=True):
        if beyond(n, q) >= MIN_BEYOND:
            return q
    return None


def supported_tail(values, q):
    """The q-th percentile, or None when fewer than MIN_BEYOND samples lie
    beyond it (the caller then reports a failure or a lower percentile)."""
    if beyond(len(values), q) < MIN_BEYOND:
        return None
    return percentile(values, q)


def due_latencies(due, replies):
    """Open-loop latency of each probe, in the probe's units.

    Replies on one stream arrive in the order the probes were sent, so the
    k-th reply answers the k-th probe. Each probe is timed from when it was
    *due*, not when it left: a stall that delays the sender also charges
    every probe scheduled behind it. A probe with no reply gets None.
    """
    out = []
    for k, d in enumerate(due):
        out.append(replies[k] - d if k < len(replies) else None)
    return out


def backlog_growing(times, backlog, min_growth):
    """True when the backlog trends upward over the window.

    Compares the mean backlog of the last third of the samples (by time)
    with the first third: growth beyond both `min_growth` bytes and twice
    the first third means the offered rate exceeds what the server drains.
    A transient spike that drains again does not count.
    """
    samples = sorted(zip(times, backlog))
    if len(samples) < 6:
        return False
    third = len(samples) // 3
    first = sum(b for _, b in samples[:third]) / third
    last = sum(b for _, b in samples[-third:]) / third
    return last - first > min_growth and last > 2 * first


def span_times(events):
    """Total and self time (ms) and count per span name of Chrome-trace
    "X" events.

    A span's self time is its duration minus the part its direct children
    cover; children are the spans nested inside it on the same (pid, tid).
    """
    by_thread = {}
    for e in events:
        if e.get("ph") == "X":
            by_thread.setdefault((e["pid"], e["tid"]), []).append(e)
    out = {}
    for spans in by_thread.values():
        # Parents before children: earlier start first, longer first on ties.
        spans.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []  # [end_us, name, children_us, dur_us]

        def pop():
            end, name, child_us, dur = stack.pop()
            agg = out.setdefault(name, {"total_ms": 0.0, "self_ms": 0.0,
                                        "count": 0})
            agg["total_ms"] += dur / 1000.0
            agg["self_ms"] += max(0.0, dur - child_us) / 1000.0
            agg["count"] += 1

        for e in spans:
            start, dur = e["ts"], e["dur"]
            while stack and start >= stack[-1][0]:
                pop()
            if stack:
                stack[-1][2] += dur
            stack.append([start + dur, e["name"], 0.0, dur])
        while stack:
            pop()
    return out

