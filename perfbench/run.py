#!/usr/bin/env python3
"""End-to-end benchmark of the AWDIT checker.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run builds the library, the CLI and
the benchmark driver from source into $CARGO_TARGET_DIR (default
.bench_build). Each run then

  * sets up its inputs three times from the seed (generation, serialization
    and, for serve-tenants, server start) and reports the median as setup_s,
    failing when the three sets of inputs differ by a byte;
  * measures the workload for about --seconds seconds;
  * checks every output against a reference, untimed, after measurement;
  * prints human-readable lines, then one JSON object as its last line.

--trace 0 reports the end-to-end metrics. --trace 1 runs the workload once
untraced and once with the driver's spans on, writes the merged Chrome-trace
JSON under <build>/traces/, and reports the per-layer metrics (self times)
plus the tracing overhead. The exit code is non-zero when an output check
fails. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import urllib.request
from concurrent.futures import ThreadPoolExecutor

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import stats  # noqa: E402

SETUP_REPS = 3

# monitor-cc-w16k: evicting-pass samples needed per stream, so that the
# p90 tail has ten samples beyond it.
MONITOR_MIN_SAMPLES = 100
# The reported violation kind of each anomaly the generator injects there.
INJECTED_KIND_REPORTED_AS = {
    "Causal Violation": "Commit-Order Cycle",
    "Fractured Read": "Commit-Order Cycle",
    "Causality Cycle": "Causality Cycle",
}

# serve-tenants: the ack latency limit, the hot-connection threshold handed
# to the server (phase 1 stays under it, phase 2 crosses it) and the
# backlog growth that marks phase 1 as above saturation. The phase-1 rate,
# length and slot are constants of the driver's loadgen.
SERVE_ACK_LIMIT_MS = 500
SERVE_HOT_BYTES_PER_SEC = 1 << 20
SERVE_BACKLOG_GROWTH_BYTES = 256 << 10
# Phase-2 makespans vary by ±15% from scenario to scenario on a shared
# 4-core host; a run reports the median of at least this many.
SERVE_MIN_SCENARIOS = 5

END_TO_END = {
    "txns_per_s": "txn/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    "workload.generate_ms": "ms",
    "io.decode_ms": "ms",
    "io.load_ms": "ms",
    "monitor.apply_ms": "ms",
    "monitor.pass_ms": "ms",
    "monitor.passes": "count",
    "monitor.evicting_passes": "count",
    "monitor.evicted_txns": "count",
    "monitor.compactions": "count",
    "monitor.finalize_ms": "ms",
    "monitor.unattributed_ms": "ms",
    "checker.read_check_ms": "ms",
    "checker.rc_ms": "ms",
    "checker.ra_ms": "ms",
    "checker.cc_ms": "ms",
    "checker.rc_seq_ms": "ms",
    "checker.ra_seq_ms": "ms",
    "checker.cc_seq_ms": "ms",
    "checker.parallel_speedup_rc": "x",
    "checker.parallel_speedup_ra": "x",
    "checker.parallel_speedup_cc": "x",
    "store.ckpt_write_ms_p50": "ms",
    "store.ckpt_write_ms_sum": "ms",
    "store.ckpt_writes": "count",
    "store.ckpt_bytes": "bytes",
    "server.hello_ms_p50": "ms",
    "server.end_to_final_ms_max": "ms",
    "server.hot_end_to_final_ms": "ms",
    "server.backlog_bytes_max": "bytes",
    "server.backlog_growing": "count",
    "server.hot_upgrades": "count",
    "server.checkpoints": "count",
    "server.poll_max_stall_ms": "ms",
    "server.probes": "count",
    "server.ack_p99_ms": "ms",
    "server.hot_ack_p50_ms": "ms",
    "loadgen.lag_ms_max": "ms",
    "trace.overhead_pct": "%",
}


def say(line):
    print(line, flush=True)


class Run:
    """State of one benchmark invocation: outputs, failures, metrics."""

    def __init__(self, args, build_dir, driver, awdit):
        self.args = args
        self.driver = driver
        self.awdit = awdit
        self.work = os.path.join(build_dir, "work",
                                 f"{args.workload}-{args.seed}-{os.getpid()}")
        self.trace_dir = os.path.join(build_dir, "traces")
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.metrics = {}
        self.setup_times = []
        self.manifest = None
        os.makedirs(self.work, exist_ok=True)

    def fail(self, why, output_check=True):
        """Counts one failed operation; an output-check failure also makes
        the run incorrect (non-zero exit)."""
        say(f"FAIL: {why}")
        self.failed += 1
        if output_check:
            self.correct = False

    def metric(self, name, value):
        self.metrics[name] = value

    def driver_json(self, *argv):
        proc = subprocess.run([self.driver, *argv], stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"driver {argv[0]} failed ({proc.returncode})")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    # --- Set-up ---------------------------------------------------------

    def setup(self, start_server=False):
        """Generates the inputs SETUP_REPS times (and starts a server each
        time when asked); keeps the last set and the last server."""
        digests = None
        server = None
        try:
            for rep in range(SETUP_REPS):
                out = os.path.join(self.work, f"setup{rep}")
                argv = ["gen", "--workload", self.args.workload, "--seed",
                        str(self.args.seed), "--dir", out]
                if self.args.trace and rep == 0:
                    argv += ["--trace-out",
                             os.path.join(self.work, "gen.trace")]
                t0 = time.perf_counter()
                self.driver_json(*argv)
                elapsed = time.perf_counter() - t0
                if start_server:
                    if server:
                        server.stop()
                        server = None
                    t0 = time.perf_counter()
                    server = Server(self.awdit,
                                    os.path.join(self.work, f"server{rep}"))
                    elapsed += time.perf_counter() - t0
                self.setup_times.append(elapsed)
                with open(os.path.join(out, "manifest.json")) as f:
                    self.manifest = json.load(f)
                rep_digests = {f["name"]: sha256_file(f["path"])
                               for f in self.manifest["files"]}
                if digests is None:
                    digests = rep_digests
                elif rep_digests != digests:
                    self.fail(f"set-up {rep} generated different inputs "
                              "from the same seed")
        except BaseException:
            if server:
                server.stop()
            raise
        self.attempted += SETUP_REPS
        for name, digest in sorted(digests.items()):
            say(f"input {name} sha256 {digest}")
        say("setup_s reps " + " ".join(f"{t:.3f}" for t in self.setup_times))
        return server

    # --- Reporting --------------------------------------------------------

    def finish(self):
        units = PER_LAYER if self.args.trace else END_TO_END
        if not self.args.trace:
            self.metric("setup_s", statistics.median(self.setup_times))
        for name in units:
            self.metrics.setdefault(name, 0)
        for name, unit in units.items():
            say(f"{name} = {self.metrics[name]:.6g} {unit}")
        say(f"attempted {self.attempted} failed {self.failed} "
            f"failed_share {self.failed / max(1, self.attempted):.6g} ratio")
        result = {
            "correct": self.correct,
            "attempted": max(1, self.attempted),
            "failed": self.failed,
            "metrics": {n: {"value": self.metrics[n], "unit": u}
                        for n, u in units.items()},
        }
        print(json.dumps(result), flush=True)
        return 0 if self.correct else 1

    def write_trace(self, parts):
        """Merges the Chrome-trace files in `parts`, writes the result and
        returns its span times."""
        events = []
        for pid, path in enumerate(parts, 1):
            with open(path) as f:
                for e in json.load(f)["traceEvents"]:
                    e["pid"] = pid  # one process row per span file
                    events.append(e)
        os.makedirs(self.trace_dir, exist_ok=True)
        out = os.path.join(self.trace_dir,
                           f"{self.args.workload}-seed{self.args.seed}.json")
        with open(out, "w") as f:
            json.dump({"displayTimeUnit": "ms", "traceEvents": events}, f)
        say(f"trace written to {out}")
        times = stats.span_times(events)
        say("span                      count     total_ms      self_ms")
        for name in sorted(times):
            t = times[name]
            say(f"{name:24s} {t['count']:6d} {t['total_ms']:12.3f} "
                f"{t['self_ms']:12.3f}")
        return times


def cpu_ticks():
    """(steal, total) jiffies of the host's CPUs so far, from /proc/stat."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def self_ms(times, name, per=1):
    return times.get(name, {}).get("self_ms", 0.0) / per


# --- monitor-cc-w16k -------------------------------------------------------


def run_monitor(run):
    run.setup()
    stream = run.manifest["files"][0]
    expected = {INJECTED_KIND_REPORTED_AS[k] for k in stream["inject"]}

    def once(trace_out):
        argv = ["monitor", "--input", stream["path"], "--ckpt-dir",
                os.path.join(run.work, "ckpt"), "--seconds",
                str(run.args.seconds), "--gadget-starts",
                ",".join(str(t) for t in stream["gadget_starts"])]
        if trace_out:
            argv += ["--trace-out", trace_out]
        return run.driver_json(*argv)

    def wall_per_stream(res):
        return sum(s["wall_s"] for s in res["streams"]) / len(res["streams"])

    untraced = once(None)
    res = untraced
    if run.args.trace:
        trace_out = os.path.join(run.work, "monitor.trace")
        res = once(trace_out)

    samples = []
    for s in res["streams"]:
        run.attempted += s["lines"] + 1
        samples += s["evicting_pass_ms"]
        # Both gadgets report the same kind, so each must be seen on its
        # own: every gadget in some violation, no violation outside them.
        missed = [k for k, n in zip(stream["inject"], s["per_gadget"])
                  if n == 0]
        if set(s["kinds"]) != expected or s["violations_below_base"] \
                or missed or s["consistent"]:
            run.fail(f"reported {s['kinds']} "
                     f"({s['violations_below_base']} outside the injected "
                     f"transactions, per gadget {s['per_gadget']}); expected "
                     f"exactly {sorted(expected)} covering every gadget "
                     f"(missed: {missed})")
        if len(s["evicting_pass_ms"]) < MONITOR_MIN_SAMPLES:
            run.fail(f"only {len(s['evicting_pass_ms'])} evicting passes "
                     f"timed (need {MONITOR_MIN_SAMPLES})",
                     output_check=False)
    streams = len(res["streams"])
    wall = sum(s["wall_s"] for s in res["streams"])
    say(f"streams {streams}, evicting-pass samples n={len(samples)}, "
        f"wall {wall:.3f} s")

    if not run.args.trace:
        tail = stats.supported_tail(samples, 90)
        run.metric("txns_per_s", statistics.median(
            s["committed"] / s["wall_s"] for s in res["streams"]))
        run.metric("latency_p50_ms", stats.percentile(samples, 50))
        run.metric("latency_tail_ms",
                   tail if tail is not None else max(samples))
        say(f"latency = evicting-pass apply call (checkpoint apart): "
            f"flush_p50_ms / flush_p90_ms over n={len(samples)}")
        q = stats.highest_supported_percentile(len(samples))
        if q:
            say(f"flush p{q:g} = {stats.percentile(samples, q):.3f} ms (the "
                f"highest percentile with {stats.MIN_BEYOND} samples beyond)")
        run.metric("peak_rss_mb", res["peak_rss_kb"] / 1024)
        return

    times = run.write_trace([os.path.join(run.work, "gen.trace"), trace_out])
    ckpt = [ms for s in res["streams"] for ms in s["ckpt_ms"]]
    run.metric("workload.generate_ms", self_ms(times, "workload.generate"))
    run.metric("io.decode_ms", self_ms(times, "io.decode", streams))
    run.metric("monitor.apply_ms", self_ms(times, "monitor.apply", streams))
    run.metric("monitor.pass_ms", self_ms(times, "monitor.pass", streams))
    run.metric("monitor.finalize_ms",
               self_ms(times, "monitor.finalize", streams))
    unattributed = self_ms(times, "monitor.stream", streams)
    run.metric("monitor.unattributed_ms", unattributed)
    say(f"monitor.unattributed = {100 * unattributed / 1000 / (wall / streams):.3f}"
        " % of wall")
    def per_stream(key):
        return sum(s[key] for s in res["streams"]) / streams

    run.metric("monitor.passes", per_stream("passes"))
    run.metric("monitor.evicting_passes", len(samples) / streams)
    run.metric("monitor.evicted_txns", per_stream("evicted_txns"))
    run.metric("monitor.compactions", per_stream("compactions"))
    run.metric("store.ckpt_write_ms_p50",
               stats.percentile(ckpt, 50) if ckpt else 0)
    run.metric("store.ckpt_write_ms_sum",
               self_ms(times, "store.ckpt_write", streams))
    run.metric("store.ckpt_writes", len(ckpt) / streams)
    run.metric("store.ckpt_bytes", per_stream("ckpt_bytes"))
    run.metric("trace.overhead_pct",
               100 * (wall_per_stream(res) / wall_per_stream(untraced) - 1))


# --- oneshot-mixed ---------------------------------------------------------


def run_oneshot(run):
    run.setup()
    inputs = ",".join(f["path"] for f in run.manifest["files"])

    def rounds(trace_prefix):
        """One driver process per round until --seconds of load + check
        time are spent; the first round's process also runs the output
        check (and, traced, the extra layer probes) after its timing."""
        out, spent = [], 0.0
        while not out or spent < run.args.seconds:
            argv = ["oneshot", "--inputs", inputs]
            if not out:
                argv += ["--verify", "1"]
            if trace_prefix:
                argv += ["--trace-out", f"{trace_prefix}{len(out)}"]
            out.append(run.driver_json(*argv))
            spent += busy_ms(out[-1]) / 1000
        return out

    def busy_ms(res):
        return sum(res["load_ms"]) + sum(res["check_ms"])

    def request_ms(res):
        """What `awdit check FILE --level L` waits for: the history's load
        plus the check, per (history, level)."""
        return [res["load_ms"][k // 3] + ms
                for k, ms in enumerate(res["check_ms"])]

    res = untraced = rounds(None)
    if run.args.trace:
        trace_prefix = os.path.join(run.work, "oneshot.trace")
        res = rounds(trace_prefix)

    for r in res:
        run.attempted += len(r["check_ms"])
        for c in r["checks"]:
            if not c["match"]:
                run.fail(f"{os.path.basename(c['input'])} {c['level']}: "
                         f"checkIsolation {c['got']} != classic "
                         f"{c['classic']}")
            else:
                say(f"ok {os.path.basename(c['input'])} {c['level']}: "
                    f"{c['got']['violations']} violations, matches classic")
    say(f"rounds {len(res)}, check samples n={len(res) * len(res[0]['check_ms'])}")

    if not run.args.trace:
        run.metric("txns_per_s", statistics.median(
            r["pair_txns"] / (busy_ms(r) / 1000) for r in res))
        # Nine requests a round: the median and slowest of each round,
        # then their medians over rounds. No percentile of nine has ten
        # samples beyond it.
        run.metric("latency_p50_ms", statistics.median(
            statistics.median(request_ms(r)) for r in res))
        run.metric("latency_tail_ms", statistics.median(
            max(request_ms(r)) for r in res))
        say("latency = load + checkIsolation per (history, level): median "
            "and slowest of a round, medians over rounds")
        run.metric("peak_rss_mb", statistics.median(
            r["peak_rss_kb"] for r in res) / 1024)
        return

    times = run.write_trace([os.path.join(run.work, "gen.trace")] +
                            [f"{trace_prefix}{k}" for k in range(len(res))])
    n = len(res)
    run.metric("workload.generate_ms", self_ms(times, "workload.generate"))
    run.metric("io.load_ms", self_ms(times, "io.load", n))
    run.metric("checker.read_check_ms", self_ms(times, "checker.read_check"))
    for level in ("rc", "ra", "cc"):
        par = self_ms(times, f"checker.{level}", n)
        seq = self_ms(times, f"checker.{level}_seq")
        run.metric(f"checker.{level}_ms", par)
        run.metric(f"checker.{level}_seq_ms", seq)
        run.metric(f"checker.parallel_speedup_{level}", seq / par if par else 0)
    run.metric("trace.overhead_pct",
               100 * (statistics.median(busy_ms(r) for r in res) /
                      statistics.median(busy_ms(r) for r in untraced) - 1))


# --- serve-tenants ----------------------------------------------------------


class Server:
    """One `awdit serve` process with store checkpoints, JSONL sinks and
    /metrics, on kernel-chosen ports."""

    def __init__(self, awdit, root):
        ckpt = os.path.join(root, "ckpt")
        self.sink = os.path.join(root, "sink")
        os.makedirs(ckpt, exist_ok=True)
        os.makedirs(self.sink, exist_ok=True)
        threads = min(os.cpu_count() or 1, 4)
        self.proc = subprocess.Popen(
            [awdit, "serve", "--port", "0", "--metrics-port", "0",
             "--threads", str(threads), "--checkpoint-store-dir", ckpt,
             "--sink-dir", self.sink, "--hot-bytes-per-sec",
             str(SERVE_HOT_BYTES_PER_SEC), "--idle-timeout", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        self.port = self.metrics_port = None
        while self.port is None or self.metrics_port is None:
            line = self.proc.stdout.readline()
            if not line:
                self.stop()
                raise SystemExit("awdit serve exited during start-up")
            if line.startswith("listening on "):
                self.port = int(line.rsplit(":", 1)[1])
            elif line.startswith("metrics on "):
                self.metrics_port = int(line.rsplit(":", 1)[1])

    def scrape(self):
        url = f"http://127.0.0.1:{self.metrics_port}/metrics"
        with urllib.request.urlopen(url, timeout=10) as r:
            text = r.read().decode()
        values = {}
        for line in text.splitlines():
            if line and not line.startswith("#"):
                name, _, value = line.rpartition(" ")
                values[name] = float(value)
        return values

    def peak_rss_kb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
        return 0

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def run_serve(run):
    server = run.setup(start_server=True)
    files = run.manifest["files"]
    tenants = ",".join(f"{f['name']}:{f['level']}:{f['window']}:"
                       f"{f['conn']}:{f['path']}" for f in files)

    def scenarios(server, label, trace_prefix):
        """Whole scenarios until --seconds are spent (at least
        SERVE_MIN_SCENARIOS), each against a fresh server (the first one is
        set-up's): per-scenario figures, medians across them."""
        reps, spent = [], 0.0
        while len(reps) < SERVE_MIN_SCENARIOS or spent < run.args.seconds:
            if server is None:
                server = Server(run.awdit, os.path.join(
                    run.work, f"server-{label}{len(reps)}"))
            argv = ["loadgen", "--port", str(server.port), "--tenants",
                    tenants, "--suffix", f"-r{len(reps)}"]
            if trace_prefix:
                argv += ["--trace-out", f"{trace_prefix}{len(reps)}"]
            try:
                t0 = time.perf_counter()
                rep = run.driver_json(*argv)
                spent += time.perf_counter() - t0
                rep["metrics"] = server.scrape()
                rep["peak_rss_kb"] = server.peak_rss_kb()
                rep["sink"] = server.sink
            finally:
                server.stop()
                server = None
            reps.append(rep)
        return reps

    def phase2_s(rep):
        return rep["phase2_end"] - rep["phase2_start"]

    def metric_sum(reps, name):
        return sum(r["metrics"].get(name, 0) for r in reps)

    reps = untraced = scenarios(server, "", None)
    if run.args.trace:
        trace_prefix = os.path.join(run.work, "loadgen.trace")
        reps = scenarios(None, "traced", trace_prefix)

    # Probe latencies, timed from when each probe was due.
    latencies = []
    for rep in reps:
        rep["acks"] = []
        for t in rep["tenants"]:
            for lat in stats.due_latencies(t["probe_due"], t["replies"]):
                latencies.append(None if lat is None else lat * 1000)
                if lat is not None:
                    rep["acks"].append(lat * 1000)
        run.attempted += len(rep["tenants"])
        for err in rep["errors"]:
            run.fail(f"server error line: {err}")
        if rep["unexpected"]:
            run.fail(f"{rep['unexpected']} unexpected reply lines")
    run.attempted += len(latencies)
    missing = sum(1 for x in latencies if x is None)
    over = sum(1 for x in latencies
               if x is not None and x > SERVE_ACK_LIMIT_MS)
    if missing or over:
        say(f"FAIL: {missing} probes without reply, {over} over "
            f"{SERVE_ACK_LIMIT_MS} ms")
        run.failed += missing + over
    acks = [x for x in latencies if x is not None]
    check_tenants(run, files, reps)

    backlog_max, growing = 0, False
    for rep in reps:
        p1 = [(t, b) for t, b in zip(rep["backlog_t"], rep["backlog_bytes"])
              if t < rep["phase2_start"]]
        backlog_max = max([backlog_max] + [b for _, b in p1])
        growing |= stats.backlog_growing([t for t, _ in p1],
                                         [b for _, b in p1],
                                         SERVE_BACKLOG_GROWTH_BYTES)
    if growing:
        say("WARNING: backlog grew during phase 1; the offered rate is above "
            "what the server drains, so the ack latencies are not steady")
    say(f"scenarios {len(reps)}, probes n={len(latencies)}, phase 2 "
        + " ".join(f"{phase2_s(r):.3f}" for r in reps) + " s, hot upgrades "
        f"{metric_sum(reps, 'awdit_server_hot_upgrades_total'):g}")
    q = stats.highest_supported_percentile(len(acks))
    if q:
        say(f"ack p{q:g} = {stats.percentile(acks, q):.3f} ms over "
            f"n={len(acks)} (the highest percentile with "
            f"{stats.MIN_BEYOND} samples beyond)")

    if not run.args.trace:
        run.metric("txns_per_s", statistics.median(
            (r["total_txns"] - r["phase1_txns"]) / phase2_s(r) for r in reps))
        run.metric("latency_p50_ms", statistics.median(
            stats.percentile(r["acks"], 50) for r in reps))
        run.metric("latency_tail_ms", statistics.median(
            stats.supported_tail(r["acks"], 90) for r in reps))
        say(f"latency = STATS probe due -> reply, median over scenarios of "
            f"p50 / p90, limit {SERVE_ACK_LIMIT_MS} ms")
        run.metric("peak_rss_mb", statistics.median(
            r["peak_rss_kb"] for r in reps) / 1024)
        return

    times = run.write_trace([os.path.join(run.work, "gen.trace")] +
                            [f"{trace_prefix}{k}" for k in range(len(reps))])
    everyone = [t for r in reps for t in r["tenants"]]
    run.metric("workload.generate_ms", self_ms(times, "workload.generate"))
    run.metric("server.hello_ms_p50",
               stats.percentile([t["hello_ms"] for t in everyone], 50))
    run.metric("server.end_to_final_ms_max",
               max(1000 * (t["final_at"] - t["end_sent"]) for t in everyone))
    run.metric("server.hot_end_to_final_ms", statistics.median(
        1000 * (t["final_at"] - t["end_sent"]) for t in everyone
        if t["name"].startswith("hot")))
    run.metric("server.backlog_bytes_max", backlog_max)
    run.metric("server.backlog_growing", int(growing))
    run.metric("server.hot_upgrades",
               metric_sum(reps, "awdit_server_hot_upgrades_total"))
    run.metric("server.checkpoints",
               metric_sum(reps, "awdit_server_checkpoints_total"))
    run.metric("server.poll_max_stall_ms", max(
        r["metrics"].get("awdit_server_poll_max_stall_micros_lifetime", 0)
        for r in reps) / 1000)
    run.metric("server.probes", len(latencies))
    run.metric("server.ack_p99_ms", stats.percentile(acks, 99))
    hot = [lat * 1000 for r in reps for t in r["tenants"]
           if t["name"].startswith("hot")
           for lat in stats.due_latencies(t["probe_due"], t["replies"])
           if lat is not None]
    run.metric("server.hot_ack_p50_ms", stats.percentile(hot, 50))
    run.metric("loadgen.lag_ms_max", max(r["lag_ms_max"] for r in reps))
    run.metric("trace.overhead_pct",
               100 * (statistics.median(phase2_s(r) for r in reps) /
                      statistics.median(phase2_s(r) for r in untraced) - 1))


def check_tenants(run, files, reps):
    """Each tenant's sink JSONL + summary must equal a standalone
    `awdit monitor --json` run over the same history and options, and the
    FINAL the client saw must be that summary tagged with the stream."""

    def standalone(f):
        proc = subprocess.run(
            [run.awdit, "monitor", f["path"], "--level", f["level"],
             "--interval", "256", "--window", str(f["window"]), "--threads",
             "1", "--json"], stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        return proc.stdout

    with ThreadPoolExecutor(max_workers=min(os.cpu_count() or 1, 4)) as pool:
        expected = list(pool.map(standalone, files))
    for k, rep in enumerate(reps):
        by_name = {t["name"]: t for t in rep["tenants"]}
        for f, want in zip(files, expected):
            name = f"{f['name']}-r{k}"
            t = by_name.get(name)
            if t is None or t["final_at"] < 0 or not t["bye"]:
                run.fail(f"{name}: no FINAL")
                continue
            try:
                with open(os.path.join(rep["sink"], name + ".jsonl"),
                          "rb") as a, \
                        open(os.path.join(rep["sink"],
                                          name + ".summary.json"), "rb") as b:
                    got = a.read() + b.read()
            except OSError as e:
                run.fail(f"{name}: sink missing ({e})")
                continue
            summary = want.decode().splitlines()[-1] if want else ""
            if got != want:
                run.fail(f"{name}: sink differs from standalone awdit monitor")
            elif t["final"] != '{"stream":"%s",%s' % (name, summary[1:]):
                run.fail(f"{name}: FINAL differs from the sink summary")
            elif json.loads(summary)["consistent"] != (not f["inject"]):
                run.fail(f"{name}: verdict {summary}")


# --- Entry point -------------------------------------------------------------

WORKLOADS = {
    "monitor-cc-w16k": run_monitor,
    "oneshot-mixed": run_oneshot,
    "serve-tenants": run_serve,
}


def build(build_dir):
    """Configures and builds perfbench/ (which pulls in the repository's own
    build) once per checkout; later calls are a no-op make."""
    cmake_dir = os.path.join(build_dir, "cmake")
    os.makedirs(cmake_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(min(os.cpu_count() or 1, 4))
    with open(log_path, "w") as log:
        for cmd in (["cmake", "-S", HERE, "-B", cmake_dir,
                     "-DCMAKE_BUILD_TYPE=Release"],
                    ["cmake", "--build", cmake_dir, "-j", jobs]):
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              stdin=subprocess.DEVNULL).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                raise SystemExit(f"build failed: {' '.join(cmd)}")
    return (os.path.join(cmake_dir, "perfbench_driver"),
            os.path.join(cmake_dir, "awdit", "awdit"))


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or ".bench_build")
    driver, awdit = build(build_dir)
    run = Run(args, build_dir, driver, awdit)
    steal0, total0 = cpu_ticks()
    try:
        WORKLOADS[args.workload](run)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    # A virtual machine's stolen CPU time slows every figure alike; runs
    # that stole a lot are not comparable with quiet ones.
    steal1, total1 = cpu_ticks()
    say(f"host steal {100 * (steal1 - steal0) / max(1, total1 - total0):.1f}"
        " % of CPU time during the run")
    return run.finish()


if __name__ == "__main__":
    sys.exit(main())
