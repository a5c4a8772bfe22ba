#!/usr/bin/env python3
"""Repository benchmark for the hwf window-function library.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the library from ./src together with the benchmark's child program
(perfbench/CMakeLists.txt) into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), then runs one workload:

  cli_batch      CSV text -> ParseCsv -> PlanQuery -> EvaluateWindowSpecGroups
                 -> FormatTable, sequential, no cache (the hwf_cli path);
                 the caller moves to the next CPU before each operation.
  query_cold     SQL through an in-process QueryService whose tree cache is
                 smaller than one query's artifacts: every query builds.
  serve_warm     TcpServer + ServeServiceConnection over loopback, two
                 WireClients, skewed mix, artifacts warmed into the cache.
  ingest_mixed   APPEND batches of 1% of the table between reads, with
                 background compaction.
  shard_scatter  dist::Coordinator over two in-process loopback workers.

Each run executes a fixed operation sequence (a count of cycles of the
workload's mix set by --seconds) in a child process. Every result is
compared with a digest of the naive engine's result (WindowEngine::kNaive)
computed outside the timed window; a mismatch, an error or a crash counts
as a failed operation. A child killed by a signal is restarted with
untimed set-up and state replay and continues the same sequence.

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 it carries the per-layer metrics derived from the run's spans
(self time = span duration minus the part covered by its children), and a
Chrome trace is written under the build directory and checked with
tools/validate_trace.py. The line before the last is a JSON report with
the environment (seed, nproc, CPU model, threads, build type, commit).

Test hooks: --kill-at-op N makes the child SIGKILL itself when operation N
starts (first attempt only); --corrupt-op N flips operation N's digest;
--rows N shrinks the tables (perfbench/test_perfbench.py).
"""

import argparse
import hashlib
import json
import math
import os
import platform
import selectors
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

# Cycles of the mix per second of --seconds, calibrated so the timed
# window lasts about --seconds on a 4-core host (cli_batch about 2.2 times
# that: its operations take ~1 s each and their speed drifts with the
# host's load, so its medians need six cycles). The count depends on
# --seconds only, so every run executes the same operations.
CYCLES_PER_SECOND = {
    "cli_batch": 0.5,      # 4 ops of ~1.1 s
    "query_cold": 0.7,     # 8 ops of ~0.15 s
    "serve_warm": 1.2,     # 10 ops over 2 clients
    "ingest_mixed": 3.5,   # 1 append + 2 reads of ~0.13 s
    "shard_scatter": 1.3,  # 5 ops of ~0.12 s
}
# Digest form of each workload's results, as the child's O lines order
# them: result values, the result as CSV text (wire payload), and input
# plus result as CSV text (CLI output).
DIGEST_FORMS = ("value", "text", "cli")
ORACLE_FORM = {"cli_batch": "cli", "serve_warm": "text"}

MAX_RESTARTS = 25
RUN_DEADLINE_S = 165.0  # after the build; the contract allows 180 s
STALL_S = 60.0          # no output for this long = hung child

END_TO_END = [
    ("setup_s", "s"),
    ("queries_per_s", "1/s"),
    ("rows_per_s", "rows/s"),
    ("query_p50_ms", "ms"),
    ("query_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER = [
    ("csv.parse_ms_p50", "ms"),
    ("csv.parse_mb_per_s", "MB/s"),
    ("format.ms_p50", "ms"),
    ("format.mb_per_s", "MB/s"),
    ("plan.ms_p50", "ms"),
    ("service.queue_wait_ms_p50", "ms"),
    ("service.queue_wait_ms_tail", "ms"),
    ("service.exec_ms_p50", "ms"),
    ("exec.wall_ms_p50", "ms"),
    ("exec.partition_ms", "ms"),
    ("exec.sort_ms", "ms"),
    ("exec.preprocess_ms", "ms"),
    ("exec.frame_resolve_ms", "ms"),
    ("exec.tree_build_ms", "ms"),
    ("exec.probe_ms", "ms"),
    ("exec.delta_merge_ms", "ms"),
    ("exec.phase_sum_over_wall", "ratio"),
    ("exec.sorts_shared", "count"),
    ("pool.tasks_per_query", "count"),
    ("pool.idle_wakeups_per_query", "count"),
    ("pool.caller_run_frac", "ratio"),
    ("sort.comparisons_per_row", "count"),
    ("sort.ovc_resolved_frac", "ratio"),
    ("mst.levels_built_per_query", "count"),
    ("mst.level_bytes_per_row", "B"),
    ("mst.cascade_lookups_per_query", "count"),
    ("mst.binary_search_fallbacks_per_query", "count"),
    ("mst.batch_probe_frac", "probes/row"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions", "count"),
    ("cache.bytes", "B"),
    ("wire.overhead_ms_p50", "ms"),
    ("wire.bytes_per_query", "B"),
    ("ingest.append_rows_per_s", "rows/s"),
    ("ingest.append_p50_ms", "ms"),
    ("ingest.append_server_ms_p50", "ms"),
    ("ingest.delta_merges", "count"),
    ("ingest.merged_cursor_builds", "count"),
    ("ingest.compactions", "count"),
    ("ingest.compaction_ms_total", "ms"),
    ("ingest.query_p50_during_compaction_ms", "ms"),
    ("dist.subquery_ms_p50", "ms"),
    ("dist.straggler_ms_p50", "ms"),
    ("dist.coord_overhead_ms_p50", "ms"),
    ("dist.retries", "count"),
    ("dist.scatter_frac", "ratio"),
    ("restarts", "count"),
    ("unattributed_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
]

EXEC_PHASES = ["partition", "sort", "preprocess", "frame_resolve",
               "tree_build", "probe", "spill", "delta_merge"]


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Build


def build_dir(root):
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(root, base, "perfbench")


def build(root):
    """Configures and builds the child program; returns its path."""
    out = build_dir(root)
    os.makedirs(out, exist_ok=True)
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for step in steps:
        result = subprocess.run(step, stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT, text=True)
        if result.returncode != 0:
            sys.stderr.write(result.stdout[-4000:])
            raise SystemExit(f"perfbench: build failed: {' '.join(step)}")
    return os.path.join(out, "perfbench_child")


# ---------------------------------------------------------------------------
# Environment


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def cpu_times():
    """The aggregate cpu line of /proc/stat (None where unavailable)."""
    try:
        with open("/proc/stat", encoding="utf-8") as f:
            return [int(v) for v in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return None


def steal_fraction(before, after):
    """Share of CPU time the hypervisor gave to other guests between two
    cpu_times() readings: a host-contention marker for reading the
    timings of a run."""
    if not before or not after:
        return None
    delta = [b - a for a, b in zip(before, after)]
    return ratio(delta[7], sum(delta))


def commit(root):
    try:
        result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL, text=True,
                                timeout=10)
        if result.returncode == 0:
            return result.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def tree_sha256(path):
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(path)):
        dirs.sort()
        for name in sorted(files):
            full = os.path.join(base, name)
            digest.update(os.path.relpath(full, path).encode())
            with open(full, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()


def file_sha256(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


# ---------------------------------------------------------------------------
# Oracle digest cache: naive-engine digests keyed by the child binary, so a
# seed seen before in this checkout skips the naive recomputation.


class OracleCache:
    """Naive-engine digests of (rows, seed, oracle key) in every form the
    child reported, keyed by the child binary; any workload sharing a query
    and seed reuses them. An oracle key is the query's number, or for an
    ingest state the number and a hash of the APPEND ops applied."""

    def __init__(self, path, binary_sha, rows, seed):
        self.path = path
        self.binary_sha = binary_sha
        self.prefix = f"{rows}:{seed}:"
        self.entries = {}
        try:
            with open(path, encoding="utf-8") as f:
                doc = json.load(f)
            if doc.get("binary") == binary_sha:
                self.entries = doc.get("digests", {})
        except (OSError, ValueError):
            pass

    def known(self):
        return {k[len(self.prefix):]: v for k, v in self.entries.items()
                if k.startswith(self.prefix)}

    def store(self, digests):
        for key, forms in digests.items():
            self.entries[f"{self.prefix}{key}"] = forms
        tmp = self.path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as f:
            json.dump({"binary": self.binary_sha, "digests": self.entries}, f)
        os.replace(tmp, self.path)


# ---------------------------------------------------------------------------
# Crash-tolerant runner


class RunState:
    def __init__(self):
        self.info = None
        self.oracle = {}
        self.setup = []
        self.ops = {}           # op -> record
        self.crashed = {}       # op -> cause, for ops that never ended
        self.spans = []
        self.segments = []      # per segment: baseline, ops in order
        self.harness_errors = []
        self.restarts = 0
        self.peak_rss_kb = 0
        self.begun = set()


def parse_end(fields):
    record = {
        "op": int(fields[1]), "client": int(fields[2]), "kind": fields[3],
        "t0": int(fields[4]), "t1": int(fields[5]), "status": fields[6],
        "rows": int(fields[7]), "bytes": int(fields[8]),
        "traced": fields[9] == "1",
    }
    if len(fields) > 10:
        record["snapshot"] = json.loads(" ".join(fields[10:]))
    return record


def run_segment(cmd, state, deadline):
    """Runs one child process to its end; returns its exit code (negative:
    the signal that killed it)."""
    segment = {"baseline": None, "ops": []}
    state.segments.append(segment)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE)
    selector = selectors.DefaultSelector()
    selector.register(proc.stdout, selectors.EVENT_READ)
    buffer = b""
    done = False
    killed = False
    last_output = time.monotonic()
    inflight = set()
    while True:
        now = time.monotonic()
        if not killed and (now > deadline or now - last_output > STALL_S):
            log("child over deadline or stalled; killing it")
            proc.kill()
            killed = True
        events = selector.select(timeout=1.0)
        if not events:
            if proc.poll() is not None:
                break
            continue
        chunk = os.read(proc.stdout.fileno(), 1 << 16)
        if not chunk:
            break
        last_output = time.monotonic()
        buffer += chunk
        *lines, buffer = buffer.split(b"\n")
        for raw in lines:
            line = raw.decode("utf-8", "replace")
            tag, _, rest = line.partition(" ")
            if tag == "B":
                op = int(rest)
                inflight.add(op)
                state.begun.add(op)
            elif tag == "E":
                record = parse_end(line.split(" "))
                inflight.discard(record["op"])
                state.ops[record["op"]] = record
                segment["ops"].append(record)
            elif tag == "P":
                state.spans.append(json.loads(rest))
            elif tag == "O":
                key, *forms = rest.split(" ")
                state.oracle[key] = dict(zip(DIGEST_FORMS, forms))
            elif tag == "S":
                state.setup.append(float(rest))
            elif tag == "K":
                segment["baseline"] = json.loads(rest)
            elif tag == "I":
                state.info = json.loads(rest)
            elif tag == "X":
                state.harness_errors.append(rest)
                log(f"child error: {rest}")
            elif tag == "D":
                done = True
    selector.close()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    state.peak_rss_kb = max(state.peak_rss_kb, usage.ru_maxrss)
    for op in inflight:
        state.crashed[op] = "crash" if proc.returncode < 0 else "exit"
    if proc.returncode < 0:
        log(f"child died by signal {-proc.returncode} with ops "
            f"{sorted(inflight)} in flight")
    elif proc.returncode == 0 and not done:
        proc.returncode = 1
    return proc.returncode


def run_workload(binary, args, cycles, nproc, oracle_cache):
    state = RunState()
    state.oracle = oracle_cache.known()
    deadline = time.monotonic() + RUN_DEADLINE_S
    first_attempt = True
    while True:
        # Set-up is timed (and repeated) until one segment has reported it;
        # after that a restart sets up once, untimed.
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--cycles", str(cycles), "--trace", str(args.trace),
               "--nproc", str(nproc), "--rows", str(args.rows),
               "--timed-setup", "0" if state.setup else "1"]
        if state.oracle:
            form = ORACLE_FORM.get(args.workload, "value")
            cmd += ["--oracle", ",".join(f"{key}:{d[form]}" for key, d in
                                         sorted(state.oracle.items())
                                         if form in d)]
        if state.begun:
            clients = state.info["clients"]
            resume = []
            for c in range(clients):
                mine = [op for op in state.begun if op % clients == c]
                resume.append(max(mine) + clients if mine else c)
            cmd += ["--resume", ",".join(map(str, resume))]
            acked = sorted(op for op, r in state.ops.items()
                           if r["kind"] == "append" and r["status"] == "ok")
            if acked:
                cmd += ["--replay", ",".join(map(str, acked))]
        if args.corrupt_op is not None:
            cmd += ["--corrupt-op", str(args.corrupt_op)]
        if args.kill_at_op is not None and first_attempt:
            cmd += ["--kill-at-op", str(args.kill_at_op)]
        code = run_segment(cmd, state, deadline)
        first_attempt = False
        if code >= 0:
            break  # finished, or a harness error (reported as incorrect)
        if time.monotonic() > deadline or state.restarts >= MAX_RESTARTS:
            log("giving up on restarts; remaining operations count as failed")
            break
        state.restarts += 1
    if state.oracle:
        oracle_cache.store(state.oracle)
    return state


# ---------------------------------------------------------------------------
# Metrics


def percentile(values, pct):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(values):
    """The highest percentile with at least 10 samples beyond it (never
    below the median); returns (value, percentile, samples)."""
    n = len(values)
    pct = math.floor(100.0 * (n - 10) / n) if n else 0
    if pct <= 50:
        return p50(values), 50, n
    return percentile(values, pct), pct, n


def p50(values):
    return statistics.median(values) if values else 0.0


def window_seconds(state):
    """Sum over segments of first-op start to last-op end."""
    total = 0.0
    for segment in state.segments:
        done = [r for r in segment["ops"] if r["t1"] > 0]
        if done:
            total += (max(r["t1"] for r in done) -
                      min(r["t0"] for r in done)) * 1e-9
    return total


def latency_ms(record):
    return (record["t1"] - record["t0"]) * 1e-6


def closed_loop_rates(state):
    """Queries and input rows per second of the closed loop, by Little's
    law: clients / latency. Each client's share of each cycle gives one
    rate (its completed queries over the summed latency of everything it
    ran in that cycle, APPENDs included); the median of those rates damps
    bursts of outside load within a run."""
    mix_len = len(state.info["mix"])
    clients = state.info["clients"]
    groups = {}
    for r in state.ops.values():
        if r["status"] == "ok":
            groups.setdefault((r["client"], r["op"] // mix_len), []).append(r)
    query_rates, row_rates = [], []
    for ops in groups.values():
        busy = sum(r["t1"] - r["t0"] for r in ops) * 1e-9
        queries = [r for r in ops if r["kind"] != "append"]
        if busy > 0 and queries:
            query_rates.append(len(queries) / busy)
            row_rates.append(sum(r["rows"] for r in queries) / busy)
    return clients * p50(query_rates), clients * p50(row_rates)


def mix_p50(state, queries):
    """Median latency of each query kind, averaged with the weights the
    kinds have in the mix: a median of the whole mixture would jump
    between the clusters of different kinds."""
    mix = state.info["mix"]
    by_kind = {}
    for r in queries:
        by_kind.setdefault(r["kind"], []).append(latency_ms(r))
    weights = {kind: mix.count(kind) for kind in by_kind}
    total = sum(weights.values())
    return ratio(sum(weights[k] * p50(v) for k, v in by_kind.items()), total)


def append_rate(appends):
    """APPEND rows per second of APPEND time: the window would also count
    the reads between them."""
    busy = sum(r["t1"] - r["t0"] for r in appends) * 1e-9
    return ratio(sum(r["rows"] for r in appends), busy)


def end_to_end(state):
    queries = [r for r in state.ops.values()
               if r["kind"] != "append" and r["status"] == "ok"]
    tail_value, tail_pct, samples = tail([latency_ms(r) for r in queries])
    queries_per_s, rows_per_s = closed_loop_rates(state)
    values = {
        "setup_s": p50(state.setup),
        "queries_per_s": queries_per_s,
        "rows_per_s": rows_per_s,
        "query_p50_ms": mix_p50(state, queries),
        "query_tail_ms": tail_value,
        "peak_rss_mb": state.peak_rss_kb / 1024.0,
    }
    window = window_seconds(state) or 1e-9
    detail = {"query_tail_percentile": tail_pct, "query_samples": samples,
              "window_s": window,
              "window_queries_per_s": len(queries) / window}
    appends = [r for r in state.ops.values()
               if r["kind"] == "append" and r["status"] == "ok"]
    if appends:
        detail["append_rows_per_s"] = append_rate(appends)
        detail["append_p50_ms"] = p50([latency_ms(r) for r in appends])
    return values, detail


def self_times(spans):
    """Span id -> self time in ns: duration minus the union of its
    children's intervals, clipped to the span."""
    children = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(span)
    result = {}
    for span in spans:
        lo, hi = span["t0"], span["t1"]
        covered = 0
        cursor = lo
        for child in sorted(children.get(span["id"], []),
                            key=lambda s: s["t0"]):
            a, b = max(child["t0"], cursor), min(child["t1"], hi)
            if b > a:
                covered += b - a
                cursor = b
        result[span["id"]] = max(0, (hi - lo) - covered)
    return result


def counter_totals(state):
    """Counter and gauge deltas over every segment's operations."""
    counters, gauges = {}, {}
    ops = 0
    rows = 0
    for segment in state.segments:
        base = segment["baseline"]
        snaps = [r for r in segment["ops"] if "snapshot" in r]
        if base is None or not snaps:
            continue
        last = snaps[-1]["snapshot"]
        for key, value in last["counters"].items():
            counters[key] = counters.get(key, 0) + value - base["counters"][key]
        for key, value in last["gauges"].items():
            if key == "cache_bytes":
                gauges[key] = value
            else:
                gauges[key] = gauges.get(key, 0) + value - base["gauges"][key]
        queries = [r for r in segment["ops"] if r["kind"] != "append"]
        ops += len(queries)
        rows += sum(r["rows"] for r in queries)
    return counters, gauges, ops, rows


def ratio(num, den):
    return num / den if den else 0.0


def per_layer(state):
    spans = state.spans
    selfs = self_times(spans)
    by_name = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)

    def self_ms(name):
        return [selfs[s["id"]] * 1e-6 for s in by_name.get(name, [])]

    def dur_ms(span):
        return (span["t1"] - span["t0"]) * 1e-6

    def throughput(name):
        items = by_name.get(name, [])
        seconds = sum(selfs[s["id"]] for s in items) * 1e-9
        return ratio(sum(s["args"].get("bytes", 0) for s in items) / 1e6,
                     seconds)

    m = {}
    m["csv.parse_ms_p50"] = p50(self_ms("csv.parse"))
    m["csv.parse_mb_per_s"] = throughput("csv.parse")
    m["format.ms_p50"] = p50(self_ms("format"))
    m["format.mb_per_s"] = throughput("format")
    m["plan.ms_p50"] = p50(self_ms("plan"))
    queue = self_ms("service.queue_wait")
    m["service.queue_wait_ms_p50"] = p50(queue)
    m["service.queue_wait_ms_tail"] = tail(queue)[0]
    m["service.exec_ms_p50"] = p50(self_ms("service.exec"))

    execs = by_name.get("exec", [])
    m["exec.wall_ms_p50"] = p50(self_ms("exec"))
    for phase in ["partition", "sort", "preprocess", "frame_resolve",
                  "tree_build", "probe", "delta_merge"]:
        m[f"exec.{phase}_ms"] = ratio(
            sum(s["args"].get(f"{phase}_ms", 0) for s in execs), len(execs))
    phase_sum = sum(s["args"].get(f"{p}_ms", 0) for s in execs
                    for p in EXEC_PHASES)
    m["exec.phase_sum_over_wall"] = ratio(
        phase_sum, sum(s["args"].get("wall_ms", 0) for s in execs))

    counters, gauges, queries, rows = counter_totals(state)

    def c(name):
        return counters.get(name, 0)

    m["exec.sorts_shared"] = ratio(c("executor.sorts_shared"), queries)
    m["pool.tasks_per_query"] = ratio(c("pool.tasks_submitted"), queries)
    m["pool.idle_wakeups_per_query"] = ratio(c("pool.idle_wakeups"), queries)
    m["pool.caller_run_frac"] = ratio(c("pool.tasks_run_by_caller"),
                                      c("pool.tasks_submitted"))
    m["sort.comparisons_per_row"] = ratio(c("sort.comparisons"), rows)
    m["sort.ovc_resolved_frac"] = ratio(c("sort.ovc_resolved"),
                                        c("sort.comparisons"))
    m["mst.levels_built_per_query"] = ratio(c("mst.levels_built"), queries)
    m["mst.level_bytes_per_row"] = ratio(c("mst.level_bytes_allocated"), rows)
    m["mst.cascade_lookups_per_query"] = ratio(c("mst.cascade_lookups"),
                                               queries)
    m["mst.binary_search_fallbacks_per_query"] = ratio(
        c("mst.binary_search_fallbacks"), queries)
    m["mst.batch_probe_frac"] = ratio(c("mst.probe.batch_queries"), rows)
    m["cache.hit_ratio"] = ratio(c("cache.hits"),
                                 c("cache.hits") + c("cache.misses"))
    m["cache.evictions"] = c("cache.evictions")
    m["cache.bytes"] = gauges.get("cache_bytes", 0)

    requests = by_name.get("wire.request", [])
    m["wire.overhead_ms_p50"] = p50(self_ms("wire.request"))
    m["wire.bytes_per_query"] = ratio(
        sum(s["args"].get("bytes", 0) for s in requests), len(requests))

    appends = [r for r in state.ops.values()
               if r["kind"] == "append" and r["status"] == "ok"]
    m["ingest.append_rows_per_s"] = append_rate(appends)
    m["ingest.append_p50_ms"] = p50([(r["t1"] - r["t0"]) * 1e-6
                                     for r in appends])
    m["ingest.append_server_ms_p50"] = p50(
        [dur_ms(s) for s in by_name.get("ingest.append", [])])
    m["ingest.delta_merges"] = c("ingest.delta_merges")
    m["ingest.merged_cursor_builds"] = c("ingest.merged_cursor_builds")
    m["ingest.compactions"] = c("ingest.compactions")
    m["ingest.compaction_ms_total"] = gauges.get("compaction_seconds",
                                                 0) * 1e3
    m["ingest.query_p50_during_compaction_ms"] = p50(
        [dur_ms(s) for s in by_name.get("op", [])
         if s["args"].get("during_compaction") == 1])

    children = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(span)
    subqueries = by_name.get("dist.subquery", [])
    straggler, overhead = [], []
    for query in by_name.get("dist.query", []):
        subs = [dur_ms(s) for s in children.get(query["id"], [])
                if s["name"] == "dist.subquery"]
        if subs:
            straggler.append(max(subs))
            overhead.append(dur_ms(query) - max(subs))
    m["dist.subquery_ms_p50"] = p50([dur_ms(s) for s in subqueries])
    m["dist.straggler_ms_p50"] = p50(straggler)
    m["dist.coord_overhead_ms_p50"] = p50(overhead)
    m["dist.retries"] = gauges.get("dist_retries", 0)
    m["dist.scatter_frac"] = ratio(
        gauges.get("dist_scatter", 0),
        gauges.get("dist_scatter", 0) + gauges.get("dist_fallback", 0))

    m["restarts"] = state.restarts
    roots = by_name.get("op", [])
    m["unattributed_frac"] = ratio(sum(selfs[s["id"]] for s in roots),
                                   sum(s["t1"] - s["t0"] for s in roots))
    m["trace.overhead_frac"] = tracing_overhead(state)
    return m


def tracing_overhead(state):
    """Traced vs untraced latency of the same query kinds in this run,
    as (sum of per-kind traced medians) / (untraced ones) - 1."""
    traced, plain = {}, {}
    for r in state.ops.values():
        if r["status"] != "ok" or r["kind"] == "append":
            continue
        bucket = traced if r["traced"] else plain
        bucket.setdefault(r["kind"], []).append(r["t1"] - r["t0"])
    kinds = [k for k in traced if k in plain]
    num = sum(p50(traced[k]) for k in kinds)
    den = sum(p50(plain[k]) for k in kinds)
    return ratio(num, den) - 1.0 if den else 0.0


def write_trace(state, path):
    """Chrome trace_event JSON of every recorded span."""
    if not state.spans:
        return False
    origin = min(s["t0"] for s in state.spans)
    clients = {r["op"]: r["client"] for r in state.ops.values()}
    events = []
    for tid in sorted(set(clients.values()) | {0}):
        events.append({"name": "thread_name", "ph": "M", "pid": 1,
                       "tid": tid + 1, "args": {"name": f"client {tid}"}})
    for span in state.spans:
        args = dict(span["args"])
        args.update({"id": span["id"], "parent": span["parent"],
                     "query_id": span["qid"], "op": span["op"]})
        events.append({
            "name": span["name"], "ph": "X", "pid": 1,
            "tid": clients.get(span["op"], 0) + 1,
            "ts": (span["t0"] - origin) / 1e3,
            "dur": max(0, span["t1"] - span["t0"]) / 1e3,
            "args": args,
        })
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)
    return True


def validate_trace(root, path):
    tool = os.path.join(root, "tools", "validate_trace.py")
    result = subprocess.run([sys.executable, tool, "--trace", path],
                            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                            text=True, timeout=60)
    if result.returncode != 0:
        log("trace validation failed:\n" + result.stdout[-2000:])
    return result.returncode == 0


# ---------------------------------------------------------------------------


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(CYCLES_PER_SECOND))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--kill-at-op", type=int, default=None)
    parser.add_argument("--corrupt-op", type=int, default=None)
    parser.add_argument("--rows", type=int, default=200000)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.exists(os.path.join(root, "src", "CMakeLists.txt")):
        log("run from the repository root: ./src/CMakeLists.txt not found")
        return 2
    binary = build(root)
    nproc = max(1, len(os.sched_getaffinity(0)))
    cycles = max(2, round(args.seconds * CYCLES_PER_SECOND[args.workload]))
    cache = OracleCache(os.path.join(build_dir(root), "oracle-cache.json"),
                        file_sha256(binary), args.rows, args.seed)

    cpu_before = cpu_times()
    state = run_workload(binary, args, cycles, nproc, cache)
    steal = steal_fraction(cpu_before, cpu_times())

    mix = state.info["mix"] if state.info else []
    planned = cycles * len(mix) if mix else len(state.ops)
    ok = sum(1 for r in state.ops.values() if r["status"] == "ok")
    causes = {}
    for r in state.ops.values():
        if r["status"] != "ok":
            causes[r["status"]] = causes.get(r["status"], 0) + 1
    for cause in state.crashed.values():
        causes[cause] = causes.get(cause, 0) + 1
    never_run = planned - len(state.ops) - len(state.crashed)
    if never_run > 0:
        causes["not_run"] = never_run
    attempted = max(planned, 1)
    failed = attempted - ok
    mismatches = causes.get("mismatch", 0)

    report = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "cycles": cycles,
        "nproc": nproc, "cpu_model": cpu_model(), "build_type": "Release",
        "commit": commit(root), "src_sha256": tree_sha256(
            os.path.join(root, "src")),
        "program": state.info, "restarts": state.restarts,
        "failures": causes, "harness_errors": state.harness_errors,
        "oracle_digests": len(state.oracle), "cpu_steal_frac": steal,
    }
    correct = mismatches == 0 and not state.harness_errors and ok > 0
    if args.trace:
        layer = per_layer(state)
        trace_dir = os.path.join(build_dir(root), "traces")
        os.makedirs(trace_dir, exist_ok=True)
        path = os.path.join(trace_dir,
                            f"{args.workload}-seed{args.seed}.json")
        valid = write_trace(state, path) and validate_trace(root, path)
        correct = correct and valid
        report["trace_file"] = os.path.relpath(path, root)
        report["trace_valid"] = valid
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit in PER_LAYER}
    else:
        values, detail = end_to_end(state)
        report.update(detail)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
