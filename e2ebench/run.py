#!/usr/bin/env python3
"""End-to-end benchmark of fairlaw_audit and fairlaw_serve.

    python3 e2ebench/run.py --workload audit_csv_1m --seed 1 --seconds 20 --trace 0
    python3 e2ebench/run.py --workload serve_query_mix --seed 1 --seconds 20 --trace 1
    python3 e2ebench/run.py --workload serve_ingest_1m --seed 1 --seconds 1 --trace 0 --smoke

Builds the tree from source into .bench_build/ (the first run takes a few
minutes), generates the workload's input with fairlaw_generate from
--seed, and then either

  --trace 0  drives the real binaries for about --seconds seconds and
             reports the end-to-end metrics, with throughput scaled by
             the time of a fixed host calibration kernel (calib.cc), or
  --trace 1  runs the binary once for its reference output, then replays
             the same input in-process (fairlaw_replay, replay.cc) and
             reports per-layer metrics.

Every run checks the program's outputs (byte identity across thread
counts, accepted == sent, no error frames, the replay reproducing the
binary's output) and counts every failed check or operation. The last
line of stdout is one JSON object:
  {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
and the exit code is 1 when any check or operation failed.
The lines above it are the human-readable report: every metric as median
and quartiles with its sample count, the host fingerprint, and the
per-layer table. README.md in this directory maps layers to metrics.
--smoke shrinks every input to a few thousand records (the tests use it).
"""

import argparse
import json
import math
import os
import re
import select
import selectors
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "e2ebench"
WORK_DIR = ROOT / ".bench_build" / "e2ebench-work"
TOOLS_DIR = BUILD_DIR / "fairlaw" / "tools"
TARGETS = ["fairlaw_generate", "fairlaw_audit", "fairlaw_serve",
           "fairlaw_replay", "fairlaw_calib", "fairlaw_peak_rss"]

# Process start plus one tiny request is a few milliseconds, so the
# set-up median needs many samples to sit still between runs.
SETUP_PER_RUN = 9
# Each run measures at least this many (nproc, 1-thread) pairs.
MIN_PAIRS = 2
# Before each run, the host calibration kernel (calib.cc) runs for at
# least CALIB_REPS reps and about CALIB_SHARE of the last run's time.
CALIB_REPS = 3
CALIB_SHARE = 0.05
# A daemon run's throughput is the median over this many stretches of
# the stream with equal event counts, so one stall does not move it.
SEGMENTS = 20
# Rows of the set-up CSV: smaller inputs make the label metrics error
# out on groups without positives, which would time an error path.
SETUP_ROWS = 100
# Hard ceiling on any one child process, well inside the run's limit.
CHILD_TIMEOUT_S = 120.0

WORKLOADS = {
    "audit_csv_1m": {
        "product": "audit",
        "generate": ["hiring"],
        "n": 1_000_000,
        "smoke_n": 2000,
        "flags": ["--protected=gender", "--pred=hired", "--label=merit"],
        "loop": "batch: one audit process at a time",
    },
    "audit_suite_200k": {
        "product": "audit",
        "generate": ["promotion"],
        "n": 200_000,
        "smoke_n": 2000,
        "flags": ["--protected=gender", "--pred=promoted", "--label=merit",
                  "--strata=race", "--subgroups=gender,race",
                  "--proxies=performance,tenure"],
        "loop": "batch: one audit process at a time",
    },
    "serve_ingest_1m": {
        "product": "serve",
        "generate": ["events", "--events-jsonl", "--batch=1000",
                     "--with-strata"],
        "n": 1_000_000,
        "smoke_n": 5000,
        "flags": ["--with-strata"],
        "closed": False,
        "loop": "saturating: one producer writes as fast as the pipe drains",
    },
    "serve_query_mix": {
        "product": "serve",
        "generate": ["events", "--events-jsonl", "--batch=500",
                     "--query-every=1000", "--with-strata"],
        "n": 300_000,
        "smoke_n": 6000,
        "flags": ["--with-strata", "--bucket-width=1000",
                  "--window-buckets=256"],
        "closed": True,
        "loop": "closed: one client, one request in flight",
    },
}

# (name, unit) of the metrics on the result line, in BENCHMARK.json's
# order. Every workload reports each of them; README.md gives the
# per-product reading.
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [(m["name"], m["unit"]) for m in CONTRACT["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in CONTRACT["per_layer"]]


class Tally:
    """Operations attempted and failed; a failure keeps its reason."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def fail(self, count, what):
        if count:
            self.failures.extend([what] * count)


def die(message):
    print(f"e2ebench: {message}", file=sys.stderr)
    sys.exit(2)


def nproc():
    return len(os.sched_getaffinity(0))


# --------------------------------------------------------------- build

def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die(f"no fairlaw source tree at {ROOT} (src/CMakeLists.txt missing)")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(("configure.log",
                      ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                       "-DCMAKE_BUILD_TYPE=Release"]))
    steps.append(("build.log", ["cmake", "--build", str(BUILD_DIR), "-j",
                                str(nproc()), "--target", *TARGETS]))
    for log_name, step in steps:
        log = BUILD_DIR / log_name
        with open(log, "wb") as out:
            code = subprocess.call(step, stdout=out, stderr=subprocess.STDOUT,
                                   cwd=ROOT)
        if code != 0:
            tail = log.read_text(errors="replace").splitlines()[-30:]
            print("\n".join(tail), file=sys.stderr)
            die(f"build step failed ({' '.join(step[:2])}); see {log}")


def host_fingerprint():
    cache = (BUILD_DIR / "CMakeCache.txt").read_text(errors="replace")
    configure = BUILD_DIR / "configure.log"
    log = configure.read_text(errors="replace") if configure.is_file() else ""

    def find(pattern, text):
        found = re.findall(pattern, text, re.M)
        return found[-1] if found else "unknown"

    compiler = "unknown"
    for path in (BUILD_DIR / "CMakeFiles").glob("*/CMakeCXXCompiler.cmake"):
        text = path.read_text(errors="replace")
        compiler = (find(r'CMAKE_CXX_COMPILER_ID "([^"]*)"', text) + " " +
                    find(r'CMAKE_CXX_COMPILER_VERSION "([^"]*)"', text))
    return {
        "nproc": nproc(),
        "simd": find(r"fairlaw: SIMD backend = (\S+)", log),
        "compiler": compiler,
        "build_type": find(r"^CMAKE_BUILD_TYPE:\w+=(.*)$", cache),
    }


# -------------------------------------------------------------- inputs

def tool(name):
    """A fairlaw binary under test."""
    return str(TOOLS_DIR / name)


def bench_tool(name):
    """A binary of the benchmark's own (replay.cc, calib.cc, peak_rss.cc)."""
    return str(BUILD_DIR / name)


def spawn(command, rss_report=None, **popen_args):
    """Starts `command` in a process group of its own. With an
    `rss_report` path it runs under fairlaw_peak_rss (peak_rss.cc), which
    writes the command's own peak RSS there when it exits."""
    if rss_report is not None:
        Path(rss_report).unlink(missing_ok=True)
        command = [bench_tool("fairlaw_peak_rss"), str(rss_report), *command]
    return subprocess.Popen(command, start_new_session=True, **popen_args)


def reap(proc, deadline, rss_report=None):
    """Waits for `proc` to exit, killing its process group at `deadline`.

    Returns (exit code, peak RSS in MB from `rss_report`, else 0); a
    killed process reports a code every caller counts as a failure.
    """
    pidfd = os.pidfd_open(proc.pid)
    try:
        ready, _, _ = select.select([pidfd], [], [],
                                    max(deadline - time.perf_counter(), 0))
        if not ready:
            os.killpg(proc.pid, signal.SIGKILL)
    finally:
        os.close(pidfd)
    proc.wait()
    rss_mb = 0.0
    if rss_report is not None:
        try:
            rss_mb = int(Path(rss_report).read_text()) / 1024.0
        except (OSError, ValueError):
            pass
    return proc.returncode, rss_mb


def calibrate(reps=CALIB_REPS):
    """Seconds of each rep of the host calibration kernel (calib.cc)."""
    out = subprocess.run([bench_tool("fairlaw_calib"), f"--reps={reps}"],
                         check=True, capture_output=True, text=True,
                         timeout=CHILD_TIMEOUT_S).stdout
    return [int(line) / 1e9 for line in out.split()]


def generate(spec, n, seed, out):
    subprocess.run([tool("fairlaw_generate"), *spec["generate"], f"--n={n}",
                    f"--seed={seed}", f"--out={out}"], check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                   timeout=CHILD_TIMEOUT_S)


def generator_command(spec, n, seed):
    return " ".join(["fairlaw_generate", *spec["generate"], f"--n={n}",
                     f"--seed={seed}"])


# ---------------------------------------------------------- statistics

def summary(values):
    """(median, q1, q3, n) of a list of samples."""
    if len(values) == 1:
        return values[0], values[0], values[0], 1
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, len(values)


def p99(values):
    """The 99th percentile, or None unless ten samples lie beyond it."""
    if len(values) < 100:
        return None
    cut = statistics.quantiles(values, n=100)[98]
    return cut if sum(v > cut for v in values) >= 10 else None


# --------------------------------------------------------------- audit

def run_audit_once(csv, flags, threads, out_path, rss_report=None):
    start = time.perf_counter()
    with open(out_path, "wb") as out:
        proc = spawn([tool("fairlaw_audit"), str(csv), *flags, "--json",
                      f"--threads={threads}"], rss_report, stdout=out,
                     stderr=subprocess.DEVNULL)
        code, rss_mb = reap(proc, start + CHILD_TIMEOUT_S, rss_report)
    return {
        "wall": time.perf_counter() - start,
        "code": code,
        "rss_mb": rss_mb,
        "output": Path(out_path).read_bytes(),
    }


def check_audit_output(run, n, tally, reference=None):
    # 0 = all clear, 2 = violations found; both are completed audits.
    tally.check(run["code"] in (0, 2), f"audit exit code {run['code']}")
    if reference is not None:
        tally.check(run["code"] == reference["code"],
                    "audit exit code differs across runs")
        tally.check(run["output"] == reference["output"],
                    "audit --json output differs across thread counts")
        return
    try:
        report = json.loads(run["output"])
        groups = report["findings"]["metrics"][0]["groups"]
        audited = sum(group["count"] for group in groups)
    except (ValueError, KeyError, IndexError, TypeError):
        audited = -1
    tally.check(audited == n, f"audit report covers {audited} of {n} rows")


def measure_pairs(seconds, threads, setup_per_run, probe, run_one):
    """Measures (nproc, 1-thread) pairs of runs for about `seconds`.

    Before each run come a few set-up probes and reps of the calibration
    kernel, so that both sample the same machine states the runs see.
    The two runs of a pair alternate in order, so neither always runs
    first. Returns (set-up times, calibration times,
    [{threads: run, 1: run}, ...]).
    """
    setup, calib, pairs = [], [], []
    start = time.perf_counter()
    pair_time = 0.0
    reps = CALIB_REPS
    while (len(pairs) < MIN_PAIRS
           or time.perf_counter() - start + pair_time <= seconds):
        pair_start = time.perf_counter()
        pair = {}
        for t in [threads, 1] if len(pairs) % 2 == 0 else [1, threads]:
            setup.extend(probe() for _ in range(setup_per_run))
            calib.extend(calibrate(reps))
            pair[t] = run_one(t)
            reps = max(CALIB_REPS, math.ceil(
                CALIB_SHARE * pair[t]["wall"] / statistics.median(calib)))
        pairs.append(pair)
        pair_time = time.perf_counter() - pair_start
    return setup, calib, pairs


def pair_metrics(measured, threads, rate_name, rate):
    """The metrics every workload reports, from measure_pairs' result.

    `rate(run)` is the run's records per second under `rate_name`.
    records_per_calib multiplies each nproc run's rate by the median time
    of one rep of the calibration kernel over the whole run.
    """
    setup, calib, pairs = measured
    calib_s = statistics.median(calib)
    return {
        "setup_s": setup,
        "records_per_calib": [rate(pair[threads]) * calib_s
                              for pair in pairs],
        "thread_scaling": [rate(pair[threads]) / rate(pair[1])
                           for pair in pairs],
        "peak_rss_mb": [pair[threads]["rss_mb"] for pair in pairs],
        "wall_s": [pair[threads]["wall"] for pair in pairs],
        rate_name: [rate(pair[threads]) for pair in pairs],
        "calib_ms": [seconds * 1e3 for seconds in calib],
    }


def measure_audit(spec, inputs, seconds, threads, tally, rows):
    flags = spec["flags"]
    references = []

    def probe():
        run = run_audit_once(inputs["setup_csv"], flags, threads,
                             inputs["dir"] / "setup.json")
        tally.check(run["code"] in (0, 2), f"set-up audit exit {run['code']}")
        return run["wall"]

    def run_one(t):
        run = run_audit_once(inputs["csv"], flags, t,
                             inputs["dir"] / f"out_t{t}.json",
                             inputs["dir"] / f"out_t{t}.rss")
        check_audit_output(run, rows, tally,
                           references[0] if references else None)
        if not references:
            references.append(run)
        return run

    return pair_metrics(
        measure_pairs(seconds, threads, inputs["setup_per_run"], probe,
                      run_one),
        threads, "rows_per_s", lambda run: rows / run["wall"])


# --------------------------------------------------------------- serve

def drive_daemon(flags, threads, lines, closed, rss_report=None):
    """Runs fairlaw_serve over `lines` from one single-threaded driver.

    closed: send the next line only after the previous response arrived;
    otherwise write as fast as the pipe drains. Latencies run from the
    last byte of a request line written to its response line read.
    """
    spawned = time.perf_counter()
    proc = spawn([tool("fairlaw_serve"), *flags, f"--threads={threads}"],
                 rss_report, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                 stderr=subprocess.DEVNULL)
    stdin_fd, stdout_fd = proc.stdin.fileno(), proc.stdout.fileno()
    os.set_blocking(stdin_fd, False)
    os.set_blocking(stdout_fd, False)
    selector = selectors.DefaultSelector()
    selector.register(stdout_fd, selectors.EVENT_READ)
    sent_at, received_at, responses = [], [], []
    first_write = None
    pending = None
    buffer = bytearray()
    deadline = spawned + CHILD_TIMEOUT_S
    eof = False
    while len(responses) < len(lines) and not eof:
        # Queue the next line: at once when saturating, after the
        # previous response when closed.
        if (pending is None and len(sent_at) < len(lines)
                and (not closed or len(sent_at) == len(responses))):
            pending = memoryview(lines[len(sent_at)])
            selector.register(stdin_fd, selectors.EVENT_WRITE)
        remaining = deadline - time.perf_counter()
        if remaining <= 0:
            break
        for key, _ in selector.select(timeout=remaining):
            if key.fd == stdin_fd:
                try:
                    written = os.write(stdin_fd, pending)
                except BlockingIOError:
                    continue
                except BrokenPipeError:
                    eof = True
                    break
                if first_write is None:
                    first_write = time.perf_counter()
                pending = pending[written:]
                if not pending:
                    sent_at.append(time.perf_counter())
                    pending = None
                    selector.unregister(stdin_fd)
            else:
                chunk = os.read(stdout_fd, 1 << 20)
                now = time.perf_counter()
                if not chunk:
                    eof = True
                    break
                buffer += chunk
                while True:
                    newline = buffer.find(b"\n")
                    if newline < 0:
                        break
                    responses.append(bytes(buffer[:newline]))
                    received_at.append(now)
                    del buffer[:newline + 1]
    selector.close()
    try:
        proc.stdin.close()  # EOF: the daemon's clean shutdown
    except BrokenPipeError:
        pass
    code, rss_mb = reap(proc, deadline, rss_report)
    exited = time.perf_counter()
    proc.stdout.close()
    return {
        "spawned": spawned,
        "first_write": first_write if first_write is not None else spawned,
        "last_read": received_at[-1] if received_at else exited,
        "received_at": received_at,
        "wall": exited - spawned,
        "code": code,
        "rss_mb": rss_mb,
        "responses": responses,
        "latency_s": [r - s for s, r in zip(sent_at, received_at)],
    }


def segment_rate(run, events_per_line):
    """Events per second of a daemon run: the median over SEGMENTS
    stretches of the stream with about equal event counts. A stretch
    runs from the previous stretch's last response (from the first
    write, for the first stretch) to its own last response."""
    total = sum(events_per_line)
    received_at = run["received_at"]
    if len(received_at) < len(events_per_line):
        # Responses are missing; check_serve_run counts the failure.
        return total / max(run["last_read"] - run["first_write"], 1e-9)
    count = min(SEGMENTS, sum(events > 0 for events in events_per_line))
    rates, start, sent, in_segment = [], run["first_write"], 0, 0
    for line, events in enumerate(events_per_line):
        sent += events
        in_segment += events
        # Responses read in one chunk share a time; a stretch with no
        # time between its ends joins the next one.
        if (events and sent * count >= (len(rates) + 1) * total
                and received_at[line] > start):
            rates.append(in_segment / (received_at[line] - start))
            start, in_segment = received_at[line], 0
    return statistics.median(rates)


def check_serve_run(run, lines, kinds, n, tally, reference_queries):
    """Counts failures of one daemon run; returns its query lines."""
    tally.check(run["code"] == 0, f"fairlaw_serve exit code {run['code']}")
    missing = len(lines) - len(run["responses"])
    tally.attempted += len(lines) + n
    tally.fail(missing, "missing response")
    accepted = 0
    queries = []
    for response in run["responses"]:
        try:
            frame = json.loads(response)
        except ValueError:
            tally.fail(1, "unparseable response")
            continue
        if "error" in frame:
            tally.fail(1, "error frame: " + json.dumps(frame["error"]))
        if frame.get("op") == "ingest":
            accepted += frame.get("accepted", 0)
            tally.fail(frame.get("rejected", 0), "rejected event")
        elif frame.get("op") == "query":
            queries.append(response)
    tally.check(accepted == n, f"accepted {accepted} of {n} events sent")
    expected_queries = sum(kind != "ingest" for kind in kinds)
    tally.check(len(queries) == expected_queries,
                f"{len(queries)} query responses for {expected_queries} "
                "queries")
    if reference_queries is not None:
        tally.check(queries == reference_queries,
                    "query lines differ across thread counts")
    return queries


def line_kinds(lines):
    return ["ingest" if b'"op":"ingest"' in line[:40] else "query"
            for line in lines]


def measure_serve(spec, inputs, seconds, threads, tally, events):
    flags, lines, kinds = spec["flags"], inputs["lines"], inputs["kinds"]
    references = []

    def probe():
        run = drive_daemon(flags, threads, [b'{"op":"stats"}\n'], closed=True)
        tally.check(len(run["responses"]) == 1 and run["code"] == 0,
                    "set-up stats request got no clean reply")
        return run["last_read"] - run["spawned"]

    def run_one(t):
        run = drive_daemon(flags, t, lines, spec["closed"],
                           inputs["dir"] / f"serve_t{t}.rss")
        queries = check_serve_run(run, lines, kinds, events, tally,
                                  references[0] if references else None)
        if not references:
            references.append(queries)
        run["rate"] = segment_rate(run, inputs["events_per_line"])
        return run

    setup, calib, pairs = measure_pairs(seconds, threads,
                                        inputs["setup_per_run"], probe,
                                        run_one)
    measured = pair_metrics((setup, calib, pairs), threads, "events_per_s",
                            lambda run: run["rate"])
    for kind in ("ingest", "query"):
        measured[f"{kind}_ms"] = [
            taken * 1e3 for pair in pairs
            for line_kind, taken in zip(kinds, pair[threads]["latency_s"])
            if line_kind == kind]
    return measured


# --------------------------------------------------------------- trace

def replay(mode, input_path, reference_path, flags, threads, tally):
    try:
        proc = subprocess.run(
            [bench_tool("fairlaw_replay"), mode, str(input_path),
             f"--reference={reference_path}", *flags, f"--threads={threads}"],
            capture_output=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        tally.check(False, "fairlaw_replay timed out")
        return None
    tally.check(proc.returncode in (0, 3),
                f"fairlaw_replay failed: {proc.stderr.decode()[-300:]}")
    try:
        result = json.loads(proc.stdout)
    except ValueError:
        tally.check(False, "fairlaw_replay printed no result")
        return None
    for name, ok in result["checks"].items():
        tally.check(ok, f"replay check failed: {name}")
    return result


QUERY_TYPES = ("audit", "four_fifths", "drift", "quantiles", "drilldown")

# Replay spans reported per record, under <span>.ns_per_row (audit) or
# <span>.ns_per_event (serve). A span a replay did not make is left out.
AUDIT_SPANS = ("data.read_csv", "data.to_chunked", "audit.metric_input",
               "audit.fold", "audit.merge", "audit.evaluate", "audit.proxy",
               "audit.subgroup", "audit.sampling", "legal.four_fifths",
               "audit.report")
SERVE_SPANS = ("serve.handle_ingest", "serve.parse", "serve.decode",
               "serve.fold", "serve.window_merge", "audit.window_evaluate",
               "stats.quantiles", "serve.serialize")

# The per_layer contract metrics, as sums of rows of the layer table.
CONTRACT_LAYERS = {
    "audit": {
        "read.ns_per_record": ["data.read_csv.ns_per_row"],
        "decode.ns_per_record": ["data.to_chunked.ns_per_row",
                                 "audit.metric_input.ns_per_row"],
        "fold.ns_per_record": ["audit.fold.ns_per_row"],
        "merge.ns_per_record": ["audit.merge.ns_per_row"],
        "evaluate.ns_per_record": [
            f"{span}.ns_per_row" for span in
            ("audit.evaluate", "audit.proxy", "audit.subgroup",
             "audit.sampling", "legal.four_fifths")],
        "serialize.ns_per_record": ["audit.report.ns_per_row"],
        "inproc.thread_scaling": ["audit.run.thread_scaling"],
        "trace.coverage": ["trace.coverage"],
    },
    "serve": {
        "read.ns_per_record": ["serve.stdio.ns_per_event"],
        "decode.ns_per_record": ["serve.parse.ns_per_event",
                                 "serve.decode.ns_per_event"],
        "fold.ns_per_record": ["serve.fold.ns_per_event"],
        "merge.ns_per_record": ["serve.window_merge.ns_per_event"],
        "evaluate.ns_per_record": ["audit.window_evaluate.ns_per_event",
                                   "stats.quantiles.ns_per_event"],
        "serialize.ns_per_record": ["serve.serialize.ns_per_event"],
        "inproc.thread_scaling": ["serve.handle.thread_scaling"],
        "trace.coverage": ["trace.coverage"],
    },
}


def span_ns(result, *names):
    return sum(result["layers"].get(name, {"ns": 0})["ns"] for name in names)


def coverage(result):
    return span_ns(result, *result["layers"]) / result["wall_ns"]


def audit_layers(result):
    """The layer table's rows for one audit replay."""
    rows = result["records"]
    table = {f"{span}.ns_per_row": span_ns(result, span) / rows
             for span in AUDIT_SPANS if span in result["layers"]}
    table["data.read_csv.mb_per_s"] = (
        result["input_bytes"] / 1e6 / (span_ns(result, "data.read_csv") / 1e9))
    table["audit.run.ms"] = span_ns(result, "audit.run") / 1e6
    table["audit.run.thread_scaling"] = (span_ns(result, "audit.run_serial")
                                         / span_ns(result, "audit.run"))
    if "audit.subgroup.nodes" in result["counts"]:
        table["audit.subgroup.nodes"] = result["counts"]["audit.subgroup.nodes"]
    table["trace.coverage"] = coverage(result)
    return table


def serve_layers(result, daemon_ns):
    """The layer table's rows for one serve replay.

    daemon_ns is the daemon's first-write-to-last-read time on the same
    stream; what it spends beyond the in-process request handling is the
    stdio layer.
    """
    events = result["records"]
    handled = ("serve.handle_ingest",
               *(f"serve.query.{q}" for q in QUERY_TYPES))
    table = {"serve.stdio.ns_per_event":
             (daemon_ns - span_ns(result, *handled)) / events}
    table.update({f"{span}.ns_per_event": span_ns(result, span) / events
                  for span in SERVE_SPANS if span in result["layers"]})
    for q in QUERY_TYPES:
        span = result["layers"].get(f"serve.query.{q}")
        if span:
            table[f"serve.query.{q}.us"] = span["ns"] / span["calls"] / 1e3
    table["serve.handle.thread_scaling"] = (
        span_ns(result, "serve.handle_serial") / span_ns(result, *handled))
    table["serve.events_rejected"] = result["counts"]["serve.events_rejected"]
    table["serve.error_frames"] = result["counts"]["serve.error_frames"]
    table["trace.coverage"] = coverage(result)
    return table


def trace_audit(spec, inputs, seconds, threads, tally, rows):
    start = time.perf_counter()
    reference_path = inputs["dir"] / "reference.json"
    run = run_audit_once(inputs["csv"], spec["flags"], threads,
                         reference_path)
    check_audit_output(run, rows, tally)
    return replay_reps(start, seconds, lambda: replay(
        "audit", inputs["csv"], reference_path, spec["flags"], threads,
        tally), audit_layers)


def trace_serve(spec, inputs, seconds, threads, tally, events):
    start = time.perf_counter()
    lines = inputs["lines"]
    run = drive_daemon(spec["flags"], threads, lines, spec["closed"])
    check_serve_run(run, lines, inputs["kinds"], events, tally, None)
    reference_path = inputs["dir"] / "reference.jsonl"
    reference_path.write_bytes(b"".join(r + b"\n" for r in run["responses"]))
    daemon_ns = (run["last_read"] - run["first_write"]) * 1e9
    return replay_reps(start, seconds, lambda: replay(
        "serve", inputs["stream"], reference_path, spec["flags"], threads,
        tally), lambda result: serve_layers(result, daemon_ns))


def replay_reps(start, seconds, replay_once, layers):
    """Replays until the next rep would pass `seconds` after `start`.

    Returns the layer table: each row's samples, one per rep.
    """
    table = {}
    rep_time = 0.0
    while not table or time.perf_counter() - start + rep_time <= seconds:
        rep_start = time.perf_counter()
        result = replay_once()
        if result is None:
            break
        for name, value in layers(result).items():
            table.setdefault(name, []).append(value)
        rep_time = time.perf_counter() - rep_start
    return table


# -------------------------------------------------------------- report

# Units of the printed metrics that are not in BENCHMARK.json, and of
# the layer table's rows by suffix.
UNITS = {"wall_s": "s", "rows_per_s": "rows/s", "events_per_s": "events/s",
         "calib_ms": "ms", "ns_per_row": "ns", "ns_per_event": "ns",
         "mb_per_s": "MB/s", "ms": "ms", "us": "us",
         "thread_scaling": "ratio", "coverage": "share", "nodes": "count",
         "events_rejected": "count", "error_frames": "count"}


def unit_of(name):
    return UNITS.get(name) or UNITS[name.rsplit(".", 1)[-1]]


def format_value(value):
    return "" if value is None else f"{value:.6g}"


def print_rows(rows):
    """Prints (name, unit, median, q1, q3, n) rows; None prints blank."""
    print(f"  {'metric':34} {'unit':10} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'n':>8}")
    for name, unit, med, q1, q3, count in rows:
        print(f"  {name:34} {unit:10} {format_value(med):>12} "
              f"{format_value(q1):>12} {format_value(q3):>12} {count:>8}")


def latency_rows(name, samples):
    """p50 with quartiles; p99 only when ten samples lie beyond it."""
    if not samples:
        return []
    rows = [(f"{name}_p50_ms", "ms", *summary(samples))]
    tail = p99(samples)
    if tail is not None:
        rows.append((f"{name}_p99_ms", "ms", tail, None, None, len(samples)))
    return rows


def report_end_to_end(measured, tally):
    """Prints every end-to-end metric; returns the contract's medians."""
    units = dict(END_TO_END)
    rows = [(name, units.get(name) or unit_of(name), *summary(samples))
            for name, samples in measured.items()
            if name not in ("ingest_ms", "query_ms")]
    rows += latency_rows("ingest", measured.get("ingest_ms", []))
    rows += latency_rows("query", measured.get("query_ms", []))
    rows.append(("failed_ops_frac", "fraction",
                 len(tally.failures) / max(tally.attempted, 1), None, None,
                 tally.attempted))
    print_rows(rows)
    return {name: statistics.median(measured[name]) for name, _ in END_TO_END}


def report_per_layer(product, table):
    """Prints the layer table; returns the contract metrics mapped onto
    its medians."""
    medians = {name: statistics.median(samples)
               for name, samples in table.items()}
    print("  layers (traced in-process replay):")
    print_rows([(name, unit_of(name), *summary(samples))
                for name, samples in table.items()])
    return {contract: sum(medians.get(row, 0.0) for row in rows)
            for contract, rows in CONTRACT_LAYERS[product].items()}


# ---------------------------------------------------------------- main

def prepare_inputs(spec, n, seed, smoke):
    work = WORK_DIR / spec["name"]
    work.mkdir(parents=True, exist_ok=True)
    inputs = {"dir": work, "setup_per_run": 1 if smoke else SETUP_PER_RUN}
    if spec["product"] == "audit":
        inputs["csv"] = work / "input.csv"
        inputs["setup_csv"] = work / "setup.csv"
        generate(spec, n, seed, inputs["csv"])
        generate(spec, SETUP_ROWS, seed, inputs["setup_csv"])
    else:
        inputs["stream"] = work / "stream.jsonl"
        generate(spec, n, seed, inputs["stream"])
        inputs["lines"] = inputs["stream"].read_bytes().splitlines(
            keepends=True)
        inputs["kinds"] = line_kinds(inputs["lines"])
        inputs["events_per_line"] = [line.count(b'{"t":')
                                     for line in inputs["lines"]]
        if sum(inputs["events_per_line"]) != n:
            die(f"counted {sum(inputs['events_per_line'])} events in "
                f"{inputs['stream']}, expected {n}")
    return inputs


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    return parser.parse_args(argv)


def main(argv):
    args = parse_args(argv)
    build()
    spec = dict(WORKLOADS[args.workload], name=args.workload)
    n = spec["smoke_n"] if args.smoke else spec["n"]
    threads = nproc()
    inputs = prepare_inputs(spec, n, args.seed, args.smoke)
    tally = Tally()

    binary = "fairlaw_audit <csv> --json" if spec["product"] == "audit" \
        else "fairlaw_serve"
    print(f"e2ebench workload={args.workload} seed={args.seed} "
          f"trace={args.trace} seconds={args.seconds:g}"
          f"{' smoke' if args.smoke else ''}")
    print("host: " + " ".join(f"{k}={v}" for k, v in
                              host_fingerprint().items()))
    print(f"input: {generator_command(spec, n, args.seed)}")
    print(f"run: {binary} {' '.join(spec['flags'])} --threads={threads} "
          f"(and --threads=1); loop {spec['loop']}")

    if args.trace == 0:
        measure = measure_audit if spec["product"] == "audit" \
            else measure_serve
        measured = measure(spec, inputs, args.seconds, threads, tally, n)
        metrics = report_end_to_end(measured, tally)
        units = dict(END_TO_END)
    else:
        trace = trace_audit if spec["product"] == "audit" else trace_serve
        table = trace(spec, inputs, args.seconds, threads, tally, n)
        if not table:
            die("the traced replay produced no result")
        metrics = report_per_layer(spec["product"], table)
        units = dict(PER_LAYER)

    for failure in sorted(set(tally.failures)):
        print(f"e2ebench: FAILED {tally.failures.count(failure)}x: {failure}",
              file=sys.stderr)
    print(json.dumps({
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 1 if tally.failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
