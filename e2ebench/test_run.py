"""Tests of the end-to-end benchmark runner.

    python3 -m unittest discover -s e2ebench -p 'test_*.py'

The smoke tests build the tree on first use (a few minutes) and then run
every workload in both modes at --smoke size, checking the result line
against BENCHMARK.json. The gate tests feed the correctness checks
outputs that must fail.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def run_benchmark(workload, trace, cwd=run.ROOT):
    return subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "0.5", "--trace", str(trace),
         "--smoke"], cwd=cwd, capture_output=True, text=True, timeout=900)


class ContractTest(unittest.TestCase):
    def test_workloads_match_benchmark_json(self):
        self.assertEqual([w["name"] for w in BENCHMARK["workloads"]],
                         list(run.WORKLOADS))


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def check_result_line(self, proc, metrics):
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stderr)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(list(result["metrics"]), [m["name"] for m in metrics])
        for metric in metrics:
            reported = result["metrics"][metric["name"]]
            self.assertEqual(reported["unit"], metric["unit"])
            self.assertGreater(reported["value"], 0, metric["name"])

    def test_every_workload_end_to_end(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                self.check_result_line(run_benchmark(workload, 0),
                                       BENCHMARK["end_to_end"])

    def test_every_workload_traced(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                self.check_result_line(run_benchmark(workload, 1),
                                       BENCHMARK["per_layer"])

    def test_fails_without_the_source_tree(self):
        bare = run.ROOT / ".bench_build" / "e2ebench-tests" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for path in BENCHMARK["paths"]:
            shutil.copytree(run.ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_benchmark("audit_csv_1m", 0, cwd=bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)

    def test_replay_rejects_a_different_reference(self):
        work = run.ROOT / ".bench_build" / "e2ebench-tests"
        work.mkdir(parents=True, exist_ok=True)
        spec = run.WORKLOADS["audit_csv_1m"]
        csv = work / "hiring.csv"
        run.generate(spec, 500, 3, csv)
        reference = work / "reference.json"
        audit = run.run_audit_once(csv, spec["flags"], 2, reference)
        reference.write_bytes(audit["output"].replace(b"male", b"mile", 1))
        tally = run.Tally()
        result = run.replay("audit", csv, reference, spec["flags"], 2, tally)
        self.assertFalse(result["identical"])
        self.assertFalse(result["checks"]["suite_report_matches_binary"])
        self.assertTrue(result["checks"]["engine_phases_match_run_audit"])
        self.assertEqual(tally.failures,
                         ["replay check failed: suite_report_matches_binary"])

    def test_serve_replay_checks_both_request_paths(self):
        work = run.ROOT / ".bench_build" / "e2ebench-tests"
        work.mkdir(parents=True, exist_ok=True)
        spec = run.WORKLOADS["serve_query_mix"]
        stream = work / "events.jsonl"
        run.generate(spec, 3000, 3, stream)
        lines = stream.read_bytes().splitlines(keepends=True)
        daemon = run.drive_daemon(spec["flags"], 2, lines, True)
        reference = work / "reference.jsonl"
        responses = b"".join(r + b"\n" for r in daemon["responses"])
        reference.write_bytes(responses)
        tally = run.Tally()
        result = run.replay("serve", stream, reference, spec["flags"], 2,
                            tally)
        self.assertEqual(tally.failures, [])
        self.assertEqual(set(result["checks"]), {
            "query_lines_match_binary", "query_lines_thread_invariant",
            "split_query_lines_match_binary"})
        reference.write_bytes(responses.replace(b'"type":"audit"',
                                                b'"type":"audlt"', 1))
        result = run.replay("serve", stream, reference, spec["flags"], 2,
                            run.Tally())
        self.assertFalse(result["checks"]["query_lines_match_binary"])
        self.assertFalse(result["checks"]["split_query_lines_match_binary"])
        self.assertTrue(result["checks"]["query_lines_thread_invariant"])

    def test_peak_rss_is_the_binary_own(self):
        # The runner's own high-water mark must not show up in the
        # figure, as it would in ru_maxrss of a directly spawned child.
        ballast = b"x" * (96 << 20)
        work = run.ROOT / ".bench_build" / "e2ebench-tests"
        work.mkdir(parents=True, exist_ok=True)
        spec = run.WORKLOADS["audit_csv_1m"]
        csv = work / "hiring_small.csv"
        run.generate(spec, 500, 3, csv)
        audit = run.run_audit_once(csv, spec["flags"], 2, work / "small.json",
                                   work / "small.rss")
        self.assertEqual(len(ballast), 96 << 20)
        self.assertGreater(audit["rss_mb"], 0)
        self.assertLess(audit["rss_mb"], 48)

    def test_calibration_reports_every_rep(self):
        reps = run.calibrate()
        self.assertEqual(len(reps), run.CALIB_REPS)
        self.assertTrue(all(seconds > 0 for seconds in reps))


class GateTest(unittest.TestCase):
    LINES = [b'{"op":"ingest","events":[...]}\n', b'{"op":"query"}\n']
    KINDS = ["ingest", "query"]

    def serve_run(self, responses, code=0):
        return {"code": code, "responses": responses}

    def test_clean_serve_run_passes(self):
        tally = run.Tally()
        queries = run.check_serve_run(self.serve_run([
            b'{"op":"ingest","accepted":3,"rejected":0}',
            b'{"op":"query","type":"audit"}']), self.LINES, self.KINDS, 3,
            tally, None)
        self.assertEqual(tally.failures, [])
        self.assertEqual(queries, [b'{"op":"query","type":"audit"}'])

    def test_serve_failures_are_counted(self):
        tally = run.Tally()
        run.check_serve_run(self.serve_run([
            b'{"op":"ingest","accepted":2,"rejected":1}'], code=1),
            self.LINES, self.KINDS, 3, tally, [b'{"op":"query"}'])
        self.assertIn("fairlaw_serve exit code 1", tally.failures)
        self.assertIn("missing response", tally.failures)
        self.assertIn("rejected event", tally.failures)
        self.assertIn("accepted 2 of 3 events sent", tally.failures)
        self.assertIn("query lines differ across thread counts",
                      tally.failures)

    def test_error_frame_is_a_failure(self):
        tally = run.Tally()
        run.check_serve_run(self.serve_run([
            b'{"op":"ingest","accepted":3,"rejected":0}',
            b'{"op":"query","error":{"code":"not found"}}']),
            self.LINES, self.KINDS, 3, tally, None)
        self.assertEqual(len(tally.failures), 1)
        self.assertTrue(tally.failures[0].startswith("error frame"))

    def test_audit_output_must_match_across_threads(self):
        tally = run.Tally()
        reference = {"code": 2, "output": b"{}"}
        run.check_audit_output({"code": 2, "output": b"{ }"}, 10, tally,
                               reference)
        run.check_audit_output({"code": 1, "output": b"{}"}, 10, tally,
                               reference)
        self.assertEqual(tally.failures, [
            "audit --json output differs across thread counts",
            "audit exit code 1", "audit exit code differs across runs"])

    def test_audit_report_must_cover_every_row(self):
        tally = run.Tally()
        output = json.dumps({"findings": {"metrics": [{"groups": [
            {"count": 6}, {"count": 3}]}]}}).encode()
        run.check_audit_output({"code": 0, "output": output}, 10, tally)
        self.assertEqual(tally.failures, ["audit report covers 9 of 10 rows"])

    def test_segment_rate_ignores_one_stall(self):
        # Four stretches of 10 events and a query. The second stretch's
        # response is read in one chunk with the first's, so it joins
        # the third; the last stretch stalls for 10 s.
        run_ = {"first_write": 0.0, "last_read": 14.0,
                "received_at": [1.0, 1.0, 1.0, 3.0, 13.0, 14.0]}
        events = [10, 10, 0, 10, 10, 0]
        self.assertEqual(run.segment_rate(run_, events), 10.0)

    def test_p99_needs_ten_samples_beyond_it(self):
        self.assertIsNone(run.p99(list(range(99))))
        self.assertIsNone(run.p99(list(range(500))))
        self.assertIsNotNone(run.p99(list(range(1000))))


if __name__ == "__main__":
    unittest.main()
