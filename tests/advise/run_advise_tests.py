#!/usr/bin/env python3
"""Contract suite for the homp-advise CLI, run under ctest.

Contract under test (docs/OBSERVABILITY.md "The offline advisor"):
  * on a Fig. 6-style session with a scripted degrade fault, `report`
    ranks the degraded device's under-prediction as the top finding with
    a nonzero estimated saving that matches the attribution formula
    replicated on the runtime's own telemetry;
  * the report is byte-identical across repeated invocations and across
    the two identical seeded runs' artifacts (determinism contract);
  * cross-run merging marks a finding seen in every run persistent;
  * the trace rows `report` prints agree with the runtime's own
    Imbalance::percent();
  * `diff` of two identical sessions, traces included, exits 0;
    direction-aware regressions (throughput down, latency up) exit 1;
    improvements stay exit 0;
  * usage/degenerate input exits 2 with a one-line diagnostic, never a
    traceback, never a silent empty "all clear" report.

Needs the built binaries: pass --fixtures-bin (make_advise_fixtures) and
--advise-bin (homp-advise), as the ctest entry does.
"""

import argparse
import filecmp
import json
import os
import subprocess
import sys
import tempfile
import unittest

FIXTURES_BIN = None  # set by main()
ADVISE_BIN = None  # set by main()
WORK = None  # tempdir holding generated fixtures
TRUTH = {}  # key=value ground truth printed by the generator


def advise(*args):
    return subprocess.run(
        [ADVISE_BIN, *args], capture_output=True, text=True)


def out_path(name):
    return os.path.join(WORK.name, name)


def write_doc(name, doc):
    path = out_path(name)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f)
    return path


SESSION = ["run1.audit.json", "run1.metrics.json", "run1.trace.json",
           "run2.audit.json", "run2.metrics.json", "run2.trace.json",
           "serve.audit.json"]


def session_paths():
    return [out_path(n) for n in SESSION]


def setUpModule():
    global WORK, TRUTH
    WORK = tempfile.TemporaryDirectory(prefix="homp_advise_test_")
    r = subprocess.run([FIXTURES_BIN, WORK.name],
                       capture_output=True, text=True)
    if r.returncode != 0:
        raise RuntimeError("make_advise_fixtures failed: %s" % r.stderr)
    for line in r.stdout.splitlines():
        key, _, val = line.partition("=")
        try:
            TRUTH[key] = float(val)
        except ValueError:
            TRUTH[key] = val


def tearDownModule():
    WORK.cleanup()


class ExportedJson(unittest.TestCase):
    def test_every_exported_file_round_trips_json_loads(self):
        for name in SESSION:
            with self.subTest(file=name):
                with open(out_path(name), encoding="utf-8") as f:
                    doc = json.load(f)
                self.assertTrue(doc)

    def test_identical_seeded_runs_export_byte_identical_files(self):
        for kind in ("audit", "metrics", "trace"):
            with self.subTest(kind=kind):
                a = out_path("run1.%s.json" % kind)
                b = out_path("run2.%s.json" % kind)
                self.assertTrue(filecmp.cmp(a, b, shallow=False),
                                "%s export is not deterministic" % kind)


class Report(unittest.TestCase):
    """The acceptance gate: attribution on the degrade-fault session."""

    def report_json(self, *extra):
        r = advise("report", *session_paths(), "--json", *extra)
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        return json.loads(r.stdout)

    def test_degraded_under_prediction_is_the_top_finding(self):
        doc = self.report_json()
        self.assertEqual(doc["homp_advise_version"], 1)
        self.assertTrue(doc["findings"])
        top = doc["findings"][0]
        self.assertEqual(top["kind"], "under_prediction")
        self.assertEqual(top["device"], TRUTH["degraded_device"])
        self.assertGreater(top["saving_s"], 0.0)
        expected = TRUTH["expected_saving_s"]
        self.assertLessEqual(abs(top["saving_s"] - expected),
                             1e-9 * max(expected, 1e-12),
                             "saving %.17g vs attribution-formula ground "
                             "truth %.17g" % (top["saving_s"], expected))
        # An 8x degrade on a static split gates well over 10% of the
        # makespan: the finding must be critical.
        self.assertGreaterEqual(expected, 0.10 * TRUTH["run_total_time_s"])
        self.assertEqual(top["severity"], "critical")

    def test_cross_run_merge_marks_persistence(self):
        top = self.report_json()["findings"][0]
        self.assertEqual(top["runs_present"], 2)
        self.assertEqual(top["runs_total"], 2)
        self.assertTrue(top["persistent"])
        self.assertIn("persistent across 2 runs", top["evidence"])

    def test_evidence_carries_bias_and_metrics_corroboration(self):
        top = self.report_json()["findings"][0]
        self.assertIn("slower than MODEL_2 predicted", top["evidence"])
        # The session's metrics files carry model-accuracy series for the
        # device; the finding must cite them.
        self.assertIn("session metrics", top["evidence"])
        self.assertTrue(top["knob"])

    def test_report_is_byte_identical_across_ten_invocations(self):
        for flags in ((), ("--json",)):
            with self.subTest(flags=flags):
                outs = set()
                for _ in range(10):
                    r = advise("report", *session_paths(), *flags)
                    self.assertEqual(r.returncode, 1, r.stderr)
                    outs.add(r.stdout)
                self.assertEqual(len(outs), 1,
                                 "report output is not deterministic")

    def test_text_report_shape(self):
        r = advise("report", *session_paths())
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("ranked by estimated virtual-time saving", r.stdout)
        self.assertIn("1. [critical] under_prediction @ %s"
                      % TRUTH["degraded_device"], r.stdout)
        self.assertIn("evidence:", r.stdout)
        self.assertIn("knob:", r.stdout)

    def test_top_caps_the_finding_list(self):
        doc = self.report_json("--top", "1")
        self.assertEqual(len(doc["findings"]), 1)
        r = advise("report", *session_paths(), "--top", "1")
        self.assertEqual(r.returncode, 1)
        self.assertIn("showing top 1", r.stdout)

    def test_bias_threshold_gates_the_prediction_findings(self):
        doc = self.report_json("--bias-threshold", "1000")
        kinds = {f["kind"] for f in doc["findings"]}
        self.assertNotIn("under_prediction", kinds)
        self.assertNotIn("over_prediction", kinds)

    def test_single_run_session_still_ranks_the_degraded_device(self):
        r = advise("report", out_path("run1.audit.json"), "--json")
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        top = json.loads(r.stdout)["findings"][0]
        self.assertEqual(top["kind"], "under_prediction")
        self.assertEqual(top["device"], TRUTH["degraded_device"])
        # Single-eligible-run findings carry no persistence note.
        self.assertNotIn(" runs", top["evidence"])

    def test_trace_rows_agree_with_runtime_telemetry(self):
        r = advise("report", out_path("run1.trace.json"))
        self.assertIn(r.returncode, (0, 1), r.stdout + r.stderr)
        rows = dict(line.split(": ", 1) for line in r.stdout.splitlines()
                    if ": " in line)
        self.assertEqual(rows["trace"], out_path("run1.trace.json"))
        imb = float(rows["imbalance_pct"])
        truth = TRUTH["run_imbalance_pct"]
        self.assertLessEqual(abs(imb - truth), 1e-6 * truth,
                             "trace rows %g vs runtime %g" % (imb, truth))
        total = TRUTH["run_total_time_s"]
        self.assertLessEqual(abs(float(rows["makespan_s"]) - total),
                             1e-6 * total)
        self.assertEqual(float(rows["devices"]), TRUTH["run_devices"])
        self.assertEqual(float(rows["decisions"]), TRUTH["run_decisions"])
        # A single offload: no tenant or serve rows.
        self.assertFalse(
            [k for k in rows if k.startswith(("tenant", "serve."))])

    def test_clean_serve_audit_alone_reports_no_findings(self):
        r = advise("report", out_path("serve.audit.json"))
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertIn("no findings", r.stdout)


class Diff(unittest.TestCase):
    def test_identical_artifacts_diff_clean(self):
        for kind in ("audit", "metrics"):
            with self.subTest(kind=kind):
                r = advise("diff", out_path("run1.%s.json" % kind),
                           out_path("run2.%s.json" % kind))
                self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
                self.assertIn("identical within tolerance", r.stdout)

    def test_identical_traces_diff_clean(self):
        r = advise("diff", out_path("run1.trace.json"),
                   out_path("run2.trace.json"))
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertIn("identical within tolerance", r.stdout)
        self.assertNotIn("changes:", r.stdout)

    def test_json_verdict_shape(self):
        r = advise("diff", out_path("run1.audit.json"),
                   out_path("run2.audit.json"), "--json")
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        doc = json.loads(r.stdout)
        self.assertEqual(doc["homp_advise_diff_version"], 1)
        self.assertEqual(doc["regressions"], [])
        self.assertEqual(doc["changes"], [])

    BASE = {"bench": "engine", "results": [
        {"name": "s1", "events_per_sec": 100.0, "p99_launch_us": 5.0},
        {"name": "s2", "events_per_sec": 400.0, "p99_launch_us": 2.0}]}

    def bench(self, name, **overrides):
        doc = json.loads(json.dumps(self.BASE))
        doc["results"][0].update(overrides)
        return write_doc(name, doc)

    def test_throughput_drop_past_tolerance_is_a_regression(self):
        a = self.bench("bench_base.json")
        b = self.bench("bench_slow.json", events_per_sec=50.0)
        r = advise("diff", a, b, "--tolerance", "0.15")
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("regressions:", r.stdout)
        self.assertIn("results/s1/events_per_sec", r.stdout)

    def test_throughput_gain_is_a_change_not_a_regression(self):
        a = self.bench("bench_base2.json")
        b = self.bench("bench_fast.json", events_per_sec=200.0)
        r = advise("diff", a, b, "--tolerance", "0.15")
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertIn("changes:", r.stdout)

    def test_latency_rise_past_tolerance_is_a_regression(self):
        a = self.bench("bench_base3.json")
        b = self.bench("bench_lat.json", p99_launch_us=50.0)
        r = advise("diff", a, b, "--tolerance", "0.15")
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("results/s1/p99_launch_us", r.stdout)

    def test_tolerance_swallows_small_moves(self):
        a = self.bench("bench_base4.json")
        b = self.bench("bench_near.json", events_per_sec=90.0)
        r = advise("diff", a, b, "--tolerance", "0.15")
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)

    def test_structural_drift_is_reported_but_not_a_regression(self):
        a = self.bench("bench_base5.json")
        doc = json.loads(json.dumps(self.BASE))
        del doc["results"][1]
        b = write_doc("bench_missing.json", doc)
        r = advise("diff", a, b, "--tolerance", "0.15")
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertIn("only in A", r.stdout)


class ErrorContract(unittest.TestCase):
    def assert_clean_exit_2(self, r, needle=""):
        """Exit 2 with a one-line diagnostic — never a traceback, never a
        quiet success."""
        self.assertEqual(r.returncode, 2, r.stdout + r.stderr)
        self.assertNotIn("Traceback", r.stderr)
        self.assertIn("homp-advise:", r.stderr)
        if needle:
            self.assertIn(needle, r.stderr)

    def test_missing_file(self):
        self.assert_clean_exit_2(
            advise("report", out_path("no_such_file.json")))

    def test_malformed_json(self):
        path = out_path("bad.json")
        with open(path, "w", encoding="utf-8") as f:
            f.write("{not json")
        self.assert_clean_exit_2(advise("report", path))

    def test_unknown_artifact_kind(self):
        path = write_doc("mystery.json", {"foo": 1})
        self.assert_clean_exit_2(advise("report", path), "mystery.json")

    def test_metrics_only_session(self):
        self.assert_clean_exit_2(
            advise("report", out_path("run1.metrics.json")),
            "no audits or traces")

    def test_empty_audit(self):
        path = write_doc("empty_audit.json", {"homp_audit_version": 1})
        self.assert_clean_exit_2(advise("report", path), "actual")

    def test_audit_without_backfilled_actuals(self):
        path = write_doc("noactuals.json", {
            "homp_audit_version": 1, "algorithm": "MODEL_2",
            "total_time_s": 1.0, "chunks_issued": 1,
            "devices": [{"name": "gpu0", "id": 1, "slot": 0,
                         "finish_time_s": 1.0, "chunks": 1}],
            "decisions": [{"time_s": 0.0, "slot": 0, "device": "gpu0",
                           "kind": "chunk-assigned", "begin": 0, "end": 10,
                           "model2_s": 0.5, "actual_s": -1.0}]})
        self.assert_clean_exit_2(advise("report", path), "actual_s")

    def test_report_without_files(self):
        self.assert_clean_exit_2(advise("report"), "at least one")

    def test_diff_wants_exactly_two_files(self):
        self.assert_clean_exit_2(
            advise("diff", out_path("run1.audit.json")), "exactly two")

    def test_diff_rejects_mixed_kinds(self):
        self.assert_clean_exit_2(
            advise("diff", out_path("run1.audit.json"),
                   out_path("run1.metrics.json")), "different artifact kinds")

    def test_degenerate_traces(self):
        empty = write_doc("empty.trace.json", [])
        self.assert_clean_exit_2(advise("report", empty), "empty")
        self.assert_clean_exit_2(
            advise("diff", empty, out_path("run1.trace.json")), "empty")
        notid = write_doc("notid.trace.json", [
            {"ph": "X", "name": "compute k", "pid": 0, "ts": 0, "dur": 1}])
        self.assert_clean_exit_2(advise("report", notid), "tid")

    def test_unknown_mode_and_flags(self):
        self.assert_clean_exit_2(advise("frobnicate"), "unknown mode")
        self.assert_clean_exit_2(
            advise("report", out_path("run1.audit.json"), "--wat"),
            "unknown argument")
        self.assert_clean_exit_2(
            advise("report", out_path("run1.audit.json"),
                   "--bias-threshold", "0.5"))
        for top in ("-1", "nan", "2.7"):
            self.assert_clean_exit_2(
                advise("report", out_path("run1.audit.json"), "--top", top),
                "--top")


def main():
    global FIXTURES_BIN, ADVISE_BIN
    ap = argparse.ArgumentParser()
    ap.add_argument("--fixtures-bin", required=True,
                    help="path to the built make_advise_fixtures binary")
    ap.add_argument("--advise-bin", required=True,
                    help="path to the built homp-advise binary")
    args, rest = ap.parse_known_args()
    FIXTURES_BIN = args.fixtures_bin
    ADVISE_BIN = args.advise_bin
    unittest.main(argv=[sys.argv[0]] + rest)


if __name__ == "__main__":
    main()
