#!/usr/bin/env python3
"""End-to-end contract suite for the homp-fuzz CLI, run under ctest.

Contract under test (docs/FUZZING.md):
  * a fixed-seed corpus run is deterministic: two runs with the same
    configuration print byte-identical summary JSON and exit 0 when no
    invariant is violated;
  * every scenario is swept through all ten algorithm families;
  * `--plant corrupt-commit` plants a silent-corruption violation that
    the oracle catches, the shrinker minimizes, and the driver writes as
    a self-contained repro pair (.toml + .ini);
  * `--replay` on that repro re-runs it deterministically and exits 0
    reporting the same invariant failing; a serve repro replays through
    the same flag;
  * usage errors exit 2, including out-of-range integers, serve-only
    flags without --serve and --plant with it.

Needs the homp-fuzz binary: pass --fuzz-bin, as the ctest entry does.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
import unittest

FUZZ_BIN = None  # set by main()
WORK = None
GPU4_INI = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "..", "..", "machines", "gpu4.ini")


def fuzz(*args, timeout=300):
    return subprocess.run([FUZZ_BIN, *args], capture_output=True,
                          text=True, timeout=timeout)


def setUpModule():
    global WORK
    WORK = tempfile.TemporaryDirectory(prefix="homp_fuzz_test_")


def tearDownModule():
    WORK.cleanup()


class Determinism(unittest.TestCase):
    def test_same_corpus_twice_is_byte_identical(self):
        args = ("--seed", "3", "--count", "6",
                "--repro-dir", os.path.join(WORK.name, "det"))
        a = fuzz(*args)
        b = fuzz(*args)
        self.assertEqual(a.returncode, 0, a.stdout + a.stderr)
        self.assertEqual(b.returncode, 0, b.stdout + b.stderr)
        self.assertEqual(a.stdout, b.stdout,
                         "summary JSON is not deterministic")

    def test_every_scenario_sweeps_all_ten_algorithms(self):
        r = fuzz("--seed", "3", "--count", "4",
                 "--repro-dir", os.path.join(WORK.name, "sweep"))
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        doc = json.loads(r.stdout)
        self.assertEqual(doc["scenarios"], 4)
        # 10 algorithms per scenario (the oracle sweeps every family).
        self.assertEqual(doc["offloads"], 40)
        self.assertEqual(doc["violations"], 0)
        for s in doc["runs"]:
            self.assertTrue(s["digest"].startswith("0x"))


class PlantedViolation(unittest.TestCase):
    def test_planted_corruption_is_caught_shrunk_and_replayable(self):
        repro_dir = os.path.join(WORK.name, "planted")
        r = fuzz("--seed", "11", "--count", "1", "--plant", "corrupt-commit",
                 "--repro-dir", repro_dir)
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        doc = json.loads(r.stdout)
        self.assertGreaterEqual(doc["violations"], 1)
        self.assertEqual(len(doc["failures"]), 1)
        failure = doc["failures"][0]
        self.assertIn(failure["invariant"],
                      ("reference", "differential-results"))

        # Self-contained repro pair on disk.
        toml = failure["repro"]
        self.assertTrue(os.path.exists(toml), toml)
        ini = os.path.join(os.path.dirname(toml),
                           "repro-%d.ini" % failure["seed"])
        self.assertTrue(os.path.exists(ini), ini)

        # Shrinking made it smaller than the generator's default ceiling.
        self.assertLessEqual(failure["shrunk_devices"], 6)

        # Replay reproduces the same invariant failure deterministically.
        rep = fuzz("--replay", toml)
        self.assertEqual(rep.returncode, 0, rep.stdout + rep.stderr)
        self.assertIn("REPRODUCED", rep.stdout)
        self.assertIn(failure["invariant"], rep.stdout)


class ServeMode(unittest.TestCase):
    def write_repro(self, name, kernel):
        """A hand-written serve repro: one tenant, one job, the recorded
        invariant serve-progress, and the repository's gpu4 machine."""
        path = os.path.join(WORK.name, name)
        with open(path, "w", encoding="utf-8") as f:
            f.write("[serve]\nseed = 1\nmachine_file = %s\n"
                    "invariant = serve-progress\n\n"
                    "[tenant.0]\nname = t0\n\n"
                    "[job.0]\ntenant = 0\nkernel = %s\nn = 64\ndevices = 1\n"
                    % (GPU4_INI, kernel))
        return path

    def test_replay_of_hand_written_serve_repro(self):
        """An unknown kernel aborts the serving run, which the serve
        oracle reports as serve-progress: the replay reproduces it."""
        r = fuzz("--replay", self.write_repro("abort.toml", "no-such-kernel"))
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertIn("(serve)", r.stdout)
        self.assertIn("REPRODUCED", r.stdout)

    def test_replay_of_clean_serve_repro_does_not_reproduce(self):
        r = fuzz("--replay", self.write_repro("clean.toml", "axpy"))
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("NOT REPRODUCED", r.stdout)

    def test_molasses_top_step_generates(self):
        """Seed 618 draws the molasses band's top step, which once gave a
        slowdown rate of 1.0 and an exit-2 generator error."""
        r = fuzz("--serve", "--seed", "618", "--count", "1",
                 "--repro-dir", os.path.join(WORK.name, "seed618"))
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertEqual(json.loads(r.stdout)["violations"], 0)


class ErrorContract(unittest.TestCase):
    def test_unknown_flag_exits_2(self):
        r = fuzz("--frobnicate")
        self.assertEqual(r.returncode, 2)

    def test_out_of_range_integers_exit_2(self):
        """Values that do not fit an int exit 2 instead of wrapping
        (2^32 + 1 would wrap to a 1-scenario run)."""
        for args in (("--count", "4294967297"),
                     ("--max-devices", "4294967302"),
                     ("--serve", "--max-jobs", "4294967297")):
            with self.subTest(args=args):
                r = fuzz(*args, "--seed", "1")
                self.assertEqual(r.returncode, 2, r.stdout + r.stderr)
                self.assertIn("out of range", r.stderr)

    def test_serve_only_flags_need_serve(self):
        for args in (("--no-faults",), ("--max-tenants", "2"),
                     ("--max-jobs", "3")):
            with self.subTest(args=args):
                r = fuzz(*args, "--seed", "1", "--count", "3")
                self.assertEqual(r.returncode, 2, r.stdout + r.stderr)
                self.assertIn("serve-mode option", r.stderr)
                self.assertEqual(r.stdout, "")

    def test_serve_mode_rejects_planting(self):
        r = fuzz("--serve", "--plant", "corrupt-commit")
        self.assertEqual(r.returncode, 2, r.stdout + r.stderr)
        self.assertIn("not a serve-mode option", r.stderr)

    def test_replay_of_missing_file_exits_2(self):
        r = fuzz("--replay", os.path.join(WORK.name, "nope.toml"))
        self.assertEqual(r.returncode, 2)

    def test_replay_of_malformed_file_exits_2(self):
        bad = os.path.join(WORK.name, "bad.toml")
        with open(bad, "w", encoding="utf-8") as f:
            f.write("[scenario]\nseed = frog\n")
        r = fuzz("--replay", bad)
        self.assertEqual(r.returncode, 2)
        self.assertNotIn("Traceback", r.stderr)


def main():
    global FUZZ_BIN
    ap = argparse.ArgumentParser()
    ap.add_argument("--fuzz-bin", required=True,
                    help="path to the built homp-fuzz binary")
    args, rest = ap.parse_known_args()
    FUZZ_BIN = args.fuzz_bin
    unittest.main(argv=[sys.argv[0]] + rest)


if __name__ == "__main__":
    main()
