#!/usr/bin/env python3
"""Self-test suite for tools/lint/homp_lint.py, run under ctest.

Contract under test:
  * each bad_* fixture draws exactly its expected number of file:line
    diagnostics with the expected check ID, and no other check;
  * good_* fixtures and suppressed_* fixtures lint clean;
  * --json output is stable machine-readable JSON;
  * config errors (cyclic layer graph, unknown check, missing path)
    exit 2, never 0 or 1.

Fixtures are linted with --strict so the built-in tests/-path exemption
for HL001 does not mask them. Each fixture set is linted in one
invocation, not one per file, and the independent linter runs start
together from one thread pool when the module loads; each test then
checks its run's result. The lint_tree ctest entry, not this suite,
gates the real tree.
"""

import concurrent.futures
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
LINTER = os.path.join(REPO, "tools", "lint", "homp_lint.py")
FIXTURES = os.path.join(HERE, "fixtures")


def run_lint(*args, cwd=REPO):
    return subprocess.run(
        [sys.executable, LINTER, *args],
        capture_output=True, text=True, cwd=cwd)


def fx(*parts):
    return os.path.join(FIXTURES, *parts)


BAD_FIXTURES = {
    fx("bad_hl001.cpp"): ("HL001", 6),
    fx("bad_hl002.cpp"): ("HL002", 6),
    fx("layering", "src", "sim", "bad_hl003.cpp"): ("HL003", 2),
    fx("bad_hl004.h"): ("HL004", 2),
    fx("bad_hl005.cpp"): ("HL005", 2),
    fx("obs", "bad_hl005_names.h"): ("HL005", 2),
    fx("advise", "bad_hl005_keys.h"): ("HL005", 2),
    fx("serve", "src", "serve", "bad_hl006.cpp"): ("HL006", 4),
    fx("runtime", "src", "runtime", "bad_hl006.cpp"): ("HL006", 2),
    fx("bad_hl007_report.cpp"): ("HL007", 2),
}

CLEAN_FIXTURES = [
    fx("good_hl001.cpp"),
    fx("good_hl002.cpp"),
    fx("layering", "src", "runtime", "good_hl003.cpp"),
    fx("good_hl004.h"),
    fx("good_hl005.cpp"),
    fx("obs", "good_hl005_names.h"),
    fx("advise", "good_hl005_keys.h"),
    fx("suppressed_hl001.cpp"),
    fx("suppressed_hl002.cpp"),
    fx("layering", "src", "sim", "suppressed_hl003.cpp"),
    fx("suppressed_hl004.h"),
    fx("suppressed_hl005.cpp"),
    fx("obs", "suppressed_hl005_names.h"),
    fx("advise", "suppressed_hl005_keys.h"),
    fx("serve", "src", "serve", "good_hl006.cpp"),
    fx("serve", "src", "serve", "suppressed_hl006.cpp"),
    fx("good_hl007_report.cpp"),
    fx("suppressed_hl007_report.cpp"),
]


CHANGED_ONLY_BAD = (
    "#include <ctime>\nlong f() { return std::time(nullptr); }\n")


def changed_only_run(d):
    """A git repo with one committed and one untracked file, both with
    an HL002 finding, linted with --changed-only."""
    def git(*a):
        subprocess.run(
            ["git", "-c", "user.email=l@l", "-c", "user.name=l", *a],
            cwd=d, check=True, capture_output=True)
    os.mkdir(d)
    git("init", "-q")
    with open(os.path.join(d, "committed.cpp"), "w") as f:
        f.write(CHANGED_ONLY_BAD)
    git("add", "committed.cpp")
    git("commit", "-q", "-m", "seed")
    with open(os.path.join(d, "fresh.cpp"), "w") as f:
        f.write(CHANGED_ONLY_BAD)
    return run_lint("--strict", "--changed-only", ".", cwd=d)


POOL = concurrent.futures.ThreadPoolExecutor(max_workers=8)
RUNS = {}
TMP = None


def setUpModule():
    global TMP
    TMP = tempfile.mkdtemp(prefix="homp-lint-selftest-")

    def config(name, text):
        path = os.path.join(TMP, name)
        with open(path, "w") as f:
            f.write(text)
        return path

    cyclic = config("cyclic.toml", '[layers]\na = ["b"]\nb = ["a"]\n')
    ghost = config("ghost.toml", '[layers]\na = ["ghost"]\n')
    good = fx("good_hl001.cpp")
    jobs = {
        "bad": ("--strict", "--json", *BAD_FIXTURES),
        "clean": ("--strict", *CLEAN_FIXTURES),
        "json_bad": ("--strict", "--json", fx("bad_hl001.cpp")),
        "json_clean": ("--json", good),
        "cyclic": ("--config", cyclic, good),
        "undeclared": ("--config", ghost, good),
        "unknown_check": ("--checks", "HL999", good),
        "missing_path": (os.path.join(FIXTURES, "does_not_exist.cpp"),),
        "serial": ("--strict", "--jobs", "1", FIXTURES),
        "pooled": ("--strict", "--jobs", "4", FIXTURES),
        "strict_tests_sim": ("--strict", "--checks", "HL001",
                             os.path.join(REPO, "tests", "sim")),
    }
    for name, args in jobs.items():
        RUNS[name] = POOL.submit(run_lint, *args)
    RUNS["changed_only"] = POOL.submit(
        changed_only_run, os.path.join(TMP, "changed-only"))


def tearDownModule():
    POOL.shutdown()
    shutil.rmtree(TMP, ignore_errors=True)


def result(name):
    return RUNS[name].result()


class BadFixtures(unittest.TestCase):
    def test_each_bad_fixture_fails_with_its_id(self):
        r = result("bad")
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        doc = json.loads(r.stdout)
        self.assertEqual(doc["files_scanned"], len(BAD_FIXTURES))
        found = {}
        for d in doc["diagnostics"]:
            self.assertGreaterEqual(d["line"], 1, d)
            counts = found.setdefault(os.path.normpath(d["file"]), {})
            counts[d["id"]] = counts.get(d["id"], 0) + 1
        want = {os.path.normpath(path): {check_id: count}
                for path, (check_id, count) in BAD_FIXTURES.items()}
        self.assertEqual(found, want)


class CleanFixtures(unittest.TestCase):
    def test_good_and_suppressed_fixtures_pass(self):
        r = result("clean")
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertEqual(r.stdout, "")


class JsonContract(unittest.TestCase):
    def test_json_shape_on_bad_fixture(self):
        r = result("json_bad")
        self.assertEqual(r.returncode, 1)
        doc = json.loads(r.stdout)
        self.assertEqual(doc["version"], 1)
        self.assertEqual(doc["files_scanned"], 1)
        self.assertEqual(doc["counts"], {"HL001": 6})
        for d in doc["diagnostics"]:
            self.assertEqual(sorted(d),
                             ["check", "file", "hint", "id", "line", "message"])
            self.assertEqual(d["id"], "HL001")
            self.assertEqual(d["check"], "deferred-ref-capture")
            self.assertIsInstance(d["line"], int)
            self.assertTrue(d["hint"])

    def test_json_clean_run(self):
        r = result("json_clean")
        self.assertEqual(r.returncode, 0)
        doc = json.loads(r.stdout)
        self.assertEqual(doc["diagnostics"], [])
        self.assertEqual(doc["counts"], {})


class ErrorContract(unittest.TestCase):
    def test_cyclic_layer_graph_is_a_config_error(self):
        r = result("cyclic")
        self.assertEqual(r.returncode, 2, r.stdout + r.stderr)
        self.assertIn("cycle", r.stderr)

    def test_undeclared_dependency_is_a_config_error(self):
        r = result("undeclared")
        self.assertEqual(r.returncode, 2, r.stdout + r.stderr)
        self.assertIn("undeclared", r.stderr)

    def test_unknown_check_id(self):
        r = result("unknown_check")
        self.assertEqual(r.returncode, 2)
        self.assertIn("HL999", r.stderr)

    def test_missing_path(self):
        r = result("missing_path")
        self.assertEqual(r.returncode, 2)


class ParallelScan(unittest.TestCase):
    def test_pool_and_serial_agree_byte_for_byte(self):
        """--jobs N must not change the report: same diagnostics, same
        order, same exit code as the serial scan."""
        serial = result("serial")
        pooled = result("pooled")
        self.assertEqual(serial.returncode, 1)
        self.assertEqual(pooled.returncode, serial.returncode)
        self.assertEqual(pooled.stdout, serial.stdout)


class ChangedOnly(unittest.TestCase):
    def test_scans_only_git_changed_files(self):
        """--changed-only lints what git reports changed (plus untracked)
        and skips committed-clean files even when they carry findings."""
        r = result("changed_only")
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("fresh.cpp", r.stdout)
        self.assertNotIn("committed.cpp", r.stdout)
        self.assertIn("HL005", r.stderr)  # the disabled-pass notice


class StrictMode(unittest.TestCase):
    def test_strict_mode_still_fires_somewhere(self):
        """Guards against the linter silently matching nothing: test code
        legitimately uses [&] with a frame-owned engine, so --strict over
        tests/sim must produce HL001 findings."""
        r = result("strict_tests_sim")
        self.assertEqual(r.returncode, 1)
        self.assertIn("HL001", r.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
