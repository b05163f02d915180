#!/usr/bin/env python3
"""Behaviour-preservation gate: regenerate every pinned output and diff it
against the committed files next to this script and BENCH_traffic.json.

What is pinned:
  * bench/<name>.txt       stdout of the 16 figure/table/ablation/fault
                           benches (virtual time only, so byte-stable);
  * bench/fig6_trace.json, bench/fig6_metrics.json
                           bench_fig6_breakdown's --trace-out and
                           --metrics-out files;
  * BENCH_traffic.json     at the repository root: the serving summary of
                           bench_traffic --smoke --json-out, so admission,
                           shedding and breaker changes show here too;
  * fuzz/<case>.json       homp-fuzz summaries (stdout and --summary-out
                           must both equal it);
  * fuzz/<case>/<file>     the repro pairs of the planted runs, the only
                           runs that pin a shrink result byte for byte;
  * perf/<workload>.json   with --perfbench only: the exact counts of one
                           traced perfbench run per workload (below).

The paper's qualitative claims (EXPERIMENTS.md) are checked on the
regenerated bench stdout in both modes, so a refresh cannot commit outputs
that break the reproduction: Fig. 5 picks the paper's winner on 6/6
kernels, Fig. 6's average load imbalance is below 5%, Table V's matvec-48k
CUTOFF speedup is below 1, and §V-C's max BLAS slowdown lies within
10-18x.

homp-fuzz runs inside a temporary directory with the relative
`--repro-dir repros`, so the repro paths a summary records are the same
on every machine.

--perfbench replaces the bench and fuzz runs with the repository
benchmark (perfbench/run.py, which builds its own tree in .bench_build/):
one traced run per workload at --seed 1 --seconds 1 --trace 1, run from
the repository root. Every run must report a correct result with no failed
operation. Its virtual digest and the seven virtual-deterministic counts
must equal the golden's on every build. The three heap-allocation counts
are exact for one compiler only, so they are compared when the run
manifest names the golden's compiler and reported as skipped otherwise.
No host-time figure is compared.

Usage:
  run_golden.py --bench-dir DIR --fuzz-bin PATH [--update] [--all]
  run_golden.py --perfbench [--update]

  --update     rewrite the golden files from this build instead of diffing
  --all        add the larger corpus only CI compares (the fuzz smoke)
  --perfbench  compare perfbench's exact counts instead (perf/*.json)

Exit codes: 0 every output matches, 1 some output differs or a paper claim
fails, 2 a run failed or the arguments are unusable.
"""

import argparse
import concurrent.futures
import difflib
import json
import os
import re
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

BENCHES = [
    "bench_table2_algorithms",
    "bench_table4_characteristics",
    "bench_fig5_gpu4",
    "bench_fig6_breakdown",
    "bench_fig7_speedup",
    "bench_fig8_cpu_mic",
    "bench_fig9_all_devices",
    "bench_table5_cutoff",
    "bench_ablation_unified_memory",
    "bench_ablation_heuristic",
    "bench_ablation_chunksize",
    "bench_ablation_cutoff_sweep",
    "bench_ablation_baselines",
    "bench_ablation_teams",
    "bench_ablation_model_error",
    "bench_fault_degradation",
]

# (case name, homp-fuzz arguments, expected exit code, CI only)
FUZZ = [
    ("seed1-count40", ["--seed", "1", "--count", "40"], 0, False),
    ("serve-seed1-count100", ["--serve", "--seed", "1", "--count", "100"],
     0, False),
    ("plant-corrupt-commit-seed11",
     ["--plant", "corrupt-commit", "--seed", "11", "--count", "1"], 1, False),
    ("seed1000-count100", ["--seed", "1000", "--count", "100"], 0, True),
]


# (claim, bench, regex capturing the figure, test the figure must pass)
PAPER_SHAPE = [
    ("Fig. 5 winners on 6/6 kernels", "bench_fig5_gpu4",
     r"shape agreement with paper Fig\. 5: (\d+)/6 kernels",
     lambda v: v == 6),
    ("Fig. 6 average load imbalance below 5%", "bench_fig6_breakdown",
     r"average load imbalance across all kernels/policies: ([\d.]+)%",
     lambda v: v < 5.0),
    ("Table V matvec-48k CUTOFF speedup below 1", "bench_table5_cutoff",
     r"^matvec-48k {2,}.+? {2,}([\d.]+) ", lambda v: v < 1.0),
    ("V-C max BLAS slowdown within 10-18x", "bench_ablation_unified_memory",
     r"max BLAS slowdown: ([\d.]+)x", lambda v: 10.0 <= v <= 18.0),
]


PERF_WORKLOADS = ["sim-sweep", "real-data", "serve-soak", "fuzz-corpus"]
PERF_ARGS = ["--seed", "1", "--seconds", "1", "--trace", "1"]
# Functions of the seed and the source alone: equal on every build.
PERF_EXACT = [
    "sim.events_per_offload",
    "sched.chunks_per_offload",
    "memory.bytes_per_offload",
    "runtime.integrity_checks_per_offload",
    "runtime.recovery_events_per_offload",
    "serve.admitted_share",
    "fuzz.offloads_per_scenario",
]
# Counted by perfbench's operator new: they also depend on the standard
# library, so they are exact for one compiler only.
PERF_ALLOCS = [
    "sim.allocs_per_event",
    "runtime.allocs_per_offload",
    "serve.allocs_per_event",
]


# The one pinned output kept outside this directory, at the repository
# root where CI's serving smoke also compares it.
TRAFFIC = "BENCH_traffic.json"


def golden_path(rel):
    return os.path.join(ROOT if rel == TRAFFIC else HERE, rel)


class RunError(Exception):
    pass


def run(cmd, cwd=None, expect=0):
    r = subprocess.run(cmd, cwd=cwd, capture_output=True, timeout=600)
    if r.returncode != expect:
        raise RunError("%s exited %d (expected %d)\n%s" % (
            " ".join(cmd), r.returncode, expect,
            r.stderr.decode(errors="replace")[-2000:]))
    return r.stdout


def read(path):
    with open(path, "rb") as f:
        return f.read()


def bench_job(bench_dir, name):
    return {"bench/%s.txt" % name: run([os.path.join(bench_dir, name)])}


def fig6_files_job(bench_dir, tmp):
    trace = os.path.join(tmp, "fig6_trace.json")
    metrics = os.path.join(tmp, "fig6_metrics.json")
    run([os.path.join(bench_dir, "bench_fig6_breakdown"),
         "--trace-out", trace, "--metrics-out", metrics])
    return {"bench/fig6_trace.json": read(trace),
            "bench/fig6_metrics.json": read(metrics)}


def traffic_job(bench_dir, tmp):
    out = os.path.join(tmp, "BENCH_traffic.json")
    run([os.path.join(bench_dir, "bench_traffic"), "--smoke",
         "--json-out", out])
    return {TRAFFIC: read(out)}


def fuzz_job(fuzz_bin, tmp, name, args, expect):
    cwd = os.path.join(tmp, name)
    os.makedirs(cwd)
    stdout = run([fuzz_bin, *args, "--repro-dir", "repros",
                  "--summary-out", "summary.json"], cwd=cwd, expect=expect)
    if read(os.path.join(cwd, "summary.json")) != stdout:
        raise RunError("homp-fuzz %s: --summary-out differs from stdout"
                       % " ".join(args))
    out = {"fuzz/%s.json" % name: stdout}
    repros = os.path.join(cwd, "repros")
    if os.path.isdir(repros):
        for f in sorted(os.listdir(repros)):
            out["fuzz/%s/%s" % (name, f)] = read(os.path.join(repros, f))
    return out


def committed_repros(name):
    d = os.path.join(HERE, "fuzz", name)
    if not os.path.isdir(d):
        return []
    return ["fuzz/%s/%s" % (name, f) for f in sorted(os.listdir(d))]


def paper_shape_failures(produced):
    """One message per PAPER_SHAPE claim the regenerated stdout breaks."""
    failures = []
    for claim, bench, pattern, holds in PAPER_SHAPE:
        text = produced["bench/%s.txt" % bench].decode(errors="replace")
        m = re.search(pattern, text, re.M)
        if m is None:
            failures.append("%s: %s prints no such figure" % (claim, bench))
        elif not holds(float(m.group(1))):
            failures.append("%s: %s prints %s" % (claim, bench, m.group(1)))
    return failures


def show_diff(rel, want, got):
    lines = list(difflib.unified_diff(
        want.decode(errors="replace").splitlines(),
        got.decode(errors="replace").splitlines(),
        os.path.relpath(golden_path(rel), ROOT), "regenerated",
        lineterm=""))
    print("DIFF %s" % rel)
    for line in lines[:40]:
        print("  " + line)
    if len(lines) > 40:
        print("  ... %d more diff lines" % (len(lines) - 40))


def perf_record(workload):
    """Run perfbench once; return the golden record of what it printed."""
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, *PERF_ARGS]
    lines = run(cmd, cwd=ROOT).decode(errors="replace").splitlines()
    log = dict(line.split(": ", 1) for line in lines[:-1] if ": " in line)
    result = json.loads(lines[-1])
    if result["correct"] is not True or result["failed"] != 0:
        raise RunError("perfbench %s: correct %s, %d of %d operations failed"
                       % (workload, result["correct"], result["failed"],
                          result["attempted"]))
    value = {k: m["value"] for k, m in result["metrics"].items()}
    return {
        "workload": workload,
        "args": " ".join(PERF_ARGS),
        "virtual_digest": log["virtual digest"],
        "exact": {k: value[k] for k in PERF_EXACT},
        "compiler": log["manifest.compiler"],
        "allocs": {k: value[k] for k in PERF_ALLOCS},
    }


def perf_differences(want, got):
    """One message per recorded figure that `got` does not reproduce."""
    rows = [("virtual digest", want["virtual_digest"], got["virtual_digest"])]
    rows += [(k, v, got["exact"][k]) for k, v in want["exact"].items()]
    if want["compiler"] == got["compiler"]:
        rows += [(k, v, got["allocs"][k]) for k, v in want["allocs"].items()]
    else:
        print("perf/%s.json: allocation counts not compared: recorded with "
              "%s, this build is %s" % (want["workload"], want["compiler"],
                                        got["compiler"]))
    return ["%s: golden %s, this build %s" % (k, w, g)
            for k, w, g in rows if w != g]


def perf_main(update):
    produced = {}
    try:
        # One at a time: the first run builds perfbench's tree.
        for w in PERF_WORKLOADS:
            produced["perf/%s.json" % w] = perf_record(w)
    except (RunError, OSError, subprocess.TimeoutExpired, KeyError,
            ValueError) as e:
        print("golden: %s" % e, file=sys.stderr)
        return 2
    if update:
        for rel, rec in produced.items():
            path = os.path.join(HERE, rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w") as f:
                f.write(json.dumps(rec, indent=2) + "\n")
        print("golden: wrote %d files" % len(produced))
        return 0
    bad = 0
    for rel, got in produced.items():
        path = os.path.join(HERE, rel)
        if not os.path.exists(path):
            print("NEW %s: produced but not committed" % rel)
            bad += 1
            continue
        with open(path) as f:
            diffs = perf_differences(json.load(f), got)
        for msg in diffs:
            print("DIFF %s %s" % (rel, msg))
        bad += bool(diffs)
    print("golden: %d perfbench runs checked, %d differ"
          % (len(produced), bad))
    return 1 if bad else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--bench-dir")
    ap.add_argument("--fuzz-bin")
    ap.add_argument("--update", action="store_true")
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--perfbench", action="store_true")
    args = ap.parse_args()
    if args.perfbench:
        return perf_main(args.update)
    if args.bench_dir is None or args.fuzz_bin is None:
        ap.error("--bench-dir and --fuzz-bin are required without "
                 "--perfbench")
    # homp-fuzz runs in its own temporary directory.
    args.fuzz_bin = os.path.abspath(args.fuzz_bin)

    with tempfile.TemporaryDirectory(prefix="homp_golden_") as tmp:
        # Longest first (the fuzz corpora, then bench_traffic), so the
        # pool does not end on a long job started last.
        jobs = []
        expected = set()
        for name, fargs, expect, ci_only in FUZZ:
            if ci_only and not args.all:
                continue
            jobs.append((fuzz_job,
                         (args.fuzz_bin, tmp, name, fargs, expect)))
            expected.update(committed_repros(name))
        jobs.append((traffic_job, (args.bench_dir, tmp)))
        jobs.append((fig6_files_job, (args.bench_dir, tmp)))
        jobs += [(bench_job, (args.bench_dir, b)) for b in BENCHES]
        produced = {}
        try:
            with concurrent.futures.ThreadPoolExecutor(
                    min(4, os.cpu_count() or 1)) as pool:
                for files in pool.map(lambda j: j[0](*j[1]), jobs):
                    produced.update(files)
        except (RunError, OSError, subprocess.TimeoutExpired) as e:
            print("golden: %s" % e, file=sys.stderr)
            return 2

    shape = paper_shape_failures(produced)
    for msg in shape:
        print("PAPER-SHAPE %s" % msg)
    if args.update:
        if shape:
            print("golden: not updated, %d paper claims fail" % len(shape))
            return 1
        for rel in sorted(expected - produced.keys()):
            os.remove(golden_path(rel))
        for rel, data in sorted(produced.items()):
            path = golden_path(rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "wb") as f:
                f.write(data)
        print("golden: wrote %d files" % len(produced))
        return 0

    bad = 0
    for rel in sorted(expected - produced.keys()):
        print("MISSING %s: committed but no longer produced" % rel)
        bad += 1
    for rel, data in sorted(produced.items()):
        path = golden_path(rel)
        if not os.path.exists(path):
            print("NEW %s: produced but not committed" % rel)
            bad += 1
        elif read(path) != data:
            show_diff(rel, read(path), data)
            bad += 1
    print("golden: %d files checked, %d differ, %d paper claims fail"
          % (len(produced), bad, len(shape)))
    return 1 if bad or shape else 0


if __name__ == "__main__":
    sys.exit(main())
