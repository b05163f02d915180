#!/usr/bin/env python3
"""Behaviour-preservation gate: regenerate every pinned output and diff it
against the committed files next to this script.

What is pinned:
  * bench/<name>.txt       stdout of the 16 figure/table/ablation/fault
                           benches (virtual time only, so byte-stable);
  * bench/fig6_trace.json, bench/fig6_metrics.json
                           bench_fig6_breakdown's --trace-out and
                           --metrics-out files;
  * fuzz/<case>.json       homp-fuzz summaries (stdout and --summary-out
                           must both equal it);
  * fuzz/<case>/<file>     the repro pairs of the planted runs, the only
                           runs that pin a shrink result byte for byte.

The paper's qualitative claims (EXPERIMENTS.md) are checked on the
regenerated bench stdout in both modes, so a refresh cannot commit outputs
that break the reproduction: Fig. 5 picks the paper's winner on 6/6
kernels, Fig. 6's average load imbalance is below 5%, Table V's matvec-48k
CUTOFF speedup is below 1, and §V-C's max BLAS slowdown lies within
10-18x.

homp-fuzz runs inside a temporary directory with the relative
`--repro-dir repros`, so the repro paths a summary records are the same
on every machine.

Usage:
  run_golden.py --bench-dir DIR --fuzz-bin PATH [--update] [--all]
                [--skip-dsan]

  --update     rewrite the golden files from this build instead of diffing
  --all        add the larger corpora only CI compares (the fuzz smoke and
               the 200-scenario dsan corpus)
  --skip-dsan  leave out the --dsan cases (a HOMP_DSAN=OFF build exits 2
               on --dsan)

Exit codes: 0 every output matches, 1 some output differs or a paper claim
fails, 2 a run failed or the arguments are unusable.
"""

import argparse
import concurrent.futures
import difflib
import os
import re
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))

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

# (case name, homp-fuzz arguments, expected exit code, needs dsan, CI only)
FUZZ = [
    ("seed1-count40", ["--seed", "1", "--count", "40"], 0, False, False),
    ("dsan-seed1-count20", ["--dsan", "--seed", "1", "--count", "20"],
     0, True, False),
    ("serve-seed1-count100", ["--serve", "--seed", "1", "--count", "100"],
     0, False, False),
    ("serve-dsan-seed1-count100",
     ["--serve", "--dsan", "--seed", "1", "--count", "100"], 0, True, False),
    ("plant-corrupt-commit-seed11",
     ["--plant", "corrupt-commit", "--seed", "11", "--count", "1"],
     1, False, False),
    ("plant-dsan-conflict-seed5",
     ["--plant", "dsan-conflict", "--seed", "5", "--count", "1"],
     1, True, False),
    ("seed1000-count100", ["--seed", "1000", "--count", "100"], 0, False, True),
    ("dsan-seed1-count200", ["--dsan", "--seed", "1", "--count", "200"],
     0, True, True),
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
        "golden/" + rel, "regenerated", lineterm=""))
    print("DIFF %s" % rel)
    for line in lines[:40]:
        print("  " + line)
    if len(lines) > 40:
        print("  ... %d more diff lines" % (len(lines) - 40))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--bench-dir", required=True)
    ap.add_argument("--fuzz-bin", required=True)
    ap.add_argument("--update", action="store_true")
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--skip-dsan", action="store_true")
    args = ap.parse_args()
    # homp-fuzz runs in its own temporary directory.
    args.fuzz_bin = os.path.abspath(args.fuzz_bin)

    with tempfile.TemporaryDirectory(prefix="homp_golden_") as tmp:
        jobs = [(bench_job, (args.bench_dir, b)) for b in BENCHES]
        jobs.append((fig6_files_job, (args.bench_dir, tmp)))
        expected = set()
        for name, fargs, expect, dsan, ci_only in FUZZ:
            if (dsan and args.skip_dsan) or (ci_only and not args.all):
                continue
            jobs.append((fuzz_job,
                         (args.fuzz_bin, tmp, name, fargs, expect)))
            expected.update(committed_repros(name))
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
            os.remove(os.path.join(HERE, rel))
        for rel, data in sorted(produced.items()):
            path = os.path.join(HERE, rel)
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
        path = os.path.join(HERE, rel)
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
