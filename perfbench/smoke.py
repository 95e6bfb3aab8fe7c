#!/usr/bin/env python3
"""Smoke test of the benchmark at tiny scale (the ``smoke`` workload).

    python3 perfbench/smoke.py

Checks that:
1. run.py prints exactly the metric names and units BENCHMARK.json
   declares, with ``--trace 0`` and with ``--trace 1``, and passes;
2. a copy of a dataset with one grounding ref corrupted fails the run's
   correctness check;
3. peak_rss_mb belongs to the command: ingest reports the same peak
   whether or not the harness has grown by 256 MB.
Exits nonzero on the first failed check.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import run
from workloads import WORKLOADS, build_inputs

BALLAST_MB = 256


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"FAIL: {message}")
    print(f"ok: {message}")


def metric_names() -> None:
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, str(run.HERE / "run.py"), "--workload", "smoke",
             "--seed", "1", "--seconds", "1", "--trace", str(trace)],
            capture_output=True, text=True, cwd=run.ROOT, timeout=170,
        )
        if proc.returncode != 0:
            print(proc.stderr[-2000:], file=sys.stderr)
        check(proc.returncode == 0, f"run.py --trace {trace} exits 0")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        check(result["correct"] and result["failed"] == 0, f"--trace {trace} run is correct")
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        wanted = {m["name"]: m["unit"] for m in declared[key]}
        check(printed == wanted, f"--trace {trace} prints the {key} metrics of BENCHMARK.json")


def corrupted_grounding_fails(launcher: run.Launcher, work: Path) -> None:
    workload = WORKLOADS["smoke"]
    inputs, _ = build_inputs(workload, 1, run.WORK / "inputs")
    snapshot, out, bad = work / "snapshot", work / "good", work / "bad"
    log = work / "stdout.txt"
    launcher.run(run.shoptalk("ingest", "--meta", inputs / "meta.jsonl",
                              "--reviews", inputs / "reviews.jsonl", "--out", snapshot), log)
    gen = launcher.run(run.shoptalk(*run.generate_args(workload, snapshot, out, inputs)), log)
    check(gen["rc"] == 0, "smoke generate exits 0")

    bad.mkdir()
    shutil.copy(out / "report.json", bad / "report.json")
    with open(out / "dataset.jsonl", encoding="utf-8") as src, \
            open(bad / "dataset.jsonl", "w", encoding="utf-8") as dst:
        for n, line in enumerate(src):
            if n == 0:
                record = json.loads(line)
                ref = next(t for t in record["turns"] if t["grounding"])["grounding"][0]
                ref["sentence_ordinal"] += 1
                line = json.dumps(record, sort_keys=True, ensure_ascii=False) + "\n"
            dst.write(line)

    checker = run.Checker(workload, work / "digest")
    for dataset in (out, bad):
        val = launcher.run(run.shoptalk(*run.validate_args(workload, snapshot, dataset, inputs)), log)
        figures = checker.check(dataset, gen["rc"], val["rc"], log.read_text(encoding="utf-8"))
        if dataset is out:
            check(checker.correct, "the generated dataset passes the check")
    check(figures["violations"] and not checker.correct and checker.failed >= 1,
          f"one corrupted grounding ref fails the check ({checker.problems})")


def peak_rss_is_the_commands(launcher: run.Launcher, work: Path) -> None:
    inputs, _ = build_inputs(WORKLOADS["smoke"], 1, run.WORK / "inputs")
    argv = run.shoptalk("ingest", "--meta", inputs / "meta.jsonl",
                        "--reviews", inputs / "reviews.jsonl", "--out", work / "rss")
    small = launcher.run(argv, work / "stdout.txt")["maxrss_mb"]
    ballast = bytearray(BALLAST_MB << 20)
    for i in range(0, len(ballast), 4096):
        ballast[i] = 1
    grown = launcher.run(argv, work / "stdout.txt")["maxrss_mb"]
    proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, env=dict(PYTHONPATH=str(run.SRC)))
    direct = os.wait4(proc.pid, 0)[2].ru_maxrss / 1024
    del ballast
    print(f"ingest peak RSS: {small:.1f} MB; with the harness {BALLAST_MB} MB larger "
          f"{grown:.1f} MB; started directly by the larger harness {direct:.1f} MB")
    check(abs(grown - small) < 2.0, "peak_rss_mb does not follow the harness's footprint")


def main() -> None:
    metric_names()
    work = run.WORK / "smoke"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    launcher = run.Launcher()
    try:
        corrupted_grounding_fails(launcher, work)
        peak_rss_is_the_commands(launcher, work)
    finally:
        launcher.close()
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
