#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the shoptalk CLI pipeline.

    python3 perfbench/run.py --workload sample-14k-dialogs --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  One closed-loop client runs the user
flow ``shoptalk ingest`` -> ``shoptalk generate`` -> ``shoptalk validate``
as separate processes with the default config (workers=1), each command
starting after the previous one exits, and times each from outside.
Ingest repeats for SETUP_SHARE of ``--seconds`` and at least SETUP_REPEATS
times; generate + validate then repeat until ``--seconds`` have passed, at
least MIN_ITERATIONS times.  Every iteration
is checked: each command exits 0, validate finds no violation, report.json
successes equals the dataset's line count and the number of conversations
validate checked, and the dataset's SHA-256 is the same in every run of
one (workload, seed).

With ``--trace 1`` the run then drives ``shoptalk.cli.main`` in-process
with every pipeline function wrapped (see tracing.py) and reports per-layer
metrics instead of end-to-end ones.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  The exit code is
nonzero on any correctness failure.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
SRC = ROOT / "src"
SETUP_REPEATS = 5
SETUP_SHARE = 0.1
MIN_ITERATIONS = 2
STARTUP_REPEATS = 7
TEMPLATES = 14

sys.path.insert(0, str(HERE))
from workloads import CORPUS_SCRIPT, GENERATE_SEED, WORKLOADS, Workload, build_inputs  # noqa: E402


class Launcher:
    """Client of launcher.py, started before the harness grows."""

    def __init__(self) -> None:
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self._proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True,
        )

    def run(self, argv: list[str], stdout: Path) -> dict:
        self._proc.stdin.write(json.dumps({"argv": argv, "stdout": str(stdout)}) + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("launcher exited")
        return json.loads(line)

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.wait(timeout=60)
        self._proc.stdout.close()


def shoptalk(*args: str) -> list[str]:
    return [sys.executable, "-m", "shoptalk.cli", *map(str, args)]


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def program_digest() -> str:
    """Digest of the program's sources: keys the expected dataset digest."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "shoptalk").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


class Checker:
    """Correctness of one generate + validate iteration."""

    def __init__(self, workload: Workload, expected_digest_file: Path) -> None:
        self.requested = TEMPLATES * workload.per_template
        self.digest_file = expected_digest_file
        self.digest = (
            expected_digest_file.read_text().strip() if expected_digest_file.exists() else None
        )
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, out: Path, gen_rc: int, val_rc: int, val_stdout: str) -> dict:
        """Count the iteration's failed conversations; return its figures."""
        self.attempted += self.requested
        figures = {"exhausted": None, "violations": None, "digest": None}
        if gen_rc != 0 or val_rc not in (0, 1):
            self.failed += self.requested
            self.problems.append(f"exit codes generate={gen_rc} validate={val_rc}")
            return figures
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        flagged = {
            json.loads(line)["conversation_id"]
            for line in open(out / "violations.jsonl", encoding="utf-8")
        }
        checked = re.search(r"^conversations checked: (\d+)$", val_stdout, re.M)
        violations = re.search(r"^violations: (\d+)$", val_stdout, re.M)
        lines = sum(1 for _ in open(out / "dataset.jsonl", "rb"))
        digest = sha256(out / "dataset.jsonl")
        figures = {
            "exhausted": len(report["exhausted"]),
            "violations": int(violations.group(1)) if violations else None,
            "digest": digest,
        }
        self.failed += min(self.requested, len(report["exhausted"]) + len(flagged))
        if val_rc != 0 or figures["violations"] != 0 or flagged:
            self.problems.append(f"validate: exit {val_rc}, {figures['violations']} violations")
        if not checked or not report["successes"] == lines == int(checked.group(1)):
            self.problems.append(
                f"successes {report['successes']}, dataset lines {lines}, "
                f"checked {checked.group(1) if checked else None} differ"
            )
        if self.digest is None:
            self.digest = digest
            self.digest_file.write_text(digest + "\n")
        elif digest != self.digest:
            self.problems.append(f"dataset digest {digest} != {self.digest}")
        return figures

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0


def generate_args(workload: Workload, snapshot: Path, out: Path, inputs: Path) -> list[str]:
    args = ["generate", "--snapshot", snapshot, "--out", out, "--seed", GENERATE_SEED,
            "--per-template", workload.per_template]
    if workload.annotations:
        args += ["--annotations", inputs / "annotations.jsonl"]
    return args


def validate_args(workload: Workload, snapshot: Path, out: Path, inputs: Path) -> list[str]:
    args = ["validate", "--dataset", out / "dataset.jsonl", "--snapshot", snapshot,
            "--out", out / "violations.jsonl"]
    if workload.annotations:
        args += ["--annotations", inputs / "annotations.jsonl"]
    return args


def measure(launcher: Launcher, workload: Workload, inputs: Path, sizes: dict,
            run_dir: Path, seconds: float, checker: Checker) -> dict:
    """Untraced closed loop; returns raw per-command samples."""
    log = run_dir / "stdout.txt"
    # Compile bytecode and warm the file cache outside the timed commands.
    warm = launcher.run([sys.executable, "-c", "import shoptalk.cli"], log)
    if warm["rc"] != 0:
        raise RuntimeError(f"cannot import shoptalk.cli: {log.read_text()}")
    samples = {"ingest": [], "generate": [], "validate": [], "rss": []}
    start = time.perf_counter()
    snapshot = None
    # Every command writes into a fresh directory: rewriting the files of an
    # earlier run in place made ingest and generate up to 2x slower on ext4.
    while (len(samples["ingest"]) < SETUP_REPEATS
           or time.perf_counter() - start < SETUP_SHARE * seconds):
        if snapshot is not None:
            shutil.rmtree(snapshot)
        snapshot = run_dir / f"snapshot{len(samples['ingest'])}"
        res = launcher.run(shoptalk("ingest", "--meta", inputs / "meta.jsonl",
                                    "--reviews", inputs / "reviews.jsonl",
                                    "--out", snapshot), log)
        if res["rc"] != 0:
            raise RuntimeError(f"ingest failed: {log.read_text()}")
        report = json.loads((snapshot / "ingest_report.json").read_text(encoding="utf-8"))
        if (report["products"], report["reviews"]) != (sizes["products"], sizes["reviews"]):
            checker.problems.append(f"ingest kept {report['products']} products, "
                                    f"{report['reviews']} reviews of {sizes}")
        samples["ingest"].append(res["wall_s"])
        samples["rss"].append(res["maxrss_mb"])
    iteration = 0
    while iteration < MIN_ITERATIONS or time.perf_counter() - start < seconds:
        out = run_dir / f"run{iteration}"
        gen = launcher.run(shoptalk(*generate_args(workload, snapshot, out, inputs)), log)
        val = launcher.run(shoptalk(*validate_args(workload, snapshot, out, inputs)), log)
        checker.check(out, gen["rc"], val["rc"], log.read_text(encoding="utf-8"))
        samples["generate"].append(gen["wall_s"])
        samples["validate"].append(val["wall_s"])
        samples["rss"] += [gen["maxrss_mb"], val["maxrss_mb"]]
        shutil.rmtree(out, ignore_errors=True)
        iteration += 1
    return samples


def end_to_end(samples: dict) -> dict:
    setup = statistics.median(samples["ingest"])
    generate = statistics.median(samples["generate"])
    validate = statistics.median(samples["validate"])
    return {
        "setup_s": (setup, "s"),
        "generate_s": (generate, "s"),
        "validate_s": (validate, "s"),
        "pipeline_s": (setup + generate + validate, "s"),
        "peak_rss_mb": (max(samples["rss"]), "MB"),
    }


def traced(launcher: Launcher, workload: Workload, inputs: Path, run_dir: Path,
           checker: Checker, untraced_pipeline_s: float, trace_file: Path) -> tuple[dict, list[str]]:
    """One in-process pipeline with every layer wrapped; per-layer metrics."""
    import tracing

    startup = []
    for _ in range(STARTUP_REPEATS):
        res = launcher.run([sys.executable, "-c", "import shoptalk.cli"], run_dir / "stdout.txt")
        startup.append(res["wall_s"])
    startup_s = statistics.median(startup)

    sys.path.insert(0, str(SRC))
    from shoptalk import cli

    snapshot, out = run_dir / "traced-snapshot", run_dir / "traced"
    commands = {
        "ingest": ["ingest", "--meta", inputs / "meta.jsonl",
                   "--reviews", inputs / "reviews.jsonl", "--out", snapshot],
        "generate": generate_args(workload, snapshot, out, inputs),
        "validate": validate_args(workload, snapshot, out, inputs),
    }
    tracer = tracing.Tracer()
    tracer.install()
    rcs, texts, wall = {}, {}, 0.0
    try:
        for name, args in commands.items():
            buffer = io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(buffer):
                rcs[name] = cli.main([str(a) for a in args])
            wall += time.perf_counter() - start
            texts[name] = buffer.getvalue()
    finally:
        tracer.uninstall()
    if rcs["ingest"] != 0:
        checker.problems.append(f"traced ingest exited {rcs['ingest']}: {texts['ingest']}")
    figures = checker.check(out, rcs["generate"], rcs["validate"], texts["validate"])
    tracer.write(trace_file)

    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    conversations = report["requested"]
    observed = tracer.observed

    def us(name):
        return [d * 1e6 for d in tracer.durations(name)]

    seed_us, search_us = us("search_dialog.sample_seed"), us("search_dialog.generate_search_dialog")
    pair_us = us("negotiation.build_pair")
    conv_ms = [d * 1e3 for d in tracer.durations("assembly.generate_conversation")]
    ingest_meta, ingest_reviews = observed["corpus.ingest_metadata"][0], observed["corpus.ingest_reviews"][0]
    loads = len(tracer.durations("corpus.ingest_reviews")) - 1  # generate + validate
    imports = observed["annotate.import_annotations"]
    self_s = tracer.self_times()
    tails = {}

    def p(values, name):
        pct, value = tracing.tail(values)
        tails[name] = (pct, len(values))
        return value

    metrics = {
        "cli.startup_s": (startup_s, "s"),
        "cli.self_s": (self_s["cli"], "s"),
        "corpus.ingest_metadata_s": (tracer.total("corpus.ingest_metadata"), "s"),
        "corpus.ingest_reviews_s": (tracer.total("corpus.ingest_reviews"), "s"),
        "corpus.write_snapshot_s": (
            tracer.total("corpus.write_catalog") + tracer.total("corpus.write_reviews"), "s"),
        "corpus.records_read": (ingest_meta.records_read + ingest_reviews.records_read, "count"),
        "corpus.self_s": (self_s["corpus"], "s"),
        "annotate.sentence_map_s": (tracer.total("annotate.sentence_map"), "s"),
        "annotate.annotate_store_s": (tracer.total("annotate.annotate_store"), "s"),
        "annotate.sentences": (observed["annotate.sentence_map"][0], "count"),
        "annotate.spans": (observed["annotate.annotate_store"][0], "count"),
        "annotate.split_calls_per_review": (
            len(tracer.durations("annotate.split_sentences")) / (loads * ingest_reviews.records_kept), "ratio"),
        "annotate.self_s": (self_s["annotate"], "s"),
        "opinion_index.build_s": (tracer.total("opinion_index.build_index"), "s"),
        "opinion_index.keys": (observed["opinion_index.build_index"][0], "count"),
        "opinion_index.features_of_calls": (
            len(tracer.durations("opinion_index.features_of")), "count"),
        "opinion_index.self_s": (self_s["opinion_index"], "s"),
        "search_dialog.sample_seed_us.p50": (statistics.median(seed_us), "us"),
        "search_dialog.sample_seed_us.tail": (p(seed_us, "search_dialog.sample_seed_us.tail"), "us"),
        "search_dialog.search_us.p50": (statistics.median(search_us), "us"),
        "search_dialog.search_us.tail": (p(search_us, "search_dialog.search_us.tail"), "us"),
        "search_dialog.calls": (len(search_us), "count"),
        "search_dialog.alternatives_mean": (
            statistics.fmean(observed["search_dialog.generate_search_dialog"]), "count"),
        "search_dialog.self_s": (self_s["search_dialog"], "s"),
        "negotiation.build_pair_us.p50": (statistics.median(pair_us), "us"),
        "negotiation.build_pair_us.tail": (p(pair_us, "negotiation.build_pair_us.tail"), "us"),
        "negotiation.build_pair_calls": (len(pair_us), "count"),
        "negotiation.pair_yield": (statistics.fmean(observed["negotiation.build_pair"]), "ratio"),
        "negotiation.instantiate_us.p50": (
            statistics.median(us("negotiation.instantiate_pair")), "us"),
        "negotiation.realize_us.p50": (statistics.median(us("negotiation.realize")), "us"),
        "negotiation.self_s": (self_s["negotiation"], "s"),
        "assembly.generate_dataset_s": (tracer.total("assembly.generate_dataset"), "s"),
        "assembly.conv_ms.p50": (statistics.median(conv_ms), "ms"),
        "assembly.conv_ms.tail": (p(conv_ms, "assembly.conv_ms.tail"), "ms"),
        "assembly.attempts_per_conv": (report["attempts"] / conversations, "ratio"),
        "assembly.seed_rounds_per_conv": (len(seed_us) / conversations, "ratio"),
        "assembly.self_s": (self_s["assembly"], "s"),
        "dataset_io.write_s": (tracer.total("dataset_io.write_dataset"), "s"),
        "dataset_io.bytes_written": ((out / "dataset.jsonl").stat().st_size, "bytes"),
        "dataset_io.read_s": (tracer.total("dataset_io.read_dataset"), "s"),
        "dataset_io.validate_s": (tracer.total("dataset_io.validate"), "s"),
        "dataset_io.self_s": (self_s["dataset_io"], "s"),
        "trace.overhead_s": (wall + 3 * startup_s - untraced_pipeline_s, "s"),
    }

    gd = metrics["assembly.generate_dataset_s"][0]
    in_gd = tracer.self_times(within="assembly.generate_dataset")
    in_gen = tracer.self_times(within="cli.cmd_generate")
    gen_s = tracer.total("cli.cmd_generate")
    search_in_gd = tracer.total("search_dialog.sample_seed") + tracer.total(
        "search_dialog.generate_search_dialog")
    lines = [
        f"{name} percentile p{pct:g} of n={n}" for name, (pct, n) in tails.items()
    ] + [
        "counted, must be 0: "
        f"corpus.records_skipped={_skipped(ingest_meta) + _skipped(ingest_reviews)} "
        f"assembly.exhausted={figures['exhausted']} "
        f"dataset_io.violations={figures['violations']}",
        "import path: "
        f"annotate.import_s={tracer.total('annotate.import_annotations'):.4f} "
        f"annotate.merge_s={tracer.total('annotate.merge_spans'):.4f} "
        f"annotate.import_skipped={imports[0][0] if imports else 0} "
        f"annotate.import_clamped={imports[0][1] if imports else 0}",
        "self time inside assembly.generate_dataset (share): " + ", ".join(
            f"{layer} {value / gd:.2f}" for layer, value in in_gd.items() if value > 0),
        f"search_dialog inclusive share of generate_dataset: {search_in_gd / gd:.2f}",
        "negotiation.build_pair inclusive share of generate_dataset: "
        f"{tracer.total('negotiation.build_pair') / gd:.2f}",
        "self time inside the generate command (share): " + ", ".join(
            f"{layer} {value / gen_s:.2f}" for layer, value in in_gen.items() if value > 0),
        f"spans: {len(tracer.start)} -> {trace_file.relative_to(ROOT)}",
    ]
    shutil.rmtree(snapshot)
    shutil.rmtree(out)
    return metrics, lines


def _skipped(report) -> int:
    return report.malformed + report.orphans + report.duplicate_reviews + report.self_refs_dropped


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (SRC / "shoptalk" / "cli.py").is_file() or not CORPUS_SCRIPT.is_file():
        print(f"error: {ROOT} is not a shoptalk checkout (no src/shoptalk or "
              f"{CORPUS_SCRIPT.relative_to(ROOT)})", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    launcher = Launcher()  # first, while this process is small
    run_dir = WORK / "runs" / f"{workload.name}-{args.seed}-{os.getpid()}"
    try:
        inputs, sizes = build_inputs(workload, args.seed, WORK / "inputs")
        gc.collect()
        run_dir.mkdir(parents=True)
        digests = WORK / "digests"
        digests.mkdir(exist_ok=True)
        checker = Checker(workload, digests / f"{inputs.name}-{program_digest()}")
        samples = measure(launcher, workload, inputs, sizes, run_dir, args.seconds, checker)
        metrics = end_to_end(samples)
        lines = [
            f"workload {workload.name} seed {args.seed}: " + ", ".join(
                f"{k}={v}" for k, v in sorted(sizes.items())),
            f"runs: ingest x{len(samples['ingest'])}, generate+validate "
            f"x{len(samples['generate'])}; dataset sha256 {checker.digest}",
        ] + [
            f"{name} samples: " + " ".join(f"{v:.4f}" for v in samples[key])
            for name, key in (("setup_s", "ingest"), ("generate_s", "generate"),
                              ("validate_s", "validate"))
        ]
        if args.trace:
            traces = WORK / "traces"
            traces.mkdir(exist_ok=True)
            metrics, trace_lines = traced(
                launcher, workload, inputs, run_dir, checker,
                metrics["pipeline_s"][0], traces / f"{inputs.name}.tsv.gz")
            lines += trace_lines
    finally:
        launcher.close()
        shutil.rmtree(run_dir, ignore_errors=True)
    failed_ratio = checker.failed / checker.attempted
    lines.append(f"failed_ratio {failed_ratio:g} ratio ({checker.failed} of "
                 f"{checker.attempted} conversations)")
    lines += [f"problem: {problem}" for problem in checker.problems]
    for line in lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": checker.correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if checker.correct else 1


if __name__ == "__main__":
    sys.exit(main())
