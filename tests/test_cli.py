"""End-to-end command-line behavior on the bundled sample corpus."""

import builtins
import contextlib
import hashlib
import io
import json
import os
import random
import signal
import stat
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import pytest

from shoptalk import annotate, assembly
from shoptalk.cli import main
from shoptalk.errors import UnboundSlotError

from conftest import load_corpus_script, named_products, package_env, write_jsonl


@pytest.fixture
def snapshot_dir(tmp_path, sample_corpus_paths):
    meta, reviews = sample_corpus_paths
    out = tmp_path / "snapshot"
    code = main(["ingest", "--meta", str(meta), "--reviews", str(reviews),
                 "--out", str(out)])
    assert code == 0
    return out


class TestIngest:
    def test_valid_corpus(self, tmp_path, sample_corpus_paths, capsys):
        meta, reviews = sample_corpus_paths
        out = tmp_path / "snap"
        code = main(["ingest", "--meta", str(meta), "--reviews", str(reviews),
                     "--out", str(out)])
        assert code == 0
        assert (out / "catalog.jsonl").exists()
        assert (out / "reviews.jsonl").exists()
        report = json.loads((out / "ingest_report.json").read_text())
        assert report["products"] >= 30
        assert report["reviews"] >= 300

    def test_repeated_review_id_counted_or_named(self, tmp_path, sample_corpus_paths, capsys):
        # the sample's reviews and a copy of its first line
        meta, reviews = sample_corpus_paths
        lines = reviews.read_text().splitlines(keepends=True)
        repeated = tmp_path / "reviews.jsonl"
        repeated.write_text("".join(lines + lines[:1]))
        args = ["ingest", "--meta", str(meta), "--reviews", str(repeated)]
        assert main(args + ["--out", str(tmp_path / "lenient")]) == 0
        report = json.loads((tmp_path / "lenient" / "ingest_report.json").read_text())
        assert (report["reviews"], report["review_report"]["duplicate_reviews"]) == (
            len(lines), 1)
        capsys.readouterr()
        assert main(args + ["--out", str(tmp_path / "strict"), "--strict"]) == 1
        assert capsys.readouterr().err == (
            "error: malformed record at line 321: duplicate review id 'B000000000-r00'\n")

    def test_missing_file_names_path(self, tmp_path, capsys):
        code = main(["ingest", "--meta", str(tmp_path / "nope.jsonl"),
                     "--reviews", str(tmp_path / "also-nope.jsonl"),
                     "--out", str(tmp_path / "out")])
        assert code != 0
        assert "nope.jsonl" in capsys.readouterr().err

    def test_strict_mode_names_malformed_line(self, tmp_path, capsys):
        meta = tmp_path / "meta.jsonl"
        lines = [json.dumps({"id": f"B{i}", "title": f"t{i}"}) for i in range(16)]
        lines.append("{broken json")
        meta.write_text("\n".join(lines) + "\n")
        write_jsonl(tmp_path / "reviews.jsonl", [])
        code = main(["ingest", "--meta", str(meta),
                     "--reviews", str(tmp_path / "reviews.jsonl"),
                     "--out", str(tmp_path / "out"), "--strict"])
        assert code != 0
        assert "line 17" in capsys.readouterr().err

    def test_lenient_mode_counts_malformed(self, tmp_path, capsys):
        meta = tmp_path / "meta.jsonl"
        meta.write_text('{"id": "B1", "title": "a"}\n{broken\n')
        write_jsonl(tmp_path / "reviews.jsonl", [])
        code = main(["ingest", "--meta", str(meta),
                     "--reviews", str(tmp_path / "reviews.jsonl"),
                     "--out", str(tmp_path / "out")])
        assert code == 0
        report = json.loads((tmp_path / "out" / "ingest_report.json").read_text())
        assert report["metadata"]["malformed"] == 1


class TestGenerate:
    def test_generates_dataset_and_report(self, tmp_path, snapshot_dir, capsys):
        out = tmp_path / "run"
        code = main(["generate", "--snapshot", str(snapshot_dir),
                     "--out", str(out), "--seed", "7", "--per-template", "1"])
        assert code == 0
        dataset = (out / "dataset.jsonl").read_text().splitlines()
        assert len(dataset) == 14
        report = json.loads((out / "report.json").read_text())
        assert report["successes"] == 14
        assert report["config"]["per_template"] == 1
        assert "generated 14/14" in capsys.readouterr().out

    def test_seed_is_mandatory(self, tmp_path, snapshot_dir):
        with pytest.raises(SystemExit) as exc_info:
            main(["generate", "--snapshot", str(snapshot_dir),
                  "--out", str(tmp_path / "x")])
        assert exc_info.value.code == 2

    def test_identical_runs_byte_identical(self, tmp_path, snapshot_dir):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out in (out_a, out_b):
            code = main(["generate", "--snapshot", str(snapshot_dir),
                         "--out", str(out), "--seed", "123",
                         "--per-template", "2"])
            assert code == 0
        assert (out_a / "dataset.jsonl").read_bytes() == (out_b / "dataset.jsonl").read_bytes()

    def test_config_file_precedence(self, tmp_path, snapshot_dir):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"per_template": 1, "top_k": 2}))
        out = tmp_path / "run"
        # flag overrides config for per_template; config overrides default top_k
        code = main(["generate", "--snapshot", str(snapshot_dir),
                     "--out", str(out), "--seed", "7",
                     "--config", str(config), "--per-template", "2"])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["per_template"] == 2
        assert report["config"]["top_k"] == 2

    def test_unknown_config_key_rejected(self, tmp_path, snapshot_dir, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"per_templat": 1}))
        code = main(["generate", "--snapshot", str(snapshot_dir),
                     "--out", str(tmp_path / "x"), "--seed", "7",
                     "--config", str(config)])
        assert code == 1
        assert "per_templat" in capsys.readouterr().err

    def test_unsatisfiable_template_reported_exit_zero(self, tmp_path, capsys):
        # all-positive corpus: DenyDisagreement can never be grounded
        write_jsonl(tmp_path / "meta.jsonl", [{"id": "B1", "title": "Sunny 5"}])
        write_jsonl(tmp_path / "reviews.jsonl", [
            {"id": "r1", "product_id": "B1",
             "text": "The battery is great. The screen is good. The camera is nice."},
        ])
        snap = tmp_path / "snap"
        assert main(["ingest", "--meta", str(tmp_path / "meta.jsonl"),
                     "--reviews", str(tmp_path / "reviews.jsonl"),
                     "--out", str(snap)]) == 0
        templates = tmp_path / "templates.json"
        templates.write_text(json.dumps([
            {"id": 1, "pairs": ["RequestInform", "DenyDisagreement", "RequestInform"]},
        ]))
        out = tmp_path / "run"
        code = main(["generate", "--snapshot", str(snap), "--out", str(out),
                     "--seed", "3", "--templates", str(templates),
                     "--per-template", "2", "--retry-budget", "4"])
        assert code == 0  # exhaustion is data, not failure
        assert (out / "dataset.jsonl").read_text() == ""
        report = json.loads((out / "report.json").read_text())
        assert report["successes"] == 0
        assert len(report["exhausted"]) == 2
        assert "exhausted: template 1" in capsys.readouterr().out

    def test_no_eligible_seed_cause_printed_once(self, tmp_path, snapshot_dir, capsys):
        out = tmp_path / "run"
        code = main(["generate", "--snapshot", str(snapshot_dir), "--out", str(out),
                     "--seed", "7", "--per-template", "2", "--min-opinions", "1000"])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["successes"] == 0
        assert {e["attempts"] for e in report["exhausted"]} == {0}
        assert len(report["exhausted"]) == 28
        lines = capsys.readouterr().out.splitlines()
        assert [line for line in lines if "non-neutral" in line] == [
            "  because no product has >= 1000 non-neutral opinions"
        ]

    def test_custom_templates_file(self, tmp_path, snapshot_dir):
        templates = tmp_path / "templates.json"
        templates.write_text(json.dumps([
            {"id": 77, "pairs": ["SearchAgreement", "RequestInform"]},
        ]))
        out = tmp_path / "run"
        code = main(["generate", "--snapshot", str(snapshot_dir),
                     "--out", str(out), "--seed", "7",
                     "--templates", str(templates), "--per-template", "2"])
        assert code == 0
        records = [json.loads(l) for l in (out / "dataset.jsonl").read_text().splitlines()]
        assert {r["template_id"] for r in records} == {77}

    def test_golden_dataset_digest(self, tmp_path, snapshot_dir):
        # pins the bytes of the default run on the bundled sample
        out = tmp_path / "run"
        assert main(["generate", "--snapshot", str(snapshot_dir), "--out", str(out),
                     "--seed", "7", "--per-template", "10"]) == 0
        digest = hashlib.sha256((out / "dataset.jsonl").read_bytes()).hexdigest()
        assert digest == "fec8c785e24767bd8eb92860741796571dd9de341187b7a59e00d752099d950c"

    def test_golden_report_digest(self, tmp_path, snapshot_dir):
        # report.json is filled in while the dataset is written, and
        # written after it
        out = tmp_path / "run"
        assert main(["generate", "--snapshot", str(snapshot_dir), "--out", str(out),
                     "--seed", "7", "--per-template", "10"]) == 0
        digest = hashlib.sha256((out / "report.json").read_bytes()).hexdigest()
        assert digest == "46c70f9f9617ceb72ad54d198080837966ca70bd833b287e91a6ba02a06fd20a"

    def test_failed_run_leaves_no_dataset(self, tmp_path, snapshot_dir, monkeypatch,
                                          capsys):
        # the dataset is written as it is generated; an error part-way
        # must not leave the lines written so far
        generate = assembly.generate_conversation
        calls = []

        def failing_third(*args, **kwargs):
            calls.append(kwargs["conversation_id"])
            if len(calls) == 3:
                raise UnboundSlotError("slot {feature} left unbound")
            return generate(*args, **kwargs)

        monkeypatch.setattr(assembly, "generate_conversation", failing_third)
        out = tmp_path / "run"
        assert main(["generate", "--snapshot", str(snapshot_dir), "--out", str(out),
                     "--seed", "7", "--per-template", "10"]) == 1
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if line] == [
            "error: slot {feature} left unbound"
        ]
        assert "Traceback" not in err
        assert list(out.iterdir()) == []


class TestGoldenAtScale:
    def test_dataset_digest_on_2000_products(self, tmp_path):
        # alternatives sets average 67 members here, so the search filter
        # decides much of the output
        corpus = load_corpus_script()
        rng = random.Random(1)
        products = corpus.build_products(rng, 2000)
        write_jsonl(tmp_path / "meta.jsonl", products)
        write_jsonl(tmp_path / "reviews.jsonl", corpus.build_reviews(rng, products[::10]))
        snap, out = tmp_path / "snap", tmp_path / "run"
        assert main(["ingest", "--meta", str(tmp_path / "meta.jsonl"),
                     "--reviews", str(tmp_path / "reviews.jsonl"), "--out", str(snap)]) == 0
        assert main(["generate", "--snapshot", str(snap), "--out", str(out),
                     "--seed", "7", "--per-template", "2"]) == 0
        digest = hashlib.sha256((out / "dataset.jsonl").read_bytes()).hexdigest()
        assert digest == "ad6ee8767aecd40cf7b51306fb234390b89789a49e58bf4c9ef04e1e3c9174a9"


class TestDeriveOnce:
    def test_each_command_splits_each_review_once(self, tmp_path, snapshot_dir,
                                                  monkeypatch):
        reviews = [json.loads(line) for line in
                   (snapshot_dir / "reviews.jsonl").read_text().splitlines()]
        annotations = write_jsonl(tmp_path / "annotations.jsonl", [
            {"review_id": r["id"], "sentence_ordinal": 0,
             "feature": r["normalized_text"].split()[0].lower(), "score": 0.9}
            for r in reviews[:20]
        ])
        split = annotate.split_sentences
        calls = Counter()

        def counting_split(review):
            calls[review.id] += 1
            return split(review)

        monkeypatch.setattr(annotate, "split_sentences", counting_split)
        out = tmp_path / "run"
        commands = [
            ["generate", "--snapshot", str(snapshot_dir), "--out", str(out),
             "--seed", "7", "--per-template", "1"],
            ["validate", "--dataset", str(out / "dataset.jsonl"),
             "--snapshot", str(snapshot_dir)],
        ]
        for argv in commands:
            calls.clear()
            assert main(argv + ["--annotations", str(annotations)]) == 0
            if argv[0] == "generate":
                assert calls == Counter({r["id"]: 1 for r in reviews})
        # validate splits only the reviews of the products the dataset names
        named = named_products(out / "dataset.jsonl",
                               {r["id"]: r["product_id"] for r in reviews})
        assert calls == Counter({r["id"]: 1 for r in reviews if r["product_id"] in named})
        assert 0 < len(calls) < len(reviews)


class TestValidateCommand:
    def test_clean_dataset_exit_zero(self, tmp_path, snapshot_dir, capsys):
        out = tmp_path / "run"
        main(["generate", "--snapshot", str(snapshot_dir), "--out", str(out),
              "--seed", "7", "--per-template", "1"])
        code = main(["validate", "--dataset", str(out / "dataset.jsonl"),
                     "--snapshot", str(snapshot_dir)])
        assert code == 0
        assert "violations: 0" in capsys.readouterr().out

    def test_mutated_dataset_exit_one(self, tmp_path, snapshot_dir, capsys):
        out = tmp_path / "run"
        main(["generate", "--snapshot", str(snapshot_dir), "--out", str(out),
              "--seed", "7", "--per-template", "1"])
        dataset = out / "dataset.jsonl"
        records = [json.loads(l) for l in dataset.read_text().splitlines()]
        for turn in records[0]["turns"]:
            if turn["grounding"]:
                turn["text"] = "tampered " + turn["text"][9:]
                break
        dataset.write_text("\n".join(json.dumps(r, sort_keys=True) for r in records) + "\n")
        report_path = tmp_path / "violations.jsonl"
        code = main(["validate", "--dataset", str(dataset),
                     "--snapshot", str(snapshot_dir),
                     "--out", str(report_path)])
        assert code == 1
        printed = capsys.readouterr().out
        assert "grounding" in printed
        violations = [json.loads(l) for l in report_path.read_text().splitlines()]
        assert len(violations) == 1
        assert violations[0]["rule"] == "grounding"

    def test_config_thresholds_apply(self, tmp_path, snapshot_dir, capsys):
        # t_neg 0.7 labels the sample's 0.6-0.7 scores negative, which the
        # default thresholds label positive
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"t_pos": 0.8, "t_neg": 0.7, "per_template": 1}))
        out = tmp_path / "run"
        assert main(["generate", "--snapshot", str(snapshot_dir), "--out", str(out),
                     "--seed", "7", "--config", str(config)]) == 0
        validate = ["validate", "--dataset", str(out / "dataset.jsonl"),
                    "--snapshot", str(snapshot_dir)]
        capsys.readouterr()
        assert main(validate + ["--config", str(config)]) == 0
        assert "violations: 0" in capsys.readouterr().out
        assert main(validate) == 1
        assert "[polarity]" in capsys.readouterr().out

    @pytest.mark.parametrize("content, message", [
        ({"t_po": 0.2}, "unknown config keys"),
        ({"t_pos": "0.2"}, "t_pos must be a JSON float"),
    ])
    def test_bad_config_rejected(self, tmp_path, snapshot_dir, capsys, content, message):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(content))
        assert main(["validate", "--dataset", str(tmp_path / "dataset.jsonl"),
                     "--snapshot", str(snapshot_dir), "--config", str(config)]) == 1
        assert message in capsys.readouterr().err

    def test_reads_dataset_and_annotations_once(self, tmp_path, snapshot_dir,
                                                monkeypatch):
        reviews = [json.loads(line) for line in
                   (snapshot_dir / "reviews.jsonl").read_text().splitlines()]
        annotations = write_jsonl(tmp_path / "annotations.jsonl", [
            {"review_id": r["id"], "sentence_ordinal": 0,
             "feature": r["normalized_text"].split()[0].lower(), "score": 0.9}
            for r in reviews
        ])
        out = tmp_path / "run"
        assert main(["generate", "--snapshot", str(snapshot_dir), "--out", str(out),
                     "--seed", "7", "--per-template", "1",
                     "--annotations", str(annotations)]) == 0
        opened = Counter()
        real_open = builtins.open

        def counting_open(file, *args, **kwargs):
            if isinstance(file, (str, Path)):
                opened[Path(file).resolve()] += 1
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        assert main(["validate", "--dataset", str(out / "dataset.jsonl"),
                     "--snapshot", str(snapshot_dir),
                     "--annotations", str(annotations)]) == 0
        monkeypatch.undo()
        assert opened[(out / "dataset.jsonl").resolve()] == 1
        assert opened[annotations.resolve()] == 1


class TestReaderGone:
    """A reader of stdout that goes away ends the command with exit status
    1 and nothing on stderr; a reader of an ``--out`` FIFO that goes away
    is an ``io error:`` line that names the FIFO, and stdout stays whole."""

    @pytest.fixture
    def sparse_run(self, tmp_path, snapshot_dir, sample_corpus_paths):
        """A 350-conversation dataset and a snapshot of the sample's first
        review: nearly every ref is a grounding violation against it, about
        100 kB to print, beyond a pipe's 64 KiB."""
        meta, reviews = sample_corpus_paths
        first = tmp_path / "first.jsonl"
        first.write_text(reviews.read_text().splitlines(keepends=True)[0])
        sparse = tmp_path / "sparse"
        assert main(["ingest", "--meta", str(meta), "--reviews", str(first),
                     "--out", str(sparse)]) == 0
        run = tmp_path / "run"
        assert main(["generate", "--snapshot", str(snapshot_dir), "--out", str(run),
                     "--seed", "1", "--per-template", "25"]) == 0
        return run / "dataset.jsonl", sparse

    def test_closed_stdout_ends_quietly(self, sparse_run):
        """As ``| head -1`` does, after one line."""
        dataset, sparse = sparse_run
        validate = subprocess.Popen(
            [sys.executable, "-m", "shoptalk.cli", "validate",
             "--dataset", str(dataset), "--snapshot", str(sparse)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, bufsize=0, env=package_env(),
        )
        assert validate.stdout.readline() == b"conversations checked: 350\n"
        validate.stdout.close()
        assert validate.stderr.read() == b""
        assert validate.wait() == 1

    def test_closed_fifo_with_stdout_of_no_descriptor(self, tmp_path, sparse_run, capsys):
        """An in-process caller whose stdout is no file, writing --out into
        a FIFO whose reader leaves after 10 bytes."""
        dataset, sparse = sparse_run
        argv = ["validate", "--dataset", str(dataset), "--snapshot", str(sparse), "--out"]
        with contextlib.redirect_stdout(io.StringIO()) as whole:
            assert main([*argv, str(tmp_path / "violations.jsonl")]) == 1
        fifo = tmp_path / "violations"
        os.mkfifo(fifo)
        reader = subprocess.Popen(["head", "-c", "10", str(fifo)], stdout=subprocess.PIPE)
        try:
            with contextlib.redirect_stdout(io.StringIO()) as stdout:
                code = main([*argv, str(fifo)])
            assert reader.communicate(timeout=30)[0] == b'{"conversa'
        finally:
            reader.kill()
        assert code == 1
        assert stdout.getvalue() == whole.getvalue()
        assert capsys.readouterr().err == f"io error: the reader of {str(fifo)!r} went away\n"


class TestInterrupted:
    """Ctrl-C, sent to the command's process group (as a terminal does) or
    to the command alone, ends it with exit status 130, one line on stderr
    and no file left in its out directory."""

    SIGNAL = signal.SIGINT
    ENDING = (130, b"", b"interrupted\n")  # exit status, stdout, stderr

    @classmethod
    def _interrupt(cls, argv, ready, target, then=lambda: None):
        """Start the command, wait for ``ready()`` to hold, send SIGNAL to
        ``target`` and call ``then()``; the exit status, stdout and
        stderr."""
        command = subprocess.Popen(
            [sys.executable, "-m", "shoptalk.cli", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=package_env(),
            start_new_session=True,
        )
        try:
            deadline = time.monotonic() + 60
            while not ready():
                assert command.poll() is None, command.communicate()
                assert time.monotonic() < deadline
                time.sleep(0.01)
            if target == "group":
                os.killpg(command.pid, cls.SIGNAL)
            else:
                os.kill(command.pid, cls.SIGNAL)
            then()
            out, err = command.communicate(timeout=60)
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(command.pid, signal.SIGKILL)
            command.wait()
        return command.returncode, out, err

    @pytest.mark.parametrize("target", ["group", "command"])
    def test_generate(self, tmp_path, snapshot_dir, target):
        """Mid-generation, with 14,000 jobs: on two CPUs or more, range 0
        writes the dataset while a child writes its range to an unnamed
        file."""
        run = tmp_path / "run"
        code, out, err = self._interrupt(
            ["generate", "--snapshot", str(snapshot_dir), "--out", str(run),
             "--seed", "1", "--per-template", "1000"],
            (run / "dataset.jsonl.partial").exists, target,
        )
        assert (code, out, err) == self.ENDING
        assert list(run.iterdir()) == []

    @pytest.mark.parametrize("target", ["group", "command"])
    def test_validate(self, tmp_path, snapshot_dir, target):
        """While it reads a dataset from a FIFO.  A signal that arrives just
        before a read blocks is acted on once the read returns: here, at
        the end of the file, which comes right after the signal."""
        run = tmp_path / "run"
        assert main(["generate", "--snapshot", str(snapshot_dir), "--out", str(run),
                     "--seed", "1", "--per-template", "1"]) == 0
        head = b"".join((run / "dataset.jsonl").read_bytes().splitlines(keepends=True)[:2])
        fifo = tmp_path / "dataset.jsonl"
        os.mkfifo(fifo)
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        writer = []

        def reading():
            """Whether validate has opened the FIFO: then it has its first
            two lines."""
            try:
                writer.append(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
            except OSError:  # ENXIO: no reader yet
                return False
            os.write(writer[0], head)
            return True

        def end():
            while writer:
                os.close(writer.pop())

        try:
            code, out, err = self._interrupt(
                ["validate", "--dataset", str(fifo), "--snapshot", str(snapshot_dir),
                 "--out", str(out_dir / "violations.jsonl")],
                reading, target, end,
            )
        finally:
            end()
        assert (code, out, err) == self.ENDING
        assert list(out_dir.iterdir()) == []


class TestTerminated(TestInterrupted):
    """SIGTERM, as timeout, kill and a CI runner's cancellation send it, to
    the process group or to the command alone, ends it with exit status
    143, nothing on stderr and no file left in its out directory."""

    SIGNAL = signal.SIGTERM
    ENDING = (143, b"", b"")


class TestHelp:
    def test_help_documents_schema_version(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["generate", "--help"])
        assert exc_info.value.code == 0
        assert "schema_version 1" in capsys.readouterr().out


class TestStatsCommand:
    def test_stats_match_generation_report(self, tmp_path, snapshot_dir, capsys):
        out = tmp_path / "run"
        main(["generate", "--snapshot", str(snapshot_dir), "--out", str(out),
              "--seed", "7", "--per-template", "2"])
        stats_path = tmp_path / "stats.json"
        code = main(["stats", "--dataset", str(out / "dataset.jsonl"),
                     "--out", str(stats_path)])
        assert code == 0
        stats_record = json.loads(stats_path.read_text())
        report = json.loads((out / "report.json").read_text())
        assert stats_record["conversations"] == report["successes"]
        assert stats_record["per_template"] == report["per_template"]
        assert stats_record["span_reuse"] == 0

    def test_non_object_line_is_schema_violation(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        for line in ("[1, 2]", TOO_DEEP):
            bad.write_text(line + "\n")
            assert main(["stats", "--dataset", str(bad)]) == 1
            err = capsys.readouterr().err
            assert "schema violation at line 1" in err
            assert "Traceback" not in err

    def test_non_object_pair_trace_entry_exits_one(self, tmp_path, snapshot_dir, capsys):
        out = tmp_path / "run"
        main(["generate", "--snapshot", str(snapshot_dir), "--out", str(out),
              "--seed", "7", "--per-template", "1"])
        dataset = out / "dataset.jsonl"
        records = [json.loads(l) for l in dataset.read_text().splitlines()]
        records[2]["pair_trace"] = [1]
        dataset.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        capsys.readouterr()
        for argv in (["stats", "--dataset", str(dataset)],
                     ["validate", "--dataset", str(dataset), "--snapshot", str(snapshot_dir)]):
            assert main(argv) == 1, argv[0]
            err = capsys.readouterr().err
            assert "schema violation at line 3" in err
            assert "Traceback" not in err


class TestReportsWrittenWhole:
    """Each report a command writes replaces the old one only once it is
    whole: a write that fails part-way leaves the old report and nothing
    beside it, and the command ends in one error line."""

    @pytest.mark.parametrize("command", ["ingest", "generate", "validate", "stats"])
    def test_failure_mid_report_leaves_the_old_report(
        self, tmp_path, sample_corpus_paths, snapshot_dir, monkeypatch, capsys, command
    ):
        meta, reviews = sample_corpus_paths
        run = tmp_path / "run"
        assert main(["generate", "--snapshot", str(snapshot_dir), "--out", str(run),
                     "--seed", "7", "--per-template", "1"]) == 0
        # two tampered conversations: validate reports two violations
        tampered = tmp_path / "tampered.jsonl"
        records = [json.loads(l) for l in (run / "dataset.jsonl").read_text().splitlines()]
        for record in records[:2]:
            record["product_trajectory"] = []
        write_jsonl(tampered, records)
        argv, report, dumper = {
            "ingest": (["ingest", "--meta", str(meta), "--reviews", str(reviews),
                        "--out", str(snapshot_dir)], snapshot_dir / "ingest_report.json", "dump"),
            "generate": (["generate", "--snapshot", str(snapshot_dir), "--out", str(run),
                          "--seed", "7", "--per-template", "1"], run / "report.json", "dump"),
            "validate": (["validate", "--dataset", str(tampered), "--snapshot",
                          str(snapshot_dir), "--out", str(tmp_path / "violations.jsonl")],
                         tmp_path / "violations.jsonl", "dumps"),
            "stats": (["stats", "--dataset", str(run / "dataset.jsonl"),
                       "--out", str(tmp_path / "stats.json")], tmp_path / "stats.json", "dump"),
        }[command]
        main(argv)
        old = report.read_bytes()
        assert old
        beside = sorted(report.parent.iterdir())
        dump, dumps = json.dump, json.dumps
        calls = []

        def dump_part_way(value, fh, **kwargs):
            text = dumps(value, **kwargs)
            fh.write(text[: len(text) // 2])
            raise OSError(28, "No space left on device")

        def dumps_then_fail(value, **kwargs):
            calls.append(value)
            if len(calls) == 2:
                raise OSError(28, "No space left on device")
            return dumps(value, **kwargs)

        monkeypatch.setattr(json, dumper, dump_part_way if dumper == "dump" else dumps_then_fail)
        capsys.readouterr()
        assert main(argv) == 1
        monkeypatch.undo()
        assert capsys.readouterr().err.splitlines() == [
            "io error: [Errno 28] No space left on device"
        ]
        assert report.read_bytes() == old
        assert sorted(report.parent.iterdir()) == beside
    @pytest.fixture
    def dataset(self, tmp_path, snapshot_dir):
        run = tmp_path / "run"
        assert main(["generate", "--snapshot", str(snapshot_dir), "--out", str(run),
                     "--seed", "7", "--per-template", "1"]) == 0
        return run / "dataset.jsonl"

    def _stats(self, dataset, out):
        assert main(["stats", "--dataset", str(dataset), "--out", str(out)]) == 0
        return json.loads(out.read_text()) if out.is_file() else None

    def test_symlink_keeps_its_place(self, tmp_path, dataset):
        target = tmp_path / "reports" / "stats.json"
        target.parent.mkdir()
        target.write_text("old")
        link = tmp_path / "stats.json"
        link.symlink_to(target)
        assert self._stats(dataset, link)["conversations"] > 0
        assert link.is_symlink() and link.resolve() == target
        assert sorted(p.name for p in target.parent.iterdir()) == ["stats.json"]
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "reports", "run", "snapshot", "stats.json"
        ]

    def test_fifo_is_written_not_replaced(self, tmp_path, dataset):
        fifo = tmp_path / "stats.json"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        try:
            self._stats(dataset, fifo)
        finally:
            reader.join(timeout=10)
        assert not reader.is_alive()
        assert json.loads(received[0])["conversations"] > 0
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert not (tmp_path / "stats.json.partial").exists()


def _write(path, content):
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content, encoding="utf-8")
    return str(path)


# JSON nested far deeper than the parser's recursion limit
TOO_DEEP = "[" * 100_000

# (generate flags, a word the error line must hold): each input stops the
# command before it generates anything
BAD_GENERATE_INPUTS = {
    "per-template-zero": lambda tmp: (["--per-template", "0"], "per_template"),
    "t-pos-above-one": lambda tmp: (["--t-pos", "2"], "t_pos"),
    "retry-budget-zero": lambda tmp: (["--retry-budget", "0"], "retry_budget"),
    "top-k-zero": lambda tmp: (["--top-k", "0"], "top_k"),
    "p-skip-above-one": lambda tmp: (["--p-skip", "1.5"], "p_skip"),
    "min-opinions-negative": lambda tmp: (["--min-opinions", "-3"], "min_opinions"),
    "templates-not-a-list": lambda tmp: (
        ["--templates", _write(tmp / "t.json", '{"id": 1, "pairs": ["RequestInform"]}')],
        "t.json"),
    "templates-unknown-kind": lambda tmp: (
        ["--templates", _write(tmp / "t.json", '[{"id": 1, "pairs": ["Haggle"]}]')],
        "Haggle"),
    "templates-string-id": lambda tmp: (
        ["--templates", _write(tmp / "t.json", '[{"id": "1", "pairs": ["RequestInform"]}]')],
        "entry 0"),
    "templates-pairs-not-a-list": lambda tmp: (
        ["--templates", _write(tmp / "t.json", '[{"id": 1, "pairs": "RequestInform"}]')],
        "pairs"),
    "templates-invalid-json": lambda tmp: (
        ["--templates", _write(tmp / "t.json", "[{")], "t.json"),
    "templates-not-utf8": lambda tmp: (
        ["--templates", _write(tmp / "t.json", b'["\xff"]')], "t.json"),
    "templates-too-deep": lambda tmp: (
        ["--templates", _write(tmp / "t.json", TOO_DEEP)], "t.json"),
    "config-invalid-json": lambda tmp: (
        ["--config", _write(tmp / "c.json", "{bad")], "c.json"),
    "config-not-an-object": lambda tmp: (
        ["--config", _write(tmp / "c.json", "[1]")], "c.json"),
    "config-string-per-template": lambda tmp: (
        ["--config", _write(tmp / "c.json", '{"per_template": "x"}')], "per_template"),
    "config-boolean-top-k": lambda tmp: (
        ["--config", _write(tmp / "c.json", '{"top_k": true}')], "top_k"),
    "config-not-utf8": lambda tmp: (
        ["--config", _write(tmp / "c.json", b'{"\xff": 1}')], "c.json"),
    "config-too-deep": lambda tmp: (
        ["--config", _write(tmp / "c.json", TOO_DEEP)], "c.json"),
    "lexicon-not-utf8": lambda tmp: (
        ["--lexicon", _write(tmp / "lex.txt", b"[features]\nbattery\t\xe9\n")], "lex.txt"),
    "phrasebank-not-utf8": lambda tmp: (
        ["--phrasebank", _write(tmp / "pb.txt", b"\xff\n")], "pb.txt"),
    "annotations-not-utf8": lambda tmp: (
        ["--annotations", _write(tmp / "ann.jsonl", b'{"review_id": "\xff"}\n')],
        "ann.jsonl"),
    "annotations-too-deep-strict": lambda tmp: (
        ["--strict", "--annotations", _write(tmp / "ann.jsonl", TOO_DEEP + "\n")],
        "line 1"),
}


class TestBadInputExitsOne:
    """A bad setting, template, config or undecodable file ends the command
    with exit 1 and one ``error:`` line that names it, never a traceback."""

    @pytest.mark.parametrize("make_input", BAD_GENERATE_INPUTS.values(),
                             ids=BAD_GENERATE_INPUTS.keys())
    def test_generate(self, tmp_path, snapshot_dir, capsys, make_input):
        extra, named = make_input(tmp_path)
        capsys.readouterr()
        code = main(["generate", "--snapshot", str(snapshot_dir),
                     "--out", str(tmp_path / "run"), "--seed", "7"] + extra)
        err = capsys.readouterr().err
        assert code == 1
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert named in err
        assert "Traceback" not in err
        assert not (tmp_path / "run" / "dataset.jsonl").exists()

    def test_undecodable_snapshot(self, tmp_path, snapshot_dir, capsys):
        with open(snapshot_dir / "reviews.jsonl", "ab") as fh:
            fh.write(b'{"id": "\xff"}\n')
        code = main(["validate", "--dataset", str(tmp_path / "none.jsonl"),
                     "--snapshot", str(snapshot_dir)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "reviews.jsonl" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("field", ["template_id", "master_seed"])
    def test_overflowing_number_in_dataset(self, tmp_path, snapshot_dir, capsys, field):
        out = tmp_path / "run"
        assert main(["generate", "--snapshot", str(snapshot_dir), "--out", str(out),
                     "--seed", "7", "--per-template", "1"]) == 0
        dataset = out / "dataset.jsonl"
        lines = dataset.read_text().splitlines()
        record = json.loads(lines[1])
        record[field] = "PLACEHOLDER"
        lines[1] = json.dumps(record).replace('"PLACEHOLDER"', "1e400")
        dataset.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        for argv in (["stats", "--dataset", str(dataset)],
                     ["validate", "--dataset", str(dataset), "--snapshot", str(snapshot_dir)]):
            assert main(argv) == 1, argv[0]
            err = capsys.readouterr().err
            assert err.startswith("error: schema violation at line 2"), argv[0]
            assert "Traceback" not in err


# A lone surrogate: a JSON escape spells it and json.loads decodes it, but
# it does not encode as UTF-8, so no line holding it could be written.
SURROGATE = "\ud800"

# (input file, key) the surrogate is put into, in the first record
SURROGATE_INPUTS = {
    "review-text": ("reviews", "text"),
    "title": ("meta", "title"),
    "also-viewed-id": ("meta", "also_viewed"),
}


class TestUnencodableText:
    """A record with a kept string that does not encode as UTF-8 is a
    counted skip, or a named error under --strict, in ingest and in a
    snapshot loaded by generate; it never reaches the dataset writer."""

    def _corpus(self, tmp_path, sample_corpus_paths, where):
        file, key = SURROGATE_INPUTS[where]
        paths = dict(zip(("meta", "reviews"), sample_corpus_paths))
        records = {
            name: [json.loads(line) for line in path.read_text().splitlines()]
            for name, path in paths.items()
        }
        first = records[file][0]
        if key == "also_viewed":
            first[key] = [*(first.get(key) or ()), SURROGATE]
        else:
            first[key] += f" {SURROGATE} great battery."
        return [
            write_jsonl(tmp_path / f"{name}.jsonl", records[name])
            for name in ("meta", "reviews")
        ], file

    @pytest.mark.parametrize("where", SURROGATE_INPUTS)
    def test_ingest_skips_then_generate_and_validate_succeed(
        self, tmp_path, sample_corpus_paths, capsys, where
    ):
        (meta, reviews), file = self._corpus(tmp_path, sample_corpus_paths, where)
        snapshot, run = tmp_path / "snapshot", tmp_path / "run"
        assert main(["ingest", "--meta", str(meta), "--reviews", str(reviews),
                     "--out", str(snapshot)]) == 0
        report = json.loads((snapshot / "ingest_report.json").read_text())
        counts = report["metadata" if file == "meta" else "review_report"]
        assert (counts["malformed"], counts["malformed_lines"]) == (1, [1])
        assert main(["generate", "--snapshot", str(snapshot), "--out", str(run),
                     "--seed", "7", "--per-template", "1"]) == 0
        assert main(["validate", "--dataset", str(run / "dataset.jsonl"),
                     "--snapshot", str(snapshot)]) == 0
        assert main(["stats", "--dataset", str(run / "dataset.jsonl")]) == 0
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("where", SURROGATE_INPUTS)
    def test_strict_ingest_names_the_line(self, tmp_path, sample_corpus_paths, capsys, where):
        (meta, reviews), _ = self._corpus(tmp_path, sample_corpus_paths, where)
        capsys.readouterr()
        code = main(["ingest", "--meta", str(meta), "--reviews", str(reviews),
                     "--out", str(tmp_path / "snapshot"), "--strict"])
        err = capsys.readouterr().err
        assert code == 1
        assert err == "error: malformed record at line 1: " + (
            "also_viewed" if where == "also-viewed-id" else SURROGATE_INPUTS[where][1]
        ) + " does not encode as UTF-8\n"

    def test_snapshot_written_before_the_check(self, tmp_path, snapshot_dir, capsys):
        # ingest once wrote such text back as an ASCII escape
        path = snapshot_dir / "reviews.jsonl"
        lines = path.read_text().splitlines()
        record = json.loads(lines[0])
        record["normalized_text"] += f" {SURROGATE} great battery."
        lines[0] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        def generate(out, *extra):
            return main(["generate", "--snapshot", str(snapshot_dir), "--out", str(out),
                         "--seed", "7", "--per-template", "1", *extra])

        run = tmp_path / "run"
        assert generate(run) == 0
        assert main(["validate", "--dataset", str(run / "dataset.jsonl"),
                     "--snapshot", str(snapshot_dir)]) == 0
        capsys.readouterr()
        assert generate(tmp_path / "strict", "--strict") == 1
        err = capsys.readouterr().err
        assert err == "error: malformed record at line 1: text does not encode as UTF-8\n"

    def test_imported_feature_skipped_or_named(self, tmp_path, snapshot_dir, capsys):
        # a feature that matches the word "video" but keeps the surrogate
        # once reached the dataset writer as a bare UnicodeEncodeError
        annotations = write_jsonl(tmp_path / "annotations.jsonl", [
            {"review_id": json.loads(line)["id"], "sentence_ordinal": ordinal,
             "feature": f"video{SURROGATE}", "score": 0.9}
            for line in (snapshot_dir / "reviews.jsonl").read_text().splitlines()
            for ordinal in range(4)
        ])

        def generate(out, *extra):
            return main(["generate", "--snapshot", str(snapshot_dir), "--out", str(out),
                         "--seed", "7", "--per-template", "2",
                         "--annotations", str(annotations), *extra])

        run = tmp_path / "run"
        assert generate(run) == 0
        assert main(["validate", "--dataset", str(run / "dataset.jsonl"),
                     "--snapshot", str(snapshot_dir), "--annotations", str(annotations)]) == 0
        assert "Traceback" not in capsys.readouterr().err
        assert generate(tmp_path / "strict", "--strict") == 1
        err = capsys.readouterr().err
        assert err == "error: malformed record at line 1: feature does not encode as UTF-8\n"
