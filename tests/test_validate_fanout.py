"""Validation split over forked processes, by bytes: stdout, the exit code
and the violation report do not depend on the number of processes, an
error names the line a one-process run names, and a failure anywhere fails
the command the way a one-process run fails, leaving no process."""

import json
import os
import signal
import subprocess
import sys
from itertools import accumulate
from pathlib import Path

import pytest

from shoptalk import dataset_io, fanout
from shoptalk.cli import main
from shoptalk.errors import UndecodableInputError, lines_before, read_lines

from conftest import package_env
from test_fanout import assert_no_child_left, children_of, running, wait_until


@pytest.fixture(scope="module")
def sample_run(tmp_path_factory, sample_corpus_paths):
    """The sample snapshot and its 140-conversation dataset's lines."""
    meta, reviews = sample_corpus_paths
    base = tmp_path_factory.mktemp("sample")
    snapshot, run = base / "snapshot", base / "run"
    assert main(["ingest", "--meta", str(meta), "--reviews", str(reviews),
                 "--out", str(snapshot)]) == 0
    assert main(["generate", "--snapshot", str(snapshot), "--out", str(run),
                 "--seed", "7", "--per-template", "10"]) == 0
    return snapshot, (run / "dataset.jsonl").read_bytes().splitlines(keepends=True)


def _grounded(record):
    return [t for t in record["turns"] if t.get("grounding")]


def _evaluation(record):
    return [t for t in record["turns"] if t["act"] not in ("search_question", "search_answer")]


def _tamper_text(record):
    turn = _grounded(record)[0]
    turn["text"] = "tampered " + turn["text"][9:]


def _flip_label(record):
    ref = _grounded(record)[-1]["grounding"][0]
    ref["label"] = "negative" if ref["label"] == "positive" else "positive"


def _reuse_span(record):
    grounded = _grounded(record)
    grounded[-1]["grounding"].append(dict(grounded[0]["grounding"][0]))


def _rename_kind(record):
    record["pair_trace"][0]["kind"] = "Nonsense"


def _foreign_product(record):
    _evaluation(record)[-1]["product_id"] = "ZZZ"


def _swap_speaker(record):
    turn = _evaluation(record)[0]
    turn["speaker"] = "assistant"


# one forgery per rule, each flagged by its rule
FORGERIES = [_tamper_text, _flip_label, _reuse_span, _rename_kind, _foreign_product,
             _swap_speaker]


def forged(lines, every=9):
    """``lines`` with every ``every``-th conversation forged, the forgeries
    taken in turn, so that every range of a split holds violations."""
    out = list(lines)
    for n, i in enumerate(range(0, len(out), every)):
        record = json.loads(out[i])
        FORGERIES[n % len(FORGERIES)](record)
        out[i] = (json.dumps(record, sort_keys=True) + "\n").encode()
    return out


def validate(monkeypatch, capsys, dataset, snapshot, report, cpus, min_bytes=None):
    """(exit code, stdout, stderr, --out file or None) of validate run with
    the CPU count and the byte minimum set as given (None: as it is)."""
    report.unlink(missing_ok=True)
    with monkeypatch.context() as patch:
        patch.setattr(fanout, "available_cpus", lambda: cpus)
        if min_bytes is not None:
            patch.setattr(dataset_io, "MIN_RANGE_BYTES", min_bytes)
        code = main(["validate", "--dataset", str(dataset), "--snapshot", str(snapshot),
                     "--out", str(report)])
    captured = capsys.readouterr()
    written = report.read_bytes() if report.exists() else None
    return code, captured.out, captured.err, written


def assert_same_for_every_cpu_count(monkeypatch, capsys, tmp_path, snapshot, content):
    """Write ``content`` as a dataset; validate must give the same outcome
    on one process and on 2 and 3, and return that outcome."""
    dataset = tmp_path / "dataset.jsonl"
    dataset.write_bytes(content)
    report = tmp_path / "violations.jsonl"
    one = validate(monkeypatch, capsys, dataset, snapshot, report, cpus=1)
    for cpus in (2, 3):
        with monkeypatch.context() as patch:
            patch.setattr(fanout, "available_cpus", lambda: cpus)
            assert len(fanout.split(len(content), 1)) == cpus
        assert validate(monkeypatch, capsys, dataset, snapshot, report, cpus, 1) == one
    assert_no_child_left()
    return one


def range_of(monkeypatch, content, cpus, offset):
    """The index of the range, of ``cpus`` ranges of ``content``, that byte
    ``offset`` falls in."""
    with monkeypatch.context() as patch:
        patch.setattr(fanout, "available_cpus", lambda: cpus)
        spans = fanout.split(len(content), 1)
    return next(w for w, span in enumerate(spans) if offset in span)


class TestByteIdentity:
    def test_violations_in_every_range_equal_one_process(
        self, tmp_path, sample_run, monkeypatch, capsys
    ):
        # in reverse: the report sorts the violations of the whole file
        snapshot, lines = sample_run
        code, out, err, report = assert_same_for_every_cpu_count(
            monkeypatch, capsys, tmp_path, snapshot, b"".join(forged(lines)[::-1]))
        assert (code, err) == (1, "")
        records = [json.loads(line) for line in report.splitlines()]
        assert {r["rule"] for r in records} == {
            "grounding", "polarity", "span_reuse", "template_conformance",
            "product_pool", "alternation"}
        assert f"violations: {len(records)}" in out

    def test_clean_dataset_equals_one_process(self, tmp_path, sample_run, monkeypatch, capsys):
        snapshot, lines = sample_run
        code, out, err, report = assert_same_for_every_cpu_count(
            monkeypatch, capsys, tmp_path, snapshot, b"".join(lines))
        assert (code, out, err, report) == (
            0, "conversations checked: 140\nviolations: 0\n", "", b"")

    @pytest.mark.parametrize("k", range(8))
    def test_cut_next_to_a_blank_line_or_carriage_return(
        self, tmp_path, sample_run, monkeypatch, capsys, k
    ):
        # each conversation is "\r{...}\r\n" and followed by the blank lines
        # "\n" and " \r\n": cut 0-7 bytes after the "}" of the conversations
        # nearest a third and two thirds of the file, before, between and
        # after each "\r", "\n" and blank line
        snapshot, lines = sample_run
        tail = b"\r\n\n \r\n"
        units = [b"\r" + line.rstrip(b"\n") + tail for line in forged(lines)]
        content = b"".join(units)
        dataset = tmp_path / "dataset.jsonl"
        dataset.write_bytes(content)
        report = tmp_path / "violations.jsonl"
        ends = [end - len(tail) for end in accumulate(map(len, units))]
        a, b = (min(ends, key=lambda e: abs(e - len(content) * w // 3)) + k for w in (1, 2))
        one = validate(monkeypatch, capsys, dataset, snapshot, report, cpus=1)
        assert one[0] == 1 and one[1].startswith("conversations checked: 140\n")
        with monkeypatch.context() as patch:
            patch.setattr(fanout, "split", lambda total, min_share=None: [
                range(0, a), range(a, b), range(b, total)])
            assert validate(monkeypatch, capsys, dataset, snapshot, report, cpus=3) == one
        assert_no_child_left()

    def test_unpatched_run_equals_one_process(self, tmp_path, sample_run, monkeypatch, capsys):
        # about 500 kB: two processes on two CPUs or more
        snapshot, lines = sample_run
        dataset = tmp_path / "dataset.jsonl"
        dataset.write_bytes(b"".join(forged(lines)))
        report = tmp_path / "violations.jsonl"
        one = validate(monkeypatch, capsys, dataset, snapshot, report, cpus=1)
        code = main(["validate", "--dataset", str(dataset), "--snapshot", str(snapshot),
                     "--out", str(report)])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err, report.read_bytes()) == one
        assert_no_child_left()


class TestErrors:
    """An error ends the command with the one line a one-process run
    prints; the earliest range's error wins."""

    def test_schema_error_in_a_later_range_names_its_line(
        self, tmp_path, sample_run, monkeypatch, capsys
    ):
        snapshot, lines = sample_run
        lines = forged(lines)
        lines[120] = b'{"schema_version": 2}\n'
        content = b"".join(lines)
        assert range_of(monkeypatch, content, 2, len(b"".join(lines[:120]))) == 1
        code, out, err, report = assert_same_for_every_cpu_count(
            monkeypatch, capsys, tmp_path, snapshot, content)
        assert (code, out, report) == (1, "", None)
        assert err == "error: schema violation at line 121: unsupported schema_version 2\n"

    @pytest.mark.parametrize("first", [10, 80])
    def test_earliest_error_wins(self, tmp_path, sample_run, monkeypatch, capsys, first):
        # line ``first`` + 1 is blank, the next one no object; the bytes of
        # line 132 do not decode, in the last range
        snapshot, lines = sample_run
        lines = list(lines)
        lines[first] = b"\n" + b"[]\n"
        lines[130] = b"\xff\n"
        content = b"".join(lines)
        assert range_of(monkeypatch, content, 3, len(b"".join(lines[:130]))) == 2
        _, _, err, _ = assert_same_for_every_cpu_count(
            monkeypatch, capsys, tmp_path, snapshot, content)
        assert err == f"error: schema violation at line {first + 2}: line is not an object\n"

    def test_undecodable_bytes_in_a_later_range(
        self, tmp_path, sample_run, monkeypatch, capsys
    ):
        snapshot, lines = sample_run
        lines = list(lines)
        lines[130] = lines[130].replace(b'"text": "', b'"text": "\xe2\x82', 1)
        code, out, err, report = assert_same_for_every_cpu_count(
            monkeypatch, capsys, tmp_path, snapshot, b"".join(lines))
        assert (code, out, report) == (1, "", None)
        assert err.startswith("error: ") and "is not UTF-8 text" in err
        assert err.count("\n") == 1

    def test_crash_fails_the_command(self, tmp_path, sample_run, monkeypatch, capsys):
        snapshot, lines = sample_run
        content = b"".join(lines)
        dataset = tmp_path / "dataset.jsonl"
        dataset.write_bytes(content)
        check_reuse = dataset_io._check_reuse

        def crash(conversation):
            if conversation.id == "t14-n05":  # line 135, in the last range
                raise RuntimeError("bug")
            return check_reuse(conversation)

        monkeypatch.setattr(dataset_io, "_check_reuse", crash)
        monkeypatch.setattr(fanout, "available_cpus", lambda: 3)
        last = fanout.split(len(content), 1)[-1]
        assert range_of(monkeypatch, content, 3, len(b"".join(lines[:134]))) == 2
        code, _, err, report = validate(monkeypatch, capsys, dataset, snapshot,
                                        tmp_path / "violations.jsonl", 3, 1)
        assert (code, report) == (1, None)
        assert err.splitlines()[-1] == (
            f"error: the process validating bytes {last.start}-{last.stop - 1} "
            "ended with status 1")
        assert_no_child_left()

    def test_death_mid_send_is_named_not_decoded(
        self, tmp_path, sample_run, monkeypatch, capsys
    ):
        # the child sends half its outcome and exits 9: what reached the
        # pipe is not decoded
        snapshot, lines = sample_run
        content = b"".join(forged(lines))
        dataset = tmp_path / "dataset.jsonl"
        dataset.write_bytes(content)
        parent, dump = os.getpid(), fanout.pickle.dump

        def die_mid_send(outcome, pipe):
            if os.getpid() == parent:
                return dump(outcome, pipe)
            sent = fanout.pickle.dumps(outcome)
            pipe.write(sent[:len(sent) // 2])
            pipe.flush()
            os._exit(9)

        monkeypatch.setattr(fanout.pickle, "dump", die_mid_send)
        with monkeypatch.context() as patch:
            patch.setattr(fanout, "available_cpus", lambda: 2)
            last = fanout.split(len(content), 1)[-1]
        code, out, err, report = validate(monkeypatch, capsys, dataset, snapshot,
                                          tmp_path / "violations.jsonl", 2, 1)
        assert (code, out, report) == (1, "", None)
        assert err == (f"error: the process validating bytes {last.start}-{last.stop - 1} "
                       "ended with status 9\n")
        assert_no_child_left()


# Validate on two processes, whatever the CPU count, the child slowed so
# that it is still at work when the parent is killed: the arguments of
# ``validate`` come from the command line.
TWO_PROCESS_VALIDATE = """
import os, sys, time
from shoptalk import dataset_io, fanout
from shoptalk.cli import main
fanout.available_cpus = lambda: 2
dataset_io.MIN_RANGE_BYTES = 1
parent = os.getpid()
check_reuse = dataset_io._check_reuse
def slow(conversation):
    if os.getpid() != parent:
        time.sleep(0.02)
    return check_reuse(conversation)
dataset_io._check_reuse = slow
sys.exit(main(["validate", *sys.argv[1:]]))
"""


@pytest.mark.skipif(
    not Path(f"/proc/{os.getpid()}/task/{os.getpid()}/children").exists(),
    reason="reads a process's children from /proc, as Linux lists them",
)
def test_child_of_a_killed_parent_exits_quietly(tmp_path, sample_run):
    snapshot, lines = sample_run
    dataset = tmp_path / "dataset.jsonl"
    dataset.write_bytes(b"".join(lines))
    parent = subprocess.Popen(
        [sys.executable, "-c", TWO_PROCESS_VALIDATE, "--dataset", str(dataset),
         "--snapshot", str(snapshot), "--out", str(tmp_path / "violations.jsonl")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=package_env(),
    )
    child = None
    try:
        assert wait_until(lambda: children_of(parent.pid), 60)
        [child] = children_of(parent.pid)
        parent.send_signal(signal.SIGKILL)
        parent.wait()
        # the child's 70 conversations take about 1.4 s
        assert wait_until(lambda: not running(child), 30)
        _, err = parent.communicate(timeout=30)
    finally:
        parent.kill()
        if child is not None and running(child):
            os.kill(child, signal.SIGKILL)
    assert err == ""
    assert list(tmp_path.iterdir()) == [dataset]


class TestLineRanges:
    """errors.read_lines over a byte range reads the lines that begin in
    it, numbered so that lines_before gives the file's own numbers."""

    CONTENT = "a\n\n\rb\r\n \r\n\r\nc é\n\n\nd\r".encode()

    def test_any_two_ranges_part_the_lines(self, tmp_path):
        path = tmp_path / "lines.txt"
        path.write_bytes(self.CONTENT)
        whole = list(read_lines(path))
        assert [n for n, _ in whole] == [1, 3, 6, 9]
        for cut in range(len(self.CONTENT) + 1):
            first = list(read_lines(path, 0, cut))
            second = [(lines_before(path, cut) + n, line) for n, line in read_lines(path, cut)]
            assert first + second == whole, cut

    def test_any_three_ranges_part_the_lines(self, tmp_path):
        path = tmp_path / "lines.txt"
        path.write_bytes(self.CONTENT)
        whole = list(read_lines(path))
        size = len(self.CONTENT)
        for a in range(size + 1):
            for b in range(a, size + 1):
                parts = [
                    [(lines_before(path, start) + n, line)
                     for n, line in read_lines(path, start, stop)]
                    for start, stop in ((0, a), (a, b), (b, None))
                ]
                assert sum(parts, []) == whole, (a, b)

    def test_start_past_the_end_counts_every_line(self, tmp_path):
        """As when the file was cut short after its size was read."""
        path = tmp_path / "lines.txt"
        path.write_bytes(self.CONTENT)
        for start in (len(self.CONTENT) + 1, len(self.CONTENT) + 2, 1 << 21):
            assert lines_before(path, start) == 8
            assert list(read_lines(path, start)) == []

    def test_undecodable_bytes_raise_in_the_range_of_their_line(self, tmp_path):
        path = tmp_path / "lines.txt"
        path.write_bytes(b"a\nb\xff\nc\n")
        assert list(read_lines(path, 0, 2)) == [(1, "a\n")]
        assert list(read_lines(path, 5)) == [(1, "c\n")]
        for start in (0, 1, 2):
            with pytest.raises(UndecodableInputError, match="lines.txt is not UTF-8 text"):
                list(read_lines(path, start, 6))
