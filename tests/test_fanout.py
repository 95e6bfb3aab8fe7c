"""Generation split over forked processes: the dataset and the report do
not depend on the number of processes, and a failure anywhere fails the
command the way a one-process run fails, leaving no file and no process."""

import errno
import json
import os
import pickle
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from shoptalk import assembly, fanout
from shoptalk.cli import main
from shoptalk.errors import UnboundSlotError

from conftest import package_env, write_jsonl

PIPE_BUFFER = 64 * 1024


@pytest.fixture
def snapshot_dir(tmp_path, sample_corpus_paths):
    meta, reviews = sample_corpus_paths
    out = tmp_path / "snapshot"
    assert main(["ingest", "--meta", str(meta), "--reviews", str(reviews),
                 "--out", str(out)]) == 0
    return out


@pytest.fixture
def exhausting_run(tmp_path):
    """An all-positive one-product corpus and seven templates, of which the
    first six need a denial and exhaust every instance, and the arguments
    to generate 700 instances of each."""
    write_jsonl(tmp_path / "meta.jsonl", [{"id": "B1", "title": "Sunny 5"}])
    write_jsonl(tmp_path / "reviews.jsonl", [
        {"id": "r1", "product_id": "B1",
         "text": "The battery is great. The screen is good. The camera is nice."},
    ])
    snapshot = tmp_path / "snapshot"
    assert main(["ingest", "--meta", str(tmp_path / "meta.jsonl"),
                 "--reviews", str(tmp_path / "reviews.jsonl"), "--out", str(snapshot)]) == 0
    templates = tmp_path / "templates.json"
    templates.write_text(json.dumps(
        [{"id": i, "pairs": ["RequestInform", "DenyDisagreement"]} for i in range(1, 7)]
        + [{"id": 7, "pairs": ["RequestInform", "RequestInform"]}]
    ))
    return ["--snapshot", str(snapshot), "--seed", "3", "--templates", str(templates),
            "--per-template", "700", "--retry-budget", "1"]


def generate(monkeypatch, out, args, cpus=None, min_share=None):
    """Run generate with the CPU count and the per-process minimum set as
    given (None: as they are)."""
    with monkeypatch.context() as patch:
        if cpus is not None:
            patch.setattr(fanout, "available_cpus", lambda: cpus)
        if min_share is not None:
            patch.setattr(fanout, "MIN_SHARE", min_share)
        return main(["generate", "--out", str(out), *args])


def outputs(out):
    return (out / "dataset.jsonl").read_bytes(), (out / "report.json").read_bytes()


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def sample_args(snapshot, per_template=10):
    return ["--snapshot", str(snapshot), "--seed", "7", "--per-template", str(per_template)]


class TestSplit:
    @pytest.mark.parametrize("cpus, total, sizes", [
        (2, 14_000, [7000, 7000]),
        (2, 280, [280]),
        (2, 1999, [1999]),
        (3, 3001, [1000, 1000, 1001]),
        (8, 2500, [1250, 1250]),
        (1, 14_000, [14_000]),
    ])
    def test_contiguous_ranges_of_at_least_min_share(self, monkeypatch, cpus, total, sizes):
        monkeypatch.setattr(fanout, "available_cpus", lambda: cpus)
        ranges = fanout.split(total)
        assert [len(r) for r in ranges] == sizes
        assert [job for r in ranges for job in r] == list(range(total))


class TestValues:
    def test_value_comes_back_as_returned(self):
        # dicts keyed by tuples and holding tuples, which JSON cannot
        # carry; range 1's value does not fit in the pipe's buffer
        def work(w, jobs):
            return {(w, job): (f"sentence {job} " * 8, job) for job in jobs}

        ranges = [range(0, 10), range(10, 2010), range(2010, 2020)]
        values = fanout.run(ranges, work, "testing jobs")
        assert values == [work(w, jobs) for w, jobs in enumerate(ranges)]
        assert len(pickle.dumps(values[1])) > PIPE_BUFFER
        assert_no_child_left()


class TestByteIdentity:
    # 28 processes at most with 140 jobs and 5 per process
    @pytest.mark.parametrize("cpus", [2, 3, 50])
    def test_sample_equals_one_process(self, tmp_path, snapshot_dir, monkeypatch, cpus):
        args = sample_args(snapshot_dir)
        assert generate(monkeypatch, tmp_path / "one", args, cpus=1) == 0
        assert generate(monkeypatch, tmp_path / "many", args, cpus=cpus, min_share=5) == 0
        assert outputs(tmp_path / "many") == outputs(tmp_path / "one")
        assert sorted(p.name for p in (tmp_path / "many").iterdir()) == [
            "dataset.jsonl", "report.json"]
        assert_no_child_left()

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_exhaustions_across_ranges_equal_one_process(
        self, tmp_path, exhausting_run, monkeypatch, cpus
    ):
        assert generate(monkeypatch, tmp_path / "one", exhausting_run, cpus=1) == 0
        assert generate(monkeypatch, tmp_path / "many", exhausting_run,
                        cpus=cpus, min_share=100) == 0
        assert outputs(tmp_path / "many") == outputs(tmp_path / "one")

        # some template exhausts in more than one range, and some child's
        # exhausted entries would not fit in the pipe's buffer as JSON
        # (a child's pickled report is at most 29.5 kB; TestValues sends more)
        report = json.loads((tmp_path / "one" / "report.json").read_text())
        monkeypatch.setattr(fanout, "available_cpus", lambda: cpus)
        monkeypatch.setattr(fanout, "MIN_SHARE", 100)
        ranges = fanout.split(7 * 700)
        assert len(ranges) == cpus
        exhausted_in = [
            [e for e in report["exhausted"]
             if (e["template_id"] - 1) * 700 + e["ordinal"] - 1 in jobs]
            for jobs in ranges
        ]
        assert any(
            sum(any(e["template_id"] == t for e in entries) for entries in exhausted_in) > 1
            for t in range(1, 7)
        )
        assert max(len(json.dumps(entries)) for entries in exhausted_in[1:]) > PIPE_BUFFER
        assert_no_child_left()

    def test_unpatched_run_equals_one_process(self, tmp_path, snapshot_dir, monkeypatch):
        # 14 templates x 143 = 2002 jobs: two processes on two CPUs or more
        args = sample_args(snapshot_dir, per_template=143)
        assert generate(monkeypatch, tmp_path / "one", args, cpus=1) == 0
        assert generate(monkeypatch, tmp_path / "any", args) == 0
        assert outputs(tmp_path / "any") == outputs(tmp_path / "one")
        assert_no_child_left()


def failing(monkeypatch, conversation_id, exc):
    """Make generating ``conversation_id`` raise ``exc``."""
    generate_conversation = assembly.generate_conversation

    def fail(*args, **kwargs):
        if kwargs["conversation_id"] == conversation_id:
            raise exc
        return generate_conversation(*args, **kwargs)

    monkeypatch.setattr(assembly, "generate_conversation", fail)


class TestChildFailure:
    """140 jobs on three processes of at least 5: ranges 0-45, 46-92 and
    93-139.  Conversation t14-n05 is job 134, in the last range."""

    @pytest.mark.parametrize("exc, line", [
        (UnboundSlotError("slot {feature} left unbound"),
         "error: slot {feature} left unbound"),
        (OSError(errno.ENOSPC, "No space left on device"),
         "io error: [Errno 28] No space left on device"),
    ])
    def test_error_reported_as_by_one_process(
        self, tmp_path, snapshot_dir, monkeypatch, capsys, exc, line
    ):
        failing(monkeypatch, "t14-n05", exc)
        args = sample_args(snapshot_dir)
        errors = []
        for cpus in (1, 3):
            out = tmp_path / f"cpus{cpus}"
            assert generate(monkeypatch, out, args, cpus=cpus, min_share=5) == 1
            errors.append(capsys.readouterr().err)
            assert list(out.iterdir()) == []
        assert errors == [line + "\n", line + "\n"]
        assert_no_child_left()

    def test_crash_fails_the_command(self, tmp_path, snapshot_dir, monkeypatch, capsys):
        failing(monkeypatch, "t14-n05", RuntimeError("bug"))
        out = tmp_path / "run"
        assert generate(monkeypatch, out, sample_args(snapshot_dir), cpus=3, min_share=5) == 1
        err = capsys.readouterr().err.splitlines()
        assert err[-1] == "error: the process generating jobs 93-139 ended with status 1"
        assert list(out.iterdir()) == []
        assert_no_child_left()

    def test_interrupted_child_ends_quietly(self, tmp_path, snapshot_dir, monkeypatch, capfd):
        """A Ctrl-C reaches every process of the group; here it reaches one
        child alone, so no parent kills it first: it exits, prints nothing
        and leaves no file behind."""
        failing(monkeypatch, "t14-n05", KeyboardInterrupt())
        out = tmp_path / "run"
        assert generate(monkeypatch, out, sample_args(snapshot_dir), cpus=3, min_share=5) == 1
        assert capfd.readouterr().err == (
            "error: the process generating jobs 93-139 ended with status 1\n"
        )
        assert list(out.iterdir()) == []
        assert_no_child_left()

    def test_failure_in_parent_kills_the_children(
        self, tmp_path, snapshot_dir, monkeypatch, capsys
    ):
        # the children would take a minute; the parent fails at once
        generate_conversation = assembly.generate_conversation

        def slow_children(*args, **kwargs):
            if kwargs["conversation_id"] == "t01-n01":
                raise UnboundSlotError("slot {feature} left unbound")
            if kwargs["conversation_id"] == "t05-n10":  # job 49, range 1
                time.sleep(60)
            return generate_conversation(*args, **kwargs)

        monkeypatch.setattr(assembly, "generate_conversation", slow_children)
        out = tmp_path / "run"
        start = time.monotonic()
        assert generate(monkeypatch, out, sample_args(snapshot_dir), cpus=3, min_share=5) == 1
        assert time.monotonic() - start < 30
        assert capsys.readouterr().err == "error: slot {feature} left unbound\n"
        assert list(out.iterdir()) == []
        assert_no_child_left()


# Generate on two processes, whatever the CPU count: the arguments of
# ``generate`` come from the command line.
TWO_PROCESS_GENERATE = """
import sys
from shoptalk import fanout
from shoptalk.cli import main
fanout.available_cpus = lambda: 2
fanout.MIN_SHARE = 5
sys.exit(main(["generate", *sys.argv[1:]]))
"""


# Prepended to TWO_PROCESS_GENERATE: of 140 jobs, the last of range 0
# (jobs 0-69), t07-n10, takes a minute.
SLOW_END_OF_RANGE_0 = """
import time
from shoptalk import assembly
generate_conversation = assembly.generate_conversation
def slow(*args, **kwargs):
    if kwargs["conversation_id"] == "t07-n10":
        time.sleep(60)
    return generate_conversation(*args, **kwargs)
assembly.generate_conversation = slow
"""


def children_of(pid):
    """The pids of ``pid``'s children, as Linux lists them."""
    return [int(c) for c in Path(f"/proc/{pid}/task/{pid}/children").read_text().split()]


def running(pid):
    """Whether ``pid`` exists and is not a zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def writing_unnamed(pid, directory):
    """Whether ``pid`` holds open a file of ``directory`` that has no name
    and is not empty, as Linux lists a process's open files."""
    prefix = os.path.realpath(directory) + "/"
    for fd in Path(f"/proc/{pid}/fd").iterdir():
        try:
            target = os.readlink(fd)
            if target.startswith(prefix) and target.endswith(" (deleted)") and fd.stat().st_size:
                return True
        except FileNotFoundError:  # closed since it was listed
            pass
    return False


def wait_until(condition, seconds):
    deadline = time.monotonic() + seconds
    while not condition():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.005)
    return True


@pytest.mark.skipif(
    not Path(f"/proc/{os.getpid()}/task/{os.getpid()}/children").exists(),
    reason="reads a process's children from /proc, as Linux lists them",
)
class TestKilledParent:
    def test_child_stops_once_the_parent_is_killed(self, tmp_path, snapshot_dir):
        # 14,000 jobs: the child's 7,000 take seconds, unless it stops
        out = tmp_path / "run"
        parent = subprocess.Popen(
            [sys.executable, "-c", TWO_PROCESS_GENERATE, "--out", str(out),
             *sample_args(snapshot_dir, per_template=1000)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=package_env(),
        )
        child = None
        try:
            assert wait_until(lambda: children_of(parent.pid), 60)
            [child] = children_of(parent.pid)
            assert wait_until(lambda: writing_unnamed(child, out), 30)
            parent.send_signal(signal.SIGKILL)
            parent.wait()
            assert wait_until(lambda: not running(child), 0.5)
            _, err = parent.communicate(timeout=30)
        finally:
            parent.kill()
            if child is not None and running(child):
                os.kill(child, signal.SIGKILL)
        assert "Traceback" not in err
        # the parent's own partial file may remain: nothing is left to remove it
        assert [p.name for p in out.iterdir() if p.name != "dataset.jsonl.partial"] == []

    def test_finished_child_leaves_nothing(self, tmp_path, snapshot_dir):
        """The child has written its whole range and exited, unreaped,
        while the parent is still in range 0: once the parent is killed, no
        process is left to remove a file, and only the parent's partial
        dataset remains."""
        out = tmp_path / "run"
        parent = subprocess.Popen(
            [sys.executable, "-c", SLOW_END_OF_RANGE_0 + TWO_PROCESS_GENERATE,
             "--out", str(out), *sample_args(snapshot_dir)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=package_env(),
        )
        try:
            assert wait_until(lambda: children_of(parent.pid), 60)
            [child] = children_of(parent.pid)
            assert wait_until(lambda: not running(child), 60)
            assert (out / "dataset.jsonl.partial").exists()
            parent.send_signal(signal.SIGKILL)
            _, err = parent.communicate(timeout=30)
        finally:
            parent.kill()
        assert "Traceback" not in err
        assert [p.name for p in out.iterdir()] == ["dataset.jsonl.partial"]
