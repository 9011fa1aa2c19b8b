"""How a ``quadorbit`` process ends: ``cli.run`` flushes stdout and stderr and
leaves through ``os._exit``, so the exit code and every byte of the report
must still arrive as ``main`` produced them.  Each command here runs as
``python -m quadorbit.cli`` in a subprocess, except the flush checks,
which call ``run`` in-process with ``os._exit`` replaced."""

import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from quadorbit import cli

SRC = Path(__file__).resolve().parents[1] / "src"


def run_command(*argv, stdout=subprocess.PIPE, unbuffered=False, **kwargs):
    # Buffered, as the command usually runs: the report is still in stdout's
    # buffer when main returns.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(SRC)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run(
        [sys.executable, "-m", "quadorbit.cli", *argv],
        stdout=stdout,
        stderr=subprocess.PIPE,
        env=env,
        timeout=60,
        **kwargs,
    )


def in_process(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out.encode()


def test_report_larger_than_a_pipe_buffer_arrives_whole(capsys):
    out = run_command("fpp", "--depth", "16")
    assert out.returncode == 0
    assert out.stderr == b""
    assert len(out.stdout) == 79_490 > 64 * 1024
    assert out.stdout == in_process(capsys, "fpp", "--depth", "16")[1]


def test_error_exit_prints_its_message():
    out = run_command("primes", "--c", "1", "--cutoffs", "10,5")
    assert out.returncode == 1
    assert out.stdout == b""
    assert out.stderr == b"error: cutoffs must be nonempty, strictly increasing and at least 2\n"


def test_usage_error_prints_usage():
    out = run_command("orbit", "--no-such-flag")
    assert out.returncode == 1
    assert out.stdout == b""
    assert out.stderr.startswith(b"usage: quadorbit ")
    assert b"unrecognized arguments: --no-such-flag" in out.stderr


def test_inconclusive_exit(capsys):
    argv = ("orbit", "--ring", "qt", "--c", "t", "--point", "1", "--size-cap", "1")
    out = run_command(*argv)
    assert out.returncode == 2
    assert (out.returncode, out.stdout) == in_process(capsys, *argv)


def test_help_exits_zero():
    out = run_command("--help")
    assert out.returncode == 0
    assert out.stdout.startswith(b"usage: quadorbit ")


def test_out_file_holds_the_whole_report(tmp_path, capsys):
    path = tmp_path / "fpp.json"
    out = run_command("fpp", "--depth", "16", "--out", str(path))
    assert (out.returncode, out.stdout, out.stderr) == (0, b"", b"")
    assert path.read_bytes() == in_process(capsys, "fpp", "--depth", "16")[1]


def test_closed_stdout_with_out_file(tmp_path):
    # sys.stdout is None in a process started with fd 1 closed; the report
    # goes to --out, and the command exits 0 as it always did.
    path = tmp_path / "fpp.json"
    out = run_command("fpp", "--depth", "3", "--out", str(path), stdout=None, preexec_fn=lambda: os.close(1))
    assert (out.returncode, out.stderr) == (0, b"")
    assert path.read_bytes().startswith(b'{"command":"fpp"')


def test_closed_stdout_without_out_file():
    # With fd 1 closed and no --out the report has nowhere to go: an error
    # message and exit 1, not a traceback.
    out = run_command("orbit", "--c", "-2", "--depth", "3", stdout=None, preexec_fn=lambda: os.close(1))
    assert out.returncode == 1
    assert out.stderr == b"error: stdout is closed; write the report to a file with --out\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_failed_flush_is_an_error(unbuffered):
    # Buffered, the report stays in stdout's buffer until run flushes it and
    # the flush fails; unbuffered, main's own write fails.  Either way one
    # error line and exit 1, as for any other error.
    with open("/dev/full", "w") as full:
        out = run_command("orbit", "--c", "-2", "--depth", "3", stdout=full, unbuffered=unbuffered)
    assert out.returncode == 1
    assert out.stderr == b"error: [Errno 28] No space left on device\n"


class Exited(Exception):
    pass


class Stream(io.StringIO):
    """A text stream whose ``flush`` calls ``on_flush``."""

    def __init__(self, on_flush):
        super().__init__()
        self.on_flush = on_flush

    def flush(self):
        self.on_flush()


@pytest.fixture
def exits(monkeypatch):
    """Records each ``os._exit`` call and stops ``run`` there; the command
    is an inconclusive ``orbit`` (exit 2)."""
    calls = []

    def fake_exit(code):
        calls.append(code)
        raise Exited

    monkeypatch.setattr(os, "_exit", fake_exit)
    argv = ["quadorbit", "orbit", "--ring", "qt", "--c", "t", "--point", "1", "--size-cap", "1"]
    monkeypatch.setattr(sys, "argv", argv)
    return calls


def test_run_flushes_then_exits_with_mains_code(exits, monkeypatch):
    flushed = []
    for name in ("stdout", "stderr"):
        monkeypatch.setattr(sys, name, Stream(lambda name=name: flushed.append(name)))
    with pytest.raises(Exited):
        cli.run()
    assert exits == [2]
    assert flushed == ["stdout", "stderr"]
    assert sys.stdout.getvalue().startswith('{"command":"orbit"')


@pytest.mark.parametrize("name", ["stdout", "stderr"])
@pytest.mark.parametrize("error", [OSError, ValueError, None], ids=["OSError", "ValueError", "closed"])
def test_failed_flush_falls_back_to_sys_exit(exits, monkeypatch, capsys, name, error):
    # The name is older than the behaviour: no flush falls back to sys.exit
    # any more.  A failed flush exits 1, and stderr reports a failed stdout;
    # a stream closed at start is skipped, and main's exit code stands.
    def flush():
        raise error("flush failed")

    if error is None and name == "stdout":
        # main cannot write the report to a closed stdout; only --out can.
        monkeypatch.setattr(sys, "argv", [*sys.argv, "--out", os.devnull])
    monkeypatch.setattr(sys, name, None if error is None else Stream(flush))
    with pytest.raises(Exited):
        cli.run()
    assert exits == [2 if error is None else 1]
    if name == "stdout":
        assert capsys.readouterr().err == ("" if error is None else "error: flush failed\n")


def test_exception_from_main_propagates(exits, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["quadorbit", "--help"])
    with pytest.raises(SystemExit) as exc:
        cli.run()
    assert exc.value.code == 0
    assert exits == []
