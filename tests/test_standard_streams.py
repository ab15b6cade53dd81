"""The command line reads stdin and writes stdout and stderr as UTF-8 under
any locale, as it reads and writes files: a byte that is not UTF-8 on stdin
is refused with one ``error:`` line, symbols outside latin-1 pass through
pipes and into refusals under ``PYTHONIOENCODING=latin-1``, and an
``--alphabet`` symbol that a C locale passes as surrogate-escaped bytes is
written back as its bytes.  Each command runs in its own interpreter,
through ``cli.entry``; none prints a traceback."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import sftselect as ss
from sftselect import fixtures as fx

SRC = Path(ss.__file__).resolve().parents[1]
SELECTOR = str(fx.data_path("after_ones.sel"))


def _run(args, stdin: bytes = b"", **env) -> subprocess.CompletedProcess:
    """``sftselect args`` under ``env`` and no other locale or stream setting."""
    unset = ("LC_", "LANG", "PYTHONIOENCODING", "PYTHONUTF8")
    base = {k: v for k, v in os.environ.items() if not k.startswith(unset)}
    base["PYTHONPATH"] = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
    argv = [sys.executable, "-m", "sftselect.cli", *args]
    return subprocess.run(argv, input=stdin, capture_output=True, env={**base, **env})


@pytest.mark.parametrize(
    "args", [["select", "--selector", SELECTOR], ["freq", "--k", "1"]], ids=["select", "freq"]
)
def test_a_byte_that_is_not_utf8_on_stdin_is_refused(args):
    done = _run(args, b"0110\xff01\n", LC_ALL="C.UTF-8")
    assert (done.returncode, done.stdout) == (1, b"")
    assert done.stderr == b"error: stdin: byte 0xff is not UTF-8 text (invalid start byte)\n"


def test_symbols_outside_latin1_pass_through_pipes():
    alphabet = ["--alphabet", "α", "β"]
    gen = _run(["gen", "--kind", "champernowne", *alphabet, "--n", "5"], PYTHONIOENCODING="latin-1")
    assert (gen.returncode, gen.stdout, gen.stderr) == (0, "αβααα\n".encode(), b"")
    freq = _run(["freq", *alphabet, "--k", "1"], gen.stdout, PYTHONIOENCODING="latin-1")
    assert (freq.returncode, freq.stderr) == (0, b"")
    assert freq.stdout == "block,count,frequency\nα,4,0.8\nβ,1,0.2\n".encode()


@pytest.mark.parametrize("env", [{"PYTHONIOENCODING": "latin-1"}, {"LC_ALL": "C.UTF-8"}])
def test_a_refusal_names_symbols_outside_latin1_in_utf8(env):
    done = _run(["freq", "--alphabet", "α", "β", "--k", "1"], "αγ\n".encode(), **env)
    assert (done.returncode, done.stdout) == (1, b"")
    refused = "error: symbol 'γ' is not in alphabet ['α', 'β'] at position 2\n"
    assert done.stderr == refused.encode()


def test_a_c_locale_alphabet_byte_is_written_back():
    done = _run(["gen", "--kind", "champernowne", "--alphabet", "\udcff", "0", "--n", "5"], LC_ALL="C")
    assert (done.returncode, done.stdout, done.stderr) == (0, b"\xff0\xff\xff\xff\n", b"")
