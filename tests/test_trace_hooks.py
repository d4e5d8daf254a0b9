"""The benchmark's traced child run still finds every name it patches.

``perfbench/child.py`` wraps functions by name in ``verifier``,
``oracles``, ``triangles``, ``cli``, ``grammar`` and ``poly``, so renaming
one of them breaks ``perfbench/run.py --trace 1`` without failing any
other test.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gramcalc.cli import main

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "argv, head",
    [(["verify", "T1", "--nmax", "2"], "T1: pass ("), (["cops", "--n", "3"], "(1,2,3)\n")],
    ids=["verify", "cops"],
)
def test_traced_child_run(capsys, tmp_path, argv, head):
    assert main(argv) == 0
    untraced = capsys.readouterr().out
    # A file, not a pipe: a report larger than the pipe buffer would block
    # the child while subprocess.run waits for it to exit.
    with open(tmp_path / "report.json", "w") as fh:
        fd = fh.fileno()
        done = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "child.py"), str(fd), "1", "0", *argv],
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
            pass_fds=(fd,),
            capture_output=True,
            text=True,
            timeout=120,
        )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith(head)
    assert done.stdout == untraced
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["spans"]
    assert report["spans"][0][0] == "cli.main"
