"""What each entry point loads: the package's lazy exports and the CLI's start-up.

Every CLI call is a fresh interpreter, so a module imported at start-up
is compiled on every run.  ``gramcalc.cli`` imports ``oracles``,
``triangles`` and ``verifier`` only in the handlers that run them, and
the package loads each export from its home module on first use.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gramcalc
from gramcalc import cli, oracles, triangles, verifier

SRC = Path(__file__).resolve().parent.parent / "src"
HEAVY = {"gramcalc.verifier", "gramcalc.oracles", "gramcalc.triangles"}


def loaded_after(code: str) -> set[str]:
    """The modules a fresh interpreter holds after running code."""
    probe = f"{code}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


@pytest.mark.parametrize(
    "code, unwanted",
    [
        ("import gramcalc.cli", {"dataclasses", "inspect", *HEAVY}),
        ("from gramcalc.cli import main; main(['derive', '--builtin', 'g1', '--n', '3'])", HEAVY),
        ("from gramcalc.cli import main; main(['cops', '--n', '3'])", HEAVY - {"gramcalc.oracles"}),
    ],
    ids=["import", "derive", "cops"],
)
def test_start_up_loads_only_what_the_command_runs(code, unwanted):
    assert loaded_after(code) & unwanted == set()


def test_every_export_resolves_to_its_home_module_object():
    for name in gramcalc.__all__:
        if name == "__version__":
            continue
        value = getattr(gramcalc, name)
        # Every export is a class or function defined in its home module.
        assert getattr(importlib.import_module(value.__module__), name) is value, name


def test_unknown_export_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        gramcalc.nope


def test_cli_choices_match_their_modules():
    assert cli._SUITE_NAMES == verifier.SUITE_NAMES
    assert cli._STAT_NAMES == oracles.stat_names()
    assert cli._TRIANGLE_NAMES == triangles.triangle_names()
