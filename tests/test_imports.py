"""What each entry point loads: the package's lazy exports and the CLI's start-up.

Every CLI call is a fresh interpreter, so a module imported at start-up
is compiled on every run when no cached bytecode is written.
``gramcalc.cli`` imports only ``config`` and ``errors``, which holds the
exact-int gate; ``json`` loads only for JSON output, and ``dsl`` (with
``grammar`` and ``poly``), ``oracles``, ``triangles`` and ``verifier``
load only in the handlers that run them, so ``cops``, ``stats`` and
``triangle`` never load the polynomial layer, and only ``verifier``
loads the index maps, which ``derive`` never reads.
The package loads each export from its home module on first use, and
``src/`` defines no public function or class that nothing else in it
names and the package does not export.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gramcalc
from gramcalc import cli, dsl, oracles, triangles, verifier
from source_tree import name, tree, walk

SRC = Path(__file__).resolve().parent.parent / "src"
HEAVY = {"gramcalc.verifier", "gramcalc.oracles", "gramcalc.triangles", "gramcalc.indexmap"}
POLY = {"gramcalc.dsl", "gramcalc.grammar", "gramcalc.poly"}


def loaded_after(code: str) -> set[str]:
    """The modules a fresh interpreter holds after running code."""
    # The list is taken before the probe imports json to print it.
    probe = f"{code}\nimport sys\nloaded = sorted(sys.modules)\n"
    probe += "import json\nprint(json.dumps(loaded))"
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


def cli_run(*argv: str) -> str:
    """Code that runs the CLI on argv."""
    return f"from gramcalc.cli import main; main({list(argv)!r})"


@pytest.mark.parametrize(
    "code, unwanted",
    [
        # json loads only for JSON output.
        ("import gramcalc.cli", {"dataclasses", "inspect", "json", *HEAVY, *POLY}),
        (cli_run("derive", "--builtin", "g1", "--n", "3"), HEAVY),
        (cli_run("cops", "--n", "3"), HEAVY - {"gramcalc.oracles"} | POLY | {"json"}),
        (cli_run("stats", "--n", "3", "--stat", "las"), HEAVY - {"gramcalc.oracles"} | POLY),
        (cli_run("triangle", "stirling2", "--nmax", "3"), HEAVY - {"gramcalc.triangles"} | POLY),
        # The oracle tables take their rows from oracles.
        (cli_run("triangle", "las", "--nmax", "3"), {"gramcalc.verifier"} | POLY),
    ],
    ids=["import", "derive", "cops", "stats", "triangle", "triangle-las"],
)
def test_start_up_loads_only_what_the_command_runs(code, unwanted):
    assert loaded_after(code) & unwanted == set()


def test_json_output_loads_json():
    # The probe sees json when a command does load it.
    loaded = loaded_after(cli_run("stats", "--n", "3", "--stat", "las", "--format", "json"))
    assert "json" in loaded


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
    assert cli._BUILTIN_NAMES == dsl.builtin_names()
    assert cli._SUITE_NAMES == verifier.SUITE_NAMES
    assert cli._STAT_NAMES == tuple(oracles._STATS)
    assert cli._TRIANGLE_NAMES == triangles.triangle_names()


# Public functions and classes that nothing in src/ names and that are not
# exported.  Each stays only for the reason given beside it.
UNREACHED = {
    "enumerate_permutations",  # perfbench/child.py's traced run patches it by name
    "enumerate_signed",  # perfbench/child.py's traced run patches it by name
    "enumerate_matchings",  # perfbench/child.py's traced run patches it by name
}


def test_src_defines_only_what_it_uses_or_exports():
    # A public top-level function or class counts as used when src/ names
    # it (a Name, an Attribute or an import alias) outside its own body.
    defined, places = set(), {}
    for path in SRC.joinpath("gramcalc").glob("*.py"):
        for node, _, scope in walk(tree(path)):
            if not scope and isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add((path.name, node.name))
            names = (node.name, node.asname) if isinstance(node, ast.alias) else (name(node),)
            for used in filter(None, names):
                places.setdefault(used, set()).add((path.name, scope.partition(".")[0]))
    unreached = {
        d
        for module, d in defined
        if not d.startswith("_")
        and d not in gramcalc.__all__
        and not places.get(d, set()) - {(module, d)}
    }
    extra, stale = sorted(unreached - UNREACHED), sorted(UNREACHED - unreached)
    assert not extra, f"named nowhere else in src/ and not exported: {extra}"
    assert not stale, f"UNREACHED lists what src/ now names: {stale}"
