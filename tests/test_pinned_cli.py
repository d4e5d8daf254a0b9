"""Command line bytes pinned by digest, for every subcommand in every format.

Each case runs ``gramcalc`` in-process with one argument list and reduces
the run to one string: the exit code, then the sha256 of stdout, then the
sha256 of stderr.  ``pinned_cli.json`` holds that string for each case.
Each family was first pinned at the commit named here, so any change in
its output since then shows up as a failing case:

- ``derive`` for every builtin grammar in every format, ``verify`` on the
  mutant grammars of ``test_pinned_reports.py`` (failing reports, with
  their summary, note and first-failure lines, and the mutants the suites
  refuse), and ``verify all``: commit ee031ba, before the subcommands
  shared one parser table and one output step;
- ``cops``: commit 0a9f3e0, which sorted the whole list on one key and
  rendered every block on every line, and ``cops --n 8 --format json``
  at commit bfd049b, which ran ``json.dumps`` on the whole list; the
  refusals of ``cops --n 9`` at default caps were pinned when the listing
  began to stream, with the bytes of the last commit that built it whole;
- ``stats``: commit e979065, whose census read the full sorted list of
  cyclically ordered partitions;
- ``triangle``: commit 3450708, whose tables kept a sparse dict of
  nonzero entries plus per-row bounds;
- ``derive`` of an inline ``--grammar`` in every format, and the usage
  error for an unknown ``--builtin``, which lists the choices in order:
  commit 7ab5e51, whose ``cli`` imported the rule parser at start-up and
  read the choices from ``dsl.builtin_names()``.

The ``cops``, ``stats`` and ``triangle`` digests were first taken of
stdout alone, with exit 0 asserted, and were carried over with exit 0
and an empty stderr.  Regenerate the file only for an intended change of
output, with ``python tests/test_pinned_cli.py > tests/pinned_cli.json``
run against the code whose output should become the reference; then
``git diff tests/pinned_cli.json`` lists every case whose bytes changed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import pathlib
import sys
from unittest import mock

import pytest

from gramcalc.cli import build_parser, main
from gramcalc.dsl import builtin_names
from test_pinned_reports import MUTANTS, load, sha

HERE = pathlib.Path(__file__).parent
PINNED = HERE / "pinned_cli.json"
BENCH_EXPECTED = HERE.parent / "perfbench" / "expected.json"

TRIANGLES = ("stirling2", "eulerian", "type_b_eulerian", "matching", "whitney:1", "whitney:2")
ORACLE_TRIANGLES = ("left_peak", "las")

CASES = (
    [
        ("derive", "--builtin", name, "--n", str(n), "--format", fmt)
        for name in builtin_names()
        for fmt in ("text", "csv", "json")
        for n in (0, 3)
    ]
    + [
        ("verify", suite, "--nmax", "3", "--grammar", src, "--format", fmt)
        for suite, sources in MUTANTS.items()
        for src in sources
        for fmt in ("text", "json")
    ]
    # argparse's usage error, which lists the --builtin choices in order.
    + [("derive", "--builtin", "nope", "--n", "1", "--format", "text")]
    + [
        ("derive", "--grammar", "x -> x + x*y; y -> y + x*y", "--n", "3", "--format", fmt)
        for fmt in ("text", "csv", "json")
    ]
    + [("verify", "all", "--format", fmt) for fmt in ("text", "json")]
    + [("cops", "--n", str(n), "--format", fmt) for fmt in ("text", "json") for n in range(1, 9)]
    # cops offers no csv, so argparse refuses it with a usage error.
    + [("cops", "--n", "2", "--format", "csv")]
    # Above the default cap: refused before the first byte of the listing.
    + [("cops", "--n", "9", "--format", fmt) for fmt in ("text", "json")]
    + [
        ("stats", "--n", str(n), "--stat", stat, "--format", fmt)
        for stat in ("descents", "right_valleys", "las")
        for fmt in ("text", "csv", "json")
        for n in range(1, 9)
    ]
    + [
        ("triangle", name, "--nmax", str(nmax), "--format", fmt)
        for name in TRIANGLES + ORACLE_TRIANGLES
        for nmax in (0, 1, 9)
        for fmt in ("text", "csv", "json")
    ]
)


def case_id(case: tuple[str, ...]) -> str:
    return " ".join(case)


def outcome(case: tuple[str, ...]) -> str:
    out, err = io.StringIO(), io.StringIO()
    # argparse wraps a usage error at the terminal width, which it reads
    # from COLUMNS, so the refused cases are pinned at one width.
    with (
        contextlib.redirect_stdout(out),
        contextlib.redirect_stderr(err),
        mock.patch.dict(os.environ, {"COLUMNS": "80"}),
    ):
        code = main(list(case))
    return f"{code} {sha(out.getvalue())} {sha(err.getvalue())}"


def test_matrix_matches_pinned_cases():
    assert sorted(case_id(c) for c in CASES) == sorted(load(PINNED))


def test_every_subcommand_is_pinned_in_every_format():
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    offered = {
        (command, fmt)
        for command, parser in commands.choices.items()
        for action in parser._actions
        if action.dest == "format"
        for fmt in action.choices
    }
    pinned = {(case[0], case[case.index("--format") + 1]) for case in CASES}
    assert sorted(offered - pinned) == []


def test_largest_text_case_is_the_benchmark_digest():
    with open(BENCH_EXPECTED, encoding="utf-8") as fh:
        stdout = json.load(fh)["cops --n 8"]
    assert load(PINNED)["cops --n 8 --format text"] == f"0 {stdout} {sha('')}"


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_cli_output_matches_pinned(case):
    assert outcome(case) == load(PINNED)[case_id(case)]


if __name__ == "__main__":
    json.dump({case_id(c): outcome(c) for c in CASES}, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
