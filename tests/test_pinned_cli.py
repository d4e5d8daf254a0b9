"""Command line bytes pinned by digest.

Each case runs ``gramcalc`` in-process with one argument list and reduces
the run to one string: the exit code, then the sha256 of stdout, then the
sha256 of stderr.  The cases are the ones no other pinned digest guards:
``derive`` for every builtin grammar in every format, ``verify`` on the
mutant grammars of ``test_pinned_reports.py`` (failing reports, with
their summary, note and first-failure lines, and the mutants the suites
refuse), and ``verify all``.  The expected strings in ``pinned_cli.json``
were taken from commit ee031ba, before the subcommands shared one parser
table and one output step.  Regenerate them only for an intended change
of output, with ``python tests/test_pinned_cli.py`` run against the code
whose output should become the reference.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import pathlib
import sys
from functools import lru_cache

import pytest

from gramcalc.cli import main
from gramcalc.dsl import builtin_names
from test_pinned_reports import MUTANTS

PINNED = pathlib.Path(__file__).with_name("pinned_cli.json")

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
    + [("verify", "all", "--format", fmt) for fmt in ("text", "json")]
)


def case_id(case: tuple[str, ...]) -> str:
    return " ".join(case)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def outcome(case: tuple[str, ...]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(case))
    return f"{code} {_sha(out.getvalue())} {_sha(err.getvalue())}"


@lru_cache(maxsize=None)
def _load() -> dict[str, str]:
    with open(PINNED, encoding="utf-8") as fh:
        return json.load(fh)


def test_matrix_matches_pinned_cases():
    assert sorted(case_id(c) for c in CASES) == sorted(_load())


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_cli_output_matches_pinned(case):
    assert outcome(case) == _load()[case_id(case)]


if __name__ == "__main__":
    json.dump({case_id(c): outcome(c) for c in CASES}, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
