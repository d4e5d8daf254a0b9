"""Suite reports pinned by digest.

Each case runs one suite and reduces its outcome to one string: the
sha256 of the report's JSON object, or the type and message of the error
it raised.  The expected strings in ``pinned_reports.json`` were taken
from the suite runner of commit 290f20c, before the suites moved onto a
shared run object, and those of T3 and golden at nmax 10 from commit
9cf18b1, before golden derived through that object, so any change to
check counts, failure order, notes or error text shows up here.  Regenerate them only for an intended change
of report content, with ``python tests/test_pinned_reports.py`` run
against the code whose reports should become the reference.

The matrix covers every suite at every depth up to its default, deeper
runs at nmax 10, two cap settings under which every cap note fires, and
mutant grammars, some of which break the index pattern or leave the start
letter unruled.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys
from functools import lru_cache

import pytest

from gramcalc.config import Caps
from gramcalc.dsl import parse_grammar
from gramcalc.errors import GramcalcError
from gramcalc.verifier import SUITE_NAMES, run_suite

PINNED = pathlib.Path(__file__).with_name("pinned_reports.json")

DEFAULT_NMAX = {"T1": 8, "T2": 8, "T3": 8, "T4": 8, "T5": 7, "T6": 7, "golden": 3}

CAPS = {
    "default": Caps(),
    "tight": Caps(cops=3, permutations=3),
    "narrow": Caps(cops=5, permutations=2),
}

MUTANTS = {
    "T1": (
        "x -> x + 2*x*y; y -> y + x*y",
        "x -> x + x*z; y -> y; z -> z",
        "x -> x + x*y; y -> y + x*y + y^2",
    ),
    "T2": (
        "x -> x + x*y; y -> y + x*y",
        "x -> x + x*y + x*z; y -> y + x^2; z -> z",
        "x -> x + x*y; y -> y + 2*x^2",
    ),
    "T3": (
        "w -> w + w*x; x -> x + x*y; y -> y + x*y",
        "w -> w^2 + w*x; x -> x + x*y; y -> y + x^2",
        "x -> x + x*y; y -> y + x^2",
    ),
    "T4": (
        "x -> x + x^2 + x*y; y -> y + x*y",
        "x -> x + x*z; y -> y; z -> z",
        "x -> x + x^2 + 2*x*y; y -> y + y^2 + x*y",
    ),
    "T5": (
        "x -> x + x*y; y -> y + x^2*y",
        "x -> x + 2*x*y^2; y -> y + x^2*y",
        "x -> x + x*y^2; y -> y + x^2*y + y^3",
    ),
    "T6": (
        "x -> x*(y + z); y -> y*(z + x); z -> z*(x + y) + z",
        "x -> x*(y + z); y -> y*(z + x); z -> z*(x + 2*y)",
        "x -> x*(y + w); y -> y*(w + x); w -> w*(x + y)",
    ),
}


def _cases() -> list[tuple[str, int, str, str | None]]:
    cases = [
        (suite, n, "default", None)
        for suite in SUITE_NAMES
        for n in range(DEFAULT_NMAX[suite] + 1)
    ]
    cases += [(suite, 10, "default", None) for suite in SUITE_NAMES]
    cases += [
        (suite, n, caps, None)
        for caps in ("tight", "narrow")
        for suite in SUITE_NAMES
        for n in range(7)
    ]
    cases += [
        (suite, n, "default", src)
        for suite, sources in MUTANTS.items()
        for src in sources
        for n in (1, 3)
    ]
    return cases


CASES = _cases()


def case_id(case: tuple[str, int, str, str | None]) -> str:
    suite, nmax, caps, src = case
    tail = "builtin" if src is None else f"mutant{MUTANTS[suite].index(src)}"
    return f"{suite}-n{nmax}-{caps}-{tail}"


def outcome(suite: str, nmax: int, caps: str, src: str | None) -> str:
    try:
        grammar = None if src is None else parse_grammar(src)
        report = run_suite(suite, nmax, grammar, CAPS[caps])
    except (GramcalcError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return sha(json.dumps(report.to_json_obj(), sort_keys=True))


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@lru_cache(maxsize=None)
def load(path: pathlib.Path) -> dict[str, str]:
    """The pinned strings in the JSON file at path, by case id."""
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def test_matrix_matches_pinned_cases():
    assert sorted(case_id(c) for c in CASES) == sorted(load(PINNED))


def test_matrix_fires_every_outcome_kind():
    pinned = load(PINNED)
    assert any(v.startswith("PatternViolation: ") for v in pinned.values())
    assert any(v.startswith("UnknownLetter: ") for v in pinned.values())


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_report_matches_pinned(case):
    assert outcome(*case) == load(PINNED)[case_id(case)]


if __name__ == "__main__":
    json.dump({case_id(c): outcome(*c) for c in CASES}, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
