"""`triangle` output pinned by digest.

Each case runs ``gramcalc triangle NAME --nmax N --format FORMAT`` and
reduces its stdout to a sha256.  The expected digests in
``pinned_triangles.json`` were taken from commit 3450708, whose tables
kept a sparse dict of nonzero entries plus per-row bounds, so any change
in the rows, their first k, their zeros or their text shows up here.
Regenerate them only for an intended change of output, with
``python tests/test_pinned_triangles.py`` run against the code whose
output should become the reference.
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

PINNED = pathlib.Path(__file__).parent / "pinned_triangles.json"

NAMES = (
    "stirling2",
    "eulerian",
    "type_b_eulerian",
    "matching",
    "whitney:1",
    "whitney:2",
    "left_peak",
    "las",
)
CASES = [
    (name, nmax, fmt)
    for name in NAMES
    for nmax in (0, 1, 9)
    for fmt in ("text", "csv", "json")
]


def case_id(case: tuple[str, int, str]) -> str:
    name, nmax, fmt = case
    return f"{name}-n{nmax}-{fmt}"


def digest(name: str, nmax: int, fmt: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["triangle", name, "--nmax", str(nmax), "--format", fmt])
    assert code == 0
    return hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


@lru_cache(maxsize=None)
def _load() -> dict[str, str]:
    with open(PINNED, encoding="utf-8") as fh:
        return json.load(fh)


def test_matrix_matches_pinned_cases():
    assert sorted(case_id(c) for c in CASES) == sorted(_load())


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_triangle_output_matches_pinned(case):
    assert digest(*case) == _load()[case_id(case)]


if __name__ == "__main__":
    json.dump({case_id(c): digest(*c) for c in CASES}, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
