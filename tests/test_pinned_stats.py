"""`stats` output pinned by digest.

Each case runs ``gramcalc stats --n N --stat STAT --format FORMAT`` and
reduces its stdout to a sha256.  The expected digests in
``pinned_stats.json`` were taken from commit e979065, whose census read
the full sorted list of cyclically ordered partitions, so any change in
the counts, their order or their formatting shows up here.  Regenerate
them only for an intended change of output, with
``python tests/test_pinned_stats.py`` run against the code whose output
should become the reference.
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

PINNED = pathlib.Path(__file__).with_name("pinned_stats.json")

CASES = [
    (n, stat, fmt)
    for stat in ("descents", "right_valleys", "las")
    for fmt in ("text", "csv", "json")
    for n in range(1, 9)
]


def case_id(case: tuple[int, str, str]) -> str:
    n, stat, fmt = case
    return f"{stat}-n{n}-{fmt}"


def digest(n: int, stat: str, fmt: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["stats", "--n", str(n), "--stat", stat, "--format", fmt])
    assert code == 0
    return hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


@lru_cache(maxsize=None)
def _load() -> dict[str, str]:
    with open(PINNED, encoding="utf-8") as fh:
        return json.load(fh)


def test_matrix_matches_pinned_cases():
    assert sorted(case_id(c) for c in CASES) == sorted(_load())


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_stats_output_matches_pinned(case):
    assert digest(*case) == _load()[case_id(case)]


if __name__ == "__main__":
    json.dump({case_id(c): digest(*c) for c in CASES}, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
