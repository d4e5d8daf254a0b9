"""`cops` output pinned by digest.

Each case runs ``gramcalc cops --n N --format FORMAT`` and reduces its
stdout to a sha256.  The expected digests in ``pinned_cops.json`` were
taken from commit 0a9f3e0, which sorted the whole list on one key and
rendered every block on every line, and ``n8-json`` from commit bfd049b,
which ran ``json.dumps`` on the whole list, so any change in the cops,
their order or their text shows up here.  Regenerate them only for an
intended change of output, with ``python tests/test_pinned_cops.py`` run
against the code whose output should become the reference.
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

HERE = pathlib.Path(__file__).parent
PINNED = HERE / "pinned_cops.json"
BENCH_EXPECTED = HERE.parent / "perfbench" / "expected.json"

CASES = [(n, fmt) for fmt in ("text", "json") for n in range(1, 9)]


def case_id(case: tuple[int, str]) -> str:
    n, fmt = case
    return f"n{n}-{fmt}"


def digest(n: int, fmt: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["cops", "--n", str(n), "--format", fmt])
    assert code == 0
    return hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


@lru_cache(maxsize=None)
def _load() -> dict[str, str]:
    with open(PINNED, encoding="utf-8") as fh:
        return json.load(fh)


def test_matrix_matches_pinned_cases():
    assert sorted(case_id(c) for c in CASES) == sorted(_load())


def test_largest_text_case_is_the_benchmark_digest():
    with open(BENCH_EXPECTED, encoding="utf-8") as fh:
        assert _load()["n8-text"] == json.load(fh)["cops --n 8"]


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_cops_output_matches_pinned(case):
    assert digest(*case) == _load()[case_id(case)]


if __name__ == "__main__":
    json.dump({case_id(c): digest(*c) for c in CASES}, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
