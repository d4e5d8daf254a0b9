"""Output checks for the benchmark workloads, independent of timing.

Each check takes one invocation's stdout and returns the number of work
items it holds (checks, terms, partitions or lines), or raises
``CheckFailed``.  Expected values come from the recurrences below, not
from ``gramcalc``, so a wrong program cannot also supply the answer.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from pathlib import Path

# sha256 of each invocation's stdout, captured at the commit that added
# this benchmark; keyed by the CLI arguments joined with spaces.
DIGESTS = json.loads((Path(__file__).with_name("expected.json")).read_text())

VERIFY_COUNTS = {
    "T1": 2631,
    "T2": 2942,
    "T3": 2880,
    "T4": 1952,
    "T5": 3962,
    "T6": 224,
    "golden": 16,
}
_SUMMARY = re.compile(r"(\w+): (pass|fail) \((\d+) checks, (\d+) failures, nmax=\d+\)")
_CENSUS_LINE = re.compile(r"blocks=(\d+) las=(\d+): (\d+)")
_COP_LINE = re.compile(r"(\(\d+(,\d+)*\))+")


class CheckFailed(Exception):
    pass


def stirling2_row(n: int) -> list[int]:
    """S(n, 0..n) by S(m, k) = k S(m-1, k) + S(m-1, k-1)."""
    row = [1]
    for m in range(1, n + 1):
        row = [0] + [k * (row[k] if k < m else 0) + row[k - 1] for k in range(1, m + 1)]
    return row


def cops_by_blocks(n: int) -> dict[int, int]:
    """Cyclically ordered partitions of [n] with k blocks: (k-1)! S(n, k)."""
    row = stirling2_row(n)
    return {k: math.factorial(k - 1) * row[k] for k in range(1, n + 1)}


def check_digest(args: tuple[str, ...], stdout: bytes) -> None:
    key = " ".join(args)
    digest = hashlib.sha256(stdout).hexdigest()
    if DIGESTS.get(key) != digest:
        raise CheckFailed(f"stdout sha256 {digest} != recorded {DIGESTS.get(key)} for {key!r}")


def check_verify(args: tuple[str, ...], text: str) -> int:
    seen = {}
    for line in text.splitlines():
        if line.startswith("  note: "):
            continue
        match = _SUMMARY.fullmatch(line)
        if match is None:
            raise CheckFailed(f"unexpected verify line {line!r}")
        suite, status, checks, failures = match.groups()
        if status != "pass" or failures != "0":
            raise CheckFailed(f"verify line does not pass: {line!r}")
        seen[suite] = int(checks)
    if seen != VERIFY_COUNTS:
        raise CheckFailed(f"verify check counts {seen} != {VERIFY_COUNTS}")
    return sum(seen.values())


# Terms of derive at depth 100 from one letter, as printed at the commit
# that added this benchmark (the same for every start letter, by symmetry).
DERIVE_TERMS = {"g1": 5051, "g6": 5150}


def derive_coeff_sum(grammar: str, n: int) -> int:
    """Coefficient sum of derive at depth n from one letter."""
    if grammar == "g1":
        # D^n(x) is the opener-descent census of the cops of [n+1] (T1).
        return sum(cops_by_blocks(n + 1).values())
    # g6: each letter's rule has two degree-2 terms, so D multiplies the
    # coefficient sum of a homogeneous degree-d polynomial by 2d.
    return 2**n * math.factorial(n)


def check_derive(args: tuple[str, ...], text: str) -> int:
    grammar, n = args[args.index("--builtin") + 1], int(args[args.index("--n") + 1])
    if " - " in text:
        raise CheckFailed("derive output has a negative coefficient")
    terms = text.strip().split(" + ")
    total = 0
    for term in terms:
        head = term.split("*", 1)[0]
        total += int(head) if head.isdigit() else 1
    want = derive_coeff_sum(grammar, n)
    if total != want:
        raise CheckFailed(f"{grammar} coefficient sum {total} != {want}")
    if len(terms) != DERIVE_TERMS[grammar]:
        raise CheckFailed(f"{grammar} has {len(terms)} terms, expected {DERIVE_TERMS[grammar]}")
    return len(terms)


def check_census(args: tuple[str, ...], text: str) -> int:
    n = int(args[args.index("--n") + 1])
    by_blocks: dict[int, int] = {}
    for line in text.splitlines():
        match = _CENSUS_LINE.fullmatch(line)
        if match is None:
            raise CheckFailed(f"unexpected stats line {line!r}")
        k, _, count = map(int, match.groups())
        by_blocks[k] = by_blocks.get(k, 0) + count
    want = cops_by_blocks(n)
    if by_blocks != want:
        raise CheckFailed(f"census block sums {by_blocks} != (k-1)! S({n},k) {want}")
    return sum(by_blocks.values())


def check_cops(args: tuple[str, ...], text: str) -> int:
    n = int(args[args.index("--n") + 1])
    lines = text.splitlines()
    want = sum(cops_by_blocks(n).values())
    if len(lines) != want or len(set(lines)) != want:
        raise CheckFailed(f"{len(lines)} lines, {len(set(lines))} distinct, expected {want}")
    for line in lines:
        if _COP_LINE.fullmatch(line) is None:
            raise CheckFailed(f"unexpected cops line {line!r}")
    return want
