"""Timings of the derive kernel, the cops listing and the verify suites.

Usage: python3 tests/kernel_timings.py [--repeat R] [--only SUBSTRING]

Standard library only; pytest does not collect this file.  Run it from any
directory: it imports gramcalc from the ``src`` beside this file, so the
same script run from two checkouts compares their kernels.  Each derive
case is timed in process as ``Grammar.derive_n(start, depth)`` with
``time.perf_counter``, and the median of R runs is printed in
milliseconds with the number of terms in the last level.  Only cases
whose label contains SUBSTRING run.

The cases are every builtin grammar from every start that the verify
suites or the ``derive_deep`` benchmark use, at depth 100 and at depth 8
(the size of a verify derivation), and a few grammars whose levels are
not dense simplices: one term per diagonal, letters that vanish,
a single letter, four letters in a cycle, a constant letter, rule
coefficients other than 1, and a start whose parts reach different
rules; the last two split off an Euler part with c = 2 and with c = -1,
r = 2.  The suites' starts are read from the verifier's seed table, so
they follow it.  The tests import ``SEEDS`` from here.

The cops rows, labelled ``cops 8 text``, ``cops 8 json`` and ``cops 9
text``, time reading ``enumerate_cops(n)`` in process one piece at a
time, the last under ``Caps(cops=9)``; each prints the median with n
and the length in characters of the largest piece.

The verify rows, labelled ``verify T1`` .. ``verify golden`` and
``verify all``, time ``run_suite(name)`` for each suite and ``run_all()``
at their default depths.  Each of the R runs is a fresh interpreter,
timed after its imports, since a second run in one process would reuse
the oracles' memos and the triangles' rows; each row prints the median
with the suite's default nmax and its number of checks.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import statistics
import subprocess
import sys
import time

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

from gramcalc.verifier import _SEEDS  # noqa: E402

# The derive_deep benchmark's start letters beyond the suites' seeds.
DEEP_STARTS = {"g1": ("y",), "g6": ("y", "z")}


def _builtin_starts() -> dict[str, tuple[str, ...]]:
    """The starts derived from each builtin, in the verifier's suite order.

    These are the verify suites' seeds (T1..T6, which golden also derives,
    and gB from T5's seeds, as T5's diagonal checks do) and the derive_deep
    start letters.
    """
    seeds = {}
    for suite, row in _SEEDS.items():
        starts = tuple(seed.start for seed in row.seeds)
        if row.builtin is not None:
            seeds[row.builtin] = starts + DEEP_STARTS.get(row.builtin, ())
        if suite == "T5":
            seeds["gB"] = starts
    return seeds


SEEDS = _builtin_starts()

# (grammar text, start, depth) of the non-builtin cases.
OTHERS = (
    ("x -> x^4*y; y -> x*y^3", "x", 100),
    ("x -> 1 + y; y -> x", "x", 100),
    ("x -> x^10", "x", 100),
    ("a -> a + a*b; b -> b + b*c; c -> c + c*d; d -> d + d*a", "a", 30),
    ("const c; x -> c*x + x*y; y -> c*y + x*y", "x", 100),
    ("x -> 2*x + x*y; y -> -3*y + x*y", "x", 100),
    ("w -> w + w*x; x -> x + x*y; y -> y + x^2", "w*x + y", 60),
    ("x -> 2*x + x*y; y -> 2*y + x*y", "x", 100),
    ("x -> -x + x*y^2; y -> -y + x^2*y", "x", 60),
)

# The (n, form) of the cops listing rows.
COPS_ROWS = ((8, "text"), (8, "json"), (9, "text"))

# One verify run in a fresh interpreter: prints its seconds, after the
# imports, and its number of checks.
VERIFY_RUN = """
import sys, time
from gramcalc.verifier import run_all, run_suite
name = sys.argv[1]
t0 = time.perf_counter()
reports = run_all() if name == "all" else [run_suite(name)]
print(time.perf_counter() - t0, sum(r.checks_run for r in reports))
"""


def verify_run(name: str) -> tuple[float, int]:
    """(seconds, checks) of one fresh verify run of a suite name or "all"."""
    done = subprocess.run(
        [sys.executable, "-c", VERIFY_RUN, name],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    )
    seconds, checks = done.stdout.split()
    return float(seconds), int(checks)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=9)
    parser.add_argument("--only", default="", help="time only cases whose label has this text")
    args = parser.parse_args()
    from gramcalc.config import Caps
    from gramcalc.dsl import builtin_grammar, parse_grammar, parse_polynomial
    from gramcalc.oracles import COPS_JSON, COPS_TEXT, enumerate_cops

    cases = [
        (f"{name} from {seed}", builtin_grammar(name), seed, depth)
        for depth in (100, 8)
        for name, seeds in SEEDS.items()
        for seed in seeds
    ]
    cases += [
        (f"{src} from {seed}", parse_grammar(src), seed, depth) for src, seed, depth in OTHERS
    ]
    print(f"Python {sys.version.split()[0]}, median of {args.repeat} runs")
    print(f"{'case':<68} {'depth':>5} {'terms':>6} {'ms':>9}")
    for label, grammar, start, depth in cases:
        if args.only not in label:
            continue
        p = parse_polynomial(start)
        times = []
        for _ in range(args.repeat):
            t0 = time.perf_counter()
            level = grammar.derive_n(p, depth)
            times.append(time.perf_counter() - t0)
        ms = statistics.median(times) * 1000
        print(f"{label:<68} {depth:>5} {len(level):>6} {ms:>9.3f}")
    print(f"{'cops listing':<68} {'n':>5} {'piece':>6} {'ms':>9}")
    forms = {"text": COPS_TEXT, "json": COPS_JSON}
    for n, form in COPS_ROWS:
        label = f"cops {n} {form}"
        if args.only not in label:
            continue
        times = []
        for _ in range(args.repeat):
            t0 = time.perf_counter()
            largest = max(map(len, enumerate_cops(n, Caps(cops=n), forms[form])))
            times.append(time.perf_counter() - t0)
        ms = statistics.median(times) * 1000
        print(f"{label:<68} {n:>5} {largest:>6} {ms:>9.3f}")
    print(f"{'verify run':<68} {'nmax':>5} {'checks':>6} {'ms':>9}")
    for name in (*_SEEDS, "all"):
        label = f"verify {name}"
        if args.only not in label:
            continue
        runs = [verify_run(name) for _ in range(args.repeat)]
        nmax = _SEEDS[name].nmax if name in _SEEDS else "-"
        ms = statistics.median(seconds for seconds, _ in runs) * 1000
        print(f"{label:<68} {nmax:>5} {runs[-1][1]:>6} {ms:>9.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
