"""Command line front end.

Subcommands: derive (expand iterated derivatives), triangle (emit count
triangles), cops (list cyclically ordered partitions), stats (opener
statistic distributions), verify (run the identity suites).

Exit status: 0 on success, 1 when a verification suite fails, 2 on
usage, parse, and bound errors, 3 on an internal error (any other
exception, reported with its traceback on stderr).  Output goes to
stdout or, with --out, to a file; identical invocations produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import config, oracles, triangles, verifier
from .dsl import builtin_grammar, builtin_names, parse_grammar, parse_polynomial
from .errors import GramcalcError, UnknownLetter, UnknownTriangle
from .grammar import Grammar
from .poly import Polynomial

_FORMATS = ("text", "csv", "json")


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _grammar_from_source(src: str) -> Grammar:
    """Parse a grammar from inline DSL text or from a file path."""
    if os.path.exists(src):
        with open(src, encoding="utf-8") as fh:
            return parse_grammar(fh.read())
    if "->" in src:
        return parse_grammar(src)
    raise GramcalcError(
        f"grammar file not found: {src!r} (inline sources must contain '->')"
    )


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _poly_csv(p: Polynomial, n: int, grammar: Grammar) -> str:
    letters = list(grammar.letters)
    if letters == ["x", "y"]:
        header = "n,i,j,value"
    else:
        header = "n," + ",".join(letters) + ",value"
    lines = [header]
    for mono, coeff in p.sorted_terms():
        exps = dict(mono)
        cells = [str(n)] + [str(exps.get(l, 0)) for l in letters] + [str(coeff)]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _cmd_derive(args, caps: config.Caps) -> tuple[str, int]:
    grammar = (
        builtin_grammar(args.builtin)
        if args.builtin
        else _grammar_from_source(args.grammar)
    )
    if args.n < 0:
        raise GramcalcError(f"--n must be nonnegative, got {args.n}")
    caps.check("derive", args.n)
    start = parse_polynomial(args.start)
    for letter in start.letters():
        if letter not in grammar.letters:
            raise UnknownLetter(letter, "not in the grammar")
    p = grammar.derive_n(start, args.n)
    try:
        if args.format == "json":
            return _json_text(p.to_json_obj()), 0
        if args.format == "csv":
            return _poly_csv(p, args.n, grammar), 0
        return str(p) + "\n", 0
    except ValueError:  # a coefficient longer than the interpreter's int-to-str limit
        raise GramcalcError(
            "a coefficient is too long to print; PYTHONINTMAXSTRDIGITS=0 lifts the limit"
        ) from None


def _dense_row(counts: dict[int, int]) -> tuple[int, list[int]]:
    """A distribution as a table row: its least k and the counts up to its greatest."""
    k_start = min(counts)
    return k_start, [counts.get(k, 0) for k in range(k_start, max(counts) + 1)]


def _cmd_triangle(args, caps: config.Caps) -> tuple[str, int]:
    if args.nmax < 0:
        raise GramcalcError(f"--nmax must be nonnegative, got {args.nmax}")
    caps.check("triangle", args.nmax)
    counts_of = {"left_peak": oracles.left_peak_counts, "las": oracles.las_counts}.get(args.name)
    if counts_of is not None:
        table = triangles.make_table(
            args.name, args.nmax, lambda n: _dense_row(counts_of(n, caps))
        )
    else:
        try:
            table = triangles.build_table(args.name, args.nmax)
        except UnknownTriangle as exc:
            raise UnknownTriangle(f"{exc}; oracle tables: left_peak, las") from None
    if args.format == "json":
        return _json_text(table.to_json_obj()), 0
    if args.format == "csv":
        lines = ["n,k,value"]
        lines.extend(f"{n},{k},{v}" for n, k, v in table.iter_cells())
        return "\n".join(lines) + "\n", 0
    lines = []
    for n, row in enumerate(table.rows()):
        values = " ".join(map(str, row))
        lines.append(f"{n}: {values}" if values else f"{n}:")
    return "\n".join(lines) + "\n", 0


class _BlockText(dict):
    """Block tuple -> its text, rendered on first lookup.

    A listing of cops repeats each of at most 2^n - 1 distinct blocks
    many times, so each is rendered once: head, its entries joined by
    sep, then tail.
    """

    def __init__(self, head: str, sep: str, tail: str) -> None:
        super().__init__()
        self.parts = (head, sep, tail)

    def __missing__(self, block: tuple[int, ...]) -> str:
        head, sep, tail = self.parts
        text = self[block] = head + sep.join(map(str, block)) + tail
        return text


def _cmd_cops(args, caps: config.Caps) -> tuple[str, int]:
    if args.n < 1:
        raise GramcalcError(f"--n must be at least 1, got {args.n}")
    if args.format == "csv":
        raise GramcalcError("cops output has no CSV form; use text or json")
    cops = oracles.enumerate_cops(args.n, caps)
    if args.format == "json":
        # The bytes _json_text writes for {"cops": [[list(b) for b in cop]
        # for cop in cops], "n": n}, without building those lists.
        block_text = _BlockText("      [\n        ", ",\n        ", "\n      ]").__getitem__
        body = ",\n".join("    [\n" + ",\n".join(map(block_text, cop)) + "\n    ]" for cop in cops)
        return f'{{\n  "cops": [\n{body}\n  ],\n  "n": {args.n}\n}}\n', 0
    block_text = _BlockText("(", ",", ")").__getitem__
    lines = ["".join(map(block_text, cop)) for cop in cops]
    return "\n".join(lines) + "\n", 0


def _cmd_stats(args, caps: config.Caps) -> tuple[str, int]:
    if args.n < 1:
        raise GramcalcError(f"--n must be at least 1, got {args.n}")
    table = oracles.cop_stat_table(args.n, args.stat, caps)
    items = sorted(table.items())
    if args.format == "json":
        payload = {
            "n": args.n,
            "stat": args.stat,
            "counts": [
                {"blocks": k, "value": s, "count": c} for (k, s), c in items
            ],
        }
        return _json_text(payload), 0
    if args.format == "csv":
        lines = ["blocks,value,count"]
        lines.extend(f"{k},{s},{c}" for (k, s), c in items)
        return "\n".join(lines) + "\n", 0
    lines = [f"blocks={k} {args.stat}={s}: {c}" for (k, s), c in items]
    return "\n".join(lines) + "\n", 0


def _cmd_verify(args, caps: config.Caps) -> tuple[str, int]:
    grammar = None
    if args.grammar is not None:
        if args.suite in ("golden", "all"):
            raise GramcalcError("--grammar applies only to suites T1..T6")
        grammar = _grammar_from_source(args.grammar)
    if args.suite == "all":
        reports = verifier.run_all(args.nmax, caps)
    else:
        reports = [verifier.run_suite(args.suite, args.nmax, grammar, caps)]
    code = 0 if all(r.passed for r in reports) else 1
    if args.format == "json":
        payload = (
            [r.to_json_obj() for r in reports]
            if args.suite == "all"
            else reports[0].to_json_obj()
        )
        return _json_text(payload), code
    lines = []
    for report in reports:
        lines.append(report.summary())
        for note in report.notes:
            lines.append(f"  note: {note}")
        ff = report.first_failure
        if ff is not None:
            lines.append(
                f"  first failure: {ff.identity} at {ff.indices}:"
                f" expected {ff.expected}, got {ff.actual}"
            )
    return "\n".join(lines) + "\n", code


_DISPATCH = {
    "derive": _cmd_derive,
    "triangle": _cmd_triangle,
    "cops": _cmd_cops,
    "stats": _cmd_stats,
    "verify": _cmd_verify,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gramcalc",
        description="Formal derivative calculus on polynomial substitution rules.",
    )
    parser.add_argument(
        "--config", metavar="PATH", help="caps config file with 'name = value' lines"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("derive", help="expand an iterated derivative")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument(
        "--grammar", metavar="SRC", help="rule DSL text, or a path to a file of it"
    )
    src.add_argument("--builtin", choices=builtin_names(), help="named builtin grammar")
    p.add_argument("--start", default="x", help="starting polynomial (default: x)")
    p.add_argument("--n", type=int, required=True, help="derivative depth")
    p.add_argument("--format", choices=_FORMATS, default="text")
    p.add_argument("--out", metavar="PATH", help="write to a file instead of stdout")

    p = sub.add_parser("triangle", help="emit a count triangle")
    p.add_argument(
        "name",
        help="stirling2, eulerian, type_b_eulerian, matching, whitney:<m>,"
        " left_peak, or las",
    )
    p.add_argument("--nmax", type=int, required=True, help="last row to emit")
    p.add_argument("--format", choices=_FORMATS, default="text")
    p.add_argument("--out", metavar="PATH")

    p = sub.add_parser("cops", help="list cyclically ordered partitions")
    p.add_argument("--n", type=int, required=True, help="ground set size")
    p.add_argument("--format", choices=_FORMATS, default="text")
    p.add_argument("--out", metavar="PATH")

    p = sub.add_parser("stats", help="opener statistic distribution over partitions")
    p.add_argument("--n", type=int, required=True, help="ground set size")
    p.add_argument(
        "--stat", choices=oracles.stat_names(), required=True, help="opener statistic"
    )
    p.add_argument("--format", choices=_FORMATS, default="text")
    p.add_argument("--out", metavar="PATH")

    p = sub.add_parser("verify", help="run identity suites")
    p.add_argument("suite", choices=verifier.SUITE_NAMES + ("all",))
    p.add_argument("--nmax", type=int, default=None, help="override the suite depth")
    p.add_argument(
        "--grammar", metavar="SRC", help="override the suite grammar (T1..T6 only)"
    )
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", metavar="PATH")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        caps = config.load_caps(args.config, os.environ)
        text, code = _DISPATCH[args.command](args, caps)
        _emit(text, args.out)
        return code
    except (GramcalcError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # Exit 1 is reserved for a counterexample, so a bug must not reuse it.
        import traceback  # here, not at the top: it would add to every start-up

        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
