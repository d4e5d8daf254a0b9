"""Command line front end.

Subcommands: derive (expand iterated derivatives), triangle (emit count
triangles), cops (list cyclically ordered partitions), stats (opener
statistic distributions), verify (run the identity suites).  Each is a
``_cmd_<name>`` handler listed once, in ``_DISPATCH``; ``build_parser``
makes one subparser per entry, with the handler's docstring as its help,
and adds the shared --format and --out to each.

A handler returns an iterable of text pieces and its exit code.
``_lines``, ``_csv`` and ``_json_text`` make one piece.  ``derive`` text
chains ``Polynomial.pieces``, one per run of terms with the same first
letter and exponent, and ``cops`` ``oracles.enumerate_cops``, one per
first block (per first two when the first is (1) alone), with the last
newline or the JSON object around them.
``main`` writes them with ``writelines`` to stdout or, with --out, to a
file.  Every check (caps, flags, parsing, printing a value) runs before
the handler returns, so a refusal writes no byte and creates no --out
file.  A handler refuses bad input by raising a ``GramcalcError`` or
``ValueError`` whose message is the error text; ``main`` prints it as
the one "error: ..." line on stderr, and turns Python's int-to-str limit
error into the PYTHONINTMAXSTRDIGITS=0 hint.  The size flags stay
strings until ``_at_least`` reads them with ``errors._read_int``, so
every bad value takes that same path.

Start-up imports only ``config`` and ``errors``.  ``json`` is imported
in ``_json_text``, its one user, and ``dsl`` (with ``grammar`` and
``poly``), ``oracles``, ``triangles`` and ``verifier`` in the handlers
that run them; the parser's choices from those modules are spelled
here.  So ``cops`` and ``stats`` load only ``oracles``, ``triangle``
loads ``triangles`` (and ``oracles`` for its oracle tables), and only
``derive`` and ``verify`` load the polynomial layer.

Exit status: 0 on success, 1 when a verification suite fails, 2 on
usage, parse, and bound errors, 3 on an internal error (any other
exception, reported with its traceback on stderr).  A reader that
closes stdout early, such as ``head``, is not an error: the command
stops writing, prints nothing on stderr and exits with its own code.
Identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import os
import sys
from itertools import chain, repeat
from typing import Iterable

from . import config
from .errors import GramcalcError, UnknownTriangle, _read_int

_FORMATS = ("text", "csv", "json")
# Copies of dsl.builtin_names(), verifier.SUITE_NAMES, the keys of
# oracles._STATS and triangles.triangle_names(), which tests/test_imports.py
# keeps equal.
_BUILTIN_NAMES = ("g1", "g2", "g3", "g4", "g5", "gB", "g6")
_SUITE_NAMES = ("T1", "T2", "T3", "T4", "T5", "T6", "golden")
_STAT_NAMES = ("descents", "right_valleys", "las")
_TRIANGLE_NAMES = ("stirling2", "eulerian", "type_b_eulerian", "matching", "whitney:<m>")
# Triangles whose rows come from oracles.<name>_counts, not from a recurrence.
_ORACLE_TABLES = ("left_peak", "las")


def _json_text(obj) -> tuple[str]:
    import json  # only JSON output needs it; not loaded at start-up

    return (json.dumps(obj, indent=2, sort_keys=True) + "\n",)


def _lines(lines) -> tuple[str]:
    return ("\n".join(lines) + "\n",)


def _csv(header: str, rows) -> tuple[str]:
    """The header line, then each row's cells joined by commas."""
    return _lines([header, *(",".join(map(str, row)) for row in rows)])


def _at_least(args, flag: str, least: int) -> int:
    """The int written in --flag, or a ValueError naming the flag."""
    return _read_int(getattr(args, flag), f"--{flag}", least)


def _grammar_from_source(src: str):
    """Parse a ``Grammar`` from inline DSL text or from a file path."""
    from .dsl import parse_grammar

    if os.path.exists(src):
        with open(src, encoding="utf-8-sig") as fh:
            return parse_grammar(fh.read())
    if "->" in src:
        return parse_grammar(src)
    raise GramcalcError(
        f"grammar file not found: {src!r} (inline sources must contain '->')"
    )


def _cmd_derive(args, caps: config.Caps) -> tuple[Iterable[str], int]:
    """expand an iterated derivative"""
    from .dsl import builtin_grammar, parse_polynomial

    grammar = (
        builtin_grammar(args.builtin)
        if args.builtin
        else _grammar_from_source(args.grammar)
    )
    n = _at_least(args, "n", 0)
    caps.check("derive", n)
    p = grammar.derive_n(parse_polynomial(args.start), n)
    terms = p.terms().items()
    # A number prints if and only if the largest of its kind does, so both
    # are tried before any piece is written; main words a coefficient's error.
    try:
        str(max((e for mono, _ in terms for _, e in mono), default=0))
    except ValueError:
        raise ValueError(
            "an exponent is too long to print; PYTHONINTMAXSTRDIGITS=0 lifts the limit"
        ) from None
    str(max((abs(coeff) for _, coeff in terms), default=0))
    if args.format == "json":
        return _json_text(p.to_json_obj()), 0
    if args.format == "csv":
        letters = list(grammar.letters)
        header = "n,i,j" if letters == ["x", "y"] else "n," + ",".join(letters)
        rows = ((n, *map(dict(mono).get, letters, repeat(0)), coeff) for mono, coeff in terms)
        return _csv(header + ",value", rows), 0
    return chain(p.pieces(), ("\n",)), 0


def _dense_row(counts: dict[int, int]) -> tuple[int, list[int]]:
    """A distribution as a table row: its least k and the counts up to its greatest."""
    k_start = min(counts)
    return k_start, [counts.get(k, 0) for k in range(k_start, max(counts) + 1)]


def _cmd_triangle(args, caps: config.Caps) -> tuple[Iterable[str], int]:
    """emit a count triangle"""
    from . import triangles

    nmax = _at_least(args, "nmax", 0)
    caps.check("triangle", nmax)
    if args.name in _ORACLE_TABLES:
        from . import oracles

        counts_of = getattr(oracles, f"{args.name}_counts")
        table = triangles.make_table(
            args.name, nmax, lambda n: _dense_row(counts_of(n, caps))
        )
    else:
        try:
            table = triangles.build_table(args.name, nmax)
        except UnknownTriangle as exc:
            if args.name.startswith("whitney:"):
                raise  # a malformed order of a known family, not an unknown name
            raise UnknownTriangle(f"{exc}; oracle tables: {', '.join(_ORACLE_TABLES)}") from None
    if args.format == "json":
        return _json_text(table.to_json_obj()), 0
    if args.format == "csv":
        return _csv("n,k,value", table.iter_cells()), 0
    return _lines(" ".join([f"{n}:", *map(str, row)]) for n, row in enumerate(table.rows())), 0


def _cmd_cops(args, caps: config.Caps) -> tuple[Iterable[str], int]:
    """list cyclically ordered partitions"""
    from . import oracles

    n = _at_least(args, "n", 1)
    if args.format == "json":
        # The bytes _json_text writes for {"cops": [[list(b) for b in cop]
        # for cop in cops], "n": n}, without building those lists.
        body = oracles.enumerate_cops(n, caps, oracles.COPS_JSON)
        return chain(('{\n  "cops": [\n',), body, (f'\n  ],\n  "n": {n}\n}}\n',)), 0
    return chain(oracles.enumerate_cops(n, caps, oracles.COPS_TEXT), ("\n",)), 0


def _cmd_stats(args, caps: config.Caps) -> tuple[Iterable[str], int]:
    """opener statistic distribution over partitions"""
    from . import oracles

    n = _at_least(args, "n", 1)
    items = oracles.cop_stat_table(n, args.stat, caps).items()
    if args.format == "json":
        counts = [{"blocks": k, "value": s, "count": c} for (k, s), c in items]
        return _json_text({"n": n, "stat": args.stat, "counts": counts}), 0
    if args.format == "csv":
        return _csv("blocks,value,count", ((k, s, c) for (k, s), c in items)), 0
    return _lines(f"blocks={k} {args.stat}={s}: {c}" for (k, s), c in items), 0


def _cmd_verify(args, caps: config.Caps) -> tuple[Iterable[str], int]:
    """run identity suites"""
    from . import verifier

    if args.grammar is not None and args.suite == "all":
        raise GramcalcError("--grammar applies only to suites T1..T6")
    nmax = None if args.nmax is None else _at_least(args, "nmax", 0)
    if args.suite == "all":
        reports = verifier.run_all(nmax, caps)
    else:
        grammar = None if args.grammar is None else _grammar_from_source(args.grammar)
        reports = [verifier.run_suite(args.suite, nmax, grammar, caps)]
    code = 0 if all(r.passed for r in reports) else 1
    if args.format == "json":
        payload = [r.to_json_obj() for r in reports]
        return _json_text(payload if args.suite == "all" else payload[0]), code
    lines = []
    for report in reports:
        lines.append(report.summary())
        lines.extend(f"  note: {note}" for note in report.notes)
        ff = report.first_failure
        if ff is not None:
            lines.append(
                f"  first failure: {ff.identity} at {ff.indices}:"
                f" expected {ff.expected}, got {ff.actual}"
            )
    return _lines(lines), code


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
    # One subparser per handler, in _DISPATCH order, with its docstring as help.
    p = {name: sub.add_parser(name, help=cmd.__doc__) for name, cmd in _DISPATCH.items()}
    src = p["derive"].add_mutually_exclusive_group(required=True)
    src.add_argument("--grammar", metavar="SRC", help="rule DSL text, or a path to a file of it")
    src.add_argument("--builtin", choices=_BUILTIN_NAMES, help="named builtin grammar")
    p["derive"].add_argument("--start", default="x", help="starting polynomial (default: x)")
    p["derive"].add_argument("--n", required=True, help="derivative depth")
    names = _TRIANGLE_NAMES + _ORACLE_TABLES
    p["triangle"].add_argument("name", help=", ".join(names[:-1]) + f", or {names[-1]}")
    p["triangle"].add_argument("--nmax", required=True, help="last row to emit")
    for name in ("cops", "stats"):
        p[name].add_argument("--n", required=True, help="ground set size")
    p["stats"].add_argument(
        "--stat", choices=_STAT_NAMES, required=True, help="opener statistic"
    )
    p["verify"].add_argument("suite", choices=_SUITE_NAMES + ("all",))
    p["verify"].add_argument("--nmax", help="override the suite depth")
    p["verify"].add_argument(
        "--grammar", metavar="SRC", help="override the suite grammar (T1..T6 only)"
    )
    for name, q in p.items():
        formats = ("text", "json") if name in ("cops", "verify") else _FORMATS
        q.add_argument("--format", choices=formats, default="text")
        q.add_argument("--out", metavar="PATH", help="write to a file instead of stdout")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        caps = config.load_caps(args.config, os.environ)
        pieces, code = _DISPATCH[args.command](args, caps)
        if args.out is None:
            try:
                sys.stdout.writelines(pieces)
                sys.stdout.flush()
            except BrokenPipeError:
                # The reader closed the pipe having read what it wanted.  Point
                # fd 1 at devnull so the interpreter's last flush cannot fail.
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, sys.stdout.fileno())
                os.close(devnull)
        else:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.writelines(pieces)
        return code
    except (GramcalcError, ValueError, OSError) as exc:
        message = str(exc)
        # Python's own text for str() of an int past the int-to-str digit limit.
        if "for integer string conversion" in message:
            message = "a coefficient is too long to print; PYTHONINTMAXSTRDIGITS=0 lifts the limit"
        print(f"error: {message}", file=sys.stderr)
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
