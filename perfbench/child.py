"""One cold gramcalc CLI invocation, run in a fresh interpreter by run.py.

Usage: python3 child.py REPORT_FD TRACE INVOCATION_ID [CLI ARGS...]

The process imports ``gramcalc.cli``, stamps the time, and then calls
``gramcalc.cli.main`` with the CLI arguments (none means a set-up probe
that only imports).  When it ends it writes one JSON object to the file
descriptor REPORT_FD: the monotonic time at which the import finished,
its peak resident set size and, with TRACE=1, the spans and counts
recorded by ``Tracer``.  Exit status is the CLI's.

Tracing wraps public functions under the name each caller looks up; no
file under ``src/`` changes.  Functions called over a million times per
invocation (``poly.mono_mul``, the per-object statistics) are not
wrapped, so their time stays inside their callers' spans.
"""

from __future__ import annotations

import json
import os
import sys
import time


class Tracer:
    """Records spans as [name, start, end, parent, invocation] in memory.

    ``parent`` is the index of the enclosing span in ``spans``, or -1.
    Counts recorded at the same boundaries go to ``counts``.
    """

    def __init__(self, invocation: int):
        self.invocation = invocation
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._seen_oracle_calls: set = set()

    def add(self, name: str, value: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def call(self, name: str, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else -1
        span = [name, 0.0, 0.0, parent, self.invocation]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, count=None, oracle: bool = False):
        """Return fn wrapped in a span; count(tracer, args, result) runs after."""

        def wrapper(*args, **kwargs):
            if oracle:
                key = (fn.__name__, repr(args), repr(sorted(kwargs.items())))
                self.add("oracles.calls", 1)
                if key in self._seen_oracle_calls:
                    self.add("oracles.repeat_calls", 1)
                self._seen_oracle_calls.add(key)
            result = self.call(name, fn, *args, **kwargs)
            if count is not None:
                count(self, args, result)
            return result

        return wrapper

    def patch(self, owner, attr: str, name: str, count=None, oracle: bool = False):
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), count, oracle))

    def install(self) -> None:
        from gramcalc import cli, config, grammar, oracles, poly, triangles, verifier

        self.patch(config, "load_caps", "config.load")
        # cli and verifier bind the parsers with `from .dsl import`, so the
        # names are wrapped in their namespaces, not in dsl.
        for module in (cli, verifier):
            for attr in ("parse_grammar", "parse_polynomial", "builtin_grammar"):
                if hasattr(module, attr):
                    self.patch(module, attr, "dsl.parse")
        for attr in ("__str__", "compact", "sorted_terms", "to_json_obj"):
            self.patch(poly.Polynomial, attr, "poly.format")

        def derive_terms(tracer, args, result):
            tracer.add("grammar.terms_in", len(args[1]))
            tracer.add("grammar.terms_out", len(result))

        # On the class, so derive_levels and derive_n go through it.
        self.patch(grammar.Grammar, "derive", "grammar.derive", derive_terms)
        self.patch(
            verifier,
            "extract_coeffs",
            "grammar.extract",
            lambda tracer, args, result: tracer.add("grammar.extract_cells", len(result)),
        )
        for attr in (
            "stirling2",
            "eulerian",
            "type_b_eulerian",
            "matching_count",
            "whitney",
            "binomial",
            "factorial",
        ):
            self.patch(verifier, attr, "triangles.lookup")
        self.patch(triangles, "build_table", "triangles.lookup")

        def objects(counter):
            return lambda tracer, args, result: tracer.add(counter, sum(result.values()))

        self.patch(
            oracles, "cop_stat_table", "oracles.census", objects("oracles.census_objects"), True
        )
        for attr in ("left_peak_counts", "las_counts"):
            self.patch(oracles, attr, "oracles.perm", objects("oracles.perm_objects"), True)
        for attr in (
            "enumerate_cops",
            "enumerate_permutations",
            "enumerate_signed",
            "enumerate_matchings",
        ):
            self.patch(oracles, attr, "oracles.enumerate", oracle=True)
        self.patch(oracles, "u_table", "oracles.u_table", oracle=True)

        def checks(tracer, args, report):
            tracer.add("verifier.checks", report.checks_run)

        for suite, fn in list(verifier._SUITES.items()):
            verifier._SUITES[suite] = self.wrap(f"verifier.suite.{suite}", fn, checks)
        self.patch(verifier, "suite_golden", "verifier.suite.golden", checks)


def peak_rss_kb() -> int:
    """VmHWM of this address space.

    Not ru_maxrss: after a fork and exec that also counts the peak of the
    parent's address space, so it would include the benchmark's own.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main() -> int:
    report_fd, trace, invocation = int(sys.argv[1]), sys.argv[2] == "1", int(sys.argv[3])
    cli_args = sys.argv[4:]
    from gramcalc.cli import main as cli_main

    report = {"imported": time.monotonic()}
    code = 0
    tracer = Tracer(invocation) if trace else None
    try:
        if cli_args:
            if tracer is None:
                code = cli_main(cli_args)
            else:
                tracer.install()
                code = tracer.call("cli.main", cli_main, cli_args)
        sys.stdout.flush()
    finally:
        report["peak_rss_kb"] = peak_rss_kb()
        if tracer is not None:
            report["spans"] = tracer.spans
            report["counts"] = tracer.counts
        with os.fdopen(report_fd, "w") as fh:
            json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
