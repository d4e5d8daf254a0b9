"""gramcalc benchmark: cold-process CLI workloads, checked and timed.

Usage:
    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout; the program is imported from its
``src/`` with ``PYTHONPATH``, so nothing needs installing.  Every CLI
invocation is a fresh interpreter (``child.py``) because ``oracles`` and
``triangles`` keep process-wide caches that a one-shot CLI call never
has warm.  One client runs invocations one at a time (a closed loop).

A run repeats rounds until the next round would end after ``--seconds``
per workload.  A round runs one pass of each workload; a pass runs the
workload's invocations in order.  The seed shuffles both orders once,
and odd rounds run them reversed.  With ``--trace 1`` each round runs
every pass once untraced and once traced, in alternating order, and the
run reports per-layer metrics from the traced passes.

On a shared host the speed of a CPU moves by tens of percent from one
second to the next, and its average over a minute moves too.  So every
time is reported at a fixed reference speed: the measured seconds times
``REF_NOMINAL_S`` over the time of a fixed pure-Python reference loop
(``reference``), measured in this process just before and just after
each pass.  Raw seconds are printed beside the scaled ones.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print each
metric with its unit, sample count and spread.  Exit status: 0 when every
output check passed, 1 when one failed, 2 when the program is missing.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import random
import selectors
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CHILD = BENCH / "child.py"
INVOCATION_TIMEOUT_S = 150
SETUP_PROBES = 5
# Median time of one reference chunk that scaled times are quoted at.
REF_NOMINAL_S = 0.004
REF_CHUNKS = 15


@dataclass(frozen=True)
class Invocation:
    args: tuple[str, ...]
    env: tuple[tuple[str, str], ...] = ()


def _verify_all(rng: random.Random) -> list[Invocation]:
    return [Invocation(("verify", "all"))]


def _derive_deep(rng: random.Random) -> list[Invocation]:
    # Every start letter costs the same by the grammars' symmetry; only
    # the printed output differs.
    runs = [
        Invocation(("derive", "--builtin", "g1", "--n", "100", "--start", rng.choice("xy"))),
        Invocation(("derive", "--builtin", "g6", "--n", "100", "--start", rng.choice("xyz"))),
    ]
    rng.shuffle(runs)
    return runs


def _census(rng: random.Random) -> list[Invocation]:
    return [Invocation(("stats", "--n", "9", "--stat", "las"), (("GRAMCALC_CAP_COPS", "9"),))]


def _cops_listing(rng: random.Random) -> list[Invocation]:
    return [Invocation(("cops", "--n", "8"))]


@dataclass(frozen=True)
class Workload:
    name: str
    items: str  # what items_per_s counts
    invocations: Callable[[random.Random], list[Invocation]]
    # (args, stdout text) -> items in it; raises checks.CheckFailed
    check: Callable[[tuple[str, ...], str], int]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify_all", "checks", _verify_all, checks.check_verify),
        Workload("derive_deep", "terms", _derive_deep, checks.check_derive),
        Workload("census", "partitions", _census, checks.check_census),
        Workload("cops_listing", "lines", _cops_listing, checks.check_cops),
    )
}

PER_LAYER = {
    "cli.main_s": "s",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "config.load_s": "s",
    "dsl.parse_s": "s",
    "dsl.parse_calls": "count",
    "poly.format_s": "s",
    "poly.format_calls": "count",
    "grammar.derive_s": "s",
    "grammar.derive_steps": "count",
    "grammar.terms_in": "count",
    "grammar.terms_out": "count",
    "grammar.extract_s": "s",
    "grammar.extract_cells": "count",
    "triangles.lookup_s": "s",
    "triangles.lookup_calls": "count",
    "oracles.census_s": "s",
    "oracles.census_calls": "count",
    "oracles.census_objects": "count",
    "oracles.perm_s": "s",
    "oracles.perm_calls": "count",
    "oracles.perm_objects": "count",
    "oracles.enumerate_s": "s",
    "oracles.u_table_s": "s",
    "oracles.calls": "count",
    "oracles.repeat_calls": "count",
    **{f"verifier.suite_s.{s}": "s" for s in ("T1", "T2", "T3", "T4", "T5", "T6", "golden")},
    "verifier.self_s": "s",
    "verifier.checks": "count",
    "trace.overhead_s": "s",
}

# Span name -> per-layer call-count metric, for layers that report one.
_CALLS = {
    "dsl.parse": "dsl.parse_calls",
    "poly.format": "poly.format_calls",
    "grammar.derive": "grammar.derive_steps",
    "triangles.lookup": "triangles.lookup_calls",
    "oracles.census": "oracles.census_calls",
    "oracles.perm": "oracles.perm_calls",
}


def _reference_chunk() -> list:
    counts: dict = {}
    for p in itertools.permutations(range(7)):
        key = (p[0] > p[1], p[2:4], sum(p[::2]))
        counts[key] = counts.get(key, 0) + 1
    return sorted(counts.items())


def reference() -> float:
    """Median seconds of one reference chunk: tuples, dict updates, a sort."""
    times = []
    for _ in range(REF_CHUNKS):
        start = time.perf_counter()
        _reference_chunk()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


@dataclass
class Finished:
    """One child process after exit."""

    seconds: float
    setup_s: float
    rss_mb: float
    code: int
    stdout: bytes
    stderr: bytes
    report: dict


def spawn(inv: Invocation | None, trace: bool, invocation_id: int) -> Finished:
    """Run child.py once and wait for it; inv None is a set-up probe."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("GRAMCALC_")}
    env["PYTHONPATH"] = str(SRC)
    args: tuple[str, ...] = ()
    if inv is not None:
        env.update(inv.env)
        args = inv.args
    read_fd, write_fd = os.pipe()
    start = time.monotonic()
    try:
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), str(write_fd), str(int(trace)), str(invocation_id), *args],
            cwd=ROOT,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            pass_fds=(write_fd,),
        )
    except BaseException:
        os.close(read_fd)
        raise
    finally:
        os.close(write_fd)
    try:
        with os.fdopen(read_fd, "rb", buffering=0) as report_pipe, selectors.DefaultSelector() as sel:
            streams = (proc.stdout, proc.stderr, report_pipe)
            chunks: dict[int, list[bytes]] = {}
            for f in streams:
                sel.register(f, selectors.EVENT_READ)
                chunks[f.fileno()] = []
            deadline = start + INVOCATION_TIMEOUT_S
            while sel.get_map():
                events = sel.select(timeout=max(0.0, deadline - time.monotonic()))
                if not events:
                    raise TimeoutError(f"{' '.join(args)} ran over {INVOCATION_TIMEOUT_S} s")
                for key, _ in events:
                    data = os.read(key.fd, 1 << 16)
                    if data:
                        chunks[key.fd].append(data)
                    else:
                        sel.unregister(key.fileobj)
            proc.wait()
            seconds = time.monotonic() - start
            out, err, rep = (b"".join(chunks[f.fileno()]) for f in streams)
    finally:
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        proc.stderr.close()
    report = json.loads(rep) if rep else {}
    setup_s = report["imported"] - start if "imported" in report else float("nan")
    return Finished(seconds, setup_s, report.get("peak_rss_kb", 0) / 1024, proc.returncode, out, err, report)


def _has_same_name_ancestor(spans: list, i: int) -> bool:
    name, parent = spans[i][0], spans[i][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(reports: list[dict]) -> dict[str, float]:
    """Per-layer totals, in raw seconds, over the invocations of one pass.

    A layer's time and calls count only calls made from outside it; a
    span's self time is its duration minus the part its child spans
    cover.
    """
    m = dict.fromkeys(PER_LAYER, 0)
    for report in reports:
        spans = report["spans"]
        covered = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        for i, (name, start, end, _, _) in enumerate(spans):
            if _has_same_name_ancestor(spans, i):
                continue
            duration = end - start
            if name.startswith("verifier.suite."):
                m["verifier.suite_s." + name.rsplit(".", 1)[1]] += duration
                m["verifier.self_s"] += duration - covered[i]
                continue
            m[name + "_s"] += duration
            if name == "cli.main":
                m["cli.self_s"] += duration - covered[i]
            if name in _CALLS:
                m[_CALLS[name]] += 1
        for name, value in report["counts"].items():
            m[name] += value
    return m


@dataclass
class Pass:
    seconds: float  # raw
    scale: float  # REF_NOMINAL_S over the reference time around the pass
    rss_mb: float
    items: int
    layers: dict | None = None

    @property
    def scaled(self) -> float:
        return self.seconds * self.scale


@dataclass
class WorkloadRun:
    workload: Workload
    invocations: list[Invocation]
    passes: list[Pass] = field(default_factory=list)
    traced: list[Pass] = field(default_factory=list)
    setup: list[tuple[float, float]] = field(default_factory=list)  # (raw, scale)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def run_pass(self, reverse: bool, trace: bool, ids, ref_before: float) -> float:
        """Run, check and record one pass; return the reference time after it."""
        order = self.invocations[::-1] if reverse else self.invocations
        done = [(inv, spawn(inv, trace, next(ids))) for inv in order]
        ref_after = reference()
        scale = REF_NOMINAL_S / ((ref_before + ref_after) / 2)
        items = 0
        for inv, fin in done:
            self.attempted += 1
            self.setup.append((fin.setup_s, scale))
            try:
                if fin.code != 0:
                    raise checks.CheckFailed(
                        f"exit {fin.code}: {fin.stderr.decode(errors='replace')[-500:]}"
                    )
                items += self.workload.check(inv.args, fin.stdout.decode())
                checks.check_digest(inv.args, fin.stdout)
            except checks.CheckFailed as exc:
                self.failed += 1
                self.errors.append(f"{self.workload.name}: {' '.join(inv.args)}: {exc}")
        p = Pass(sum(f.seconds for _, f in done), scale, max(f.rss_mb for _, f in done), items)
        if trace:
            p.layers = layer_metrics([f.report for _, f in done])
            p.layers["cli.output_bytes"] = sum(len(f.stdout) for _, f in done)
            self.traced.append(p)
        else:
            self.passes.append(p)
        return ref_after


def measure(names: list[str], seed: int, seconds: float, trace: bool):
    """Run rounds of passes; return the workload runs and the probes' (raw, scale)."""
    rng = random.Random(seed)
    runs = [WorkloadRun(WORKLOADS[n], WORKLOADS[n].invocations(rng)) for n in names]
    rng.shuffle(runs)
    ids = itertools.count(1)
    ref = reference()
    probes = [spawn(None, False, next(ids)) for _ in range(SETUP_PROBES)]
    for probe in probes:
        if probe.code != 0:
            raise SystemExit(f"set-up probe failed: {probe.stderr.decode(errors='replace')}")
    ref_after = reference()
    probe_setup = [(p.setup_s, REF_NOMINAL_S / ((ref + ref_after) / 2)) for p in probes]
    ref = ref_after
    deadline = time.monotonic() + seconds * len(names)
    round_times: list[float] = []
    modes = [False, True] if trace else [False]
    while True:
        t0 = time.monotonic()
        reverse = len(round_times) % 2 == 1
        for run in runs[::-1] if reverse else runs:
            for traced in modes[::-1] if reverse else modes:
                ref = run.run_pass(reverse, traced, ids, ref)
        round_times.append(time.monotonic() - t0)
        if any(r.failed for r in runs) or time.monotonic() + statistics.median(round_times) > deadline:
            break
    runs.sort(key=lambda r: names.index(r.workload.name))
    return runs, probe_setup


def spread(values: list[float]) -> float | None:
    """Interquartile range as a share of the median."""
    if len(values) < 2:
        return None
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else None


def tail(values: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with ten samples above it."""
    if len(values) < 11:
        return None
    return 100 * (len(values) - 10) / len(values), sorted(values)[-11]


Row = tuple  # (value, unit, samples, spread or None)


def _row(values: list[float], unit: str) -> Row:
    return statistics.median(values), unit, len(values), spread(values)


def end_to_end(run: WorkloadRun, probe_setup: list) -> dict[str, Row]:
    walls = [p.scaled for p in run.passes]
    wall = statistics.median(walls)
    setup = probe_setup + run.setup
    return {
        "wall_s": _row(walls, "s"),
        "items_per_s": (
            run.passes[0].items / wall, "1/s", len(walls), spread([p.items / p.scaled for p in run.passes])
        ),
        "peak_rss_mb": _row([p.rss_mb for p in run.passes], "MB"),
        "setup_s": _row([raw * scale for raw, scale in setup], "s"),
    }


def extras(run: WorkloadRun, probe_setup: list, rows: dict[str, Row]) -> dict[str, Row]:
    """Printed beside the end-to-end metrics, not part of the result."""
    walls = [p.scaled for p in run.passes]
    found = tail(walls)
    return {
        "wall_s_tail": (
            (found[1], f"s p{found[0]:.0f}", len(walls), None)
            if found
            else (float("nan"), "s", len(walls), None)
        ),
        f"{run.workload.items}_per_s": rows["items_per_s"],
        "wall_s_raw": _row([p.seconds for p in run.passes], "s"),
        "setup_s_raw": _row([raw for raw, _ in probe_setup + run.setup], "s"),
        "ref_scale": _row([p.scale for p in run.passes], "x"),
    }


def per_layer(run: WorkloadRun) -> dict[str, Row]:
    out = {}
    for name, unit in PER_LAYER.items():
        if name == "trace.overhead_s":
            values = [
                statistics.median(p.scaled for p in run.traced)
                - statistics.median(p.scaled for p in run.passes)
            ]
        elif unit == "s":
            values = [p.layers[name] * p.scale for p in run.traced]
        else:
            values = [p.layers[name] for p in run.traced]
        out[name] = _row(values, unit)
    return out


def _fmt_spread(s: float | None) -> str:
    return "-" if s is None else f"{100 * s:.1f}%"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "gramcalc" / "cli.py").is_file():
        print(f"error: no gramcalc sources under {SRC}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    runs, probe_setup = measure(names, args.seed, args.seconds, bool(args.trace))

    print(
        f"# gramcalc benchmark: nproc={os.cpu_count()} python={platform.python_version()}"
        f" seed={args.seed} seconds={args.seconds:g} trace={args.trace}"
    )
    print(f"# times in s are scaled to a reference chunk of {REF_NOMINAL_S} s; *_raw are unscaled")
    print(f"# {'workload':<13} {'metric':<26} {'value':>14} {'unit':<6} {'n':>4} {'iqr/median':>10}")
    metrics = {}
    for run in runs:
        rows = per_layer(run) if args.trace else end_to_end(run, probe_setup)
        shown = dict(rows) if args.trace else {**rows, **extras(run, probe_setup, rows)}
        shown["failed_share"] = (run.failed / run.attempted, f"of {run.attempted}", run.attempted, None)
        for name, (value, unit, n, s) in shown.items():
            print(f"  {run.workload.name:<13} {name:<26} {value:>14.6g} {unit:<6} {n:>4} {_fmt_spread(s):>10}")
        prefix = "" if len(runs) == 1 else run.workload.name + "."
        metrics.update({prefix + k: {"value": v[0], "unit": v[1]} for k, v in rows.items()})
    for run in runs:
        for error in run.errors:
            print(f"FAILED {error}")
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    # Turn SIGTERM into KeyboardInterrupt so spawn() kills and reaps its child.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    sys.exit(main())
