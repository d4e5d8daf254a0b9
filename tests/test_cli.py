"""End-to-end command line behavior through main(argv)."""

import argparse
import json
import os
import subprocess
import sys
import tracemalloc

import pytest

import gramcalc
from gramcalc import cli, oracles, triangles
from gramcalc.cli import main
from gramcalc.dsl import builtin_grammar, builtin_names, parse_polynomial

from reference import reference_cop_line, reference_cops, reference_listing


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_derive_text(capsys):
    code, out, _ = run_cli(capsys, "derive", "--builtin", "g1", "--n", "2")
    assert code == 0
    assert out == "x + 3*x*y + x*y^2 + x^2*y\n"


def test_derive_g4_level_one(capsys):
    code, out, _ = run_cli(capsys, "derive", "--builtin", "g4", "--n", "1")
    assert code == 0
    assert out == "x + x*y + x^2\n"


def test_derive_depth_zero(capsys):
    code, out, _ = run_cli(capsys, "derive", "--builtin", "g2", "--n", "0")
    assert code == 0
    assert out == "x\n"


def test_derive_alternate_start(capsys):
    code, out, _ = run_cli(
        capsys, "derive", "--builtin", "g5", "--start", "x*y", "--n", "1"
    )
    assert code == 0
    assert out == "2*x*y + x*y^3 + x^3*y\n"


def test_derive_csv(capsys):
    code, out, _ = run_cli(
        capsys, "derive", "--builtin", "g1", "--n", "2", "--format", "csv"
    )
    assert code == 0
    assert out == "n,i,j,value\n2,1,0,1\n2,1,1,3\n2,1,2,1\n2,2,1,1\n"


def test_derive_csv_names_columns_for_other_letters(capsys):
    code, out, _ = run_cli(
        capsys,
        "derive", "--builtin", "g3", "--start", "w", "--n", "1", "--format", "csv",
    )
    assert code == 0
    assert out == "n,w,x,y,value\n1,1,0,0,1\n1,1,1,0,1\n"


def test_derive_json(capsys):
    code, out, _ = run_cli(
        capsys, "derive", "--builtin", "g1", "--n", "1", "--format", "json"
    )
    assert code == 0
    assert json.loads(out) == [
        {"coeff": "1", "exponents": {"x": 1}},
        {"coeff": "1", "exponents": {"x": 1, "y": 1}},
    ]


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_coefficient_past_the_digit_limit_is_a_usage_error(capsys, fmt):
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter prints integers of any length")
    # 2^(4*limit) has about 1.2*limit decimal digits.
    start = f"2^{4 * limit}"
    code, out, err = run_cli(
        capsys, "derive", "--builtin", "g1", "--n", "0", "--start", start, "--format", fmt
    )
    assert (code, out) == (2, "")
    assert err == (
        "error: a coefficient is too long to print; PYTHONINTMAXSTRDIGITS=0 lifts the limit\n"
    )


@pytest.fixture
def digit_limit():
    """The interpreter's int-to-str digit limit; the test is skipped when there is none."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter reads and prints integers of any length")
    return limit


TOO_LONG_TO_PRINT = (
    "error: a coefficient is too long to print; PYTHONINTMAXSTRDIGITS=0 lifts the limit\n"
)


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize("what", ["a coefficient", "an exponent"])
def test_number_past_the_digit_limit_in_a_later_piece_writes_nothing(
    capsys, tmp_path, digit_limit, what, fmt, to_file
):
    nines = "9" * digit_limit
    big = f"2^{4 * digit_limit}*x" if what == "a coefficient" else f"(x^{nines})^{nines}"
    start = f"y + {big}"
    # y prints first, in a piece of its own, so the too-long number is in the second.
    assert [mono[:1] for mono, _ in parse_polynomial(start).sorted_terms()] == [
        (("y", 1),),
        (("x", 1 if what == "a coefficient" else int(nines) ** 2),),
    ]
    path = tmp_path / "derive.out"
    argv = ["derive", "--builtin", "g1", "--n", "0", "--start", start, "--format", fmt]
    code, out, err = run_cli(capsys, *argv, *(["--out", str(path)] if to_file else []))
    assert (code, out) == (2, "")
    assert err == f"error: {what} is too long to print; PYTHONINTMAXSTRDIGITS=0 lifts the limit\n"
    assert not path.exists()


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verify_coefficient_past_the_digit_limit_is_a_usage_error(capsys, digit_limit, fmt):
    # The failing report shows a value with the rule's coefficient of limit + 2 digits.
    grammar = f"x -> 10^{digit_limit + 1}*x + x*y; y -> y + x*y"
    code, out, err = run_cli(
        capsys, "verify", "T1", "--nmax", "1", "--grammar", grammar, "--format", fmt
    )
    assert (code, out, err) == (2, "", TOO_LONG_TO_PRINT)


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_triangle_cell_past_the_digit_limit_is_a_usage_error(capsys, digit_limit, fmt):
    # Row 45 of whitney:10^d holds a cell of 44*d + 1 digits.
    order = "1" + "0" * (digit_limit // 44 + 1)
    code, out, err = run_cli(
        capsys, "triangle", f"whitney:{order}", "--nmax", "45", "--format", fmt
    )
    assert (code, out, err) == (2, "", TOO_LONG_TO_PRINT)


def test_cap_variable_past_the_digit_limit_is_a_usage_error(capsys, digit_limit, monkeypatch):
    monkeypatch.setenv("GRAMCALC_CAP_DERIVE", "9" * (digit_limit + 1))
    code, out, err = run_cli(capsys, "derive", "--builtin", "g1", "--n", "1")
    assert (code, out) == (2, "")
    assert err == (
        f"error: GRAMCALC_CAP_DERIVE: cap 'derive' of {digit_limit + 1} digits is too long"
        " to read; PYTHONINTMAXSTRDIGITS=0 lifts the limit\n"
    )


def test_cap_config_line_past_the_digit_limit_is_a_usage_error(capsys, digit_limit, tmp_path):
    path = tmp_path / "caps.cfg"
    path.write_text(f"# caps\nderive = {'9' * (digit_limit + 1)}\n", encoding="utf-8")
    code, out, err = run_cli(
        capsys, "--config", str(path), "derive", "--builtin", "g1", "--n", "1"
    )
    assert (code, out) == (2, "")
    assert err == (
        f"error: {path}:2: cap 'derive' of {digit_limit + 1} digits is too long"
        " to read; PYTHONINTMAXSTRDIGITS=0 lifts the limit\n"
    )


def test_whitney_order_past_the_digit_limit_is_a_usage_error(capsys, digit_limit):
    order = "9" * (digit_limit + 1)
    code, out, err = run_cli(capsys, "triangle", f"whitney:{order}", "--nmax", "1")
    assert (code, out) == (2, "")
    assert err == (
        f"error: whitney order of {digit_limit + 1} digits is too long to read;"
        " PYTHONINTMAXSTRDIGITS=0 lifts the limit\n"
    )


SIZE_FLAGS = [
    ("derive", "--builtin", "g1", "--n"),
    ("triangle", "stirling2", "--nmax"),
    ("cops", "--n"),
    ("stats", "--stat", "las", "--n"),
    ("verify", "T1", "--nmax"),
]


@pytest.mark.parametrize("value", ["\u0663", "1_0", "+3", "-1", "abc", "past the limit"])
@pytest.mark.parametrize("argv", SIZE_FLAGS, ids=lambda argv: f"{argv[0]} {argv[-1]}")
def test_size_flag_reads_only_ascii_digits(capsys, request, argv, value):
    flag = argv[-1]
    if value == "past the limit":
        limit = request.getfixturevalue("digit_limit")
        value = "9" * (limit + 1)
        message = (
            f"{flag} of {limit + 1} digits is too long to read;"
            " PYTHONINTMAXSTRDIGITS=0 lifts the limit"
        )
    else:
        message = f"{flag} needs a nonnegative integer, got {value!r}"
    code, out, err = run_cli(capsys, *argv, value)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_parser_has_one_subparser_per_handler():
    parser = cli.build_parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == list(cli._DISPATCH)
    for name, subparser in sub.choices.items():
        options = {flag: a for a in subparser._actions for flag in a.option_strings}
        assert "--out" in options, name
        formats = ("text", "json") if name in ("cops", "verify") else ("text", "csv", "json")
        assert tuple(options["--format"].choices) == formats, name


def test_derive_inline_grammar(capsys):
    code, out, _ = run_cli(
        capsys, "derive", "--grammar", "x -> x*y^2; y -> x^2*y", "--n", "1"
    )
    assert code == 0
    assert out == "x*y^2\n"


def test_derive_grammar_file(capsys, tmp_path):
    path = tmp_path / "rules.txt"
    path.write_text("x -> x + x*y;\ny -> y + x*y\n")
    code, out, _ = run_cli(capsys, "derive", "--grammar", str(path), "--n", "3")
    assert code == 0
    code2, builtin_out, _ = run_cli(capsys, "derive", "--builtin", "g1", "--n", "3")
    assert (code2, out) == (0, builtin_out)


def test_derive_grammar_file_with_byte_order_mark(capsys, tmp_path):
    path = tmp_path / "rules.txt"
    path.write_text("\ufeffx -> x + x*y;\ny -> y + x*y\n", encoding="utf-8")
    assert run_cli(capsys, "derive", "--grammar", str(path), "--n", "3") == run_cli(
        capsys, "derive", "--builtin", "g1", "--n", "3"
    )


def test_derive_missing_grammar_file(capsys):
    code, _, err = run_cli(capsys, "derive", "--grammar", "/no/such/file", "--n", "1")
    assert code == 2
    assert "grammar file not found" in err


def test_derive_source_flags_are_exclusive(capsys):
    code, _, err = run_cli(
        capsys, "derive", "--builtin", "g1", "--grammar", "x -> x", "--n", "1"
    )
    assert code == 2
    code, _, err = run_cli(capsys, "derive", "--n", "1")
    assert code == 2


def test_derive_unknown_start_letter(capsys):
    code, _, err = run_cli(
        capsys, "derive", "--builtin", "g1", "--start", "z", "--n", "1"
    )
    assert code == 2
    assert "unknown letter 'z'" in err
    code, out, err = run_cli(
        capsys, "derive", "--builtin", "g1", "--start", "q", "--n", "0"
    )
    assert code == 2
    assert out == ""
    assert "unknown letter 'q'" in err


def test_derive_checks_start_letters_after_a_large_power(capsys):
    code, _, err = run_cli(
        capsys, "derive", "--builtin", "g1", "--start", "(x+y+z+w)^40", "--n", "0"
    )
    assert code == 2
    assert "unknown letter 'w'" in err


def test_derive_bad_depth(capsys):
    code, _, err = run_cli(capsys, "derive", "--builtin", "g1", "--n", "-1")
    assert code == 2
    assert "nonnegative" in err
    code, _, err = run_cli(capsys, "derive", "--builtin", "g1", "--n", "101")
    assert code == 2
    assert "exceeds the configured cap" in err


def test_derive_deep_parentheses_exit_2(capsys):
    start = "(" * 300 + "x" + ")" * 300
    code, out, err = run_cli(capsys, "derive", "--grammar", "x -> x", "--start", start, "--n", "1")
    assert code == 2
    assert out == ""
    assert "line 1, column 101: parentheses nested deeper than 100" in err


def test_derive_parentheses_at_the_limit(capsys):
    start = "(" * 100 + "x" + ")" * 100
    code, out, _ = run_cli(capsys, "derive", "--grammar", "x -> x", "--start", start, "--n", "1")
    assert (code, out) == (0, "x\n")


def test_derive_non_ascii_digit_exit_2(capsys):
    code, out, err = run_cli(
        capsys, "derive", "--builtin", "g1", "--n", "1", "--start", "2\u00b2"
    )
    assert (code, out) == (2, "")
    assert "line 1, column 2: unexpected character '\u00b2'" in err


def test_triangle_text(capsys):
    code, out, _ = run_cli(capsys, "triangle", "stirling2", "--nmax", "3")
    assert code == 0
    assert out == "0: 1\n1: 0 1\n2: 0 1 1\n3: 0 1 3 1\n"


def test_triangle_text_empty_row(capsys):
    code, out, _ = run_cli(capsys, "triangle", "eulerian", "--nmax", "2")
    assert code == 0
    assert out == "0:\n1: 1\n2: 1 1\n"


def test_triangle_csv(capsys):
    code, out, _ = run_cli(
        capsys, "triangle", "matching", "--nmax", "2", "--format", "csv"
    )
    assert code == 0
    assert out == "n,k,value\n0,0,1\n1,0,0\n1,1,1\n2,0,0\n2,1,2\n2,2,1\n"


def test_triangle_json(capsys):
    code, out, _ = run_cli(
        capsys, "triangle", "whitney:2", "--nmax", "3", "--format", "json"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["name"] == "whitney:2"
    assert obj["rows"][3]["values"] == [1, 13, 9, 1]


def test_triangle_oracle_tables(capsys):
    code, out, _ = run_cli(capsys, "triangle", "left_peak", "--nmax", "3")
    assert code == 0
    assert out == "0: 1\n1: 1\n2: 1 1\n3: 1 5\n"
    code, out, _ = run_cli(capsys, "triangle", "las", "--nmax", "3")
    assert code == 0
    assert out == "0: 1\n1: 1\n2: 1 1\n3: 1 3 2\n"


def test_triangle_nmax_cap(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, "triangle", "stirling2", "--nmax", "200")
    assert code == 0
    assert out.splitlines()[-1].startswith("200: 0 1 ")

    # Above the cap, no table is built.
    def refuse(*args):
        raise AssertionError("built a table above the triangle cap")

    monkeypatch.setattr(triangles, "build_table", refuse)
    monkeypatch.setattr(triangles, "make_table", refuse)
    monkeypatch.setattr(oracles, "las_counts", refuse)
    for name in ("stirling2", "whitney:2", "las"):
        code, out, err = run_cli(capsys, "triangle", name, "--nmax", "201")
        assert (code, out) == (2, ""), name
        assert "triangle size 201 exceeds the configured cap 200" in err
        assert "GRAMCALC_CAP_TRIANGLE=201" in err


def test_triangle_unknown_name(capsys):
    code, _, err = run_cli(capsys, "triangle", "nope", "--nmax", "2")
    assert code == 2
    assert "oracle tables: left_peak, las" in err
    code, _, err = run_cli(capsys, "triangle", "whitney:0", "--nmax", "2")
    assert code == 2
    assert err == "error: whitney order must be at least 1, got 0\n"


def test_triangle_negative_nmax(capsys):
    code, _, err = run_cli(capsys, "triangle", "stirling2", "--nmax", "-1")
    assert code == 2


def test_cops_text(capsys):
    code, out, _ = run_cli(capsys, "cops", "--n", "3")
    assert code == 0
    assert out == "(1,2,3)\n(1)(2,3)\n(1,2)(3)\n(1,3)(2)\n(1)(2)(3)\n(1)(3)(2)\n"


def test_cops_text_matches_reference_lines(capsys):
    for n in range(1, 9):
        code, out, _ = run_cli(capsys, "cops", "--n", str(n))
        assert code == 0
        expected = "".join(reference_cop_line(cop) + "\n" for cop in reference_cops(n))
        assert out == expected, n


# Multi-digit entries, listed through the listing's ground-tuple helper,
# since [n] with n >= 10 is above the cop cap.  Blocks whose digits run
# together the same way, such as (1,2,3) and (1,23) or (1,2) and (12),
# must each keep their own text.
MULTI_DIGIT_GROUND = (1, 2, 3, 12, 23)


def multi_digit_reference(form):
    relabel = dict(enumerate(MULTI_DIGIT_GROUND, 1))
    cops = [tuple(tuple(map(relabel.get, b)) for b in cop) for cop in reference_cops(5)]
    return reference_listing(cops, form)


def test_cops_text_renders_multi_digit_blocks():
    out = "".join(oracles._cop_listing(MULTI_DIGIT_GROUND, oracles.COPS_TEXT))
    assert out == multi_digit_reference("text")
    lines = out.split("\n")
    assert "(1,23)(2,3)(12)" in lines and "(1,2,3)(12,23)" in lines and "(1,2)(3,12,23)" in lines


def cops_json_reference(n, cops):
    obj = {"n": n, "cops": [[list(b) for b in cop] for cop in cops]}
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def test_cops_json_matches_json_dumps(capsys):
    for n in range(1, 8):
        code, out, _ = run_cli(capsys, "cops", "--n", str(n), "--format", "json")
        assert code == 0
        assert out == cops_json_reference(n, reference_cops(n)), n
    out = "".join(oracles._cop_listing(MULTI_DIGIT_GROUND, oracles.COPS_JSON))
    assert out == multi_digit_reference("json")
    assert "        1,\n        23\n      ],\n      [\n        2,\n        3\n" in out


def test_cops_json(capsys):
    code, out, _ = run_cli(capsys, "cops", "--n", "2", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"cops": [[[1, 2]], [[1], [2]]], "n": 2}


def test_cops_rejects_csv(capsys):
    code, _, err = run_cli(capsys, "cops", "--n", "2", "--format", "csv")
    assert code == 2
    assert "argument --format: invalid choice: 'csv' (choose from 'text', 'json')" in err


def test_cops_rejects_csv_before_enumerating(capsys, monkeypatch):
    def refuse(n, caps):
        raise AssertionError("enumerated before the format was checked")

    monkeypatch.setattr(oracles, "enumerate_cops", refuse)
    code, out, err = run_cli(capsys, "cops", "--n", "8", "--format", "csv")
    assert code == 2
    assert out == ""
    assert "argument --format: invalid choice: 'csv' (choose from 'text', 'json')" in err


def test_cops_bad_n(capsys):
    code, _, err = run_cli(capsys, "cops", "--n", "0")
    assert code == 2
    code, _, err = run_cli(capsys, "cops", "--n", "9")
    assert code == 2
    assert "exceeds the configured cap" in err


def test_stats_text(capsys):
    code, out, _ = run_cli(capsys, "stats", "--n", "3", "--stat", "las")
    assert code == 0
    assert out == (
        "blocks=1 las=1: 1\nblocks=2 las=1: 3\nblocks=3 las=1: 1\nblocks=3 las=2: 1\n"
    )


def test_stats_csv(capsys):
    code, out, _ = run_cli(
        capsys, "stats", "--n", "3", "--stat", "las", "--format", "csv"
    )
    assert code == 0
    assert out == "blocks,value,count\n1,1,1\n2,1,3\n3,1,1\n3,2,1\n"


def test_stats_json(capsys):
    code, out, _ = run_cli(
        capsys, "stats", "--n", "3", "--stat", "descents", "--format", "json"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["n"] == 3
    assert obj["stat"] == "descents"
    assert {"blocks": 2, "value": 0, "count": 3} in obj["counts"]


def test_stats_unknown_stat(capsys):
    code, _, _ = run_cli(capsys, "stats", "--n", "3", "--stat", "peaks")
    assert code == 2


def test_stats_bad_n(capsys):
    code, out, err = run_cli(capsys, "stats", "--n", "0", "--stat", "las")
    assert code == 2
    assert out == ""
    assert "--n must be at least 1, got 0" in err


def test_verify_single_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "T1", "--nmax", "1")
    assert code == 0
    assert out.startswith("T1: pass (")


def test_verify_failure_exit_and_localization(capsys, tmp_path):
    path = tmp_path / "mutant.txt"
    path.write_text("x -> x + 2*x*y; y -> y + x*y\n")
    code, out, _ = run_cli(
        capsys, "verify", "T1", "--nmax", "2", "--grammar", str(path)
    )
    assert code == 1
    assert "T1: fail" in out
    assert (
        "first failure: transport_recurrence at (1, 1, 1): expected 1, got 2" in out
    )


def test_verify_all(capsys):
    code, out, _ = run_cli(capsys, "verify", "all", "--nmax", "2")
    assert code == 0
    summaries = [l for l in out.splitlines() if not l.startswith("  ")]
    assert [s.split(":")[0] for s in summaries] == [
        "T1", "T2", "T3", "T4", "T5", "T6", "golden",
    ]
    assert all(": pass (" in s for s in summaries)
    assert any(l.startswith("  note:") for l in out.splitlines())


def test_verify_json(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "golden", "--nmax", "2", "--format", "json"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["suite"] == "golden"
    assert obj["status"] == "pass"
    assert obj["checks_run"] == 12


def test_verify_grammar_override_limits(capsys):
    code, out, err = run_cli(capsys, "verify", "golden", "--grammar", "x -> x")
    assert (code, out) == (2, "")
    assert err == "error: the golden suite always uses the builtin grammars\n"
    # The override is parsed before golden refuses it.
    code, _, err = run_cli(capsys, "verify", "golden", "--grammar", "x ->")
    assert code == 2
    assert err.startswith("error: line 1, column 5: unexpected end of input")
    code, _, err = run_cli(capsys, "verify", "all", "--grammar", "x -> x")
    assert code == 2
    assert "T1..T6" in err


def test_verify_override_outside_the_index_pattern_is_a_usage_error(capsys):
    # The constant term of the w rule has no w, so the fixed w=1 of T3's map fails.
    grammar = "w -> 1 + w*x; x -> x + x*y; y -> y + x^2"
    code, out, err = run_cli(capsys, "verify", "T3", "--grammar", grammar, "--nmax", "1")
    assert (code, out) == (2, "")
    assert err.startswith("error: monomial 1 does not match pattern [w=1, x=i, y=j]")


def test_verify_rejects_csv(capsys):
    code, _, _ = run_cli(capsys, "verify", "T1", "--format", "csv")
    assert code == 2


def test_verify_nmax_over_cap(capsys):
    code, _, err = run_cli(capsys, "verify", "T1", "--nmax", "11")
    assert code == 2
    assert "exceeds the configured cap" in err


def test_byte_determinism(capsys):
    args = ("derive", "--builtin", "g4", "--n", "4", "--format", "json")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


@pytest.mark.parametrize(
    "argv",
    [
        ("derive", "--builtin", "g2", "--n", "3", "--format", "csv"),
        ("cops", "--n", "6"),
        ("cops", "--n", "6", "--format", "json"),
    ],
    ids=["derive-csv", "cops-text", "cops-json"],
)
def test_out_file_matches_stdout(capsys, tmp_path, argv):
    path = tmp_path / "result.out"
    code, out, _ = run_cli(capsys, *argv, "--out", str(path))
    assert code == 0
    assert out == ""
    code, expected, _ = run_cli(capsys, *argv)
    assert code == 0
    assert path.read_text(encoding="utf-8") == expected


def test_refused_listing_creates_no_out_file(capsys, tmp_path):
    path = tmp_path / "cops.txt"
    code, out, err = run_cli(capsys, "cops", "--n", "9", "--out", str(path))
    assert (code, out) == (2, "")
    assert "exceeds the configured cap" in err
    assert not path.exists()


class Sink:
    """A text stream that counts what is written to it and keeps none of it."""

    def __init__(self):
        self.size = self.writes = self.largest = 0

    def write(self, text):
        self.size += len(text)
        self.writes += 1
        self.largest = max(self.largest, len(text))

    def writelines(self, pieces):
        for piece in pieces:
            self.write(piece)

    def flush(self):
        pass


@pytest.mark.parametrize(
    "fmt, size", [("text", 2_153_797), ("json", 18_191_989)], ids=["text", "json"]
)
def test_cops_listing_peak_stays_below_its_own_size(monkeypatch, fmt, size):
    # The listing is written as it is made, one piece per first block, or
    # per first two blocks when the first is (1) alone, since half the cops
    # open with (1).  So no write holds more than a few percent of it, and
    # the process never holds half the text at once.
    sink = Sink()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        code = main(["cops", "--n", "8", "--format", fmt])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, sink.size) == (0, size)
    assert sink.largest <= 0.05 * size, sink.largest
    assert peak < size / 2, peak


def test_derive_text_peak_is_the_derivation(monkeypatch):
    # The level is written a run of terms at a time, so printing it adds
    # little to the peak of computing it, and no write holds much of it.
    tracemalloc.start()
    try:
        builtin_grammar("g6").derive_n(parse_polynomial("x"), 100)
        alone = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    sink = Sink()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        code = main(["derive", "--builtin", "g6", "--n", "100"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak <= 1.3 * alone, (peak, alone)
    assert sink.writes > 50
    assert sink.largest <= 0.05 * sink.size, (sink.largest, sink.size)


@pytest.mark.parametrize("name", builtin_names())
def test_derive_text_is_the_level_then_a_newline(capsys, name):
    grammar = builtin_grammar(name)
    for n in range(11):
        code, out, _ = run_cli(capsys, "derive", "--builtin", name, "--n", str(n))
        assert (code, out) == (0, str(grammar.derive_n(parse_polynomial("x"), n)) + "\n")


def test_environment_beats_config_file(capsys, tmp_path, monkeypatch):
    path = tmp_path / "caps.cfg"
    path.write_text("derive = 3\n")
    monkeypatch.setenv("GRAMCALC_CAP_DERIVE", "4")
    code, out, _ = run_cli(
        capsys, "--config", str(path), "derive", "--builtin", "g1", "--n", "4"
    )
    assert code == 0
    assert out.startswith("x + ")


def test_misspelt_cap_variable_is_a_usage_error(capsys, monkeypatch):
    # Ignoring it would run with the default permutations cap of 9 instead.
    monkeypatch.setenv("GRAMCALC_CAP_PERMUTATION", "12")
    code, out, err = run_cli(capsys, "triangle", "las", "--nmax", "10")
    assert (code, out) == (2, "")
    assert err == (
        "error: GRAMCALC_CAP_PERMUTATION: unknown cap 'permutation'; known caps: "
        "permutations, cops, signed, matchings, derive, verify, triangle\n"
    )
    monkeypatch.delenv("GRAMCALC_CAP_PERMUTATION")
    monkeypatch.setenv("GRAMCALC_CAP_PERMUTATIONS", "10")
    code, out, _ = run_cli(capsys, "triangle", "las", "--nmax", "10")
    assert code == 0 and out


def test_caps_reset_after_run(capsys, tmp_path):
    # A config file lowers a cap for the one run of each subcommand it is
    # given to; the same command run next, without it, has the defaults.
    path = tmp_path / "caps.cfg"
    for cap, value, command in [
        ("derive", 3, "derive --builtin g1 --n 4"),
        ("cops", 2, "cops --n 3"),
        ("cops", 2, "stats --n 3 --stat las"),
        ("permutations", 2, "triangle las --nmax 3"),
        ("permutations", 2, "triangle left_peak --nmax 3"),
        ("verify", 2, "verify all --nmax 3"),
        ("triangle", 2, "triangle stirling2 --nmax 3"),
    ]:
        path.write_text(f"{cap} = {value}\n")
        code, out, err = run_cli(capsys, "--config", str(path), *command.split())
        assert (code, out) == (2, ""), command
        assert f"exceeds the configured cap {value}" in err
        code, out, _ = run_cli(capsys, *command.split())
        assert code == 0 and out, command


def test_help_and_usage(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert main([]) == 2
    capsys.readouterr()
    assert main(["derive"]) == 2


def test_unexpected_exception_exits_3(capsys, monkeypatch):
    def broken(args, caps):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli._DISPATCH, "derive", broken)
    code, out, err = run_cli(capsys, "derive", "--builtin", "g1", "--n", "1")
    assert code == 3
    assert out == ""
    assert "internal error: RuntimeError: boom" in err


@pytest.mark.parametrize("module", ["gramcalc", "gramcalc.cli"])
def test_python_dash_m_entry_points(module):
    src = os.path.dirname(os.path.dirname(gramcalc.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-m", module, "verify", "golden"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "golden: pass (16 checks, 0 failures, nmax=3)\n"


@pytest.mark.parametrize("buffering", [[], ["-u"]], ids=["buffered", "unbuffered"])
def test_reader_closing_the_pipe_early_is_not_an_error(buffering):
    # The listing (2.15 MB) is far past a pipe's buffer, so the CLI is still
    # writing when the reader closes its end after the first line.
    src = os.path.dirname(os.path.dirname(gramcalc.__file__))
    argv = [sys.executable, *buffering, "-m", "gramcalc", "cops", "--n", "8"]
    with subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=src)
    ) as proc:
        assert proc.stdout.readline() == b"(1,2,3,4,5,6,7,8)\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 0, err
    assert err == b""
