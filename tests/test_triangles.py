"""Integer triangles: frozen rows, row sums, symmetries, table builder."""

import math

import pytest

from gramcalc import triangles
from gramcalc.errors import UnknownTriangle
from gramcalc.triangles import (
    TriangleTable,
    binomial,
    build_table,
    eulerian,
    make_table,
    matching_count,
    stirling2,
    triangle_names,
    type_b_eulerian,
    whitney,
)

from reference import reference_whitney


def row(name, n):
    return build_table(name, n).row(n)


def test_frozen_rows():
    assert row("stirling2", 4) == [0, 1, 7, 6, 1]
    assert row("eulerian", 4) == [1, 11, 11, 1]
    assert row("type_b_eulerian", 2) == [1, 6, 1]
    assert row("type_b_eulerian", 3) == [1, 23, 23, 1]
    assert row("matching", 2) == [0, 2, 1]
    assert row("matching", 3) == [0, 4, 10, 1]
    assert [whitney(2, 3, k) for k in range(4)] == [1, 13, 9, 1]
    assert [whitney(2, 4, k) for k in range(5)] == [1, 40, 58, 16, 1]


def test_row_sums():
    bell = [1, 1, 2, 5, 15, 52, 203, 877, 4140]
    for n, b in enumerate(bell):
        assert sum(row("stirling2", n)) == b
    for n in range(1, 9):
        assert sum(row("eulerian", n)) == math.factorial(n)
        assert sum(row("type_b_eulerian", n)) == 2**n * math.factorial(n)
        # matchings of [2n] split by their odd-opener count
        assert sum(row("matching", n)) == math.factorial(2 * n) // (
            2**n * math.factorial(n)
        )


def test_out_of_support_is_zero():
    assert stirling2(3, 4) == 0
    assert stirling2(-1, 0) == 0
    assert eulerian(0, 1) == 0
    assert eulerian(3, 0) == 0
    assert type_b_eulerian(2, 3) == 0
    assert matching_count(5, -1) == 0
    assert whitney(2, 1, 5) == 0


def test_binomial_edges():
    assert binomial(5, 0) == 1
    assert binomial(5, 6) == 0
    assert binomial(-1, 0) == 0
    assert binomial(6, 3) == 20


def test_symmetries():
    for n in range(1, 9):
        for k in range(1, n + 1):
            assert eulerian(n, k) == eulerian(n, n + 1 - k)
    for n in range(9):
        for k in range(n + 1):
            assert type_b_eulerian(n, k) == type_b_eulerian(n, n - k)


def test_stirling_inclusion_exclusion():
    for n in range(13):
        for k in range(n + 1):
            direct = sum(
                (-1) ** j * math.comb(k, j) * (k - j) ** n for j in range(k + 1)
            ) // math.factorial(k)
            assert stirling2(n, k) == direct


def test_whitney_order_one_is_shifted_stirling():
    for n in range(9):
        for k in range(n + 1):
            assert whitney(1, n, k) == stirling2(n + 1, k + 1)


def test_whitney_column_zero_is_one():
    for m in (1, 2, 3):
        for n in range(7):
            assert whitney(m, n, 0) == 1


def test_whitney_rejects_bad_order():
    with pytest.raises(ValueError):
        whitney(0, 3, 1)
    with pytest.raises(ValueError):
        whitney(-2, 3, 1)


def test_build_table_shapes():
    assert build_table("stirling2", 0).rows() == [[1]]
    t = build_table("eulerian", 3)
    assert t.rows() == [[], [1], [1, 1], [1, 4, 1]]
    assert t.row(0) == []
    assert [row["k_start"] for row in t.to_json_obj()["rows"]] == [0, 1, 1, 1]
    assert [(n, k) for n, k, _ in t.iter_cells()][:2] == [(1, 1), (2, 1)]
    assert t.entry(3, 2) == 4
    assert t.entry(0, 0) == 0


def test_build_table_keeps_in_support_zeros():
    t = build_table("matching", 2)
    assert t.rows() == [[1], [0, 1], [0, 2, 1]]
    assert list(t.iter_cells()) == [
        (0, 0, 1),
        (1, 0, 0),
        (1, 1, 1),
        (2, 0, 0),
        (2, 1, 2),
        (2, 2, 1),
    ]


def test_build_table_whitney_name():
    t = build_table("whitney:2", 3)
    assert t.row(3) == [1, 13, 9, 1]
    assert t.name == "whitney:2"


def test_deep_rows_build_without_recursion():
    # The rows are built in a loop, so depth is bounded by memory alone.
    assert stirling2(400, 2) == 2**399 - 1


@pytest.mark.parametrize(
    "call",
    [
        lambda: stirling2(2.5, 1),
        lambda: eulerian(3, 1.5),
        lambda: eulerian(2.5, 0),
        lambda: type_b_eulerian(True, 0),
        lambda: triangles._STIRLING.row(-1),
        lambda: triangles._MATCHING.row(2.0),
        lambda: whitney(2, 2.5, 1),
        lambda: whitney(2.5, 2, 1),
        lambda: build_table("stirling2", 2.5),
        lambda: build_table("eulerian", True),
        lambda: make_table("t", 2.5, lambda n: (0, [1])),
        lambda: make_table("t", -1, lambda n: (0, [1])),
        lambda: make_table("t", True, lambda n: (0, [1])),
        lambda: binomial(True, 1),
        lambda: binomial(2.5, 1),
        lambda: binomial(3, 1.0),
        lambda: triangles.factorial(True),
        lambda: triangles.factorial(2.5),
        lambda: triangles.factorial(-1),
    ],
    ids=[
        "stirling2-float",
        "eulerian-float-k",
        "eulerian-float-n-outside",
        "type_b_eulerian-bool",
        "stirling_row-neg",
        "matching_row-float",
        "whitney-float-n",
        "whitney-float-m",
        "build_table-float",
        "build_table-bool",
        "make_table-float",
        "make_table-neg",
        "make_table-bool",
        "binomial-bool",
        "binomial-float-n",
        "binomial-float-k",
        "factorial-bool",
        "factorial-float",
        "factorial-neg",
    ],
)
def test_bad_sizes_raise_value_error(call):
    with pytest.raises(ValueError, match="must be (an int|nonnegative|a positive)"):
        call()


def test_build_table_errors():
    with pytest.raises(ValueError):
        build_table("stirling2", -1)
    for bad in ("nope", "whitney:0", "whitney:x", "whitney:", "whitney:²", "whitney:٣"):
        with pytest.raises(UnknownTriangle):
            build_table(bad, 3)
    with pytest.raises(UnknownTriangle) as info:
        build_table("nope", 3)
    for name in triangle_names():
        assert name in str(info.value)


def test_make_table_rows():
    t = make_table("t", 3, lambda n: (n % 2, [n] * (n % 3)))
    assert t == TriangleTable("t", ((0, ()), (1, (1,)), (0, (2, 2)), (0, ())))
    assert t.max_n == 3
    assert t.rows() == [[], [1], [2, 2], []]
    assert list(t.iter_cells()) == [(1, 1, 1), (2, 0, 2), (2, 1, 2)]
    assert [t.entry(2, k) for k in range(-1, 3)] == [0, 2, 2, 0]
    assert t.entry(-1, 0) == t.entry(4, 0) == 0
    assert t.row(-1) == t.row(4) == []


def test_whitney_matches_the_binomial_stirling_sum():
    # k runs two past each end of the row, where both sides read 0.
    for m in range(1, 6):
        for n in range(61):
            for k in range(-2, n + 3):
                assert whitney(m, n, k) == reference_whitney(m, n, k), (m, n, k)
