"""Exact formal-derivative calculus on polynomial substitution rules,
with combinatorial count triangles, brute-force enumeration oracles, and
identity verification suites tying them together.

The exports below are loaded on first use (PEP 562), so importing one
module, such as ``gramcalc.cli``, loads only what that module imports.
"""

import importlib

# Home module of each export.
_EXPORTS = {
    "config": ("Caps", "load_caps"),
    "dsl": ("builtin_grammar", "builtin_names", "parse_grammar", "parse_polynomial"),
    "errors": (
        "BoundExceeded",
        "DuplicateRule",
        "GramcalcError",
        "ParseError",
        "PatternViolation",
        "UnknownLetter",
        "UnknownTriangle",
    ),
    "grammar": ("Grammar",),
    "indexmap": ("IndexMap", "extract_coeffs"),
    "poly": ("Polynomial",),
    "triangles": (
        "TriangleTable",
        "binomial",
        "build_table",
        "eulerian",
        "factorial",
        "make_table",
        "matching_count",
        "stirling2",
        "triangle_names",
        "type_b_eulerian",
        "whitney",
    ),
    "verifier": ("CheckReport", "Failure", "run_all", "run_suite"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)


def __dir__():
    return sorted([*globals(), *_HOME])
