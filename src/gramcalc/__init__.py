"""Exact formal-derivative calculus on polynomial substitution rules,
with combinatorial count triangles, brute-force enumeration oracles, and
identity verification suites tying them together.
"""

from .config import Caps, load_caps
from .dsl import builtin_grammar, builtin_names, parse_grammar, parse_polynomial
from .errors import (
    BoundExceeded,
    DuplicateRule,
    EmptyList,
    GramcalcError,
    InternalMismatch,
    ParseError,
    PatternViolation,
    UnknownLetter,
    UnknownTriangle,
)
from .grammar import Grammar, IndexMap, extract_coeffs
from .poly import Polynomial
from .triangles import (
    TriangleTable,
    binomial,
    build_table,
    eulerian,
    factorial,
    make_table,
    matching_count,
    stirling2,
    triangle_names,
    type_b_eulerian,
    whitney,
)
from .verifier import CheckReport, Failure, run_all, run_suite

__version__ = "0.1.0"

__all__ = [
    "BoundExceeded",
    "Caps",
    "CheckReport",
    "DuplicateRule",
    "EmptyList",
    "Failure",
    "Grammar",
    "GramcalcError",
    "IndexMap",
    "InternalMismatch",
    "ParseError",
    "PatternViolation",
    "Polynomial",
    "TriangleTable",
    "UnknownLetter",
    "UnknownTriangle",
    "binomial",
    "build_table",
    "builtin_grammar",
    "builtin_names",
    "eulerian",
    "extract_coeffs",
    "factorial",
    "load_caps",
    "make_table",
    "matching_count",
    "parse_grammar",
    "parse_polynomial",
    "run_all",
    "run_suite",
    "stirling2",
    "triangle_names",
    "type_b_eulerian",
    "whitney",
    "__version__",
]
