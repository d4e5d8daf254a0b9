"""Size caps for brute-force enumeration, with file and environment overrides.

Caps keep exhaustive enumeration (permutations, cyclically ordered
partitions, signed permutations, perfect matchings), derivative depth and
triangle depth within desk-scale runtimes.  A ``Caps`` is a plain
immutable value with no process-wide instance: every function that checks
a cap takes one as its last argument, ``caps``, with ``Caps()`` as the
default.  The command line tool builds its value once per run with
``load_caps``, whose precedence is, lowest to highest: built-in defaults,
config file entries, environment variables.

A config file holds ``key = value`` lines; ``#`` starts a comment.
Environment variables use the ``GRAMCALC_CAP_`` prefix, for example
``GRAMCALC_CAP_PERMUTATIONS=10``.  An unknown cap is refused in either
place, so a misspelt name fails instead of leaving the default in force.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass

from .errors import BoundExceeded, GramcalcError
from .poly import _exact

ENV_PREFIX = "GRAMCALC_CAP_"


@dataclass(frozen=True)
class Caps:
    """Maximum sizes accepted by the brute-force and derivative layers.

    permutations: largest n for enumerating the symmetric group S_n.
    cops: largest n for enumerating cyclically ordered partitions of [n].
    signed: largest n for enumerating signed permutations of [n].
    matchings: largest n for enumerating perfect matchings of [2n].
    derive: largest derivative depth accepted by the CLI.
    verify: largest nmax accepted by the verification suites.
    triangle: largest nmax accepted by the triangle subcommand.

    Every field must be a nonnegative int; anything else, a bool included,
    raises ValueError.
    """

    permutations: int = 9
    cops: int = 8
    signed: int = 5
    matchings: int = 7
    derive: int = 100
    verify: int = 10
    triangle: int = 200

    def __post_init__(self):
        for key, value in vars(self).items():
            _exact(value, f"cap {key!r}", 0)

    def check(self, kind: str, n: int, least: int = 0) -> None:
        """ValueError for an n that is not an int or is below least; BoundExceeded above the cap."""
        cap = getattr(self, kind)
        if _exact(n, f"{kind} size", least) > cap:
            hint = (
                f"raise it with {ENV_PREFIX}{kind.upper()}={n} or a config file line "
                f"'{kind} = {n}'"
            )
            raise BoundExceeded(kind, n, cap, hint)


CAP_KEYS = tuple(f.name for f in dataclasses.fields(Caps))


def _unknown_cap(origin: str, key: str) -> GramcalcError:
    return GramcalcError(f"{origin}: unknown cap {key!r}; known caps: " + ", ".join(CAP_KEYS))


def _parse_value(key: str, raw: str, origin: str) -> int:
    """The cap written in raw, which must be ASCII digits once stripped."""
    text = raw.strip()
    if not (text.isascii() and text.isdigit()):
        raise GramcalcError(f"{origin}: cap {key!r} needs a nonnegative integer, got {text!r}")
    try:
        return int(text)
    except ValueError:  # longer than the interpreter's int-to-str limit
        raise GramcalcError(
            f"{origin}: cap {key!r} of {len(text)} digits is too long to read;"
            " PYTHONINTMAXSTRDIGITS=0 lifts the limit"
        ) from None


def load_caps(path: str | None = None, environ=None) -> Caps:
    """Build a Caps value from defaults, an optional file, and the environment."""
    values = dataclasses.asdict(Caps())
    if path is not None:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                text = line.split("#", 1)[0].strip()
                if not text:
                    continue
                if "=" not in text:
                    raise GramcalcError(
                        f"{path}:{lineno}: expected 'key = value', got {text!r}"
                    )
                key, raw = (part.strip() for part in text.split("=", 1))
                if key not in values:
                    raise _unknown_cap(f"{path}:{lineno}", key)
                values[key] = _parse_value(key, raw, f"{path}:{lineno}")
    env = os.environ if environ is None else environ
    for name, raw in env.items():
        if name.startswith(ENV_PREFIX):
            key = name[len(ENV_PREFIX) :].lower()
            if key not in values or name != ENV_PREFIX + key.upper():
                raise _unknown_cap(name, key)
            values[key] = _parse_value(key, raw, name)
    return Caps(**values)
