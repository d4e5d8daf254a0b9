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

import os
from typing import NamedTuple

from .errors import BoundExceeded, GramcalcError, _exact, _read_int

ENV_PREFIX = "GRAMCALC_CAP_"


class _CapFields(NamedTuple):
    permutations: int = 9
    cops: int = 8
    signed: int = 5
    matchings: int = 7
    derive: int = 100
    verify: int = 10
    triangle: int = 200


class Caps(_CapFields):
    """Maximum sizes accepted by the brute-force and derivative layers.

    Each cap names the calls that check it:

    permutations: largest n of S_n for ``enumerate_permutations`` and for
        the subset-walk tallies ``left_peak_counts`` and ``las_counts``,
        which enumerate nothing.
    cops: largest n of [n] for the ``enumerate_cops`` listing, whose text
        grows as the number of cops (1,091,670 lines for [9]) but comes
        out in pieces of at most about 2% of it, and the ``cop_stat_table``
        census of cyclically ordered partitions, which lists none of them.
    signed: largest n for ``enumerate_signed``, signed permutations of [n].
    matchings: largest n for ``enumerate_matchings``, perfect matchings of [2n].
    derive: largest depth of the CLI's ``derive`` subcommand.
    verify: largest nmax of the verification suites (``run_suite``,
        ``run_all`` and the suite functions).
    triangle: largest nmax of the CLI's ``triangle`` subcommand.

    Every field must be a nonnegative int; anything else, a bool included,
    raises ValueError.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for key, value in zip(self._fields, self):
            _exact(value, f"cap {key!r}", 0)
        return self

    @classmethod
    def _make(cls, values):  # so _replace validates too
        return cls(*values)

    def check(self, kind: str, n: int, least: int = 0) -> None:
        """ValueError for an n that is not an int or is below least; BoundExceeded above the cap."""
        cap = getattr(self, kind)
        if _exact(n, f"{kind} size", least) > cap:
            hint = (
                f"raise it with {ENV_PREFIX}{kind.upper()}={n} or a config file line "
                f"'{kind} = {n}'"
            )
            raise BoundExceeded(kind, n, cap, hint)


CAP_KEYS = Caps._fields


def _unknown_cap(origin: str, key: str) -> GramcalcError:
    return GramcalcError(f"{origin}: unknown cap {key!r}; known caps: " + ", ".join(CAP_KEYS))


def _parse_value(key: str, raw: str, origin: str) -> int:
    """The cap written in raw, which must be ASCII digits once stripped."""
    try:
        return _read_int(raw.strip(), f"cap {key!r}")
    except ValueError as exc:
        raise GramcalcError(f"{origin}: {exc}") from None


def load_caps(path: str | None = None, environ=None) -> Caps:
    """Build a Caps value from defaults, an optional file, and the environment."""
    values = Caps()._asdict()
    if path is not None:
        with open(path, encoding="utf-8-sig") as fh:
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
