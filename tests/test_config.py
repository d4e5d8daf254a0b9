"""Cap loading: defaults, config files, environment, precedence."""

import inspect
import pathlib
import re

import pytest

from gramcalc import config
from gramcalc.errors import BoundExceeded, GramcalcError
from gramcalc.oracles import enumerate_cops


def test_defaults():
    caps = config.Caps()
    assert caps.permutations == 9
    assert caps.cops == 8
    assert caps.signed == 5
    assert caps.matchings == 7
    assert caps.derive == 100
    assert caps.verify == 10
    assert caps.triangle == 200


def test_check_passes_at_cap_and_fails_above():
    config.Caps().check("permutations", 9)
    with pytest.raises(BoundExceeded) as info:
        config.Caps().check("permutations", 10)
    assert info.value.cap == 9
    assert "GRAMCALC_CAP_PERMUTATIONS=10" in str(info.value)
    for n in (2.5, True):
        with pytest.raises(ValueError, match="cops size must be an int"):
            config.Caps().check("cops", n)


def test_load_caps_from_file(tmp_path):
    path = tmp_path / "caps.cfg"
    path.write_text("# comment\npermutations = 11\n\nderive=7 # inline\n")
    caps = config.load_caps(str(path), environ={})
    assert caps.permutations == 11
    assert caps.derive == 7
    assert caps.cops == 8


def test_load_caps_from_file_with_byte_order_mark(tmp_path):
    path = tmp_path / "caps.cfg"
    path.write_text("\ufeffcops = 9\n", encoding="utf-8")
    assert config.load_caps(str(path), environ={}).cops == 9


def test_environment_beats_file(tmp_path):
    path = tmp_path / "caps.cfg"
    path.write_text("permutations = 11\n")
    caps = config.load_caps(
        str(path), environ={"GRAMCALC_CAP_PERMUTATIONS": "4"}
    )
    assert caps.permutations == 4


def test_load_caps_rejects_bad_input(tmp_path):
    bad_lines = ["what is this", "nope = 3", "derive = x", "derive = -1"]
    # Only ASCII digits: no other script's digits, no underscores, no sign.
    bad_values = ["\u0663", "1_0", "+5"]
    for line in bad_lines + [f"derive = {value}" for value in bad_values]:
        path = tmp_path / "caps.cfg"
        path.write_text(line + "\n", encoding="utf-8")
        with pytest.raises(GramcalcError):
            config.load_caps(str(path), environ={})
    for value in ["ten"] + bad_values:
        with pytest.raises(GramcalcError, match="needs a nonnegative integer"):
            config.load_caps(None, environ={"GRAMCALC_CAP_DERIVE": value})


def test_set_and_reset():
    # A lowered cap, 0 included, holds for the call it is passed to and no later call.
    with pytest.raises(BoundExceeded):
        enumerate_cops(4, config.Caps(cops=0))
    assert len("".join(enumerate_cops(4)).split("\n")) == 26


@pytest.mark.parametrize("value", ["9", 2.5, True, -1, None])
def test_caps_reject_fields_that_are_not_nonnegative_ints(value):
    for key in config.CAP_KEYS:
        with pytest.raises(ValueError, match=f"cap '{key}' must be"):
            config.Caps(**{key: value})
        with pytest.raises(ValueError, match=f"cap '{key}' must be"):
            config.Caps()._replace(**{key: value})


def test_every_cap_is_documented():
    # README's "Defaults: ..." sentence lists each cap with its default,
    # and the Caps docstring names each one, so a new cap can't leave
    # either stale.
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    sentence = re.search(r"Defaults: ([^.]*)\.", " ".join(readme.split())).group(1)
    documented = {}
    for item in sentence.split(", "):
        name, value = item.split()
        documented[name] = int(value)
    assert documented == config.Caps()._asdict()
    doc = inspect.getdoc(config.Caps)
    for key in config.CAP_KEYS:
        assert re.search(rf"^{key}: ", doc, re.MULTILINE), key


def test_misspelt_environment_cap_is_refused():
    known = "known caps: " + ", ".join(config.CAP_KEYS)
    for name, key in [
        ("GRAMCALC_CAP_PERMUTATION", "permutation"),
        ("GRAMCALC_CAP_permutations", "permutations"),
        ("GRAMCALC_CAP_", ""),
    ]:
        with pytest.raises(GramcalcError) as info:
            config.load_caps(None, environ={name: "12", "GRAMCALC_CAP_COPS": "9"})
        assert str(info.value) == f"{name}: unknown cap {key!r}; {known}"
    caps = config.load_caps(None, environ={"GRAMCALC_CAP_PERMUTATIONS": "12", "GRAMCALC_X": "1"})
    assert caps.permutations == 12
