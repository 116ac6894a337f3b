"""The config grammar's key table: it covers every field a file sets, the
README lists it, and each malformed value has its exact message, per key
kind and entry point (a file line, an oracle flag, a sweep value)."""
import re
from pathlib import Path

import pytest

from sswm.errors import ConfigError
from sswm.oracle import OracleConfig
from sswm.params import SystemParams
from sswm.scenarios import _KEYS, Scenario, load_scenario, parse_config, parse_sweep_values


def test_every_field_has_one_key():
    # the outputs.* keys set the Scenario fields of the same name
    assert {"tmin_ns", "tmax_ns"} <= set(Scenario.__dataclass_fields__)
    fields = ([f"params.{f}" for f in SystemParams.__dataclass_fields__]
              + [f"oracle.{f}" for f in OracleConfig.__dataclass_fields__]
              + ["outputs.tmin_ns", "outputs.tmax_ns"])
    assert sorted(_KEYS) == sorted(fields)
    assert {kind.rstrip("?") for kind in _KEYS.values()} <= {"freq", "cfreq", "num", "int",
                                                            "bool"}


def test_readme_key_table_matches():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `([\w.]+)` \| (\w+) \| (yes|no) \|$", readme, re.MULTILINE)
    assert {key: kind + ("?" if auto == "yes" else "") for key, kind, auto in rows} == _KEYS
    assert len(rows) == len(_KEYS)


#: The required lines, to which each case adds (or for which it swaps) one line.
_BASE = {"name": "pin", "params.omega_c1": "8gamma31", "params.omega_c2": "8gamma31",
         "params.optical_depth": "37", "params.length_L": "0.0015"}

_CANNOT = "cannot parse value for {!r}: {!r}"
_NO_UNITS = "key {!r} does not take gamma31 units"

#: (key, value, message after 'pin.cfg: line 1: '), grouped by the key's kind.
LINE_ERRORS = [
    # freq: <x>gamma31 or SI rad/s, real only, no auto
    ("params.gamma41", "auto", _CANNOT.format("params.gamma41", "auto")),
    ("params.gamma41", "x", _CANNOT.format("params.gamma41", "x")),
    ("params.delta_p", "(1+2j)gamma31", _CANNOT.format("params.delta_p", "(1+2j)gamma31")),
    ("params.gamma21", "1 2gamma31", _CANNOT.format("params.gamma21", "1 2gamma31")),
    # cfreq: complex allowed, no auto
    ("params.omega_c1", "auto", _CANNOT.format("params.omega_c1", "auto")),
    ("params.omega_c2", "1+2jjgamma31", _CANNOT.format("params.omega_c2", "1+2jjgamma31")),
    ("params.omega_c1", "gamma31", _CANNOT.format("params.omega_c1", "gamma31")),
    # freq that takes auto
    ("oracle.extent", "autogamma31", _CANNOT.format("oracle.extent", "autogamma31")),
    ("oracle.extent", "(1+2j)gamma31", _CANNOT.format("oracle.extent", "(1+2j)gamma31")),
    ("oracle.extent", "none", _CANNOT.format("oracle.extent", "none")),
    # num: no gamma31 units, no auto
    ("params.optical_depth", "37gamma31", _NO_UNITS.format("params.optical_depth")),
    ("params.optical_depth", "1+2j", _CANNOT.format("params.optical_depth", "1+2j")),
    ("params.length_L", "auto", _CANNOT.format("params.length_L", "auto")),
    ("params.gamma31_si", "1gamma31", _NO_UNITS.format("params.gamma31_si")),
    ("params.gamma31_si", "auto", _CANNOT.format("params.gamma31_si", "auto")),
    ("oracle.tukey_alpha", "0.1gamma31", _NO_UNITS.format("oracle.tukey_alpha")),
    ("oracle.tukey_alpha", "auto", _CANNOT.format("oracle.tukey_alpha", "auto")),
    ("outputs.tmin_ns", "auto", _CANNOT.format("outputs.tmin_ns", "auto")),
    ("outputs.tmax_ns", "5gamma31", _NO_UNITS.format("outputs.tmax_ns")),
    # num that takes auto
    ("params.omega21", "2gamma31", _NO_UNITS.format("params.omega21")),
    ("params.omega21", "x", _CANNOT.format("params.omega21", "x")),
    # int
    ("oracle.n_points", "abc", "'oracle.n_points' must be an integer, got 'abc'"),
    ("oracle.n_points", "2048gamma31", "'oracle.n_points' must be an integer, got '2048gamma31'"),
    ("oracle.n_points", "auto", "'oracle.n_points' must be an integer, got 'auto'"),
    ("oracle.n_points", "2048.0", "'oracle.n_points' must be an integer, got '2048.0'"),
    # bool
    ("oracle.force_phi_unity", "yes", "'oracle.force_phi_unity' must be true/false"),
    ("oracle.ideal_rect", "auto", "'oracle.ideal_rect' must be true/false"),
    ("oracle.ideal_rect", "1", "'oracle.ideal_rect' must be true/false"),
    # retired params, read as frequencies
    ("params.gamma42", "x", _CANNOT.format("params.gamma42", "x")),
    ("params.omega_p", "autogamma31", _CANNOT.format("params.omega_p", "autogamma31")),
    ("params.delta_c2", "auto", _CANNOT.format("params.delta_c2", "auto")),
    # keys outside the table
    ("params.bogus", "1", "unknown parameter 'params.bogus'"),
    ("oracle.bogus", "1", "unknown oracle key 'oracle.bogus'"),
    ("outputs.bogus", "1", "unknown key 'outputs.bogus'"),
    ("params", "1", "unknown key 'params'"),
    # the per-line OracleConfig check
    ("oracle.n_points", "1000", "n_points must be a power of two >= 256"),
    # a line with no '=' (value None: the line is the key alone)
    ("params.gamma41 1gamma31", None, "expected 'key = value'"),
]


@pytest.mark.parametrize("key,value,message", LINE_ERRORS,
                         ids=[f"{k}={v}" for k, v, _ in LINE_ERRORS])
def test_line_error_messages(key, value, message):
    lines = [key if value is None else f"{key} = {value}"]
    lines += [f"{k} = {v}" for k, v in _BASE.items() if k != key]
    with pytest.raises(ConfigError) as err:
        parse_config("\n".join(lines) + "\n", "pin.cfg")
    assert str(err.value) == "pin.cfg: line 1: " + message


FLAG_ERRORS = [
    ("oracle.n_points", "abc", "--grid-n",
     "--grid-n: 'oracle.n_points' must be an integer, got 'abc'"),
    ("oracle.extent", "foo", "--extent", "--extent: " + _CANNOT.format("oracle.extent", "foo")),
    ("oracle.extent", "1+2j", "--extent", "--extent: " + _CANNOT.format("oracle.extent", "1+2j")),
]


@pytest.mark.parametrize("key,value,flag,message", FLAG_ERRORS,
                         ids=[f"{f}={v}" for _, v, f, _ in FLAG_ERRORS])
def test_flag_error_messages(key, value, flag, message):
    text = "\n".join(f"{k} = {v}" for k, v in _BASE.items()) + "\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text, "pin.cfg", {key: (value, flag)})
    assert str(err.value) == message


VALUES_ERRORS = [
    ("omega_c1", "xgamma31", _CANNOT.format("--values", "xgamma31")),
    ("omega_c1", "(1+2j)gamma31", _CANNOT.format("--values", "(1+2j)gamma31")),
    ("delta_p", "autogamma31", _CANNOT.format("--values", "autogamma31")),
    ("optical_depth", "37gamma31", _NO_UNITS.format("--values")),
    ("optical_depth", "auto", _CANNOT.format("--values", "auto")),
    ("omega_c2", "4", "--values: '4' for omega_c2 has no unit: it could mean SI rad/s, as in "
                      "a config file, or gamma31 units; write '4gamma31' for gamma31 units"),
    ("optical_depth", " , ", "--values: no sweep value in ' , '"),
]


@pytest.mark.parametrize("param,text,message", VALUES_ERRORS,
                         ids=[f"{p}={t}" for p, t, _ in VALUES_ERRORS])
def test_sweep_value_error_messages(param, text, message):
    with pytest.raises(ConfigError) as err:
        parse_sweep_values(text, param, load_scenario("fig3b"))
    assert str(err.value) == message
