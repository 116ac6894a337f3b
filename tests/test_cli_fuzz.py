"""The CLI's error contract over fuzzed scenario files, oracle flags, sweep
values and acceptance criteria: every run exits 0, 2 or 3 and never raises,
and an exit of 2 or 3 prints one `config error:` or `compute error:` line to
stderr.  A flag's value is drawn both as `--flag=value` and as the next word,
where argparse reads a word that starts with '-' as a flag.  A scenario file
may hold bytes that are not UTF-8 or a name too long for the files it
starts, and `--out` may be empty (always exit 2) or name a path too long
to look up.  Half of the simulate draws are unedited presets with valid
flags, so that the contract is also checked on runs that get past parsing.
A sweep writes no NaN into a trace file."""
import io
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from sswm.cli import main
from sswm.scenarios import SWEEPABLE, builtin_scenario_names, load_scenario, serialize_config

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning", "ignore::RuntimeWarning")

#: Every preset as its canonical lines, and every key any of them uses.
PRESET_LINES = {name: serialize_config(load_scenario(name)).splitlines()
                for name in builtin_scenario_names()}
KEYS = sorted({ln.partition(" =")[0] for lines in PRESET_LINES.values() for ln in lines}
              | {"params.gamma31", "params.omega31", "params.dipole_scale", "params.delta_c2",
                 "outputs.tmin_ns", "outputs.tmax_ns", "oracle.bogus", "bogus"})

_TOKENS = st.sampled_from(["", "auto", "true", "false", "nan", "inf", "-inf", "0", "-1",
                           "1e308", "1e-308", "gamma31", "(1+2j)gamma31", "report",
                           "chi5_grid", "trace_tau13_numeric", "a/b"])
_NUMBER = st.builds(lambda x, unit: f"{x!r}{unit}", st.floats(-1e3, 1e3) | st.floats(),
                    st.sampled_from(["", "gamma31"]))
_TEXT = st.text("0123456789.-+ejJ()gamma31, _/", max_size=12)
VALUES = _TOKENS | _NUMBER | _TEXT

#: A scenario name: mostly the preset's, else up to 300 characters, so that
#: the file names it starts may be longer than a file system allows.
_NAME = st.sampled_from([None] * 3) | st.text("n_.-0", min_size=1, max_size=300)


@st.composite
def mutated_preset(draw) -> str:
    """A preset's lines with up to three edits, each dropping or doubling a
    line or giving it another key or (most often) another value, and maybe
    one extra line; its name line (the first) may hold a drawn name."""
    lines = list(PRESET_LINES[draw(st.sampled_from(sorted(PRESET_LINES)))])
    name = draw(_NAME)
    if name is not None:
        lines[0] = f"name = {name}"
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        key, _, value = lines[i].partition(" = ")
        how = draw(st.sampled_from(["drop", "double", "key"] + ["value"] * 5))
        if how == "drop":
            del lines[i]
        elif how == "double":
            lines.insert(i, lines[i])
        elif how == "key":
            lines[i] = f"{draw(st.sampled_from(KEYS) | _TEXT)} = {value}"
        else:
            lines[i] = f"{key} = {draw(VALUES)}"
    extra = draw(st.lists(st.tuples(st.sampled_from(KEYS) | _TEXT, VALUES), max_size=1))
    return "\n".join(lines + [f"{k} = {v}" for k, v in extra]) + "\n"


def _flag_value(flag: str, values) -> st.SearchStrategy[list[str]]:
    """`flag` and a drawn value, as `flag=value` or as two words."""
    return st.builds(lambda value, joined: [f"{flag}={value}"] if joined else [flag, value],
                     values, st.booleans())


EXTENT_VALUES = (VALUES | st.sampled_from(["32gamma31", "auto"])
                 | st.builds("-{}".format, VALUES))

ORACLE_FLAGS = st.lists(
    st.sampled_from([["--ideal-rect"], ["--force-phi-unity"]])
    | _flag_value("--extent", EXTENT_VALUES),
    max_size=3).map(lambda flags: [word for flag in flags for word in flag])


def _run(argv: list[str]) -> tuple[int, str]:
    """main(argv) in-process: its exit code and stderr, checked against the
    contract."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 2, 3)
    if rc:
        assert err.getvalue().startswith(("config error: ", "compute error: "))
    return rc, err.getvalue()


#: Bytes spliced into a scenario file: mostly none, else up to two of any value.
_JUNK = st.sampled_from([b""] * 3) | st.binary(min_size=1, max_size=2)

#: `--out` under the temporary directory: mostly a plain name, else one whose
#: last or only component is longer than a file name may be; or empty.
_OUT = st.sampled_from(["out"] * 4 + ["a" * 300, "out/" + "b" * 256, ""])


#: Oracle flags that every preset accepts.
VALID_FLAGS = st.sampled_from([[], ["--ideal-rect"], ["--force-phi-unity"],
                               ["--extent=32gamma31"]])

#: A scenario file's text, its oracle flags and the bytes spliced into it:
#: half the draws an unedited preset with valid flags, which runs the
#: oracle, the other half a mutated preset, fuzzed flags and maybe junk.
SIMULATE_INPUTS = (
    st.tuples(st.sampled_from(sorted(PRESET_LINES)).map(
        lambda name: "\n".join(PRESET_LINES[name]) + "\n"), VALID_FLAGS, st.just(b""))
    | st.tuples(mutated_preset(), ORACLE_FLAGS, _JUNK))


@given(SIMULATE_INPUTS, st.sampled_from(["csv", "json"]), st.floats(0.0, 1.0), _OUT)
@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_fuzzed_config_and_flags_keep_the_exit_contract(inputs, fmt, at, out):
    text, flags, junk = inputs
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "fuzzed.cfg"
        data = text.encode()
        cut = int(at * len(data))
        cfg.write_bytes(data[:cut] + junk + data[cut:])
        rc, _ = _run(["simulate", "--scenario", str(cfg), "--grid-n", "256", "--format", fmt,
                      "--out", out and str(Path(tmp) / out), *flags])
    event(f"exit {rc}")
    assert out or rc == 2


#: One `--values` piece: a number or word, with or without the gamma31 suffix.
_SWEEP_PIECE = st.builds(
    "{}{}".format,
    st.sampled_from(["", " ", "nan", "inf", "-inf", "1e308", "1e-308", "1e200", "1e100",
                     "0", "-1", "x"])
    | st.sampled_from(["2", "4", "8", "37", "74", "111", "-100", "0.5"])
    | st.floats().map(repr),
    st.sampled_from(["", "gamma31"]))


@given(st.sampled_from(builtin_scenario_names()), st.sampled_from(SWEEPABLE),
       _flag_value("--values", st.lists(_SWEEP_PIECE, min_size=1, max_size=3).map(",".join)),
       st.sampled_from([[], ["--ideal-rect"]]), st.sampled_from(["csv", "json"]))
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_fuzzed_sweep_keeps_the_exit_contract(scenario, param, values, flags, fmt):
    # the summary may read nan where a fit failed; a trace file may not
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        _run(["sweep", "--scenario", scenario, "--param", param, *values,
              "--grid-n", "256", "--format", fmt, "--out", str(out), *flags])
        for path in out.glob("*_trace_*"):
            assert not re.search(r"\bnan\b", path.read_text(), re.IGNORECASE), path.name


_CRITERION = st.sampled_from(["C7", "C12", "list", "C0", "C13", "c7", "7", "", " ", "bogus",
                              "C7 ", "C1 2"])


@given(st.lists(_CRITERION, min_size=1, max_size=3),
       st.sampled_from([",", ", ", ";", " ", ",,"]))
@settings(max_examples=40, deadline=None)
def test_fuzzed_acceptance_criteria_keep_the_exit_contract(ids, sep):
    with tempfile.TemporaryDirectory() as tmp:
        rc, _ = _run(["acceptance", "--criteria", sep.join(ids), "--out", str(Path(tmp) / "out")])
    assert rc != 3  # C7 and C12 pass

