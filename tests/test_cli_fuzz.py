"""The CLI's error contract over fuzzed scenario files and oracle flags: every
run exits 0, 2 or 3 and never raises, and an exit of 2 or 3 prints one
`config error:` or `compute error:` line to stderr."""
import io
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sswm.cli import main
from sswm.scenarios import builtin_scenario_names, load_scenario, serialize_config

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


@st.composite
def mutated_preset(draw) -> str:
    """A preset's lines with up to three edits, each dropping or doubling a
    line or giving it another key or (most often) another value, and maybe
    one extra line."""
    lines = list(PRESET_LINES[draw(st.sampled_from(sorted(PRESET_LINES)))])
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


ORACLE_FLAGS = st.lists(
    st.sampled_from(["--ideal-rect", "--force-phi-unity"])
    | st.builds("--extent={}".format, VALUES | st.sampled_from(["32gamma31", "auto"])),
    max_size=3)


@given(mutated_preset(), ORACLE_FLAGS, st.sampled_from(["csv", "json"]))
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_fuzzed_config_and_flags_keep_the_exit_contract(text, flags, fmt):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "fuzzed.cfg"
        cfg.write_text(text)
        argv = ["simulate", "--scenario", str(cfg), "--grid-n", "256", "--format", fmt,
                "--out", str(Path(tmp) / "out"), *flags]
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            rc = main(argv)
    assert rc in (0, 2, 3)
    if rc:
        assert err.getvalue().startswith(("config error: ", "compute error: "))

