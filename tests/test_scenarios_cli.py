import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import sswm
from sswm.cli import main
from sswm.errors import ConfigError
from sswm.oracle import OracleConfig
from sswm.params import SystemParams, effective_splittings
from sswm.scenarios import (OUTPUT_KINDS, Scenario, _write_export, builtin_scenario_names,
                            load_scenario, parse_config, run_scenario, run_sweep,
                            serialize_config)
from sswm.susceptibility import MAX_N_POINTS

pytestmark = pytest.mark.filterwarnings("ignore:grid spacing", "ignore:extent")


def test_builtin_names():
    names = builtin_scenario_names()
    assert names == ["fig2", "fig3a", "fig3b", "fig3c", "fig3d", "fig3e", "fig3f"]


@pytest.mark.parametrize("name", ["fig2", "fig3a", "fig3b", "fig3c", "fig3d",
                                  "fig3e", "fig3f"])
def test_round_trip_identity(name):
    # every preset carries meta.* lines: they parse, and are not written back
    sc = load_scenario(name)
    text = serialize_config(sc)
    assert "meta." not in text
    sc2 = parse_config(text, source="round-trip")
    assert sc2.name == sc.name
    assert sc2.params == sc.params
    assert sc2.oracle == sc.oracle
    assert sc2.outputs == sc.outputs


PERFBENCH_PRESETS = sorted(
    (Path(__file__).resolve().parents[1] / "perfbench" / "presets").glob("*.cfg"))


@pytest.mark.parametrize("path", PERFBENCH_PRESETS, ids=lambda p: p.stem)
def test_retired_lines_at_their_value_load_the_builtin(path):
    # the benchmark's preset copies carry the seven retired params lines, each
    # at its one accepted value, and load to the same scenario as the builtin
    assert load_scenario(str(path)) == load_scenario(path.stem)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
# SystemParams bounds every magnitude by 1e30, and those that divide below by 1e-30
_BOUNDED = st.floats(min_value=-1e30, max_value=1e30)
_POSITIVE = st.floats(min_value=1e-30, max_value=1e30)
_NONZERO = st.one_of(_BOUNDED, st.complex_numbers(max_magnitude=1e30)).filter(
    lambda v: abs(v) >= 1e-30)
_WORD = st.text("abcdefghijklmnopqrstuvwxyz0123456789_.-", min_size=1, max_size=10)


@st.composite
def scenarios(draw) -> Scenario:
    params = SystemParams(
        gamma31_si=draw(_POSITIVE), gamma21=draw(_POSITIVE), gamma41=draw(_POSITIVE),
        gamma51=draw(_POSITIVE), omega_c1=draw(_NONZERO), omega_c2=draw(_NONZERO),
        delta_p=draw(_BOUNDED), delta_c1=draw(_BOUNDED), length_L=draw(_POSITIVE),
        optical_depth=draw(_POSITIVE), omega21=draw(st.none() | _BOUNDED))
    oracle = OracleConfig(
        extent=draw(st.none() | _POSITIVE), n_points=2 ** draw(st.integers(8, 14)),
        tukey_alpha=draw(st.floats(0.0, 1.0)), force_phi_unity=draw(st.booleans()),
        ideal_rect=draw(st.booleans()))
    tmin, tmax = draw(st.none() | _FINITE), draw(st.none() | _FINITE)
    if tmin is not None and tmax is not None:
        tmin, tmax = sorted((tmin, tmax))
        assume(tmin < tmax)
    return Scenario(name=draw(_WORD), params=params, oracle=oracle,
                    outputs=tuple(draw(st.lists(st.sampled_from(OUTPUT_KINDS), min_size=1,
                                                max_size=4, unique=True))),
                    tmin_ns=tmin, tmax_ns=tmax)


@given(scenarios())
@settings(max_examples=150, deadline=None)
def test_round_trip_random_scenarios(sc):
    # every field of a random scenario survives its canonical text
    assert parse_config(serialize_config(sc), source="round-trip") == sc


def test_preset_physics():
    fig2 = load_scenario("fig2")
    assert fig2.params.omega_c1 == 40.0
    fig3d = load_scenario("fig3d")
    assert fig3d.params.optical_depth == 111.0
    assert not fig3d.oracle.force_phi_unity


def test_missing_required_key():
    text = "name = broken\nparams.omega_c2 = 8gamma31\n" \
           "params.optical_depth = 37\nparams.length_L = 0.0015\n"
    with pytest.raises(ConfigError, match="params.omega_c1"):
        parse_config(text)


def test_unknown_key_names_line():
    sc = load_scenario("fig3a")
    text = serialize_config(sc) + "params.bogus = 3\n"
    with pytest.raises(ConfigError, match="bogus"):
        parse_config(text)


def test_si_and_gamma31_units_agree():
    sc = load_scenario("fig3a")
    g = sc.params.gamma31_si
    si_text = serialize_config(sc).replace(
        "params.omega_c1 = 8.0gamma31", f"params.omega_c1 = {8.0 * g!r}")
    sc_si = parse_config(si_text)
    assert sc_si.params.omega_c1 == pytest.approx(8.0, rel=1e-12)


def test_complex_rabi_round_trip():
    sc = load_scenario("fig3a")
    sc2 = parse_config(serialize_config(sc).replace(
        "params.omega_c1 = 8.0gamma31", "params.omega_c1 = (8.0+0.5j)gamma31"))
    assert sc2.params.omega_c1 == 8.0 + 0.5j
    sc3 = parse_config(serialize_config(sc2))
    assert sc3.params.omega_c1 == sc2.params.omega_c1


def small(sc: Scenario, n_points: int = 512, **okw) -> Scenario:
    from dataclasses import replace

    return replace(sc, oracle=replace(sc.oracle, n_points=n_points, **okw))


def test_run_scenario_fig2(tmp_path):
    sc = small(load_scenario("fig2"))
    paths, _ = run_scenario(sc, tmp_path)
    assert all(p.exists() for p in paths)
    text = (tmp_path / "fig2_chi5_grid.csv").read_text()
    assert text.startswith("# scenario: fig2")
    assert "delta2_gamma31,delta3_gamma31,abs_value" in text


def test_chi5_grid_auto_extent_is_the_default_extent(tmp_path):
    # oracle.extent = auto maps |chi5| over default_extent(params)
    from sswm.oracle import default_extent

    sc = small(load_scenario("fig2"), n_points=256, extent=None)
    auto, _ = run_scenario(sc, tmp_path / "auto")
    given, _ = run_scenario(small(sc, n_points=256, extent=default_extent(sc.params)),
                            tmp_path / "given")
    assert auto[0].read_bytes() == given[0].read_bytes()


CELL = r"-?\d\.\d{12}e[+-]\d{2}"


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name, outputs, axes, column, key", [
    ("fig2", ("chi5_grid",), ("delta2_gamma31", "delta3_gamma31"), "abs_value", "abs_chi5"),
    ("fig3a", ("rcc2d_numeric", "rcc2d_analytic"), ("tau12_s", "tau13_s"), "value", "values"),
    ("fig3c", ("trace_tau12_numeric", "trace_tau13_numeric", "trace_tau12_analytic",
               "trace_tau13_analytic"), ("t_s",), "value", "value"),
], ids=["fig2", "fig3a", "fig3c"])
def test_export_layout(tmp_path, fmt, name, outputs, axes, column, key):
    # header lines, column line or JSON keys, and .12e long-form CSV cells
    from dataclasses import replace

    sc = replace(small(load_scenario(name), n_points=256), outputs=outputs)
    paths, _ = run_scenario(sc, tmp_path, fmt=fmt)
    assert [p.name for p in paths] == [f"{name}_{o}.{fmt}" for o in outputs]
    for path, out in zip(paths, outputs):
        header = [f"scenario: {name}", f"params_hash: {sc.params.content_hash()}"]
        if out == "chi5_grid":
            header += [f"normalization: {CELL}", r"n_peaks: \d+"]
        elif out.startswith("rcc2d_"):
            header += [f"normalization: {CELL}"]
        else:
            header += [f"quantity: {out}"]
        if fmt == "json":
            payload = json.loads(path.read_text())
            assert sorted(payload) == sorted(("header", key) + axes)
            lines = payload["header"]
            shape = np.shape(payload[key])
            assert shape == tuple(len(payload[a]) for a in axes) and min(shape) > 1
        else:
            text = path.read_text().splitlines()
            lines = [ln[2:] for ln in text[:len(header)]]
            assert text[len(header)] == ",".join(axes + (column,))
            rows = text[len(header) + 1:]
            row = re.compile(",".join([CELL] * (len(axes) + 1)))
            assert all(row.fullmatch(r) for r in rows)
            n_axis = [len({r.split(",")[k] for r in rows}) for k in range(len(axes))]
            assert len(rows) == math.prod(n_axis) and min(n_axis) > 1
        assert len(lines) == len(header)
        assert all(re.fullmatch(h, ln) for h, ln in zip(header, lines))


def test_export_window_past_the_time_axis_warns_once(tmp_path):
    # fig3a's window sized from its params, -31.21 .. 374.5 ns, against the
    # +-245 ns axis of a 256-point grid: given explicitly, one advisory for
    # both 2D exports, naming both ranges; as the default it is clamped to
    # the axis, gives none and writes the same files (fig3d likewise).  A
    # window on the axis gives none
    import warnings
    from dataclasses import replace

    from sswm.scenarios import _default_window_s

    for name in ("fig3a", "fig3d"):
        sc = small(load_scenario(name), n_points=256)
        tmin, tmax = _default_window_s(sc.params, -math.inf, math.inf)
        with pytest.warns(UserWarning) as seen:
            past, _ = run_scenario(replace(sc, tmin_ns=tmin * 1e9, tmax_ns=tmax * 1e9),
                                   tmp_path / name / "past")
        warned = [str(w.message) for w in seen if "export window" in str(w.message)]
        assert len(warned) == 1 and "extends past the rate's time axis" in warned[0]
        if name == "fig3a":
            assert warned == [
                "export window -31.21 .. 374.5 ns extends past the rate's time axis -245.4 .. "
                "243.4 ns; the 2D exports keep the samples that lie in both"]
        with warnings.catch_warnings():
            warnings.filterwarnings("error", "export window")
            default, _ = run_scenario(sc, tmp_path / name / "default")
            run_scenario(replace(sc, tmin_ns=-30.0, tmax_ns=240.0), tmp_path / name / "inside")
        assert [f.name for f in default] == [f.name for f in past]
        assert all(f.read_bytes() == g.read_bytes() for f, g in zip(default, past))


def _whole_text_csv(path, header, axes, values, column, step):
    """The reference form of the CSV writer: every line an f-string, the
    file joined into one text and written once."""
    rows = ["# " + h for h in header]
    rows.append(",".join([name for name, _ in axes] + [column]))
    cols = [[f"{x:.12e}" for x in ax[::step]] for _, ax in axes]
    vals = np.asarray(values, dtype=float)[(slice(None, None, step),) * len(axes)].tolist()
    if len(cols) == 1:
        rows += [f"{a},{v:.12e}" for a, v in zip(cols[0], vals)]
    else:
        for a, row in zip(cols[0], vals):
            rows += [f"{a},{b},{v:.12e}" for b, v in zip(cols[1], row)]
    path.write_text("\n".join(rows) + "\n")


EDGE_VALUES = [0.0, -0.0, 5e-324, math.inf, -math.inf, math.nan, 1e300, -1.25e-7]


@pytest.mark.parametrize("step", [1, 2])
@pytest.mark.parametrize("shape", [(9,), (7, 5), (1, 1), (0,), (0, 0)])
def test_streamed_csv_equals_whole_text_writer(tmp_path, shape, step):
    rng = np.random.default_rng(math.prod(shape) + step)
    values = rng.normal(size=shape)
    values.flat[:len(EDGE_VALUES)] = EDGE_VALUES[:values.size]
    rng.shuffle(values.reshape(-1))
    axes = [(f"axis{k}_s", np.linspace(-2e-8, 3e-7, n)) for k, n in enumerate(shape)]
    header = ["scenario: edge", "quantity: test"]
    _write_export(tmp_path / "streamed.csv", header, axes, values, "value", "value", "csv", step)
    _whole_text_csv(tmp_path / "whole.csv", header, axes, values, "value", step)
    assert (tmp_path / "streamed.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()


def test_directory_named_like_a_preset(tmp_path, monkeypatch):
    # exporting a preset into a directory named after it does not shadow it
    monkeypatch.chdir(tmp_path)
    (tmp_path / "fig3c").mkdir()
    assert load_scenario("fig3c").name == "fig3c"
    assert main(["simulate", "--scenario", "fig3c", "--out", "fig3c", "--grid-n", "256"]) == 0
    assert (tmp_path / "fig3c" / "fig3c_trace_tau13_numeric.csv").exists()


def test_run_scenario_deterministic(tmp_path):
    sc = small(load_scenario("fig3c"))
    out1 = run_scenario(sc, tmp_path / "a")[0][0].read_bytes()
    out2 = run_scenario(sc, tmp_path / "b")[0][0].read_bytes()
    assert out1 == out2


def test_run_scenario_json(tmp_path):
    sc = small(load_scenario("fig3c"))
    path = run_scenario(sc, tmp_path, fmt="json")[0][0]
    payload = json.loads(path.read_text())
    assert len(payload["t_s"]) == len(payload["value"]) == 512


def test_sweep_summary_coupling(tmp_path):
    # period column follows the closed-form splitting for each coupling value
    sc = small(load_scenario("fig3b"), n_points=1024)
    summary, _ = run_sweep(sc, "omega_c1", [2.0, 4.0, 8.0], tmp_path)
    rows = [r for r in summary.read_text().splitlines() if r and not r.startswith("#")]
    header = rows[0].split(",")
    icol = header.index("tau12_period_ns")
    for row, oc in zip(rows[1:], (2.0, 4.0, 8.0)):
        period = float(row.split(",")[icol])
        o1 = effective_splittings(SystemParams(omega_c1=oc)).omega_e1
        expected = 2 * math.pi / (o1 * SystemParams().gamma31_si) * 1e9
        assert period == pytest.approx(expected, rel=0.03)


def test_sweep_od_width_column(tmp_path):
    # the tau13 width column follows the group-delay rectangle lengths
    sc = small(load_scenario("fig3f"), n_points=1024, ideal_rect=True)
    summary, _ = run_sweep(sc, "optical_depth", [37.0, 74.0, 111.0], tmp_path)
    rows = [r for r in summary.read_text().splitlines() if r and not r.startswith("#")]
    icol = rows[0].split(",").index("tau13_width_ns")
    for row, target in zip(rows[1:], (245.0, 490.0, 735.0)):
        width = float(row.split(",")[icol])
        assert width == pytest.approx(target, rel=0.10)


def test_sweep_row_survives_failed_coherence_fit(tmp_path, monkeypatch):
    # a coherence fit that raises leaves nan/"failed" in its row, and every
    # row keeps the same columns
    from sswm import analysis
    from sswm.errors import InsufficientExtremaError

    real_fit = analysis.coherence_fit
    calls = []

    def first_call_fails(tr):
        calls.append(tr)
        if len(calls) == 1:
            raise InsufficientExtremaError("trace has neither >= 3 maxima nor monotone decay")
        return real_fit(tr)

    monkeypatch.setattr(analysis, "coherence_fit", first_call_fails)
    from dataclasses import replace

    sc = replace(small(load_scenario("fig3f"), n_points=256, ideal_rect=True),
                 outputs=("trace_tau13_numeric",))
    summary, _ = run_sweep(sc, "optical_depth", [37.0, 74.0], tmp_path)
    rows = [r.split(",") for r in summary.read_text().splitlines()
            if r and not r.startswith("#")]
    header = rows[0]
    assert len(rows) == 3 and all(len(r) == len(header) for r in rows)
    failed = dict(zip(header, rows[1]))
    assert failed["tau13_fit_mode"] == "failed"
    assert math.isnan(float(failed["tau13_coherence_ns"]))
    assert dict(zip(header, rows[2]))["tau13_fit_mode"] != "failed"


def test_sweep_row_of_a_trace_no_fit_takes(tmp_path):
    # the plain fig3f sweep's OD 37 trace: both the period and the coherence
    # fit fail, its row keeps nan/"failed" and the width; OD 74 fits
    sc = small(load_scenario("fig3f"), n_points=256)
    _, lines = run_sweep(sc, "optical_depth", [37.0, 74.0], tmp_path)
    assert lines[1:3] == [
        "  param_optical_depth,tau13_period_ns,tau13_coherence_ns,tau13_fit_mode,tau13_width_ns",
        "  37,nan,nan,failed,196.266"]
    assert ",width," in lines[3]


def test_sweep_rejects_bad_input(tmp_path):
    sc = load_scenario("fig3f")
    with pytest.raises(ConfigError):
        run_sweep(sc, "length_L", [1.0], tmp_path)
    from sswm.errors import ValidationError

    with pytest.raises(ValidationError):
        run_sweep(sc, "optical_depth", [], tmp_path)


@pytest.mark.parametrize("param,values", [("optical_depth", [37.0, 37.0000001]),
                                          ("omega_c1", [2.0, 3.0, 2.0]),
                                          ("delta_p", [-100.0, -100.00000004])])
def test_sweep_refuses_values_that_share_a_file_tag(param, values, tmp_path):
    # each point's files are named by its value's 6-digit tag, so two values
    # with one tag would overwrite each other; refused before any point runs
    shared = re.escape(f"{values[0]!r} and {values[-1]!r} share the file tag")
    with pytest.raises(ConfigError, match=shared):
        run_sweep(load_scenario("fig3f"), param, values, tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_run_scenario_and_sweep_print_nothing(tmp_path, capsys):
    # the library returns the lines to show; only the CLI writes to stdout
    from dataclasses import replace

    paths, lines = run_scenario(small(load_scenario("fig3a")), tmp_path / "a")
    report = (tmp_path / "a" / "fig3a_report.txt").read_text().splitlines()
    assert lines == ["[fig3a] observable report"] + ["  " + ln for ln in report]
    assert (tmp_path / "a" / "fig3a_report.txt") in paths
    paths, lines = run_scenario(small(load_scenario("fig2"), n_points=256), tmp_path / "b")
    n_peaks = re.fullmatch(r"\[fig2\] chi5 grid: (\d+) resonance peaks", lines[0]).group(1)
    assert f"# n_peaks: {n_peaks}" in paths[0].read_text().splitlines()
    assert len(lines) == 1 + int(n_peaks)
    sc = replace(small(load_scenario("fig3f"), n_points=256, ideal_rect=True),
                 outputs=("trace_tau13_numeric",))
    summary, lines = run_sweep(sc, "optical_depth", [37.0, 74.0], tmp_path / "c")
    table = summary.read_text().splitlines()
    assert lines == [f"sweep summary -> {summary}"] + ["  " + ln for ln in table[1:]]
    assert capsys.readouterr().out == ""


def test_only_the_cli_prints():
    import ast

    for path in Path(sswm.__file__).parent.glob("*.py"):
        calls = [node for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "print"]
        assert path.name == "cli.py" or not calls, f"{path.name} prints"


# ---------------------------------------------------------------------------
# CLI surface


def test_cli_import_skips_scipy_signal():
    # the Tukey taper is built in numpy, so no run imports scipy.signal
    src = str(Path(sswm.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, sswm.cli; sys.exit(int('scipy.signal' in sys.modules))"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_cli_list_scenarios(capsys):
    assert main(["list-scenarios"]) == 0
    out = capsys.readouterr().out.split()
    assert "fig2" in out and "fig3f" in out


def test_cli_acceptance_list(capsys):
    assert main(["acceptance", "--criteria", "list"]) == 0
    out = capsys.readouterr().out
    assert "C1:" in out and "C12:" in out


@pytest.mark.parametrize("ids,unknown", [("C99", "C99"), ("c7,C12", "c7")])
def test_cli_acceptance_unknown_criteria_exit_2(ids, unknown, tmp_path, capsys):
    # a mistyped id is refused, not dropped into a vacuous 0/0 or 1/1 pass
    assert main(["acceptance", "--criteria", ids, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and repr(unknown) in err and "C12" in err
    assert not (tmp_path / "out").exists()


def test_cli_acceptance_subset(tmp_path, capsys):
    assert main(["acceptance", "--criteria", "C7,C12", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert out == (tmp_path / "acceptance_report.txt").read_text()
    lines = out.splitlines()
    assert [ln.split()[1] for ln in lines[:2]] == ["C7", "C12"]
    assert lines[2:] == ["2/2 criteria passed"]


def test_cli_overdamped_report_fails_before_sampling(tmp_path, monkeypatch, capsys):
    # no report branch fits an overdamped arm: a compute error naming the
    # cause, raised before the spectrum is sampled
    from dataclasses import replace

    import sswm.oracle

    calls, real = [], sswm.oracle.spectral_grid
    monkeypatch.setattr(sswm.oracle, "spectral_grid",
                        lambda *a, **k: calls.append(a) or real(*a, **k))
    sc = load_scenario("fig3d")
    sc = replace(sc, params=replace(sc.params, omega_c1=0.2, omega_c2=0.2),
                 outputs=("report",))
    cfg = tmp_path / "overdamped.cfg"
    cfg.write_text(serialize_config(sc))
    assert main(["simulate", "--scenario", str(cfg), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("compute error: ") and "overdamped arms" in err
    assert calls == []
    assert not (tmp_path / "out").exists()


def test_cli_hybrid_tau13_fit_failure_is_a_report_note(tmp_path, capsys):
    # fig3d on a 1 gamma31 window: the tau13 trace has neither 3 maxima nor a
    # monotone decay, which the report notes; the run writes every file
    out = tmp_path / "out"
    with pytest.warns(UserWarning, match="spectrum may be truncated"):
        assert main(["simulate", "--scenario", "fig3d", "--grid-n", "256",
                     "--extent", "1gamma31", "--out", str(out)]) == 0
    report = (out / "fig3d_report.txt").read_text().splitlines()
    assert "coherence time tau13  : n/a" in report
    assert report[-1] == "tau13 fit             : trace has neither >= 3 maxima nor monotone decay"
    assert sorted(f.name for f in out.iterdir()) == [
        "fig3d_rcc2d_analytic.csv", "fig3d_rcc2d_numeric.csv", "fig3d_report.txt"]


def test_cli_failed_report_leaves_no_file(tmp_path, monkeypatch, capsys):
    # the report is computed before any file is written: fig3d lists its two
    # 2D exports before its report, and a report that fails leaves neither
    from sswm import analysis
    from sswm.errors import ZeroMassError

    def zero_mass(grid):
        raise ZeroMassError("factorizability on a zero-mass grid")

    monkeypatch.setattr(analysis, "factorizability_residual", zero_mass)
    out = tmp_path / "out"
    assert main(["simulate", "--scenario", "fig3d", "--grid-n", "256", "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("compute error: factorizability on a zero-mass")
    assert not out.exists()


def test_cli_simulate_and_exit_codes(tmp_path, capsys):
    rc = main(["simulate", "--scenario", "fig3c", "--out", str(tmp_path),
               "--grid-n", "512"])
    assert rc == 0
    assert (tmp_path / "fig3c_trace_tau13_numeric.csv").exists()


def test_cli_simulate_prints_report_then_paths(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["simulate", "--scenario", "fig3a", "--grid-n", "512", "--out", str(out)]) == 0
    report = (out / "fig3a_report.txt").read_text().splitlines()
    names = {"report": "fig3a_report.txt"}
    paths = [out / names.get(o, f"fig3a_{o}.csv") for o in load_scenario("fig3a").outputs]
    assert capsys.readouterr().out.splitlines() == (
        ["[fig3a] observable report"] + ["  " + ln for ln in report]
        + [f"wrote {p}" for p in paths])


def test_cli_sweep_prints_summary_table(tmp_path, capsys):
    assert main(["sweep", "--scenario", "fig3f", "--param", "optical_depth",
                 "--values", "37,74", "--ideal-rect", "--grid-n", "256",
                 "--out", str(tmp_path)]) == 0
    summary = tmp_path / "fig3f_sweep_optical_depth.csv"
    table = summary.read_text().splitlines()
    assert table[0].startswith("# ")
    assert capsys.readouterr().out.splitlines() == (
        [f"sweep summary -> {summary}"] + ["  " + ln for ln in table[1:]])


def test_cli_config_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("name = x\nparams.omega_c2 = 8gamma31\n")
    rc = main(["simulate", "--scenario", str(bad), "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "omega_c1" in err


def _preset_with(tmp_path, *pairs: str) -> str:
    # fig3a's canonical text with the lines of (key, value, key, value, ...) set
    edits = dict(zip(pairs[::2], pairs[1::2]))
    lines = [ln for ln in serialize_config(load_scenario("fig3a")).splitlines()
             if ln.partition(" =")[0] not in edits]
    path = tmp_path / "bad.cfg"
    path.write_text("\n".join(lines + [f"{k} = {v}" for k, v in edits.items()]) + "\n")
    return str(path)


#: Each input the model no longer has, at a value other than its one
#: accepted (retired) value.
RETIRED_AT_OTHER_VALUES = {"gamma31": "2gamma31", "gamma42": "2gamma31",
                           "gamma52": "1gamma31", "gamma53": "0.5gamma31",
                           "gamma54": "2gamma31", "omega_p": "(0.5+1j)gamma31",
                           "delta_c2": "5gamma31"}


@pytest.mark.parametrize("argv,names", [
    (["simulate", "--scenario", "fig3a", "--extent", "foo"], "--extent"),
    (["simulate", "--scenario", "fig3a", "--extent", "nan"], "extent"),
    (["simulate", "--scenario", "fig3a", "--grid-n", "1000"], "n_points"),
    (["simulate", "--scenario", "fig3f", "--grid-n", "1000"],
     "config error: --grid-n: n_points must be a power of two >= 256"),
    (["simulate", "--scenario", "fig3f", "--extent", "nan"],
     "config error: --extent: extent must be positive and finite"),
    (["sweep", "--scenario", "fig3f", "--extent=-3gamma31", "--param", "optical_depth",
      "--values", "37"], "config error: --extent: extent must be positive and finite"),
    (["simulate", "--scenario", ("oracle.n_points", "1000")], ": line "),
    (["sweep", "--scenario", "fig3f", "--param", "optical_depth", "--values", "37,abc"],
     "--values"),
    (["sweep", "--scenario", "fig3f", "--param", "optical_depth", "--values", "-5"],
     "optical_depth"),
    (["sweep", "--scenario", "fig3f", "--param", "omega_c1", "--values", "2gamma31,xgamma31"],
     "--values"),
    (["simulate", "--scenario", ("oracle.n_points", "abc")], "oracle.n_points"),
    (["simulate", "--scenario", ("oracle.tukey_alpha", "q")], "oracle.tukey_alpha"),
    (["simulate", "--scenario", ("outputs.tmin_ns", "x")], "outputs.tmin_ns"),
    (["simulate", "--scenario", ("params.gamma31_si", "zz")], "params.gamma31_si"),
    (["simulate", "--scenario", ("params.gamma31_si", "0", "params.omega_c1", "5e7")],
     "gamma31_si"),
    (["simulate", "--grid-n", "256", "--scenario", ("params.optical_depth", "inf")],
     "optical_depth"),
    (["sweep", "--scenario", "fig3f", "--grid-n", "256", "--param", "optical_depth",
      "--values", "inf"], "optical_depth"),
    (["simulate", "--grid-n", "256", "--scenario", ("params.omega31", "0")], "omega31"),
    (["simulate", "--grid-n", "256", "--scenario", ("params.optical_depth", "nan")],
     "optical_depth"),
    (["simulate", "--grid-n", "256", "--scenario", ("params.length_L", "inf")], "length_L"),
    (["simulate", "--grid-n", "256", "--scenario", ("params.omega21", "nan")], "omega21"),
    (["simulate", "--grid-n", "256", "--scenario", ("params.dipole_scale", "0")],
     "dipole_scale"),
    (["sweep", "--scenario", "fig3f", "--grid-n", "256", "--param", "optical_depth",
      "--values", ""], "--values"),
    (["simulate", "--grid-n", "256", "--scenario", ("name", "a/b")], "name"),
    (["simulate", "--grid-n", "256", "--scenario", ("name", "a\0b")], "name"),
    (["simulate", "--grid-n", "256", "--scenario", ("params.optical_depth", "0")],
     "optical_depth"),
    (["simulate", "--grid-n", "256", "--scenario", ("outputs.tmin_ns", "nan")],
     "outputs.tmin_ns"),
    (["simulate", "--grid-n", "256", "--scenario",
      ("outputs.tmin_ns", "500", "outputs.tmax_ns", "100")], "outputs.tmin_ns"),
    *[(["simulate", "--grid-n", "256", "--scenario", (f"params.{key}", value)],
       f"'params.{key}' is not part of the model")
      for key, value in RETIRED_AT_OTHER_VALUES.items()],
    (["simulate", "--scenario", "fig3e", "--grid-n", "256", "--out", "<file>"],
     "config error: --out: "),
    (["sweep", "--scenario", "fig3f", "--grid-n", "256", "--param", "optical_depth",
      "--values", "37", "--out", "<file>/sub"], "--out"),
    (["acceptance", "--out", "<file>"], "config error: --out: "),
    (["sweep", "--scenario", "fig3f", "--grid-n", "256", "--param", "optical_depth",
      "--values", "37,37.0000001", "--ideal-rect"],
     "optical_depth = 37.0 and 37.0000001 share the file tag '37'"),
    (["simulate", "--scenario", "fig3a", "--extent=--"], "--extent: expected one value"),
    # argparse reads a word that starts with '-' as the next flag
    (["simulate", "--scenario", "fig3a", "--extent", "-5gamma31"],
     "config error: --extent: expected one value"),
    (["sweep", "--scenario", "fig3b", "--param", "delta_p", "--values", "-100gamma31"],
     "config error: --values: expected one value"),
    # inputs beyond the magnitude bounds, or a cell width whose fourth power
    # leaves the float range
    (["simulate", "--grid-n", "256", "--scenario", ("params.omega_c1", "1e308")], "omega_c1"),
    (["simulate", "--grid-n", "256", "--scenario", ("params.omega_c1", "1e308gamma31")],
     "omega_c1 must be finite and at most 1e+30 in magnitude"),
    (["simulate", "--grid-n", "256", "--scenario", ("params.gamma31_si", "1e-308")],
     "gamma31_si must be > 0 (at least 1e-30)"),
    (["simulate", "--grid-n", "256", "--scenario", ("params.delta_p", "1e200gamma31")],
     "delta_p"),
    (["simulate", "--grid-n", "256", "--scenario", ("params.length_L", "5e-324")],
     "length_L must be > 0 (at least 1e-30)"),
    (["simulate", "--grid-n", "256", "--scenario", "fig3e", "--extent=1e300"],
     "config error: --extent: "),
    (["simulate", "--grid-n", "256", "--scenario", "fig3a", "--extent=1e300gamma31"],
     "config error: --extent: "),
    (["simulate", "--grid-n", "256", "--scenario", "fig3a", "--extent=1e-90gamma31"],
     "config error: --extent: "),
    (["sweep", "--scenario", "fig3f", "--grid-n", "256", "--param", "optical_depth",
      "--values", "1e308"], "optical_depth = 1e+308"),
    (["sweep", "--scenario", "fig3b", "--grid-n", "256", "--param", "delta_p",
      "--values", "1e308gamma31"], "delta_p = 1e+308"),
    # each output is one file: a kind named twice, or none at all
    (["simulate", "--grid-n", "256", "--scenario",
      ("outputs", "trace_tau12_numeric, trace_tau12_numeric")],
     "outputs must name each output kind once"),
    (["simulate", "--grid-n", "256", "--scenario", ("outputs", "")],
     "outputs must name each output kind once, got ()"),
    (["simulate", "--grid-n", "256", "--scenario", ("outputs", "report, bogus")],
     "unknown output kind 'bogus'"),
], ids=["extent", "extent-nan", "grid-n", "grid-n-flag-named", "extent-flag-named",
        "sweep-extent-flag-named", "n_points-line-named", "values-word", "values-negative-od", "values-gamma31-word",
        "n_points", "tukey_alpha", "tmin_ns", "gamma31_si", "gamma31_si-zero",
        "od-inf", "values-od-inf", "omega31-zero", "od-nan", "length_L-inf", "omega21-nan",
        "dipole_scale-zero", "values-empty", "name-slash", "name-nul", "od-zero", "tmin_ns-nan",
        "tmin-above-tmax", *(f"retired-{key}" for key in RETIRED_AT_OTHER_VALUES),
        "out-file", "out-under-file", "acceptance-out-file", "values-same-tag",
        "extent-double-dash", "extent-leading-dash", "values-leading-dash", "omega_c1-overflow", "omega_c1-gamma31-overflow",
        "gamma31_si-underflow", "delta_p-large", "length_L-small", "extent-overflow",
        "extent-gamma31-overflow", "extent-underflow", "values-od-overflow",
        "values-delta_p-overflow", "outputs-duplicate", "outputs-empty", "outputs-unknown"])
def test_cli_malformed_input_exit_2(argv, names, tmp_path, capsys):
    # every malformed flag or config line is a config error naming the key
    # or flag, never a traceback; '<file>' is an existing file
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    argv = [_preset_with(tmp_path, *a) if isinstance(a, tuple)
            else a.replace("<file>", str(afile)) for a in argv]
    if "--out" not in argv:
        argv += ["--out", str(tmp_path / "out")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and names in err
    # refused before any work
    assert not (tmp_path / "out").exists() and afile.read_text() == "kept\n"


def _one_config_error(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1, err
    return err


@pytest.mark.parametrize("n", [2**62, 2**63, 2 * MAX_N_POINTS])
@pytest.mark.parametrize("via", ["flag", "line"])
def test_cli_grid_n_above_the_bound_exit_2(n, via, tmp_path, capsys):
    # refused by check_grid, before any grid is allocated
    if via == "flag":
        argv, where = ["--scenario", "fig3a", "--grid-n", str(n)], "config error: --grid-n: "
    else:
        argv, where = ["--scenario", _preset_with(tmp_path, "oracle.n_points", str(n))], ": line "
    out = tmp_path / "out"
    assert main(["simulate", *argv, "--out", str(out)]) == 2
    err = _one_config_error(capsys)
    assert where in err and f"n_points must be at most {MAX_N_POINTS}" in err
    assert not out.exists()


@pytest.mark.parametrize("name", ["bad.cfg", "bad"])
def test_cli_scenario_file_not_utf8_exit_2(name, tmp_path, capsys):
    bad = tmp_path / name
    bad.write_bytes(b"name = x\n\xff\xfe bad\n")
    out = tmp_path / "out"
    assert main(["simulate", "--scenario", str(bad), "--out", str(out)]) == 2
    err = _one_config_error(capsys)
    assert err.startswith(f"config error: cannot read scenario file {str(bad)!r}: ")
    assert "utf-8" in err and not out.exists()


@pytest.mark.parametrize("name", ["a" * 300, "out/" + "b" * 256])
@pytest.mark.parametrize("command", [["simulate", "--scenario", "fig3a"], ["acceptance"]])
def test_cli_out_name_too_long_exit_2(command, name, tmp_path, monkeypatch, capsys):
    # a name longer than a file name may be, under an existing directory or a
    # missing one, is refused before any work
    too_long = str(tmp_path / name)
    assert main([*command, "--out", too_long]) == 2
    assert _one_config_error(capsys).startswith("config error: --out: ")
    monkeypatch.setenv("SSWM_OUT_DIR", too_long)
    assert main(command) == 2
    assert _one_config_error(capsys).startswith("config error: SSWM_OUT_DIR: ")


@pytest.mark.parametrize("command", [["simulate", "--scenario", "fig3c", "--grid-n", "256"],
                                     ["acceptance", "--criteria", "C12"]])
def test_cli_empty_out_exit_2(command, tmp_path, monkeypatch, capsys):
    # an empty --out is not read as ./sswm_out or $SSWM_OUT_DIR, nor an
    # empty SSWM_OUT_DIR as the working directory: both exit 2 and write nothing
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("SSWM_OUT_DIR", str(tmp_path / "env_out"))
    assert main([*command, "--out="]) == 2
    assert _one_config_error(capsys).startswith("config error: --out: ")
    monkeypatch.setenv("SSWM_OUT_DIR", "")
    assert main(command) == 2
    assert _one_config_error(capsys).startswith("config error: SSWM_OUT_DIR: ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command,spare", [
    (["simulate"], 5),
    (["sweep", "--param", "optical_depth", "--values", "37,74"], 5),
    # the summary's name fits, each point's trace file's does not
    (["sweep", "--param", "optical_depth", "--values", "37,74"], 30)])
def test_cli_scenario_name_too_long_exit_2(command, spare, tmp_path, monkeypatch, capsys):
    # each file a run writes starts with the scenario name: a file name
    # longer than the file system allows is refused before any sampling and
    # before the output directory is made
    import sswm.oracle

    calls, real = [], sswm.oracle.spectral_grid
    monkeypatch.setattr(sswm.oracle, "spectral_grid",
                        lambda *a, **k: calls.append(a) or real(*a, **k))
    name = "n" * (os.pathconf(tmp_path, "PC_NAME_MAX") - spare)
    out = tmp_path / "out"
    argv = [*command, "--scenario", _preset_with(tmp_path, "name", name), "--grid-n", "256",
            "--out", str(out)]
    assert main(argv) == 2
    err = _one_config_error(capsys)
    assert err.startswith("config error: scenario name: ") and "File name too long" in err
    assert calls == [] and not out.exists()


#: fig3a's lines that make chi5 about 1e-92 of its usual size: with a cell
#: width of 1e-63 gamma31 its squared transform underflows to 0.
_TINY_SPECTRUM = ("params.gamma41", "1e30gamma31", "params.gamma51", "1e30gamma31",
                  "params.omega_c1", "1e30gamma31")


@pytest.mark.parametrize("argv,names", [
    (["simulate", "--scenario", _TINY_SPECTRUM], "rate grid peaks at 0.0"),
    (["sweep", "--scenario", (*_TINY_SPECTRUM, "outputs", "trace_tau12_numeric"),
      "--param", "omega_c2", "--values", "8gamma31"], "tau12 trace peaks at 0.0"),
], ids=["rate-underflow", "sweep-trace-underflow"])
def test_cli_out_of_float_range_exit_3(argv, names, tmp_path, capsys):
    # valid inputs whose squared transform underflows to 0 are compute errors
    # raised before any file is written
    argv = [_preset_with(tmp_path, *a) if isinstance(a, tuple) else a for a in argv]
    out = tmp_path / "out"
    assert main([*argv, "--grid-n", "256", "--extent=1e-60gamma31", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("compute error: ") and names in err
    assert not out.exists()


#: fig3a's lines that put gamma41 = gamma51 = |omega_c1| at 1e-9 gamma31 on
#: the bare pump resonance, where chi5's denominator passes under POLE_FLOOR.
_NEAR_FLOOR = ("params.gamma41", "1e-9gamma31", "params.gamma51", "1e-9gamma31",
               "params.omega_c1", "1e-9gamma31", "params.delta_p", "0gamma31")

#: These linewidths stretch the default export window over the whole grid
#: (two 243 MB CSVs at n 2048), so the 2048 case crops it to 0..100 ns; a NaN
#: sample would reach every cell of the rate either way.
_CROPPED = ("outputs.tmin_ns", "0", "outputs.tmax_ns", "100")


@pytest.mark.parametrize("n,window", [("256", _CROPPED), ("2048", _CROPPED), ("256", ())],
                         ids=["256", "2048", "256-default-window"])
def test_cli_near_floor_linewidths_exit_0(n, window, tmp_path, capsys):
    # the spectrum is sampled as computed, at any grid size: exit 0, no NaN in
    # the files or the report, the grid-spacing advisory, and no export-window
    # advisory from the default window, which is clamped to the time axis
    out = tmp_path / "out"
    argv = ["simulate", "--scenario", _preset_with(tmp_path, *_NEAR_FLOOR, *window), "--grid-n", n]
    with pytest.warns(UserWarning, match="grid spacing .* does not resolve") as seen:
        assert main([*argv, "--out", str(out)]) == 0
    assert not [w for w in seen if "export window" in str(w.message)]
    texts = {f.name: f.read_text() for f in out.iterdir()}
    texts["stdout"] = capsys.readouterr().out
    assert len(texts) == 4 and len(texts["fig3a_rcc2d_numeric.csv"].splitlines()) > 1000
    for name, text in texts.items():
        assert not re.search(r"\bnan\b", text, re.IGNORECASE), name


def test_cli_arithmetic_error_exit_3(tmp_path, monkeypatch, capsys):
    # a Python float that fails inside a run is a compute error, not a traceback
    import sswm.cli

    def overflow(*args, **kwargs):
        raise OverflowError("(34, 'Numerical result out of range')")
    monkeypatch.setattr(sswm.cli, "run_scenario", overflow)
    assert main(["simulate", "--scenario", "fig3a", "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err.startswith("compute error: out of floating-point range: ")


def test_cli_values_keep_their_meaning(tmp_path, monkeypatch, capsys):
    # '<x>gamma31' is x gamma31 units and a plain optical depth is taken as
    # it stands; a plain frequency, SI rad/s in a config file, is refused
    import sswm.cli

    seen = []
    monkeypatch.setattr(sswm.cli, "run_sweep",
                        lambda sc, param, values, out, fmt: seen.append(values) or (None, []))
    assert main(["sweep", "--scenario", "fig3b", "--param", "omega_c1",
                 "--values", "2gamma31, 4gamma31,8.5gamma31", "--out", str(tmp_path)]) == 0
    assert main(["sweep", "--scenario", "fig3f", "--param", "optical_depth",
                 "--values", "37, 74", "--out", str(tmp_path)]) == 0
    assert seen == [[2.0, 4.0, 8.5], [37.0, 74.0]]
    for param in ("omega_c1", "omega_c2", "delta_p"):
        assert main(["sweep", "--scenario", "fig3b", "--param", param,
                     "--values", "2gamma31, 4", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: --values: '4' for {param} has no unit")
        assert "SI rad/s" in err and "gamma31 units" in err and "'4gamma31'" in err
    assert main(["sweep", "--scenario", "fig3f", "--param", "optical_depth",
                 "--values", "37gamma31", "--out", str(tmp_path)]) == 2
    assert "does not take gamma31 units" in capsys.readouterr().err
    assert seen == [[2.0, 4.0, 8.5], [37.0, 74.0]]


@pytest.mark.parametrize("argv,message", [
    (["simulate", "--scenario", "fig3a", "--format", "xml"],
     "argument --format: invalid choice: 'xml'"),
    (["simulate"], "the following arguments are required: --scenario"),
    (["sweep", "--scenario", "fig3f", "--param", "bogus", "--values", "1"],
     "argument --param: invalid choice: 'bogus'"),
    (["nope"], "argument command: invalid choice: 'nope'"),
], ids=["format", "no-scenario", "param", "command"])
def test_cli_usage_error_exit_2(argv, message, capsys):
    # argparse's own refusals: its usage line and message, exit 2
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: sswm") and message in err


def test_cli_usage_error_process_exit_2():
    # the same refusal from `python -m sswm.cli`: exit 2, no traceback
    src = str(Path(sswm.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "sswm.cli", "simulate", "--scenario", "fig3a",
                           "--format", "xml"], env=env, capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr.startswith("usage: sswm") and "Traceback" not in proc.stderr


def test_cli_unknown_scenario_exit_2(tmp_path):
    assert main(["simulate", "--scenario", "nope", "--out", str(tmp_path)]) == 2


def test_cli_sweep_empty_values_exit_2(tmp_path):
    rc = main(["sweep", "--scenario", "fig3f", "--param", "optical_depth",
               "--values", "", "--out", str(tmp_path)])
    assert rc == 2


def test_cli_overrides(tmp_path):
    rc = main(["simulate", "--scenario", "fig3c", "--out", str(tmp_path),
               "--grid-n", "512", "--extent", "40gamma31", "--force-phi-unity"])
    assert rc == 0


def test_cli_env_out_dir(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SSWM_OUT_DIR", str(tmp_path / "env_out"))
    rc = main(["simulate", "--scenario", "fig3c", "--grid-n", "512"])
    assert rc == 0
    assert (tmp_path / "env_out" / "fig3c_trace_tau13_numeric.csv").exists()
    (tmp_path / "env_file").write_text("")
    monkeypatch.setenv("SSWM_OUT_DIR", str(tmp_path / "env_file"))
    capsys.readouterr()
    assert main(["simulate", "--scenario", "fig3c", "--grid-n", "512"]) == 2
    assert capsys.readouterr().err.startswith("config error: SSWM_OUT_DIR: ")
