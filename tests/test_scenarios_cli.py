import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sswm
from sswm.cli import main
from sswm.errors import ConfigError
from sswm.params import SystemParams, effective_splittings
from sswm.scenarios import (Scenario, builtin_scenario_names, load_scenario,
                            parse_config, run_scenario, run_sweep,
                            serialize_config)

pytestmark = pytest.mark.filterwarnings("ignore:grid spacing", "ignore:extent")


def test_builtin_names():
    names = builtin_scenario_names()
    assert names == ["fig2", "fig3a", "fig3b", "fig3c", "fig3d", "fig3e", "fig3f"]


@pytest.mark.parametrize("name", ["fig2", "fig3a", "fig3b", "fig3c", "fig3d",
                                  "fig3e", "fig3f"])
def test_round_trip_identity(name):
    sc = load_scenario(name)
    sc2 = parse_config(serialize_config(sc), source="round-trip")
    assert sc2.name == sc.name
    assert sc2.params == sc.params
    assert sc2.oracle == sc.oracle
    assert sc2.outputs == sc.outputs
    assert sc2.meta == sc.meta


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


def test_sweep_rejects_bad_input(tmp_path):
    sc = load_scenario("fig3f")
    with pytest.raises(ConfigError):
        run_sweep(sc, "length_L", [1.0], tmp_path)
    from sswm.errors import ValidationError

    with pytest.raises(ValidationError):
        run_sweep(sc, "optical_depth", [], tmp_path)


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
    sc = replace(sc, params=sc.params.with_(omega_c1=0.2, omega_c2=0.2),
                 outputs=("report",))
    cfg = tmp_path / "overdamped.cfg"
    cfg.write_text(serialize_config(sc))
    assert main(["simulate", "--scenario", str(cfg), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("compute error: ") and "overdamped arms" in err
    assert calls == []
    assert not (tmp_path / "out").exists()


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


@pytest.mark.parametrize("argv,names", [
    (["simulate", "--scenario", "fig3a", "--extent", "foo"], "--extent"),
    (["simulate", "--scenario", "fig3a", "--extent", "nan"], "extent"),
    (["simulate", "--scenario", "fig3a", "--grid-n", "1000"], "n_points"),
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
    (["simulate", "--grid-n", "256", "--scenario", ("params.optical_depth", "0")],
     "optical_depth"),
    (["simulate", "--grid-n", "256", "--scenario", ("outputs.tmin_ns", "nan")],
     "outputs.tmin_ns"),
    (["simulate", "--grid-n", "256", "--scenario",
      ("outputs.tmin_ns", "500", "outputs.tmax_ns", "100")], "outputs.tmin_ns"),
], ids=["extent", "extent-nan", "grid-n", "values-word", "values-negative-od", "values-gamma31-word",
        "n_points", "tukey_alpha", "tmin_ns", "gamma31_si", "gamma31_si-zero",
        "od-inf", "values-od-inf", "omega31-zero", "od-nan", "length_L-inf", "omega21-nan",
        "dipole_scale-zero", "values-empty", "name-slash", "od-zero", "tmin_ns-nan",
        "tmin-above-tmax"])
def test_cli_malformed_input_exit_2(argv, names, tmp_path, capsys):
    # every malformed flag or config line is a config error naming the key
    # or flag, never a traceback
    argv = [_preset_with(tmp_path, *a) if isinstance(a, tuple) else a for a in argv]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and names in err
    assert not (tmp_path / "out").exists()  # refused before any work


def test_cli_values_keep_their_meaning(tmp_path, monkeypatch):
    # a plain sweep value is taken as it stands, '<x>gamma31' is x gamma31
    import sswm.cli

    seen = []
    monkeypatch.setattr(sswm.cli, "run_sweep",
                        lambda sc, param, values, out, fmt: seen.append(values) or (None, []))
    assert main(["sweep", "--scenario", "fig3b", "--param", "omega_c1",
                 "--values", "2gamma31, 4,8.5gamma31", "--out", str(tmp_path)]) == 0
    assert seen == [[2.0, 4.0, 8.5]]


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
