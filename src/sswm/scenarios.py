"""Scenario configuration: flat key-value files with dotted sections, preset
library, execution, and CSV/JSON export.

Config grammar: one `key = value` per line, `#` comments.  Frequency-typed
values accept either `<x>gamma31` multiples or plain SI rad/s; lengths are
meters.  Built-in presets cover both operating regimes; auxiliary quantities
(atomic density, cell length in cm) ride along as metadata only, the optical
depth is always a direct input.  The CLI's oracle flags and sweep values
are parsed by the same rules (`parse_config` overrides, `parse_sweep_values`).
"""
from __future__ import annotations

import importlib.resources
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import analysis
from .errors import ConfigError, OverdampedError, SswmError, ValidationError
from .oracle import OracleConfig, OracleRun, default_extent
from .params import SystemParams, derived_frequencies, Regime
from .susceptibility import find_resonances, spectral_grid
from .wavepacket import analytic_rate_grid, analytic_tau13_marginal, rcc_cond12

#: Scenario outputs that can be requested.
OUTPUT_KINDS = (
    "report",
    "chi5_grid",
    "rcc2d_numeric",
    "rcc2d_analytic",
    "trace_tau12_numeric",
    "trace_tau13_numeric",
    "trace_tau12_analytic",
    "trace_tau13_analytic",
)

#: Parameters run_sweep may vary.
SWEEPABLE = ("omega_c1", "omega_c2", "optical_depth", "delta_p")

#: Keys that must be present in every scenario file.
REQUIRED_KEYS = ("name", "params.omega_c1", "params.omega_c2",
                 "params.optical_depth", "params.length_L")

_FREQUENCY_FIELDS = {
    "gamma21", "gamma41", "gamma51", "omega_c1", "omega_c2", "delta_p", "delta_c1",
}
_COMPLEX_FIELDS = {"omega_c1", "omega_c2"}

#: Frequencies that are not inputs of the model, each with the value (gamma31
#: units) every preset has carried: gamma31, the unit itself, and five that no
#: formula reads.  A `params.` line may still set one, so older files parse to
#: the same scenario, but only to that value.
_RETIRED_PARAMS = {"gamma31": 1.0, "gamma42": 1.0, "gamma52": 0.1, "gamma53": 1.0,
                   "gamma54": 1.0, "omega_p": 0.5, "delta_c2": 0.0}


@dataclass(frozen=True)
class Scenario:
    name: str
    params: SystemParams
    oracle: OracleConfig
    outputs: tuple[str, ...] = ("report",)
    meta: dict = field(default_factory=dict)
    tmin_ns: float | None = None
    tmax_ns: float | None = None

    def __post_init__(self) -> None:
        # the name prefixes every output file name
        if not self.name or any(c in self.name for c in "/\\"):
            raise ConfigError(f"scenario name {self.name!r} is empty or holds '/' or '\\'")
        for o in self.outputs:
            if o not in OUTPUT_KINDS:
                raise ConfigError(f"unknown output kind {o!r}")
        for key, v in (("outputs.tmin_ns", self.tmin_ns), ("outputs.tmax_ns", self.tmax_ns)):
            if v is not None and not math.isfinite(v):
                raise ConfigError(f"{key} must be finite, got {v!r}")
        if self.tmin_ns is not None and self.tmax_ns is not None \
                and not self.tmin_ns < self.tmax_ns:
            raise ConfigError(f"outputs.tmin_ns ({self.tmin_ns!r}) must be below "
                              f"outputs.tmax_ns ({self.tmax_ns!r})")


def _parse_number(text: str, key: str, where: str | None, gamma31_si: float,
                  frequency: bool, allow_complex: bool = False):
    """One number of a config line or CLI flag; ConfigError if malformed.

    `<x>gamma31` is x in gamma31 units and is accepted only when
    `frequency`; a plain number for a frequency is SI rad/s.  `where`
    prefixes the error message (e.g. "file.cfg: line 3").
    """
    where = "" if where is None else f"{where}: "
    t = text.strip()
    scale = 1.0
    if t.endswith("gamma31"):
        t = t[: -len("gamma31")].strip()
        if not frequency:
            raise ConfigError(f"{where}key {key!r} does not take gamma31 units")
    elif frequency:
        scale = 1.0 / gamma31_si  # plain number for a frequency key is SI rad/s
    try:
        if allow_complex and ("j" in t or "J" in t):
            val = complex(t.replace(" ", ""))
        else:
            val = float(t)
    except ValueError as exc:
        raise ConfigError(f"{where}cannot parse value for {key!r}: {text!r}") from exc
    return val * scale


def parse_config(text: str, source: str = "<config>",
                 overrides: dict[str, tuple[str, str]] | None = None) -> Scenario:
    """Parse a scenario file; raises ConfigError with line/key context.

    `overrides` maps key -> (value text, where): each sets that key as its
    line would, and its errors name `where` (a CLI flag) instead of a line.
    """
    raw: dict[str, tuple[str, str]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        where = f"{source}: line {lineno}"
        if "=" not in stripped:
            raise ConfigError(f"{where}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key in raw:
            raise ConfigError(f"{where}: duplicate key {key!r}")
        raw[key] = (value.strip(), where)
    for key, (value, where) in (overrides or {}).items():
        raw[key] = (value.strip(), where)

    missing = [k for k in REQUIRED_KEYS if k not in raw]
    if missing:
        raise ConfigError(f"{source}: missing required key(s): {', '.join(missing)}")

    gamma31_si = SystemParams().gamma31_si
    if "params.gamma31_si" in raw:
        value, where = raw["params.gamma31_si"]
        gamma31_si = _parse_number(value, "params.gamma31_si", where, 0.0, frequency=False)
        try:  # every other frequency is converted with it
            SystemParams(gamma31_si=gamma31_si)
        except ValidationError as exc:
            raise ConfigError(f"{where}: {exc}") from exc

    pkw: dict = {"gamma31_si": gamma31_si}
    okw: dict = {}
    outputs: tuple[str, ...] = ("report",)
    meta: dict = {}
    tmin_ns = tmax_ns = None
    name = None

    param_fields = set(SystemParams.__dataclass_fields__)
    for key, (value, where) in raw.items():
        if key == "name":
            name = value
        elif key == "outputs":
            outputs = tuple(v.strip() for v in value.split(",") if v.strip())
        elif key == "outputs.tmin_ns":
            tmin_ns = _parse_number(value, key, where, gamma31_si, frequency=False)
        elif key == "outputs.tmax_ns":
            tmax_ns = _parse_number(value, key, where, gamma31_si, frequency=False)
        elif key.startswith("meta."):
            meta[key[5:]] = value
        elif key.startswith("params."):
            fname = key[7:]
            if fname in _RETIRED_PARAMS:
                kept = _RETIRED_PARAMS[fname]
                if _parse_number(value, key, where, gamma31_si, frequency=True,
                                 allow_complex=fname == "omega_p") != kept:
                    raise ConfigError(f"{where}: {key!r} is not part of the model; a file "
                                      f"may set it only to {kept!r}gamma31, got {value!r}")
                continue
            if fname not in param_fields:
                raise ConfigError(f"{where}: unknown parameter {key!r}")
            if fname == "gamma31_si":
                continue  # consumed above
            if fname == "omega21" and value.lower() == "auto":
                pkw["omega21"] = None
                continue
            pkw[fname] = _parse_number(
                value, key, where, gamma31_si, frequency=fname in _FREQUENCY_FIELDS,
                allow_complex=fname in _COMPLEX_FIELDS)
        elif key.startswith("oracle."):
            fname = key[7:]
            if fname == "extent":
                if value.lower() == "auto":
                    okw["extent"] = None
                else:
                    okw["extent"] = _parse_number(value, key, where, gamma31_si,
                                                  frequency=True)
            elif fname == "n_points":
                try:
                    okw["n_points"] = int(value)
                except ValueError as exc:
                    raise ConfigError(
                        f"{where}: {key!r} must be an integer, got {value!r}") from exc
            elif fname == "tukey_alpha":
                okw["tukey_alpha"] = _parse_number(value, key, where, gamma31_si,
                                                   frequency=False)
            elif fname in ("force_phi_unity", "ideal_rect"):
                if value.lower() not in ("true", "false"):
                    raise ConfigError(f"{where}: {key!r} must be true/false")
                okw[fname] = value.lower() == "true"
            else:
                raise ConfigError(f"{where}: unknown oracle key {key!r}")
            try:  # OracleConfig's rules, named by the line or flag that set the field
                OracleConfig(**{fname: okw[fname]})
            except ValidationError as exc:
                raise ConfigError(f"{where}: {exc}") from exc
        else:
            raise ConfigError(f"{where}: unknown key {key!r}")

    try:
        params = SystemParams(**pkw)
        oracle = OracleConfig(**okw)
        return Scenario(name=name, params=params, oracle=oracle, outputs=outputs,
                        meta=meta, tmin_ns=tmin_ns, tmax_ns=tmax_ns)
    except (ValidationError, ConfigError) as exc:
        raise ConfigError(f"{source}: {exc}") from exc


def _fmt_value(fname: str, value) -> str:
    if fname in _FREQUENCY_FIELDS:
        if isinstance(value, complex) and value.imag != 0:
            return f"({value.real!r}{value.imag:+}j)gamma31"
        return f"{complex(value).real!r}gamma31"
    return repr(value)


def serialize_config(sc: Scenario) -> str:
    """Canonical text form; parse(serialize(sc)) reproduces sc field by field."""
    lines = [f"name = {sc.name}"]
    for fname in SystemParams.__dataclass_fields__:
        value = getattr(sc.params, fname)
        if fname == "omega21" and value is None:
            lines.append("params.omega21 = auto")
        else:
            lines.append(f"params.{fname} = {_fmt_value(fname, value)}")
    lines.append(f"oracle.extent = {'auto' if sc.oracle.extent is None else repr(sc.oracle.extent) + 'gamma31'}")
    lines.append(f"oracle.n_points = {sc.oracle.n_points}")
    lines.append(f"oracle.tukey_alpha = {sc.oracle.tukey_alpha!r}")
    lines.append(f"oracle.force_phi_unity = {str(sc.oracle.force_phi_unity).lower()}")
    lines.append(f"oracle.ideal_rect = {str(sc.oracle.ideal_rect).lower()}")
    lines.append(f"outputs = {', '.join(sc.outputs)}")
    if sc.tmin_ns is not None:
        lines.append(f"outputs.tmin_ns = {sc.tmin_ns!r}")
    if sc.tmax_ns is not None:
        lines.append(f"outputs.tmax_ns = {sc.tmax_ns!r}")
    for k in sorted(sc.meta):
        lines.append(f"meta.{k} = {sc.meta[k]}")
    return "\n".join(lines) + "\n"


def builtin_scenario_names() -> list[str]:
    root = importlib.resources.files("sswm") / "scenarios"
    return sorted(p.name[:-4] for p in root.iterdir() if p.name.endswith(".cfg"))


def load_scenario(name_or_path: str,
                  overrides: dict[str, tuple[str, str]] | None = None) -> Scenario:
    """Load a config file by path (a `.cfg` name or an existing file), else a
    preset by name; a directory named like a preset does not shadow it.
    `overrides` go to parse_config."""
    path = Path(name_or_path)
    if path.suffix == ".cfg" or path.is_file():
        try:
            text = path.read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read scenario file {name_or_path!r}: {exc}") from exc
        return parse_config(text, str(path), overrides)
    resource = importlib.resources.files("sswm") / "scenarios" / f"{name_or_path}.cfg"
    if not resource.is_file():
        raise ConfigError(
            f"unknown scenario {name_or_path!r}; built-ins: "
            f"{', '.join(builtin_scenario_names())}")
    return parse_config(resource.read_text(), f"builtin:{name_or_path}", overrides)


def parse_sweep_values(text: str, param: str, sc: Scenario) -> list[float]:
    """The comma-separated values of `sweep --values` for `param`;
    ConfigError if one is malformed or none is given.  Each value is read as
    its config line would be, except that a frequency needs the gamma31
    suffix: '<x>gamma31' is x gamma31 units, and a plain number is refused."""
    frequency = param in _FREQUENCY_FIELDS
    pieces = [piece.strip() for piece in text.split(",") if piece.strip()]
    if not pieces:
        raise ConfigError(f"--values: no sweep value in {text!r}")
    for piece in pieces:
        if frequency and not piece.endswith("gamma31"):
            raise ConfigError(f"--values: {piece!r} for {param} has no unit: it could mean "
                              f"SI rad/s, as in a config file, or gamma31 units; write "
                              f"{piece + 'gamma31'!r} for gamma31 units")
    return [_parse_number(piece, "--values", None, sc.params.gamma31_si, frequency)
            for piece in pieces]


# ---------------------------------------------------------------------------
# execution and export


def _default_window_s(p: SystemParams) -> tuple[float, float]:
    d = derived_frequencies(p)
    span = max(d.group_delay, 6.0 / (2 * d.gamma_e1 * p.gamma31_si),
               6.0 / (2 * d.gamma_e2 * p.gamma31_si))
    return (-0.1 * span, 1.2 * span)


def _crop_grid(grid, tmin: float, tmax: float):
    i = np.where((grid.tau12_axis >= tmin) & (grid.tau12_axis <= tmax))[0]
    j = np.where((grid.tau13_axis >= tmin) & (grid.tau13_axis <= tmax))[0]
    return grid.tau12_axis[i], grid.tau13_axis[j], grid.values[np.ix_(i, j)]


def _write_export(path: Path, header: list[str], axes: list[tuple[str, np.ndarray]],
                  values, column: str, key: str, fmt: str, step: int = 1) -> None:
    """The one CSV/JSON writer for grids and traces.

    `axes` are (name, samples) pairs, one per dimension of `values`.  JSON
    holds the header, every axis under its name and the full values under
    `key`.  CSV is long form: commented header lines, the column line
    (axis names, then `column`) and one `.12e` row per cell, keeping every
    `step`-th sample along each axis.
    """
    values = np.asarray(values, dtype=float)
    if fmt == "json":
        payload = {"header": header, key: values.tolist()}
        payload.update((name, ax.tolist()) for name, ax in axes)
        path.write_text(json.dumps(payload, sort_keys=True))
        return
    rows = ["# " + h for h in header]
    rows.append(",".join([name for name, _ in axes] + [column]))
    cols = [[f"{x:.12e}" for x in ax[::step]] for _, ax in axes]
    vals = values[(slice(None, None, step),) * values.ndim].tolist()
    if len(cols) == 1:
        rows += [f"{a},{v:.12e}" for a, v in zip(cols[0], vals)]
    else:
        for a, row in zip(cols[0], vals):
            rows += [f"{a},{b},{v:.12e}" for b, v in zip(cols[1], row)]
    path.write_text("\n".join(rows) + "\n")


def _trace_direction(output: str) -> str:
    return "tau12" if "tau12" in output else "tau13"


def _report_traces(regime: Regime) -> tuple[str, ...]:
    # the chi5 branch of the report reads tau13 off the 2D rate grid; no
    # branch fits an overdamped arm, so that fails before any sampling
    if regime is Regime.OVERDAMPED:
        raise OverdampedError("observable report undefined for overdamped arms")
    if regime is Regime.CHI5_DOMINATED:
        return ("tau12",)
    return ("tau12", "tau13")


def _scenario_run(sc: Scenario, traces: tuple[str, ...] = ()) -> OracleRun | None:
    """The one oracle run that the outputs of `sc` (and `traces`) need, or
    None when no output reads the numeric transform."""
    rate = False
    want = list(traces)
    for out in sc.outputs:
        if out == "report":
            rate = True
            want += _report_traces(derived_frequencies(sc.params).regime)
        elif out in ("rcc2d_numeric", "rcc2d_analytic"):
            rate = True  # the analytic grid is evaluated on the numeric time axes
        elif out.startswith("trace_") and out.endswith("numeric"):
            want.append(_trace_direction(out))
    if not rate and not want:
        return None
    return OracleRun(sc.params, sc.oracle, rate=rate, traces=tuple(dict.fromkeys(want)))


def scenario_report(sc: Scenario, run: OracleRun) -> analysis.ObservableReport:
    """Fitted observables of one scenario (numeric route).

    `run` must hold the rate grid and the traces of `_report_traces`, as
    `_scenario_run` makes it.  OverdampedError for an overdamped arm.
    """
    p = sc.params
    d = derived_frequencies(p)
    _report_traces(d.regime)  # OverdampedError before any fit
    notes = {
        "regime": d.regime.value,
        "entanglement": "n/a" if d.entanglement is None else d.entanglement.value,
        "omega_e1 (gamma31)": f"{d.omega_e1:.4f}",
        "omega_e2 (gamma31)": f"{d.omega_e2:.4f}",
        "group delay": f"{d.group_delay * 1e9:.1f} ns",
        "dw_g (gamma31)": f"{d.delta_omega_g:.4f}",
        "dw_g/2pi": f"{d.delta_omega_g * p.gamma31_si / (2 * math.pi) / 1e6:.3f} MHz",
        "dw_t (gamma31)": f"{d.delta_omega_t:.4f}",
        "dw_t/2pi": f"{d.delta_omega_t * p.gamma31_si / (2 * math.pi) / 1e6:.3f} MHz",
    }
    period12 = tau_c_12 = period13 = tau_c_13 = None
    precursor = None

    tr12 = run.trace("tau12")
    try:
        period12 = analysis.extract_period(tr12)
        tau_c_12 = analysis.fit_coherence_time(tr12)
    except SswmError as exc:
        notes["tau12 fit"] = str(exc)

    grid = run.rate
    fact = analysis.factorizability_residual(grid)
    omass = analysis.ordering_violation_mass(grid)

    if d.regime is Regime.CHI5_DOMINATED:
        try:
            sdir = analysis.diagonal_offset_trace(grid, analysis.first_antinode_offset(grid, p))
            period13 = analysis.extract_period(sdir)
            tau_c_13 = analysis.fit_coherence_time(sdir)
        except SswmError as exc:
            notes["tau13 fit"] = str(exc)
    else:
        cf = analysis.coherence_fit(run.trace("tau13"))
        tau_c_13 = cf.time_s
        notes["tau13 fit mode"] = cf.mode
        precursor = analysis.detect_precursor(analysis.near_diagonal_trace(grid), d)

    return analysis.ObservableReport(
        period12=period12, period13=period13, tau_c_12=tau_c_12,
        tau_c_13=tau_c_13, factorizability_residual=fact,
        ordering_violation_mass=omass, precursor_detected=precursor, notes=notes)


def run_scenario(sc: Scenario, out_dir: Path, fmt: str = "csv",
                 run: OracleRun | None = None) -> tuple[list[Path], list[str]]:
    """Produce every requested output file; returns the paths written and
    the lines to show (the observable report and the chi5 peak table).

    Every numeric output reads the one oracle run `run`, made by
    `_scenario_run` unless the caller passes one holding what the outputs
    need; `out_dir` is made only once that run exists.
    """
    if run is None:
        run = _scenario_run(sc)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    p = sc.params
    header = [f"scenario: {sc.name}", f"params_hash: {p.content_hash()}"]
    tmin, tmax = _default_window_s(p)
    if sc.tmin_ns is not None:
        tmin = sc.tmin_ns * 1e-9
    if sc.tmax_ns is not None:
        tmax = sc.tmax_ns * 1e-9
    ext = "json" if fmt == "json" else "csv"
    written: list[Path] = []
    lines: list[str] = []

    for out in sc.outputs:
        path = out_dir / f"{sc.name}_{out}.{ext}"
        if out == "report":
            rep = scenario_report(sc, run).lines()
            path = out_dir / f"{sc.name}_report.txt"
            path.write_text("\n".join(rep) + "\n")
            lines += [f"[{sc.name}] observable report"] + ["  " + ln for ln in rep]
        elif out == "chi5_grid":
            extent = sc.oracle.extent
            if extent is None:
                extent = default_extent(p)
            sg = spectral_grid(p, extent, sc.oracle.n_points, force_phi_unity=True)
            peaks = find_resonances(sg)
            mag = np.abs(sg.values)
            hdr = header + [f"normalization: {mag.max():.12e}", f"n_peaks: {len(peaks)}"]
            axes = [("delta2_gamma31", sg.delta2_axis), ("delta3_gamma31", sg.delta3_axis)]
            step = max(1, len(sg.delta2_axis) // 1024)  # cap csv size; full grid in json
            _write_export(path, hdr, axes, mag, "abs_value", "abs_chi5", fmt, step)
            lines.append(f"[{sc.name}] chi5 grid: {len(peaks)} resonance peaks")
            lines += [f"  delta2 = {pk['delta2']:+9.3f}, delta3 = {pk['delta3']:+9.3f} gamma31"
                      for pk in peaks]
        elif out.startswith("rcc2d_"):
            grid = run.rate
            if out == "rcc2d_analytic":
                grid = analytic_rate_grid(p, grid.tau12_axis, grid.tau13_axis,
                                          _analytic_form(p), sc.oracle.ideal_rect)
            t12, t13, vals = _crop_grid(grid, tmin, tmax)
            _write_export(path, header + [f"normalization: {grid.normalization:.12e}"],
                          [("tau12_s", t12), ("tau13_s", t13)], vals, "value", "values", fmt)
            del grid, vals  # later outputs do not read the analytic grid
        elif out.startswith("trace_"):
            which = _trace_direction(out)
            if out.endswith("numeric"):
                tr = run.trace(which)
            else:
                tr = _analytic_trace(p, which, sc.oracle.ideal_rect)
            _write_export(path, header + [f"quantity: {out}"], [("t_s", tr.t_axis)],
                          tr.values, "value", "value", fmt)
        written.append(path)
    return written, lines


def _analytic_trace(p: SystemParams, which: str, ideal_rect: bool) -> analysis.TimeTrace:
    """Closed-form conditional profile on a dense default grid."""
    d = derived_frequencies(p)
    tmax = max(d.group_delay * 1.2, 8.0 / (2 * d.gamma_e1 * p.gamma31_si))
    t = np.linspace(0.0, tmax, 4096)
    if which == "tau12":
        vals = rcc_cond12(t, p, normalize=True)
        return analysis.TimeTrace(t_axis=t, values=np.asarray(vals))
    # tau13: the regime-appropriate closed form summed over tau12
    vals = analytic_tau13_marginal(p, t, _analytic_form(p), ideal_rect)
    return analysis.TimeTrace(t_axis=t, values=vals)


def _analytic_form(p: SystemParams) -> str:
    """The closed form of the regime `p` falls in."""
    return "hybrid" if derived_frequencies(p).regime is Regime.HYBRID else "chi5"


def run_sweep(sc: Scenario, param: str, values: list, out_dir: Path,
              fmt: str = "csv") -> tuple[Path, list[str]]:
    """One scenario per value, then a summary table of fitted observables
    written after the last point; returns its path and the lines to show."""
    if param not in SWEEPABLE:
        raise ConfigError(f"parameter {param!r} is not sweepable; allowed: {SWEEPABLE}")
    if not values:
        raise ValidationError("sweep values list is empty")
    points = []
    for v in values:
        try:
            points.append((v, sc.params.with_(**{param: v})))
        except ValidationError as exc:
            raise ConfigError(f"sweep value {param} = {v!r}: {exc}") from exc
    tagged: dict[str, object] = {}
    for v in values:  # each point's files are named by its tag
        tag = _value_tag(v)
        if tag in tagged:
            raise ConfigError(f"sweep values {param} = {tagged[tag]!r} and {v!r} share the "
                              f"file tag {tag!r}, so one point's files would overwrite "
                              f"the other's")
        tagged[tag] = v
    trace_outputs = [o for o in sc.outputs if o.startswith("trace_")]
    if not trace_outputs:
        trace_outputs = ["trace_tau12_numeric"]
    # the summary fits the numeric trace of each direction, whichever of its
    # numeric/analytic outputs asked for it
    directions = tuple(dict.fromkeys(_trace_direction(o) for o in trace_outputs))
    rows = []
    for v, p in points:
        sub = replace(sc, name=f"{sc.name}_{param}_{_value_tag(v)}", params=p,
                      outputs=tuple(trace_outputs))
        run = _scenario_run(sub, traces=directions)
        run_scenario(sub, out_dir, fmt=fmt, run=run)
        row = {"value": float(complex(v).real)}
        for which in directions:
            tr = run.trace(which)
            try:
                row[f"{which}_period_ns"] = analysis.extract_period(tr) * 1e9
            except SswmError:
                row[f"{which}_period_ns"] = float("nan")
            try:
                cf = analysis.coherence_fit(tr)
                row[f"{which}_coherence_ns"] = cf.time_s * 1e9
                row[f"{which}_fit_mode"] = cf.mode
            except SswmError:
                row[f"{which}_coherence_ns"] = float("nan")
                row[f"{which}_fit_mode"] = "failed"
            if which == "tau13":
                row["tau13_width_ns"] = analysis.width_at_half_max(tr) * 1e9
        rows.append(row)
    summary = Path(out_dir) / f"{sc.name}_sweep_{param}.csv"
    cols = list(rows[0].keys())
    lines = [f"# sweep of {param} on scenario {sc.name}", ",".join(["param_" + param if c == "value" else c for c in cols])]
    lines += [",".join(_fmt_cell(row[c]) for c in cols) for row in rows]
    summary.write_text("\n".join(lines) + "\n")
    return summary, [f"sweep summary -> {summary}"] + ["  " + ln for ln in lines[1:]]


def _value_tag(v) -> str:
    r = complex(v).real
    return f"{r:g}".replace(".", "p").replace("-", "m")


def _fmt_cell(v) -> str:
    if isinstance(v, str):
        return v
    return f"{v:.6g}"
