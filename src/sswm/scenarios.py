"""Scenario configuration: flat key-value files with dotted sections, preset
library, execution, and CSV/JSON export.

Config grammar: one `key = value` per line, `#` comments.  Frequency-typed
values accept either `<x>gamma31` multiples or plain SI rad/s; lengths are
meters.  Built-in presets cover both operating regimes; auxiliary quantities
(atomic density, cell length in cm) ride along as metadata only, the optical
depth is always a direct input.
"""
from __future__ import annotations

import importlib.resources
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import analysis
from .errors import ConfigError, SswmError, ValidationError
from .oracle import OracleConfig, rcc_cond_numeric, rcc_numeric
from .params import SystemParams, derived_frequencies, Regime
from .susceptibility import find_resonances, spectral_grid
from .wavepacket import analytic_rate_grid

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
    "gamma21", "gamma31", "gamma41", "gamma42", "gamma51", "gamma52",
    "gamma53", "gamma54", "omega_p", "omega_c1", "omega_c2",
    "delta_p", "delta_c1", "delta_c2",
}
_COMPLEX_FIELDS = {"omega_p", "omega_c1", "omega_c2"}


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
        for o in self.outputs:
            if o not in OUTPUT_KINDS:
                raise ConfigError(f"unknown output kind {o!r}")


def _parse_number(text: str, key: str, lineno: int, gamma31_si: float,
                  frequency: bool, allow_complex: bool):
    t = text.strip()
    scale = 1.0
    if t.endswith("gamma31"):
        t = t[: -len("gamma31")].strip()
        if not frequency:
            raise ConfigError(
                f"line {lineno}: key {key!r} does not take gamma31 units")
    elif frequency:
        scale = 1.0 / gamma31_si  # plain number for a frequency key is SI rad/s
    try:
        if allow_complex and ("j" in t or "J" in t):
            val = complex(t.replace(" ", ""))
        else:
            val = float(t)
    except ValueError as exc:
        raise ConfigError(f"line {lineno}: cannot parse value for {key!r}: {text!r}") from exc
    return val * scale


def parse_config(text: str, source: str = "<config>") -> Scenario:
    """Parse a scenario file; raises ConfigError with line/key context."""
    raw: dict[str, tuple[str, int]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}: line {lineno}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key in raw:
            raise ConfigError(f"{source}: line {lineno}: duplicate key {key!r}")
        raw[key] = (value.strip(), lineno)

    missing = [k for k in REQUIRED_KEYS if k not in raw]
    if missing:
        raise ConfigError(f"{source}: missing required key(s): {', '.join(missing)}")

    gamma31_si_text = raw.get("params.gamma31_si", (None, 0))[0]
    gamma31_si = float(gamma31_si_text) if gamma31_si_text else SystemParams().gamma31_si

    pkw: dict = {"gamma31_si": gamma31_si}
    okw: dict = {}
    outputs: tuple[str, ...] = ("report",)
    meta: dict = {}
    tmin_ns = tmax_ns = None
    name = None

    param_fields = set(SystemParams.__dataclass_fields__)
    for key, (value, lineno) in raw.items():
        if key == "name":
            name = value
        elif key == "outputs":
            outputs = tuple(v.strip() for v in value.split(",") if v.strip())
        elif key == "outputs.tmin_ns":
            tmin_ns = float(value)
        elif key == "outputs.tmax_ns":
            tmax_ns = float(value)
        elif key.startswith("meta."):
            meta[key[5:]] = value
        elif key.startswith("params."):
            fname = key[7:]
            if fname not in param_fields:
                raise ConfigError(f"{source}: line {lineno}: unknown parameter {key!r}")
            if fname == "gamma31_si":
                continue  # consumed above
            if fname == "omega21" and value.lower() == "auto":
                pkw["omega21"] = None
                continue
            pkw[fname] = _parse_number(
                value, key, lineno, gamma31_si,
                frequency=fname in _FREQUENCY_FIELDS,
                allow_complex=fname in _COMPLEX_FIELDS)
        elif key.startswith("oracle."):
            fname = key[7:]
            if fname == "extent":
                if value.lower() == "auto":
                    okw["extent"] = None
                else:
                    okw["extent"] = _parse_number(value, key, lineno, gamma31_si,
                                                  frequency=True, allow_complex=False)
            elif fname == "n_points":
                okw["n_points"] = int(value)
            elif fname == "tukey_alpha":
                okw["tukey_alpha"] = float(value)
            elif fname in ("force_phi_unity", "ideal_rect"):
                if value.lower() not in ("true", "false"):
                    raise ConfigError(f"{source}: line {lineno}: {key!r} must be true/false")
                okw[fname] = value.lower() == "true"
            else:
                raise ConfigError(f"{source}: line {lineno}: unknown oracle key {key!r}")
        else:
            raise ConfigError(f"{source}: line {lineno}: unknown key {key!r}")

    try:
        params = SystemParams(**pkw)
        oracle = OracleConfig(**okw)
        return Scenario(name=name, params=params, oracle=oracle, outputs=outputs,
                        meta=meta, tmin_ns=tmin_ns, tmax_ns=tmax_ns)
    except (ValueError, ValidationError, ConfigError) as exc:
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
        elif fname in ("gamma31_si", "omega31"):
            lines.append(f"params.{fname} = {value!r}")
        elif fname in ("length_L", "optical_depth", "dipole_scale"):
            lines.append(f"params.{fname} = {value!r}")
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


def load_scenario(name_or_path: str) -> Scenario:
    """Load a preset by name or any config file by path."""
    path = Path(name_or_path)
    if path.suffix == ".cfg" or path.exists():
        try:
            text = path.read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read scenario file {name_or_path!r}: {exc}") from exc
        return parse_config(text, source=str(path))
    resource = importlib.resources.files("sswm") / "scenarios" / f"{name_or_path}.cfg"
    if not resource.is_file():
        raise ConfigError(
            f"unknown scenario {name_or_path!r}; built-ins: "
            f"{', '.join(builtin_scenario_names())}")
    return parse_config(resource.read_text(), source=f"builtin:{name_or_path}")


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


def _write_grid(path: Path, header: list[str], t12, t13, vals, fmt: str) -> None:
    if fmt == "json":
        payload = {
            "header": header,
            "tau12_s": [float(x) for x in t12],
            "tau13_s": [float(x) for x in t13],
            "values": [[float(v) for v in row] for row in np.asarray(vals, dtype=float)],
        }
        path.write_text(json.dumps(payload, sort_keys=True))
        return
    rows = ["# " + h for h in header]
    rows.append("tau12_s,tau13_s,value")
    for i, a in enumerate(t12):
        for j, b in enumerate(t13):
            rows.append(f"{a:.12e},{b:.12e},{float(vals[i, j]):.12e}")
    path.write_text("\n".join(rows) + "\n")


def _write_spectral_grid(path: Path, header: list[str], grid, fmt: str) -> None:
    mag = np.abs(grid.values)
    if fmt == "json":
        payload = {
            "header": header,
            "delta2_gamma31": [float(x) for x in grid.delta2_axis],
            "delta3_gamma31": [float(x) for x in grid.delta3_axis],
            "abs_chi5": [[float(v) for v in row] for row in mag],
        }
        path.write_text(json.dumps(payload, sort_keys=True))
        return
    rows = ["# " + h for h in header]
    rows.append("delta2_gamma31,delta3_gamma31,abs_value")
    step = max(1, len(grid.delta2_axis) // 1024)  # cap csv size; full grid in json
    for i in range(0, len(grid.delta2_axis), step):
        for j in range(0, len(grid.delta3_axis), step):
            rows.append(f"{grid.delta2_axis[i]:.12e},{grid.delta3_axis[j]:.12e},{mag[i, j]:.12e}")
    path.write_text("\n".join(rows) + "\n")


def _write_trace(path: Path, header: list[str], trace, fmt: str) -> None:
    if fmt == "json":
        payload = {
            "header": header,
            "t_s": [float(x) for x in trace.t_axis],
            "value": [float(v) for v in trace.values],
        }
        path.write_text(json.dumps(payload, sort_keys=True))
        return
    rows = ["# " + h for h in header]
    rows.append("t_s,value")
    for t, v in zip(trace.t_axis, trace.values):
        rows.append(f"{t:.12e},{v:.12e}")
    path.write_text("\n".join(rows) + "\n")


def first_antinode_offset(grid, p: SystemParams) -> int:
    """Row index offset of the first oscillation antinode along tau12."""
    d = derived_frequencies(p)
    if d.omega_e1 and d.omega_e1 > 0:
        period_s = 2 * math.pi / (d.omega_e1 * p.gamma31_si)
        return max(1, int(round(period_s / (grid.tau12_axis[1] - grid.tau12_axis[0]))))
    return 1


def scenario_report(sc: Scenario) -> analysis.ObservableReport:
    """Fitted observables of one scenario (numeric route)."""
    p = sc.params
    d = derived_frequencies(p)
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
    fact = omass = None
    precursor = None

    tr12 = rcc_cond_numeric("tau12", p, sc.oracle)
    try:
        period12 = analysis.extract_period(tr12)
        tau_c_12 = analysis.fit_coherence_time(tr12)
    except SswmError as exc:
        notes["tau12 fit"] = str(exc)

    grid = rcc_numeric(p, sc.oracle)
    fact = analysis.factorizability_residual(grid)
    omass = analysis.ordering_violation_mass(grid)

    if d.regime is Regime.CHI5_DOMINATED:
        sdir = analysis.diagonal_offset_trace(grid, first_antinode_offset(grid, p))
        try:
            period13 = analysis.extract_period(sdir)
            tau_c_13 = analysis.fit_coherence_time(sdir)
        except SswmError as exc:
            notes["tau13 fit"] = str(exc)
    else:
        tr13 = rcc_cond_numeric("tau13", p, sc.oracle)
        cf = analysis.coherence_fit(tr13)
        tau_c_13 = cf.time_s
        notes["tau13 fit mode"] = cf.mode
        precursor = analysis.detect_precursor(analysis.near_diagonal_trace(grid), d)

    return analysis.observable_report(
        period12=period12, period13=period13, tau_c_12=tau_c_12,
        tau_c_13=tau_c_13, factorizability=fact, ordering_mass=omass,
        precursor=precursor, **notes)


def run_scenario(sc: Scenario, out_dir: Path, fmt: str = "csv") -> list[Path]:
    """Produce every requested output file; returns the paths written."""
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

    need_numeric_grid = any(o in sc.outputs for o in
                            ("rcc2d_numeric", "rcc2d_analytic"))
    grid = rcc_numeric(p, sc.oracle) if need_numeric_grid else None

    for out in sc.outputs:
        path = out_dir / f"{sc.name}_{out}.{ext}"
        if out == "report":
            rep = scenario_report(sc)
            text = "\n".join(rep.lines()) + "\n"
            path = out_dir / f"{sc.name}_report.txt"
            path.write_text(text)
            print(f"[{sc.name}] observable report")
            for line in rep.lines():
                print("  " + line)
        elif out == "chi5_grid":
            extent = sc.oracle.extent
            if extent is None:
                from .oracle import default_extent

                extent = default_extent(p)
            sg = spectral_grid(p, extent, sc.oracle.n_points, force_phi_unity=True)
            peaks = find_resonances(sg)
            hdr = header + [f"normalization: {np.abs(sg.values).max():.12e}",
                            f"n_peaks: {len(peaks)}"]
            _write_spectral_grid(path, hdr, sg, fmt)
            print(f"[{sc.name}] chi5 grid: {len(peaks)} resonance peaks")
            for pk in peaks:
                print(f"  delta2 = {pk['delta2']:+9.3f}, delta3 = {pk['delta3']:+9.3f} gamma31")
        elif out == "rcc2d_numeric":
            t12, t13, vals = _crop_grid(grid, tmin, tmax)
            _write_grid(path, header + [f"normalization: {grid.normalization:.12e}"],
                        t12, t13, vals, fmt)
        elif out == "rcc2d_analytic":
            which = "hybrid" if derived_frequencies(p).regime is Regime.HYBRID else "chi5"
            kwargs = {"ideal_rect": sc.oracle.ideal_rect} if which == "hybrid" else {}
            ana = analytic_rate_grid(p, grid.tau12_axis, grid.tau13_axis,
                                     which=which, **kwargs)
            t12, t13, vals = _crop_grid(ana, tmin, tmax)
            _write_grid(path, header + [f"normalization: {ana.normalization:.12e}"],
                        t12, t13, vals, fmt)
        elif out.startswith("trace_"):
            which = "tau12" if "tau12" in out else "tau13"
            if out.endswith("numeric"):
                tr = rcc_cond_numeric(which, p, sc.oracle)
            else:
                tr = _analytic_trace(p, which, sc.oracle.ideal_rect)
            _write_trace(path, header + [f"quantity: {out}"], tr, fmt)
        written.append(path)
    return written


def _analytic_trace(p: SystemParams, which: str, ideal_rect: bool) -> analysis.TimeTrace:
    """Closed-form conditional profile on a dense default grid."""
    d = derived_frequencies(p)
    tmax = max(d.group_delay * 1.2, 8.0 / (2 * d.gamma_e1 * p.gamma31_si))
    t = np.linspace(0.0, tmax, 4096)
    if which == "tau12":
        from .wavepacket import rcc_cond12

        vals = rcc_cond12(t, p, normalize=True)
        return analysis.TimeTrace(t_axis=t, values=np.asarray(vals))
    # tau13: integrate the regime-appropriate closed form over tau12
    which_grid = "hybrid" if d.regime is Regime.HYBRID else "chi5"
    kwargs = {"ideal_rect": ideal_rect} if which_grid == "hybrid" else {}
    grid = analytic_rate_grid(p, t, t, which=which_grid, **kwargs)
    return analysis.trace_from_grid(grid, axis="tau13")


def run_sweep(sc: Scenario, param: str, values: list, out_dir: Path,
              fmt: str = "csv") -> Path:
    """One scenario per value plus a summary table of fitted observables."""
    if param not in SWEEPABLE:
        raise ConfigError(f"parameter {param!r} is not sweepable; allowed: {SWEEPABLE}")
    if not values:
        raise ValidationError("sweep values list is empty")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    trace_outputs = [o for o in sc.outputs if o.startswith("trace_")]
    if not trace_outputs:
        trace_outputs = ["trace_tau12_numeric"]
    rows = []
    for v in values:
        p = sc.params.with_(**{param: v})
        sub = replace(sc, name=f"{sc.name}_{param}_{_value_tag(v)}", params=p,
                      outputs=tuple(trace_outputs))
        run_scenario(sub, out_dir, fmt=fmt)
        row = {"value": float(complex(v).real)}
        for out in trace_outputs:
            which = "tau12" if "tau12" in out else "tau13"
            tr = rcc_cond_numeric(which, p, sc.oracle)
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
    summary = out_dir / f"{sc.name}_sweep_{param}.csv"
    cols = list(rows[0].keys())
    lines = [f"# sweep of {param} on scenario {sc.name}", ",".join(["param_" + param if c == "value" else c for c in cols])]
    for row in rows:
        lines.append(",".join(_fmt_cell(row[c]) for c in cols))
    summary.write_text("\n".join(lines) + "\n")
    print(f"sweep summary -> {summary}")
    for line in lines[1:]:
        print("  " + line)
    return summary


def _value_tag(v) -> str:
    r = complex(v).real
    return f"{r:g}".replace(".", "p").replace("-", "m")


def _fmt_cell(v) -> str:
    if isinstance(v, str):
        return v
    return f"{v:.6g}"
