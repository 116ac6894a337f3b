"""Scenario configuration: flat key-value files with dotted sections, preset
library, execution, and CSV/JSON export.

Config grammar: one `key = value` per line, `#` comments.  One table,
`_KEYS`, gives the kind of value each key takes; parsing, serialization and
sweep values all read it.  Frequency-typed values accept either `<x>gamma31`
multiples or plain SI rad/s; lengths are meters.  Built-in presets cover both
operating regimes; auxiliary quantities (atomic density, cell length in cm)
sit on `meta.*` lines, which parse but are not kept: the optical depth is
always a direct input.  The CLI's oracle flags and sweep values are parsed
by the same rules (`parse_config` overrides, `parse_sweep_values`).
"""
from __future__ import annotations

import errno
import importlib.resources
import json
import math
import os
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import analysis
from .errors import ConfigError, OverdampedError, ValidationError
from .oracle import OracleConfig, default_extent, rcc_cond_numeric, rcc_numeric
from .params import SystemParams, derived_frequencies, Regime
# spectral_grid stays bound here: perfbench/tracer.py wraps it at each binding
from .susceptibility import chi5_magnitude_map, find_resonances, spectral_grid  # noqa: F401
from .wavepacket import WavepacketGrid, analytic_rate_grid, analytic_tau13_marginal, rcc_cond12

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

#: Each `params.*`, `oracle.*` and `outputs.t*_ns` key and the kind of value
#: it takes: "freq" is `<x>gamma31` or a plain number in SI rad/s, "cfreq" the
#: same with complex values allowed, "num" a plain number, "int" an integer and
#: "bool" true/false; a trailing "?" also takes `auto`, read as None.
_KEYS = {
    "params.gamma31_si": "num", "params.gamma21": "freq", "params.gamma41": "freq",
    "params.gamma51": "freq", "params.omega_c1": "cfreq", "params.omega_c2": "cfreq",
    "params.delta_p": "freq", "params.delta_c1": "freq", "params.length_L": "num",
    "params.optical_depth": "num", "params.omega21": "num?",
    "oracle.extent": "freq?", "oracle.n_points": "int", "oracle.tukey_alpha": "num",
    "oracle.force_phi_unity": "bool", "oracle.ideal_rect": "bool",
    "outputs.tmin_ns": "num", "outputs.tmax_ns": "num",
}

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
    tmin_ns: float | None = None
    tmax_ns: float | None = None

    def __post_init__(self) -> None:
        # the name prefixes every output file name
        if not self.name or any(c in self.name for c in "/\\\0"):
            raise ConfigError(f"scenario name {self.name!r} is empty or holds '/', '\\' or NUL")
        for o in self.outputs:
            if o not in OUTPUT_KINDS:
                raise ConfigError(f"unknown output kind {o!r}")
        # each output is one file: none would be written, or one twice
        if not self.outputs or len(set(self.outputs)) < len(self.outputs):
            raise ConfigError(f"outputs must name each output kind once, got {self.outputs!r}")
        for key, v in (("outputs.tmin_ns", self.tmin_ns), ("outputs.tmax_ns", self.tmax_ns)):
            if v is not None and not math.isfinite(v):
                raise ConfigError(f"{key} must be finite, got {v!r}")
        if self.tmin_ns is not None and self.tmax_ns is not None \
                and not self.tmin_ns < self.tmax_ns:
            raise ConfigError(f"outputs.tmin_ns ({self.tmin_ns!r}) must be below "
                              f"outputs.tmax_ns ({self.tmax_ns!r})")


def _read(kind: str, text: str, key: str, where: str, gamma31_si: float):
    """One value of `kind` (see _KEYS) from a config line, CLI flag or sweep
    value; ConfigError if malformed, its message prefixed by `where`."""
    t = text.strip()
    if kind.endswith("?"):
        if t.lower() == "auto":
            return None
        kind = kind[:-1]
    if kind == "bool":
        if t.lower() not in ("true", "false"):
            raise ConfigError(f"{where}{key!r} must be true/false")
        return t.lower() == "true"
    if kind == "int":
        try:
            return int(t)
        except ValueError as exc:
            raise ConfigError(f"{where}{key!r} must be an integer, got {text!r}") from exc
    scale = 1.0
    if t.endswith("gamma31"):
        t = t[: -len("gamma31")].strip()
        if kind == "num":
            raise ConfigError(f"{where}key {key!r} does not take gamma31 units")
    elif kind != "num":
        scale = 1.0 / gamma31_si  # plain number for a frequency key is SI rad/s
    try:
        val = complex(t.replace(" ", "")) if kind == "cfreq" and "j" in t.lower() else float(t)
    except ValueError as exc:
        raise ConfigError(f"{where}cannot parse value for {key!r}: {text!r}") from exc
    return val * scale


def _write(kind: str, value) -> str:
    """The text that `_read(kind, ...)` reads back as `value`."""
    if value is None:
        return "auto"
    if kind.startswith(("freq", "cfreq")):
        if isinstance(value, complex) and value.imag != 0:
            return f"({value.real!r}{value.imag:+}j)gamma31"
        return f"{complex(value).real!r}gamma31"
    return str(value).lower() if kind == "bool" else repr(value)


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
        gamma31_si = _read("num", value, "params.gamma31_si", f"{where}: ", 0.0)
        try:  # every other frequency is converted with it
            SystemParams(gamma31_si=gamma31_si)
        except ValidationError as exc:
            raise ConfigError(f"{where}: {exc}") from exc

    # the keyword arguments of SystemParams, OracleConfig and Scenario, by section
    kwargs: dict = {"params": {"gamma31_si": gamma31_si}, "oracle": {}, "outputs": {}}
    outputs: tuple[str, ...] = ("report",)
    name = None
    for key, (value, where) in raw.items():
        section, dot, fname = key.partition(".")
        if key == "name":
            name = value
        elif key == "outputs":
            outputs = tuple(v.strip() for v in value.split(",") if v.strip())
        elif key.startswith("meta."):
            pass  # auxiliary notes: they parse, and nothing reads them
        elif section == "params" and fname in _RETIRED_PARAMS:
            kept = _RETIRED_PARAMS[fname]
            kind = "cfreq" if fname == "omega_p" else "freq"
            if _read(kind, value, key, f"{where}: ", gamma31_si) != kept:
                raise ConfigError(f"{where}: {key!r} is not part of the model; a file "
                                  f"may set it only to {kept!r}gamma31, got {value!r}")
        elif key not in _KEYS:
            what = {"params.": "parameter", "oracle.": "oracle key"}.get(section + dot, "key")
            raise ConfigError(f"{where}: unknown {what} {key!r}")
        elif key != "params.gamma31_si":  # consumed above
            kwargs[section][fname] = _read(_KEYS[key], value, key, f"{where}: ", gamma31_si)
            if section == "oracle":
                try:  # OracleConfig's rules, named by the line or flag that set the field
                    OracleConfig(**{fname: kwargs["oracle"][fname]})
                except ValidationError as exc:
                    raise ConfigError(f"{where}: {exc}") from exc

    try:
        return Scenario(name=name, params=SystemParams(**kwargs["params"]),
                        oracle=OracleConfig(**kwargs["oracle"]), outputs=outputs,
                        **kwargs["outputs"])
    except (ValidationError, ConfigError) as exc:
        raise ConfigError(f"{source}: {exc}") from exc


def serialize_config(sc: Scenario) -> str:
    """Canonical text form; parse(serialize(sc)) reproduces sc field by field."""
    lines = [f"name = {sc.name}", f"outputs = {', '.join(sc.outputs)}"]
    sections = {"params": sc.params, "oracle": sc.oracle, "outputs": sc}
    for key, kind in _KEYS.items():
        section, _, fname = key.partition(".")
        value = getattr(sections[section], fname)
        if value is not None or kind.endswith("?"):  # an unset tmin/tmax_ns has no line
            lines.append(f"{key} = {_write(kind, value)}")
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
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
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
    # a frequency is read as real: complex values stay refused
    kind = "num" if _KEYS.get(f"params.{param}", "num") == "num" else "freq"
    pieces = [piece.strip() for piece in text.split(",") if piece.strip()]
    if not pieces:
        raise ConfigError(f"--values: no sweep value in {text!r}")
    for piece in pieces:
        if kind == "freq" and not piece.endswith("gamma31"):
            raise ConfigError(f"--values: {piece!r} for {param} has no unit: it could mean "
                              f"SI rad/s, as in a config file, or gamma31 units; write "
                              f"{piece + 'gamma31'!r} for gamma31 units")
    return [_read(kind, piece, "--values", "", sc.params.gamma31_si) for piece in pieces]


# ---------------------------------------------------------------------------
# execution and export


def _default_window_s(p: SystemParams, lo: float, hi: float) -> tuple[float, float]:
    """The export window sized from `p`, clamped to the time axis [lo, hi]."""
    d = derived_frequencies(p)
    span = max(d.group_delay, 6.0 / (2 * d.gamma_e1 * p.gamma31_si),
               6.0 / (2 * d.gamma_e2 * p.gamma31_si))
    return (max(-0.1 * span, lo), min(1.2 * span, hi))


def _window(axis: np.ndarray, tmin: float, tmax: float) -> slice:
    """The indices of the increasing `axis` whose samples lie in [tmin, tmax]."""
    return slice(int(np.searchsorted(axis, tmin)), int(np.searchsorted(axis, tmax, "right")))


def _write_export(path: Path, header: list[str], axes: list[tuple[str, np.ndarray]],
                  values, column: str, key: str, fmt: str, step: int = 1) -> None:
    """The one CSV/JSON writer for grids and traces.

    `axes` are (name, samples) pairs, one per dimension of `values`.  JSON
    holds the header, every axis under its name and the full values under
    `key`.  CSV is long form: commented header lines, the column line
    (axis names, then `column`) and one `.12e` row per cell, keeping every
    `step`-th sample along each axis.  The rows are written to the file one
    leading-axis sample at a time, each from one `%` template.
    """
    values = np.asarray(values, dtype=float)
    if fmt == "json":
        payload = {"header": header, key: values.tolist()}
        payload.update((name, ax.tolist()) for name, ax in axes)
        path.write_text(json.dumps(payload, sort_keys=True))
        return
    *lead, last = [[f"{x:.12e}" for x in ax[::step]] for _, ax in axes]
    parts = [b + ",%.12e" for b in last]
    vals = values[(slice(None, None, step),) * values.ndim]
    # a trace is one block of lines, a grid one block per tau12 sample; each
    # line of a block starts with the block's prefix
    blocks = zip([a + "," for a in lead[0]], vals) if lead else [("", vals)]
    with path.open("w") as fh:
        fh.write("\n".join(["# " + h for h in header]
                           + [",".join([name for name, _ in axes] + [column])]))
        for prefix, row in blocks if parts else ():
            sep = "\n" + prefix
            fh.write((sep + sep.join(parts)) % tuple(row.tolist()))
        fh.write("\n")


def check_names(out_dir: Path, names: list[str], where: str) -> None:
    """ConfigError, prefixed by `where`, unless `out_dir`'s nearest existing
    ancestor is a directory and each directory to be made below it, and each
    file name in `names`, fits its file system's PC_NAME_MAX.  Makes nothing."""
    try:
        for q in (out_dir, *out_dir.parents):
            if q.is_dir():
                break
            if q.exists() or q.is_symlink():
                raise ConfigError(f"{where}: {str(q)!r} exists and is not a directory")
        # the directories below q are made later, on q's file system; a lookup
        # fails at the first of them before it checks the length of any name
        name_max = os.pathconf(q, "PC_NAME_MAX")
        for name in (*out_dir.relative_to(q).parts, *names):
            if len(os.fsencode(name)) > name_max:
                raise OSError(errno.ENAMETOOLONG, os.strerror(errno.ENAMETOOLONG), name)
    except OSError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _file_name(sc: Scenario, out: str, fmt: str) -> str:
    ext = "txt" if out == "report" else "json" if fmt == "json" else "csv"
    return f"{sc.name}_{out}.{ext}"


def _trace_direction(output: str) -> str:
    return "tau12" if "tau12" in output else "tau13"


def _scenario_run(sc: Scenario, traces: tuple[str, ...] = ()
                  ) -> tuple[WavepacketGrid | None, dict[str, analysis.TimeTrace]]:
    """The oracle products that the outputs of `sc` (and the directions
    `traces`) need: the rate, or None, and the numeric trace of each wanted
    direction.  The report, a 2D rate (the analytic grid is evaluated on the
    numeric time axes) or both directions take the rate, and each trace is
    integrated from it; one direction alone is its 1D transform, and with no
    numeric output nothing is sampled.  A report of an overdamped arm fails
    before any sampling."""
    if "report" in sc.outputs and derived_frequencies(sc.params).regime is Regime.OVERDAMPED:
        raise OverdampedError("observable report undefined for overdamped arms")
    want = sorted({*traces, *(_trace_direction(out) for out in sc.outputs
                              if out.startswith("trace_") and out.endswith("numeric"))})
    if len(want) == 2 or any(out == "report" or out.startswith("rcc2d_") for out in sc.outputs):
        rate = rcc_numeric(sc.params, sc.oracle)
        return rate, {which: analysis.trace_from_grid(rate, which) for which in want}
    return None, {which: rcc_cond_numeric(which, sc.params, sc.oracle) for which in want}


def scenario_report(sc: Scenario, rate: WavepacketGrid) -> analysis.ObservableReport:
    """Fitted observables of one scenario (numeric route) from its oracle
    rate grid, as `_scenario_run` makes it; OverdampedError, before any fit,
    for an overdamped arm."""
    p = sc.params
    d = derived_frequencies(p)
    if d.regime is Regime.OVERDAMPED:  # no branch fits an overdamped arm
        raise OverdampedError("observable report undefined for overdamped arms")
    notes = {
        "regime": d.regime.value,
        "entanglement": d.entanglement.value,
        "omega_e1 (gamma31)": f"{d.omega_e1:.4f}",
        "omega_e2 (gamma31)": f"{d.omega_e2:.4f}",
        "group delay": f"{d.group_delay * 1e9:.1f} ns",
        "dw_g (gamma31)": f"{d.delta_omega_g:.4f}",
        "dw_g/2pi": f"{d.delta_omega_g * p.gamma31_si / (2 * math.pi) / 1e6:.3f} MHz",
        "dw_t (gamma31)": f"{d.delta_omega_t:.4f}",
        "dw_t/2pi": f"{d.delta_omega_t * p.gamma31_si / (2 * math.pi) / 1e6:.3f} MHz",
    }

    def fitted(direction: str, tr: analysis.TimeTrace, shown=("period", "coherence")) -> list:
        """The fits `shown` of `tr`, each None where it failed; the first
        failure among them is the `<direction> fit` note."""
        fit = analysis.fit_trace(tr)
        notes.update([(f"{direction} fit", fit.errors[k]) for k in shown if k in fit.errors][:1])
        return [getattr(fit, k) for k in shown]

    period12, cf12 = fitted("tau12", analysis.trace_from_grid(rate, "tau12"))
    fact = analysis.factorizability_residual(rate)
    omass = analysis.ordering_violation_mass(rate)
    period13 = cf13 = precursor = None
    if d.regime is Regime.CHI5_DOMINATED:
        try:
            sdir = analysis.diagonal_offset_trace(rate, analysis.first_antinode_offset(rate, p))
        except ValidationError as exc:
            notes["tau13 fit"] = str(exc)
        else:
            period13, cf13 = fitted("tau13", sdir)
    else:  # the report prints no period of the hybrid rectangle
        cf13, = fitted("tau13", analysis.trace_from_grid(rate, "tau13"), ("coherence",))
        if cf13 is not None:
            notes["tau13 fit mode"] = cf13.mode
        precursor = analysis.detect_precursor(analysis.near_diagonal_trace(rate), d)
    return analysis.ObservableReport(
        period12=period12, period13=period13, tau_c_12=getattr(cf12, "time_s", None),
        tau_c_13=getattr(cf13, "time_s", None), factorizability_residual=fact,
        ordering_violation_mass=omass, precursor_detected=precursor, notes=notes)


def run_scenario(sc: Scenario, out_dir: Path, fmt: str = "csv",
                 run: tuple | None = None) -> tuple[list[Path], list[str]]:
    """Produce every requested output file; returns the paths written and
    the lines to show (the observable report and the chi5 peak table).

    Every numeric output reads `run`, the (rate, traces) pair made by
    `_scenario_run` unless the caller passes one holding what the outputs
    need; the file names are checked before it, and the report computed and
    `out_dir` made after it, so a report that fails leaves no file.
    """
    out_dir = Path(out_dir)
    check_names(out_dir, [_file_name(sc, out, fmt) for out in sc.outputs], "scenario name")
    rate, traces = _scenario_run(sc) if run is None else run
    rep = scenario_report(sc, rate).lines() if "report" in sc.outputs else None
    out_dir.mkdir(parents=True, exist_ok=True)
    p = sc.params
    header = [f"scenario: {sc.name}", f"params_hash: {p.content_hash()}"]
    if any(out.startswith("rcc2d_") for out in sc.outputs):
        t12, t13 = rate.tau12_axis, rate.tau13_axis
        lo, hi = max(t12[0], t13[0]), min(t12[-1], t13[-1])
        tmin, tmax = _default_window_s(p, lo, hi)
        if sc.tmin_ns is not None:
            tmin = sc.tmin_ns * 1e-9
        if sc.tmax_ns is not None:
            tmax = sc.tmax_ns * 1e-9
        window = _window(t12, tmin, tmax), _window(t13, tmin, tmax)
        if tmin < lo or tmax > hi:  # an explicit bound past the axis
            warnings.warn(f"export window {tmin * 1e9:.4g} .. {tmax * 1e9:.4g} ns extends past "
                          f"the rate's time axis {lo * 1e9:.4g} .. {hi * 1e9:.4g} ns; the 2D "
                          f"exports keep the samples that lie in both", stacklevel=2)
    written: list[Path] = []
    lines: list[str] = []

    for out in sc.outputs:
        path = out_dir / _file_name(sc, out, fmt)
        if out == "report":
            path.write_text("\n".join(rep) + "\n")
            lines += [f"[{sc.name}] observable report"] + ["  " + ln for ln in rep]
        elif out == "chi5_grid":
            extent = sc.oracle.extent
            if extent is None:
                extent = default_extent(p)
            d2, d3, mag = chi5_magnitude_map(p, extent, sc.oracle.n_points)
            peaks = find_resonances(mag, d2, d3)
            hdr = header + [f"normalization: {mag.max():.12e}", f"n_peaks: {len(peaks)}"]
            axes = [("delta2_gamma31", d2), ("delta3_gamma31", d3)]
            step = max(1, len(d2) // 1024)  # cap csv size; full grid in json
            _write_export(path, hdr, axes, mag, "abs_value", "abs_chi5", fmt, step)
            lines.append(f"[{sc.name}] chi5 grid: {len(peaks)} resonance peaks")
            lines += [f"  delta2 = {pk['delta2']:+9.3f}, delta3 = {pk['delta3']:+9.3f} gamma31"
                      for pk in peaks]
        elif out.startswith("rcc2d_"):
            grid, (rows, cols) = rate, window
            if out == "rcc2d_analytic":  # filled on the window alone
                grid = analytic_rate_grid(p, t12, t13, _analytic_form(p),
                                          sc.oracle.ideal_rect, window)
                rows = cols = slice(None)
            _write_export(path, header + [f"normalization: {grid.normalization:.12e}"],
                          [("tau12_s", grid.tau12_axis[rows]), ("tau13_s", grid.tau13_axis[cols])],
                          grid.values[rows, cols], "value", "values", fmt)
            del grid  # later outputs do not read the analytic grid
        elif out.startswith("trace_"):
            which = _trace_direction(out)
            if out.endswith("numeric"):
                tr = traces[which]
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
            points.append((v, replace(sc.params, **{param: v})))
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
    trace_outputs = [o for o in sc.outputs if o.startswith("trace_")] or ["trace_tau12_numeric"]
    # the summary fits the numeric trace of each direction, whichever of its
    # numeric/analytic outputs asked for it
    directions = tuple(dict.fromkeys(_trace_direction(o) for o in trace_outputs))
    subs = [(v, replace(sc, name=f"{sc.name}_{param}_{_value_tag(v)}", params=p,
                        outputs=tuple(trace_outputs))) for v, p in points]
    summary = Path(out_dir) / f"{sc.name}_sweep_{param}.csv"
    check_names(Path(out_dir), [summary.name] + [_file_name(sub, o, fmt) for _, sub in subs
                                                 for o in sub.outputs], "scenario name")
    rows = []
    for v, sub in subs:
        rate, traces = _scenario_run(sub, traces=directions)
        run_scenario(sub, out_dir, fmt=fmt, run=(rate, traces))
        del rate  # the next point samples its spectrum with no rate alive
        row = {f"param_{param}": float(complex(v).real)}
        for which in directions:
            fit = analysis.fit_trace(traces[which])
            cf = fit.coherence
            row[f"{which}_period_ns"] = math.nan if fit.period is None else fit.period * 1e9
            row[f"{which}_coherence_ns"] = math.nan if cf is None else cf.time_s * 1e9
            row[f"{which}_fit_mode"] = "failed" if cf is None else cf.mode
            if which == "tau13":
                row["tau13_width_ns"] = fit.width * 1e9
        rows.append(row)
    lines = [f"# sweep of {param} on scenario {sc.name}", ",".join(rows[0])]
    lines += [",".join(c if isinstance(c, str) else f"{c:.6g}" for c in row.values())
              for row in rows]
    summary.write_text("\n".join(lines) + "\n")
    return summary, [f"sweep summary -> {summary}"] + ["  " + ln for ln in lines[1:]]


def _value_tag(v) -> str:
    r = complex(v).real
    return f"{r:g}".replace(".", "p").replace("-", "m")
