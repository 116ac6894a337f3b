"""The four benchmark workloads: seeded input generation and output checks.

Each op of a workload is one `sswm` CLI invocation.  Op 0 of every run is
the unperturbed preset and is compared with `reference.json`; later ops draw
their inputs from the seed.  The program receives only the generated `.cfg`
files and argv.  Frequencies are written with a `gamma31` suffix, because a
plain number in a config file means SI rad/s.

Input ranges and why they are what they are (see README.md for the
workload rationale):

- simulate_chi5: omega_c1, omega_c2 in [7, 9] gamma31, OD in [30, 45].
  2*gamma_e2 = 1.02 stays below the group-delay bandwidth 4*pi*|oc2|^2/OD
  (>= 13.7 at the worst corner), so every draw is chi5-dominated and Phi is
  forced to unity, as in fig3a.
- simulate_hybrid: omega_c1, omega_c2 in [1.8, 2.2] gamma31, OD in
  [90, 130].  The bandwidth stays <= 0.68 < 1.02 at every corner, so every
  draw is hybrid and the full chi5*Phi product runs, as in fig3d.
- sweep_hybrid: three distinct ODs in [37, 111], the span of the paper's
  fig3 OD set, swept with --ideal-rect on fig3f (hybrid at every OD).
- acceptance: no inputs; the criteria fix their own parameters.
"""
from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

PRESETS = Path(__file__).resolve().parent / "presets"

#: Relative tolerance of the reference comparison: rounding-level
#: reorderings pass, any change in the physics fails.
REF_RTOL = 1e-9

#: gamma31 in SI (rad/s) when a config does not set params.gamma31_si.
DEFAULT_GAMMA31_SI = 2 * math.pi * 3e6

#: C4's relative tolerance on the Rabi period (21 +- 1 ns).
PERIOD_RTOL = 1.0 / 21.0

#: Acceptance values at rounding level today, checked only against their
#: pinned bound: (criterion, index of the number in the measured text, bound).
ROUNDING_LEVEL = {("C2", 0): 1e-12, ("C10", 1): 1e-10, ("C12", 1): 1e-9}

#: A number standing alone (not the digit of a name such as "c0").
_NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")


@dataclass
class OpInput:
    argv: list[str]                      # sswm CLI args without --out
    files: dict[str, str] = field(default_factory=dict)  # written to the op dir
    draw: dict = field(default_factory=dict)
    reference: bool = False


def _preset(name: str) -> str:
    return (PRESETS / f"{name}.cfg").read_text()


def _with_lines(text: str, values: dict[str, str]) -> str:
    """Preset text with the `key = value` lines for `values` replaced."""
    out, seen = [], set()
    for line in text.splitlines():
        key = line.partition("=")[0].strip()
        if key in values:
            out.append(f"{key} = {values[key]}")
            seen.add(key)
        else:
            out.append(line)
    missing = set(values) - seen
    if missing:
        raise KeyError(f"preset has no line for {sorted(missing)}")
    return "\n".join(out) + "\n"


def _cfg_value(text: str, key: str) -> float:
    for line in text.splitlines():
        k, _, v = line.partition("=")
        if k.strip() == key:
            return float(v.strip().removesuffix("gamma31"))
    raise KeyError(key)


# ---------------------------------------------------------------------------
# file parsers (each raises ValueError when a file does not parse)


def read_table(path: Path) -> tuple[list[str], list[str], list[list[str]]]:
    """CSV with `# ` comment header lines, one column-name line, data rows."""
    comments, rows, cols = [], [], None
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            comments.append(line[1:].strip())
        elif cols is None:
            cols = line.split(",")
        elif line:
            rows.append(line.split(","))
    if cols is None or not rows or any(len(r) != len(cols) for r in rows):
        raise ValueError(f"{path.name}: malformed table")
    return comments, cols, rows


def _header_value(header: list[str], key: str) -> float:
    for h in header:
        k, _, v = h.partition(":")
        if k.strip() == key:
            return float(v)
    raise ValueError(f"header has no {key!r}")


def summarize_grid(path: Path) -> dict:
    """Normalization, L2 norm and size of an exported 2D rate grid."""
    if path.suffix == ".json":
        payload = json.loads(path.read_text())
        header = payload["header"]
        vals = np.asarray(payload["values"], dtype=float)
        if vals.shape != (len(payload["tau12_s"]), len(payload["tau13_s"])):
            raise ValueError(f"{path.name}: value shape does not match axes")
        vals = vals.ravel()
    else:
        header, cols, rows = read_table(path)
        if cols != ["tau12_s", "tau13_s", "value"]:
            raise ValueError(f"{path.name}: unexpected columns {cols}")
        vals = np.array([float(r[2]) for r in rows])
    return {"normalization": _header_value(header, "normalization"),
            "l2": float(np.sqrt(np.sum(vals * vals))), "n": int(vals.size),
            "_values": vals}


def summarize_trace(path: Path) -> dict:
    _, cols, rows = read_table(path)
    if cols != ["t_s", "value"]:
        raise ValueError(f"{path.name}: unexpected columns {cols}")
    vals = np.array([float(r[1]) for r in rows])
    return {"l2": float(np.sqrt(np.sum(vals * vals))), "n": int(vals.size),
            "_values": vals}


def read_report(path: Path) -> dict[str, str]:
    out = {}
    for line in path.read_text().splitlines():
        key, sep, value = line.partition(":")
        if not sep:
            raise ValueError(f"{path.name}: malformed line {line!r}")
        out[key.strip()] = value.strip()
    return out


def _rate_problems(name: str, vals: np.ndarray) -> list[str]:
    """2D grids and traces: finite, non-negative, peak-normalised to 1."""
    if not np.all(np.isfinite(vals)):
        return [f"{name}: non-finite values"]
    probs = []
    if vals.min() < 0:
        probs.append(f"{name}: negative value {vals.min():.3e}")
    if abs(vals.max() - 1.0) > 1e-9:
        probs.append(f"{name}: peak {vals.max():.12e}, not 1")
    return probs


def _public(summary: dict) -> dict:
    return {k: v for k, v in summary.items() if not k.startswith("_")}


# ---------------------------------------------------------------------------
# reference comparison


def _as_number(x):
    """(value, unit) for a number or a string like '20.84 ns'; else None."""
    if isinstance(x, bool):
        return None
    if isinstance(x, (int, float)):
        return float(x), ""
    if isinstance(x, str):
        head, _, unit = x.partition(" ")
        try:
            return float(head), unit
        except ValueError:
            return None
    return None


def compare(ref, got, where: str = "") -> list[str]:
    """Differences between two summaries; numbers at REF_RTOL relative."""
    if isinstance(ref, dict) and isinstance(got, dict):
        if set(ref) != set(got):
            return [f"{where}: keys {sorted(set(ref) ^ set(got))} differ"]
        return [p for k in ref for p in compare(ref[k], got[k], f"{where}.{k}")]
    if isinstance(ref, list) and isinstance(got, list):
        if len(ref) != len(got):
            return [f"{where}: length {len(got)} != {len(ref)}"]
        return [p for i, (a, b) in enumerate(zip(ref, got))
                for p in compare(a, b, f"{where}[{i}]")]
    a, b = _as_number(ref), _as_number(got)
    if a is not None and b is not None and a[1] == b[1]:
        if (math.isnan(a[0]) and math.isnan(b[0])) \
                or abs(a[0] - b[0]) <= REF_RTOL * max(abs(a[0]), abs(b[0])):
            return []
    elif ref == got:
        return []
    return [f"{where}: {got!r} != reference {ref!r}"]


def compare_acceptance(ref_lines: list[str], lines: list[str]) -> list[str]:
    """Measured values at their printed digits, except the rounding-level
    ones in ROUNDING_LEVEL, which are checked only against their bound."""
    if len(ref_lines) != len(lines):
        return [f"acceptance: {len(lines)} lines != {len(ref_lines)}"]
    probs = []
    for ref, got in zip(ref_lines, lines):
        cid = got.split()[1] if len(got.split()) > 1 else "?"
        for (c, idx), bound in ROUNDING_LEVEL.items():
            if c != cid:
                continue
            value, got = _pin(got, idx)
            _, ref = _pin(ref, idx)
            if not value < bound:
                probs.append(f"{cid}: rounding-level value {value:.2e} >= {bound:g}")
        if ref != got:
            probs.append(f"{cid}: {got!r} != reference {ref!r}")
    return probs


def _pin(line: str, idx: int) -> tuple[float, str]:
    """The idx-th number of a criterion's measured text, and the line with
    that number masked."""
    head, sep, rest = line.partition(": ")
    measured, sep2, tail = rest.partition(" (require")
    m = list(_NUMBER.finditer(measured))[idx]
    masked = measured[:m.start()] + "<pinned>" + measured[m.end():]
    return float(m.group()), head + sep + masked + sep2 + tail


# ---------------------------------------------------------------------------
# workloads


class Workload:
    name = ""
    why = ""

    def make_op(self, rng: random.Random, index: int) -> OpInput:
        raise NotImplementedError

    def summarize(self, op: OpInput, out: Path) -> tuple[dict, list[str]]:
        """(reference summary, problems) of one op's outputs."""
        raise NotImplementedError

    def check(self, op: OpInput, out: Path, reference: dict | None) -> list[str]:
        """Problems with one op's outputs; op 0 is also held to the reference."""
        try:
            summary, probs = self.summarize(op, out)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            return [f"output does not parse: {type(exc).__name__}: {exc}"]
        if op.reference:
            if reference is None:
                probs.append("no reference record for this workload")
            else:
                probs += self.compare_reference(reference, summary)
        return probs

    def compare_reference(self, reference: dict, summary: dict) -> list[str]:
        return ["reference mismatch " + p for p in compare(reference, summary)]


class _Simulate(Workload):
    preset = ""
    fmt = "csv"
    ranges: dict[str, tuple[float, float]] = {}

    def make_op(self, rng, index):
        text = _preset(self.preset)
        draw = {}
        if index > 0:
            draw = {k: round(rng.uniform(*r), 6) for k, r in self.ranges.items()}
            text = _with_lines(text, {
                f"params.{k}": (f"{v!r}gamma31" if k.startswith("omega") else repr(v))
                for k, v in draw.items()})
        argv = ["simulate", "--scenario", f"{self.preset}.cfg"]
        if self.fmt == "json":
            argv += ["--format", "json"]
        return OpInput(argv=argv, files={f"{self.preset}.cfg": text}, draw=draw,
                       reference=index == 0)

    def summarize(self, op, out):
        probs, summary = [], {}
        for kind in ("rcc2d_numeric", "rcc2d_analytic"):
            fname = f"{self.preset}_{kind}.{self.fmt}"
            s = summarize_grid(out / fname)
            probs += _rate_problems(fname, s["_values"])
            summary[fname] = _public(s)
        report = read_report(out / f"{self.preset}_report.txt")
        summary["report"] = report
        probs += self.check_report(op, report)
        return summary, probs

    def check_report(self, op, report) -> list[str]:
        return []


class SimulateChi5(_Simulate):
    name = "simulate_chi5"
    why = ("simulate on fig3a-derived chi5-dominated draws, CSV out: chi5 "
           "sampling, fft2 and the CSV writer work, Phi is idle (control)")
    preset = "fig3a"
    ranges = {"omega_c1": (7.0, 9.0), "omega_c2": (7.0, 9.0),
              "optical_depth": (30.0, 45.0)}

    def check_report(self, op, report):
        text = op.files[f"{self.preset}.cfg"]
        oc1 = _cfg_value(text, "params.omega_c1")
        g41 = _cfg_value(text, "params.gamma41")
        g51 = _cfg_value(text, "params.gamma51")
        omega_e1 = math.sqrt(4 * oc1 ** 2 - (g41 - g51) ** 2)
        expect_ns = 2 * math.pi / (omega_e1 * DEFAULT_GAMMA31_SI) * 1e9
        got = report.get("period tau12", "n/a")
        if not got.endswith(" ns"):
            return [f"tau12 period not reported ({got!r})"]
        period = float(got.split()[0])
        if abs(period - expect_ns) > PERIOD_RTOL * expect_ns:
            return [f"tau12 period {period} ns, expected {expect_ns:.3f} ns +- 1/21"]
        return []


class SimulateHybrid(_Simulate):
    name = "simulate_hybrid"
    why = ("simulate --format json on fig3d-derived hybrid draws: the full "
           "chi5*Phi product, 4 spectrum builds per op, the JSON writer")
    preset = "fig3d"
    fmt = "json"
    ranges = {"omega_c1": (1.8, 2.2), "omega_c2": (1.8, 2.2),
              "optical_depth": (90.0, 130.0)}


class SweepHybrid(Workload):
    name = "sweep_hybrid"
    why = ("sweep fig3f over 3 seeded ODs with --ideal-rect: 1D conditional "
           "transforms and 4096^2 closed-form grids, no fft2 or 2D export")
    od_range = (37.0, 111.0)
    preset_values = (37.0, 74.0, 111.0)

    def make_op(self, rng, index):
        if index == 0:
            values = list(self.preset_values)
        else:
            values = []
            while len(values) < 3:
                v = round(rng.uniform(*self.od_range), 3)
                if f"{v:g}" not in {f"{u:g}" for u in values}:
                    values.append(v)
        argv = ["sweep", "--scenario", "fig3f.cfg", "--param", "optical_depth",
                "--values", ",".join(f"{v:g}" for v in values), "--ideal-rect"]
        return OpInput(argv=argv, files={"fig3f.cfg": _preset("fig3f")},
                       draw={"optical_depth": values}, reference=index == 0)

    def summarize(self, op, out):
        probs, summary = [], {}
        for v in op.draw["optical_depth"]:
            tag = f"{v:g}".replace(".", "p").replace("-", "m")
            for kind in ("numeric", "analytic"):
                fname = f"fig3f_optical_depth_{tag}_trace_tau13_{kind}.csv"
                s = summarize_trace(out / fname)
                probs += _rate_problems(fname, s["_values"])
                summary[fname] = _public(s)
        _, cols, rows = read_table(out / "fig3f_sweep_optical_depth.csv")
        if len(rows) != 3:
            probs.append(f"sweep summary has {len(rows)} rows, expected 3")
        for row, v in zip(rows, op.draw["optical_depth"]):
            if float(row[0]) != float(f"{v:.6g}"):
                probs.append(f"sweep summary row {row[0]} != requested {v:g}")
            for col, cell in zip(cols, row):
                if col.endswith(("coherence_ns", "width_ns")) \
                        and not (math.isfinite(float(cell)) and float(cell) > 0):
                    probs.append(f"sweep summary {col} = {cell}")
        summary["sweep"] = [cols] + rows
        return summary, probs


class Acceptance(Workload):
    name = "acceptance"
    why = ("sswm acceptance: the only run of the fig2 strong-coupling map, the "
           "resonance finder and the three-OD C8 set; inputs fixed, no seed")

    def make_op(self, rng, index):
        return OpInput(argv=["acceptance"], reference=True)

    def summarize(self, op, out):
        lines = (out / "acceptance_report.txt").read_text().splitlines()
        probs = []
        crit = [ln for ln in lines if ln.startswith("[")]
        failing = [ln for ln in crit if not ln.startswith("[PASS]")]
        if len(crit) != 12 or failing or lines[-1] != "12/12 criteria passed":
            probs.append(f"acceptance: {len(crit) - len(failing)}/{len(crit)} "
                         f"criteria passed; failing: {failing}")
        return {"lines": crit}, probs

    def compare_reference(self, reference, summary):
        return ["reference mismatch " + p
                for p in compare_acceptance(reference["lines"], summary["lines"])]


WORKLOADS = {w.name: w for w in (SimulateChi5(), SimulateHybrid(), SweepHybrid(),
                                 Acceptance())}
