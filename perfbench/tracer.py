"""Outside-in tracer for one `sswm` CLI op.

Wraps the public functions listed in LAYERS at every binding that a loaded
`sswm` module holds (module attributes, and function references kept in
module-level lists such as `acceptance.CRITERIA`), matched by identity with
the original function.  No file under `src/` changes.  Each call records a
span (name, start, end, parent, ru_maxrss before/after, escaping exception)
in memory; the spans are written as JSON when the op ends.

Run as a script it is the traced child of one op:

    python perfbench/tracer.py SPANS.json [sswm CLI args...]
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import resource
import sys
import time

#: Public functions traced per module, in `<module>.<function>` metric order.
LAYERS = {
    "params": ("derived_frequencies", "effective_splittings", "eit_dispersion"),
    "susceptibility": ("spectral_grid", "chi5", "phi", "delta_k", "find_resonances"),
    "oracle": ("sampled_spectrum", "wavepacket_numeric", "rcc_numeric",
               "rcc_cond_numeric"),
    "wavepacket": ("analytic_rate_grid", "rcc_cond12"),
    "analysis": ("extract_period", "coherence_fit", "fit_coherence_time",
                 "factorizability_residual", "ordering_violation_mass",
                 "detect_precursor", "trace_from_grid", "near_diagonal_trace",
                 "diagonal_offset_trace"),
    "scenarios": ("load_scenario", "scenario_report", "run_scenario", "run_sweep"),
    "acceptance": ("run_acceptance", "c01_four_channels", "c02_central_symmetry",
                   "c03_oracle_equivalence", "c04_rabi_period",
                   "c05_coherence_times", "c06_coherence_enhancement",
                   "c07_hybrid_group_delay", "c08_od_invariance",
                   "c09_temporal_ordering", "c10_non_factorizability",
                   "c11_precursor", "c12_algebra_check"),
    "cli": ("main",),
}

#: Functions whose span also records the rise of ru_maxrss across it.
RSS_TRACKED = ("susceptibility.spectral_grid", "oracle.wavepacket_numeric",
               "oracle.rcc_cond_numeric", "wavepacket.analytic_rate_grid",
               "scenarios.run_scenario", "scenarios.run_sweep")


def traced_names() -> list[str]:
    return [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """Span recorder; `install` swaps every binding, `uninstall` restores."""

    def __init__(self) -> None:
        # span: [name, t0, t1, parent, rss0_kb, rss1_kb, exc_type, extra]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._originals: dict[int, tuple[str, object]] = {}
        self._wrappers: dict[int, object] = {}
        self._swapped: list[tuple[object, object, object]] = []
        self.bindings: dict[str, list[str]] = {}

    # -- recording -------------------------------------------------------

    def _wrap(self, name: str, fn):
        extra_of = _EXTRA.get(name)
        sig = inspect.signature(fn) if extra_of else None
        module = name.partition(".")[0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [name, 0.0, 0.0, parent, _maxrss_kb(), 0, None, None]
            self.spans.append(span)
            self._stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = time.perf_counter()
                span[6] = type(exc).__name__
                if module == "analysis" and _is_sswm_error(exc) \
                        and not getattr(exc, "_perfbench_counted", False):
                    exc._perfbench_counted = True
                    span[7] = {"fit_error": 1}
                raise
            else:
                span[2] = time.perf_counter()
                if extra_of is not None:
                    span[7] = extra_of(sig.bind(*args, **kwargs), result)
                return result
            finally:
                span[5] = _maxrss_kb()
                self._stack.pop()

        wrapper.__perfbench_original__ = fn
        return wrapper

    # -- binding ---------------------------------------------------------

    def install(self) -> None:
        """Import every traced module, then rebind each original everywhere."""
        for mod in LAYERS:
            importlib.import_module(f"sswm.{mod}")
        for mod, fns in LAYERS.items():
            module = sys.modules[f"sswm.{mod}"]
            for fn_name in fns:
                orig = getattr(module, fn_name)
                name = f"{mod}.{fn_name}"
                self._originals[id(orig)] = (name, orig)
                self._wrappers[id(orig)] = self._wrap(name, orig)
                self.bindings[name] = []
        for mod_name, module in sorted(sys.modules.items()):
            if module is None or not (mod_name == "sswm" or mod_name.startswith("sswm.")):
                continue
            for attr, value in list(vars(module).items()):
                if self._traced_name(value):
                    setattr(module, attr, self._wrappers[id(value)])
                    self._swapped.append((module, attr, value))
                    self.bindings[self._traced_name(value)].append(f"{mod_name}.{attr}")
                elif isinstance(value, list):
                    self._swap_in_list(value, f"{mod_name}.{attr}")

    def _traced_name(self, value) -> str | None:
        hit = self._originals.get(id(value))
        return hit[0] if hit is not None and hit[1] is value else None

    def _swap_in_list(self, seq: list, where: str) -> None:
        for i, item in enumerate(seq):
            if not isinstance(item, tuple) or not any(map(self._traced_name, item)):
                continue
            seq[i] = tuple(self._wrappers[id(v)] if self._traced_name(v) else v
                           for v in item)
            self._swapped.append((seq, i, item))
            for v in item:
                if self._traced_name(v):
                    self.bindings[self._traced_name(v)].append(f"{where}[{i}]")

    def uninstall(self) -> None:
        for holder, key, orig in reversed(self._swapped):
            if isinstance(holder, list):
                holder[key] = orig
            else:
                setattr(holder, key, orig)
        self._swapped.clear()


def _is_sswm_error(exc: BaseException) -> bool:
    errors = sys.modules.get("sswm.errors")
    return errors is not None and isinstance(exc, errors.SswmError)


def _spectral_grid_extra(bound, grid) -> dict:
    a = bound.arguments
    n = int(a["n_points"])
    return {"key": [repr(a["p"]), float(a["extent"]), n,
                    bool(a.get("force_phi_unity", False)),
                    bool(a.get("ideal_rect", False))],
            "cells": n * n}


def _analytic_rate_grid_extra(bound, grid) -> dict:
    return {"cells": int(grid.values.size)}


_EXTRA = {
    "susceptibility.spectral_grid": _spectral_grid_extra,
    "wavepacket.analytic_rate_grid": _analytic_rate_grid_extra,
}


# ---------------------------------------------------------------------------
# aggregation (runs in the benchmark process)


def self_times(spans: list[list]) -> list[float]:
    """Span duration minus the part of its interval its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s[3] >= 0:
            children.setdefault(s[3], []).append((s[1], s[2]))
    out = []
    for i, s in enumerate(spans):
        t0, t1 = s[1], s[2]
        covered, end = 0.0, t0
        for c0, c1 in sorted(children.get(i, ())):
            c0, c1 = max(c0, end), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                end = c1
        out.append((t1 - t0) - covered)
    return out


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-op layer metrics from one traced op's spans."""
    selfs = self_times(spans)
    m: dict[str, float] = {}
    for name in traced_names():
        m[f"{name}.calls"] = 0
        m[f"{name}.self_s"] = 0.0
    for name in RSS_TRACKED:
        m[f"{name}.rss_rise_mb"] = 0.0
    keys, cells, salvaged, fit_errors, rate_cells = set(), 0, 0, 0, 0
    for i, s in enumerate(spans):
        name, extra = s[0], s[7] or {}
        m[f"{name}.calls"] += 1
        m[f"{name}.self_s"] += selfs[i]
        if name in RSS_TRACKED:
            m[f"{name}.rss_rise_mb"] += (s[5] - s[4]) / 1024.0
        fit_errors += extra.get("fit_error", 0)
        if name == "susceptibility.spectral_grid" and "key" in extra:
            keys.add(json.dumps(extra["key"]))
            cells += extra["cells"]
        elif name == "wavepacket.analytic_rate_grid":
            rate_cells += extra.get("cells", 0)
        elif (name == "susceptibility.chi5" and s[6] == "SingularPointError"
              and s[3] >= 0 and spans[s[3]][0] == "susceptibility.spectral_grid"):
            salvaged += 1
    calls = m["susceptibility.spectral_grid.calls"]
    m["susceptibility.spectral_grid.distinct"] = len(keys)
    m["susceptibility.spectral_grid.useful_ratio"] = len(keys) / calls if calls else 0.0
    m["susceptibility.spectral_grid.cells"] = cells
    m["susceptibility.spectral_grid.bytes_computed"] = 16 * cells
    m["susceptibility.spectral_grid.n_singular_replaced"] = salvaged
    m["wavepacket.analytic_rate_grid.cells"] = rate_cells
    m["analysis.fit_errors"] = fit_errors
    return m


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    import sswm.cli

    tracer = Tracer()
    tracer.install()
    code = 1
    try:
        code = sswm.cli.main(cli_args)
    finally:
        with open(spans_path, "w") as fh:
            json.dump({"spans": tracer.spans, "bindings": tracer.bindings}, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
