"""Self-test of the benchmark harness (not of sswm itself).

    python -m pytest perfbench/test_harness.py -q
"""
from __future__ import annotations

import json
import os
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == run.END_TO_END
    assert layers == run.per_layer_units()
    for w in spec["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why
    for name in list(e2e) + list(layers) + list(workloads.WORKLOADS):
        assert NAME.fullmatch(name), name


def test_malformed_cfg_op_counts_as_failed(tmp_path):
    op = workloads.OpInput(argv=["simulate", "--scenario", "bad.cfg"],
                           files={"bad.cfg": "name = bad\nparams.omega_c1 = lots\n"})
    res = run.run_op(workloads.WORKLOADS["simulate_chi5"], op, 0, False,
                     tmp_path / "op", 60, run.child_env(), None)
    assert res.failed and res.exit_code == 2
    assert res.problems[0].startswith("exit 2: config error")


def _originals_still_bound(originals: dict[int, object]) -> list[str]:
    """Bindings in loaded sswm modules that hold one of `originals`."""
    left = []
    for mod_name, module in sorted(sys.modules.items()):
        if module is None or not (mod_name == "sswm" or mod_name.startswith("sswm.")):
            continue
        for attr, value in vars(module).items():
            for item in value if isinstance(value, list) else [value]:
                for v in item if isinstance(item, tuple) else (item,):
                    if originals.get(id(v)) is v:
                        left.append(f"{mod_name}.{attr}")
    return left


@pytest.fixture
def installed():
    import importlib

    originals = {}
    for mod, fns in tracer.LAYERS.items():
        module = importlib.import_module(f"sswm.{mod}")
        originals.update({id(getattr(module, fn)): getattr(module, fn) for fn in fns})
    t = tracer.Tracer()
    t.install()
    t.left_unwrapped = _originals_still_bound(originals)
    yield t
    t.uninstall()
    assert _originals_still_bound(originals) != []  # originals are back


def test_tracer_wraps_every_binding(installed):
    import sswm
    import sswm.acceptance
    import sswm.oracle
    import sswm.scenarios

    assert installed.left_unwrapped == []
    for name in tracer.traced_names():
        assert installed.bindings[name], f"{name} was never bound"
    where = set(installed.bindings["susceptibility.spectral_grid"])
    assert {"sswm.susceptibility.spectral_grid", "sswm.oracle.spectral_grid",
            "sswm.scenarios.spectral_grid", "sswm.acceptance.spectral_grid",
            "sswm.spectral_grid"} <= where
    for wrapped in (sswm.spectral_grid, sswm.oracle.spectral_grid,
                    sswm.scenarios.run_scenario, sswm.acceptance.CRITERIA[0][1]):
        assert hasattr(wrapped, "__perfbench_original__")


def test_self_time_is_span_minus_children(installed):
    import sswm.scenarios
    from sswm.params import SystemParams

    sswm.scenarios.derived_frequencies(SystemParams())
    spans = installed.spans
    names = [s[0] for s in spans]
    assert names == ["params.derived_frequencies", "params.effective_splittings",
                     "params.eit_dispersion"]
    assert [s[3] for s in spans] == [-1, 0, 0]
    selfs = tracer.self_times(spans)
    children = sum(s[2] - s[1] for s in spans[1:])
    assert selfs[0] == pytest.approx(spans[0][2] - spans[0][1] - children, abs=1e-12)
    assert selfs[1] == pytest.approx(spans[1][2] - spans[1][1], abs=1e-12)


def test_self_time_synthetic_overlap():
    spans = [["a", 0.0, 10.0, -1, 0, 0, None, None],
             ["b", 1.0, 3.0, 0, 0, 0, None, None],
             ["c", 2.0, 4.0, 0, 0, 0, None, None],
             ["d", 3.5, 3.75, 2, 0, 0, None, None]]
    assert tracer.self_times(spans) == pytest.approx([7.0, 2.0, 1.75, 0.25])


def test_fit_errors_and_distinct_grids_are_counted():
    grid = lambda key: ["susceptibility.spectral_grid", 0, 1, -1, 0, 0, None,
                        {"key": key, "cells": 4}]
    spans = [grid(["p", 1.0, 2, False, False]), grid(["p", 1.0, 2, False, False]),
             grid(["q", 1.0, 2, False, False]),
             ["analysis.coherence_fit", 0, 1, -1, 0, 0, "InsufficientExtremaError",
              {"fit_error": 1}],
             ["analysis.fit_coherence_time", 0, 1, -1, 0, 0,
              "InsufficientExtremaError", None]]
    m = tracer.layer_metrics(spans)
    assert m["susceptibility.spectral_grid.calls"] == 3
    assert m["susceptibility.spectral_grid.distinct"] == 2
    assert m["susceptibility.spectral_grid.bytes_computed"] == 16 * 12
    assert m["analysis.fit_errors"] == 1


def test_acceptance_compare_pins_rounding_level_values():
    ref = ["[PASS] C12  rate formula: c0 = 0.500000, max relative deviation "
           "9.96e-13 (require < 1e-9)",
           "[PASS]  C4  Rabi period: tau12 20.87 ns (require 21 +- 1 ns)"]
    moved = [ref[0].replace("9.96e-13", "1.02e-12"), ref[1]]
    assert workloads.compare_acceptance(ref, moved) == []
    drift = [ref[0], ref[1].replace("20.87", "20.88")]
    assert len(workloads.compare_acceptance(ref, drift)) == 1
    broken = [ref[0].replace("9.96e-13", "2.00e-09"), ref[1]]
    assert "rounding-level" in workloads.compare_acceptance(ref, broken)[0]


def test_inputs_are_seeded_and_in_range():
    import random

    for name, wl in workloads.WORKLOADS.items():
        a = [wl.make_op(random.Random(f"{name}:7"), i) for i in range(4)]
        b = [wl.make_op(random.Random(f"{name}:7"), i) for i in range(4)]
        assert [(o.argv, o.files) for o in a] == [(o.argv, o.files) for o in b]
        assert a[0].reference and not any(o.reference for o in a[1:]) \
            or name == "acceptance"
    chi5 = workloads.WORKLOADS["simulate_chi5"]
    op = chi5.make_op(random.Random(1), 1)
    text = op.files["fig3a.cfg"]
    assert 7 <= workloads._cfg_value(text, "params.omega_c1") <= 9
    assert "params.omega_c1 = " in text and "gamma31" in text.split(
        "params.omega_c1 = ")[1].splitlines()[0]
    assert 30 <= workloads._cfg_value(text, "params.optical_depth") <= 45


def test_refuses_to_run_without_sources(tmp_path):
    import shutil
    import subprocess

    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "acceptance", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60, env=dict(os.environ))
    assert proc.returncode != 0 and proc.stdout == ""
