"""The oracle's two routes, `rcc_numeric` (the rate) and `rcc_cond_numeric`
(one 1D trace): one spectrum per (params, config), shared by every consumer
of a scenario, a sweep point or an acceptance step."""
import gc
import os
import subprocess
import sys
import weakref
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sswm.oracle
from sswm import analysis, blocks
from sswm.acceptance import AcceptanceContext, c08_od_invariance, c11_precursor
from sswm.errors import ValidationError
from sswm.oracle import OracleConfig, rcc_cond_numeric, rcc_numeric
from sswm.params import SystemParams
from sswm.scenarios import _scenario_run, load_scenario, run_scenario, run_sweep

pytestmark = pytest.mark.filterwarnings("ignore:grid spacing", "ignore:extent")

HYB = SystemParams(omega_c1=2.0, omega_c2=2.0, optical_depth=111.0)


@pytest.fixture
def builds(monkeypatch):
    """Count the spectrum samplings: the n^2 grids behind sampled_spectrum
    and the row-block samplers behind each conditional trace."""
    calls = []

    def counting(real):
        def wrapper(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)
        return wrapper

    for name in ("spectral_grid", "spectrum_rows"):
        monkeypatch.setattr(sswm.oracle, name, counting(getattr(sswm.oracle, name)))
    return calls


@pytest.fixture
def transforms(monkeypatch):
    """Record each `_fft2` call and each np.fft.fft or fft2 call, the latter
    with whether it ran inside `_fft2`: (name, inside)."""
    calls = []
    inside = []

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls.append((name, bool(inside)))
            return real(*args, **kwargs)
        return wrapper

    real_fft2 = sswm.oracle._fft2

    def helper(values):
        calls.append(("_fft2", False))
        inside.append(True)
        try:
            return real_fft2(values)
        finally:
            inside.pop()

    monkeypatch.setattr(sswm.oracle, "_fft2", helper)
    for name in ("fft", "fft2"):
        monkeypatch.setattr(np.fft, name, counting(name, getattr(np.fft, name)))
    return calls


@pytest.mark.parametrize("p", [SystemParams(), HYB], ids=["chi5", "hybrid"])
@pytest.mark.parametrize("tukey_alpha", [0.0, 0.1])
@pytest.mark.parametrize("force_phi_unity,ideal_rect",
                         [(False, False), (False, True), (True, False), (True, True)])
def test_products_equal_standalone_transforms(p, tukey_alpha, force_phi_unity, ideal_rect):
    cfg = OracleConfig(extent=32.0, n_points=256, tukey_alpha=tukey_alpha,
                       force_phi_unity=force_phi_unity, ideal_rect=ideal_rect)
    rate = rcc_numeric(p, cfg)
    assert rate.values.max() == 1.0 and rate.normalization > 0
    for which in ("tau12", "tau13"):
        # the rate grid integrated (Parseval) against the 1D transform:
        # equal up to rounding
        tr, ref = analysis.trace_from_grid(rate, which), rcc_cond_numeric(which, p, cfg)
        assert np.array_equal(tr.t_axis, ref.t_axis)
        assert np.max(np.abs(tr.values - ref.values)) <= 1e-13


def test_rate_run_makes_one_2d_transform_and_no_conditional(transforms):
    # the 2D transform is _fft2, which runs np.fft.fft on row then column
    # blocks; the rate calls it once, and makes no other transform
    rcc_numeric(HYB, OracleConfig(extent=32.0, n_points=256))
    assert transforms[0] == ("_fft2", False)
    assert transforms[1:] and set(transforms[1:]) == {("fft", True)}


@given(st.sampled_from([1, 2, 3, 8, 256]), st.sampled_from([1, 2, 5, 64, 256]),
       st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 3]))
@settings(max_examples=30, deadline=None)
def test_fft2_helper_equals_numpy_fft2_bitwise(n0, n1, seed, workers):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((n0, n1)) + 1j * rng.standard_normal((n0, n1))
    want = np.fft.fft2(values)
    with mock.patch.object(blocks, "workers", lambda: workers):
        got = sswm.oracle._fft2(values)
    assert got is values and np.array_equal(got, want)


def test_tapered_run_loads_no_scipy():
    src = str(Path(sswm.oracle.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, warnings; warnings.simplefilter('ignore')\n"
            "from sswm.oracle import OracleConfig, rcc_numeric\n"
            "from sswm.params import SystemParams\n"
            "rcc_numeric(SystemParams(), OracleConfig(n_points=256, tukey_alpha=0.1))\n"
            "sys.exit(int('scipy' in sys.modules))")
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_run_holds_only_what_was_asked(builds):
    cfg = OracleConfig(force_phi_unity=True, n_points=256)
    with pytest.raises(ValidationError, match="tau12"):
        rcc_cond_numeric("tau14", SystemParams(), cfg)
    assert builds == []  # a bad direction is refused before any build
    # one numeric direction makes its 1D trace and no rate
    sc = load_scenario("fig3e")
    rate, traces = _scenario_run(replace(sc, oracle=replace(sc.oracle, n_points=256)))
    assert rate is None and list(traces) == ["tau12"] and len(builds) == 1


def test_rate_run_serves_both_traces_unlisted(builds):
    # both numeric directions, and no report or 2D rate: the rate is made
    # once and each trace integrates it
    sc = load_scenario("fig3c")
    sc = replace(sc, oracle=replace(sc.oracle, n_points=256),
                 outputs=("trace_tau12_numeric", "trace_tau13_numeric"))
    rate, traces = _scenario_run(sc)
    assert sorted(traces) == ["tau12", "tau13"] and len(builds) == 1
    for which, tr in traces.items():
        ref = analysis.trace_from_grid(rate, which)
        assert np.array_equal(tr.t_axis, ref.t_axis)
        assert np.array_equal(tr.values, ref.values)


def test_spectrum_released_once_products_are_made(monkeypatch):
    refs = []
    real = sswm.oracle.sampled_spectrum

    def keep_weakref(p, cfg):
        grid = real(p, cfg)
        refs.append(weakref.ref(grid))
        return grid

    monkeypatch.setattr(sswm.oracle, "sampled_spectrum", keep_weakref)
    rate = rcc_numeric(HYB, OracleConfig(extent=32.0, n_points=256, tukey_alpha=0.1))
    gc.collect()
    assert len(refs) == 1 and refs[0]() is None
    assert not np.iscomplexobj(rate.values)


def test_run_scenario_builds_one_spectrum(builds, transforms, tmp_path):
    # one spectrum and its one 2D transform serve every output, with the
    # report or with both numeric traces alone: no 1D transform runs beside it
    sc = load_scenario("fig3d")
    for outputs in [("report", "rcc2d_numeric", "rcc2d_analytic", "trace_tau12_numeric",
                     "trace_tau13_numeric"),
                    ("trace_tau12_numeric", "trace_tau13_numeric")]:
        builds.clear()
        transforms.clear()
        sc = replace(sc, oracle=replace(sc.oracle, n_points=512), outputs=outputs)
        paths, _, _ = run_scenario(sc, tmp_path / str(len(outputs)))
        assert len(paths) == len(outputs) and all(p.exists() for p in paths)
        assert len(builds) == 1
        assert [call for call in transforms if not call[1]] == [("_fft2", False)]


def test_sweep_builds_and_fits_once_per_point(builds, tmp_path, monkeypatch):
    fits = []
    real_fit = analysis.coherence_fit

    def counting_fit(tr):
        fits.append(tr)
        return real_fit(tr)

    monkeypatch.setattr(analysis, "coherence_fit", counting_fit)
    sc = load_scenario("fig3f")  # tau13 numeric + analytic outputs
    sc = replace(sc, oracle=replace(sc.oracle, n_points=512, ideal_rect=True))
    run_sweep(sc, "optical_depth", [37.0, 74.0, 111.0], tmp_path)
    assert len(builds) == 3
    assert len(fits) == 3  # one tau13 summary fit per point


def test_acceptance_artifacts_share_runs(builds):
    ctx = AcceptanceContext()
    ctx.chi5_point
    assert len(builds) == 1
    assert c08_od_invariance(ctx).passed and c11_precursor(ctx).passed
    assert len(builds) == 4  # OD 37, OD 74 and one OD-111 run for C8 and C11
