"""OracleRun: one spectrum per (params, config), shared by every consumer."""
import gc
import weakref
from dataclasses import replace

import numpy as np
import pytest

import sswm.oracle
from sswm import analysis
from sswm.acceptance import AcceptanceContext, c08_od_invariance, c11_precursor
from sswm.errors import ValidationError
from sswm.oracle import OracleConfig, OracleRun, rcc_cond_numeric, rcc_numeric
from sswm.params import SystemParams
from sswm.scenarios import load_scenario, run_scenario, run_sweep

pytestmark = pytest.mark.filterwarnings("ignore:grid spacing", "ignore:extent")

HYB = SystemParams(omega_c1=2.0, omega_c2=2.0, optical_depth=111.0)


@pytest.fixture
def builds(monkeypatch):
    """Count the spectrum builds behind sampled_spectrum."""
    calls = []
    real = sswm.oracle.spectral_grid

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(sswm.oracle, "spectral_grid", counting)
    return calls


@pytest.mark.parametrize("p", [SystemParams(), HYB], ids=["chi5", "hybrid"])
@pytest.mark.parametrize("tukey_alpha", [0.0, 0.1])
@pytest.mark.parametrize("force_phi_unity,ideal_rect",
                         [(False, False), (False, True), (True, False), (True, True)])
def test_products_equal_standalone_transforms(p, tukey_alpha, force_phi_unity, ideal_rect):
    cfg = OracleConfig(extent=32.0, n_points=256, tukey_alpha=tukey_alpha,
                       force_phi_unity=force_phi_unity, ideal_rect=ideal_rect)
    run = OracleRun(p, cfg, traces=("tau12", "tau13"))
    ref = rcc_numeric(p, cfg)
    assert run.rate.normalization == ref.normalization
    for name in ("tau12_axis", "tau13_axis", "values"):
        assert np.array_equal(getattr(run.rate, name), getattr(ref, name))
    for which in ("tau12", "tau13"):
        tr = rcc_cond_numeric(which, p, cfg)
        assert np.array_equal(run.trace(which).t_axis, tr.t_axis)
        assert np.array_equal(run.trace(which).values, tr.values)


def test_run_holds_only_what_was_asked(builds):
    cfg = OracleConfig(force_phi_unity=True, n_points=256)
    run = OracleRun(SystemParams(), cfg, rate=False, traces=("tau12",))
    assert run.rate is None and len(builds) == 1
    with pytest.raises(ValidationError, match="tau13"):
        run.trace("tau13")
    with pytest.raises(ValidationError):
        OracleRun(SystemParams(), cfg, traces=("tau14",))
    assert len(builds) == 1  # a bad direction is refused before any build


def test_spectrum_released_once_products_are_made(monkeypatch):
    refs = []
    real = sswm.oracle.sampled_spectrum

    def keep_weakref(p, cfg):
        grid = real(p, cfg)
        refs.append(weakref.ref(grid))
        return grid

    monkeypatch.setattr(sswm.oracle, "sampled_spectrum", keep_weakref)
    run = OracleRun(HYB, OracleConfig(extent=32.0, n_points=256, tukey_alpha=0.1),
                    traces=("tau12", "tau13"))
    gc.collect()
    assert len(refs) == 1 and refs[0]() is None
    assert not np.iscomplexobj(run.rate.values)


def test_run_scenario_builds_one_spectrum(builds, tmp_path):
    sc = load_scenario("fig3d")
    sc = replace(sc, oracle=replace(sc.oracle, n_points=512),
                 outputs=("report", "rcc2d_numeric", "rcc2d_analytic",
                          "trace_tau12_numeric", "trace_tau13_numeric"))
    paths = run_scenario(sc, tmp_path)
    assert len(paths) == 5 and all(p.exists() for p in paths)
    assert len(builds) == 1


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
    ctx.chi5_run, ctx.rate_analytic, ctx.sdir_numeric
    assert len(builds) == 1
    assert c08_od_invariance(ctx).passed and c11_precursor(ctx).passed
    assert len(builds) == 4  # OD 37, OD 74 and one OD-111 run for C8 and C11
