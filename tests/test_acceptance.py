"""Every acceptance criterion runs at its pinned tolerance and must pass."""
import warnings

import numpy as np
import pytest

import sswm.acceptance
from sswm.acceptance import (CRITERIA, AcceptanceContext, _central_symmetry_deviation,
                             c07_hybrid_group_delay, c11_precursor)
from sswm.params import SystemParams
from sswm.susceptibility import spectral_grid


@pytest.mark.parametrize("cid,fn,desc", CRITERIA, ids=[c[0] for c in CRITERIA])
def test_criterion(cid, fn, desc, ctx, capsys):
    result = fn(ctx)
    with capsys.disabled():
        print(result.line())
    assert result.passed, result.line()


def test_hybrid_row_criteria_warn_nothing():
    # C7 evaluates the rectangle at OD 37, a point that classifies as
    # chi5-dominated on purpose; the suite must not pass that advisory on.
    # The "error" filter overrides the autouse quieting fixture.
    ctx = AcceptanceContext()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert c07_hybrid_group_delay(ctx).passed
        assert c11_precursor(ctx).passed


@pytest.mark.parametrize("block_rows", [1, 7, 128, 300])
@pytest.mark.parametrize("source", ["fig2", "random"])
def test_blocked_symmetry_deviation_equals_whole_grid(source, block_rows, monkeypatch):
    # C2's deviation taken in row blocks equals the whole-array expression
    # bitwise, on the fig2 map at 256^2 and on a grid with no symmetry
    if source == "fig2":
        p = SystemParams(omega_c1=40.0, omega_c2=40.0)
        values = spectral_grid(p, 320.0, 256, force_phi_unity=True).values
    else:
        rng = np.random.default_rng(7)
        values = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
    mag = np.abs(values[1:, 1:])
    want = float(np.max(np.abs(mag - mag[::-1, ::-1])) / mag.max())
    monkeypatch.setattr(sswm.acceptance, "SYMMETRY_BLOCK_ROWS", block_rows)
    got = _central_symmetry_deviation(values)
    assert got == want and (want > 0.1 if source == "random" else want < 1e-12)
