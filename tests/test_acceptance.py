"""Every acceptance criterion runs at its pinned tolerance and must pass."""
import warnings

import pytest

from sswm.acceptance import CRITERIA, AcceptanceContext, c07_hybrid_group_delay, c11_precursor


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
