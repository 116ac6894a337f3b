"""Every acceptance criterion runs at its pinned tolerance, must pass and
prints its golden line."""
import re
import warnings
from pathlib import Path

import pytest

from sswm.acceptance import CRITERIA, AcceptanceContext, c07_hybrid_group_delay, c11_precursor

#: Each criterion's line as `sswm acceptance` prints it, by id.
GOLDEN = {line.split()[1]: line for line in
          (Path(__file__).parent / "golden" / "acceptance.txt").read_text().splitlines()}

#: The two printed values that are rounding noise (C10's cascaded-stub
#: residual, C12's maximum relative deviation) and their bounds: each is
#: held to its bound, and the rest of its line compared as text.
NOISE = {"C10": (r"(?<=cascaded stub )\S+", 1e-10),
         "C12": (r"(?<=max relative deviation )\S+", 1e-9)}


@pytest.mark.parametrize("cid,fn,desc", CRITERIA, ids=[c[0] for c in CRITERIA])
def test_criterion(cid, fn, desc, ctx, capsys):
    result = fn(ctx)
    got, want = result.line(), GOLDEN[cid]
    with capsys.disabled():
        print(got)
    assert result.passed, got
    if cid in NOISE:
        pattern, bound = NOISE[cid]
        assert float(re.search(pattern, got).group()) < bound, got
        got, want = (re.sub(pattern, "<noise>", line) for line in (got, want))
    assert got == want


def test_hybrid_row_criteria_warn_nothing():
    # C7 evaluates the rectangle at OD 37, a point that classifies as
    # chi5-dominated on purpose; the suite must not pass that advisory on.
    # The "error" filter overrides the autouse quieting fixture.
    ctx = AcceptanceContext()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert c07_hybrid_group_delay(ctx).passed
        assert c11_precursor(ctx).passed
