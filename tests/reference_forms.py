"""Literal forms that only tests read: the references that
`wavepacket.analytic_rate_grid` is checked against for its "hybrid" and
"cascaded" rates, each with the regime check of the library's forms, and
the whole-map peak finder that `susceptibility.find_resonances` is checked
against."""
import numpy as np

from sswm.errors import ValidationError
from sswm.params import Regime, SystemParams, effective_splittings, eit_dispersion
from sswm.susceptibility import RESONANCE_FLOOR
from sswm.wavepacket import _check_regime, hybrid_loss_rate


def wavepacket_hybrid(tau12, tau13, p: SystemParams, ideal_rect: bool = False):
    """Hybrid-regime amplitude: chi5 along tau12, a rectangle along tau13.

    B = (O1/2 cos(O1 t12/2) + g_e3 sin(O1 t12/2)) Theta(t12) Theta(s)
        * Pi(t13; 0, L/nu3) * e^(-loss*t13 - g_e1*t12).
    g_e3 = gamma51 - gamma_e1, the coefficient filling the same structural
    slot in the conditional rate.  The closed form contains no early-time
    precursor by construction: that feature only emerges from the numeric
    transform.
    """
    _check_regime(p, Regime.HYBRID)
    s = effective_splittings(p)
    gamma_e3 = p.gamma51 - s.gamma_e1
    t12_s = np.asarray(tau12, dtype=float)
    t13_s = np.asarray(tau13, dtype=float)
    t12 = t12_s * p.gamma31_si
    o1 = s.omega_e1
    rect = (t13_s >= 0) & (t13_s <= eit_dispersion(p).group_delay)
    support = (t12 >= 0) & (t13_s >= t12_s) & rect
    loss = 0.0 if ideal_rect else hybrid_loss_rate(p)
    amp = ((o1 / 2 * np.cos(o1 * t12 / 2) + gamma_e3 * np.sin(o1 * t12 / 2))
           * np.exp(-loss * t13_s - s.gamma_e1 * t12))
    out = np.where(support, amp, 0.0)
    return float(out) if out.ndim == 0 else out


def rcc_cascaded_stub(tau12, tau13, p: SystemParams):
    """Cascaded-source reference: a rate that factorizes by construction.

    Returns rcc_cond12(tau12) * m(tau13) with m the second-arm damped
    oscillation (1 - cos(O2 t13)) e^(-2 g_e2 t13) Theta(t13).  Used as the
    zero-residual baseline for the factorizability contrast.
    """
    _check_regime(p, Regime.CHI5_DOMINATED)  # rcc_cond12's check
    s = effective_splittings(p)
    o1, b = s.omega_e1, p.gamma51 - s.gamma_e1
    t12 = np.asarray(tau12, dtype=float) * p.gamma31_si
    t13 = np.asarray(tau13, dtype=float) * p.gamma31_si
    r12 = ((o1 * np.cos(o1 * t12 / 2) + 2 * b * np.sin(o1 * t12 / 2)) ** 2
           * np.exp(-2 * s.gamma_e1 * t12))
    m = (1.0 - np.cos(s.omega_e2 * t13)) * np.exp(-2 * s.gamma_e2 * t13)
    return np.where(t12 >= 0, r12, 0.0) * np.where(t13 >= 0, m, 0.0)


def find_resonances_whole_map(mag: np.ndarray, delta2_axis, delta3_axis) -> list[dict]:
    """`susceptibility.find_resonances` as eight neighbour tests over the
    whole interior: a boolean map per neighbour, then the floor."""
    if mag.size == 0 or not np.any(mag > 0):
        raise ValidationError("find_resonances needs a non-empty grid")
    peak = mag.max()
    hits = []
    core = mag[1:-1, 1:-1]
    neighborhood_max = np.ones_like(core, dtype=bool)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di == 0 and dj == 0:
                continue
            shifted = mag[1 + di:mag.shape[0] - 1 + di, 1 + dj:mag.shape[1] - 1 + dj]
            neighborhood_max &= core >= shifted
    # strict on the lexicographically earlier side to avoid plateau doubles
    neighborhood_max &= core > mag[:-2, 1:-1]
    neighborhood_max &= core > mag[1:-1, :-2]
    neighborhood_max &= core > RESONANCE_FLOOR * peak
    for i, j in np.argwhere(neighborhood_max):
        hits.append({
            "delta2": float(delta2_axis[i + 1]),
            "delta3": float(delta3_axis[j + 1]),
            "magnitude": float(core[i, j]),
        })
    hits.sort(key=lambda h: -h["magnitude"])
    return hits
