"""Physical parameter record and derived scalar frequencies.

Internal unit convention: every rate, Rabi frequency and detuning is stored
dimensionless in units of the reference dephasing rate gamma31, which is
therefore the constant GAMMA31 = 1 and not an input; `gamma31_si` (rad/s)
converts to and from SI on input/output.  Optical carriers are never
represented absolutely; all spectra are offsets from the carriers.
"""
from __future__ import annotations

import cmath
import enum
import hashlib
import math
from dataclasses import dataclass, replace

from .errors import OverdampedError, ValidationError

C_LIGHT = 2.99792458e8  # m/s

#: Default reference rate: 2*pi*3 MHz, a typical alkali D-line dephasing.
DEFAULT_GAMMA31_SI = 2 * math.pi * 3e6

#: The reference dephasing rate gamma31 in its own units: the unit of every
#: rate, Rabi frequency and detuning.
GAMMA31 = 1.0


#: Fields that must be > 0: the reference rate, the three other dephasings,
#: the cell length and the optical depth (every run evaluates the EIT
#: dispersion, which has no OD = 0 limit).
_POSITIVE = ("gamma31_si", "gamma21", "gamma41", "gamma51", "length_L", "optical_depth")
#: Fields that must be nonzero: the couplings (complex allowed).
_NONZERO = ("omega_c1", "omega_c2")


class Regime(enum.Enum):
    CHI5_DOMINATED = "chi5_dominated"
    HYBRID = "hybrid"
    OVERDAMPED = "overdamped"


class Entanglement(enum.Enum):
    W_2X3X2 = "W_2x3x2"
    NONW_2X4X2 = "NonW_2x4x2"


@dataclass(frozen=True)
class SystemParams:
    """All physical inputs, validated once at construction: every field is
    finite (`omega21` may be None), the _POSITIVE fields (`optical_depth`
    among them) are > 0 and the _NONZERO fields are nonzero.

    Rates, Rabi frequencies and detunings are in units of gamma31, which is
    the constant GAMMA31 and not a field; Rabi frequencies may be complex.
    `optical_depth` is a direct input: the microscopic dipole data needed to
    derive it are not part of this model.  The susceptibilities carry no
    dimensional prefactor (atom density, dipole products, hbar, epsilon_0):
    rate outputs are peak-normalized before comparison, so only relative
    spectra matter.
    """

    gamma31_si: float = DEFAULT_GAMMA31_SI
    gamma21: float = 0.02
    gamma41: float = 1.0
    gamma51: float = 0.1
    omega_c1: complex = 8.0
    omega_c2: complex = 8.0
    delta_p: float = -100.0
    delta_c1: float = 0.0
    length_L: float = 0.0015
    optical_depth: float = 37.0
    omega21: float | None = None  # rad/s; None -> delta_p carrier (phase matched)

    def __post_init__(self) -> None:
        for name in self.__dataclass_fields__:
            v = getattr(self, name)
            if v is not None and not cmath.isfinite(v):
                raise ValidationError(f"{name} must be finite, got {v!r}")
        for name in _POSITIVE:
            if getattr(self, name) <= 0:
                raise ValidationError(f"{name} must be > 0, got {getattr(self, name)!r}")
        for name in _NONZERO:
            if getattr(self, name) == 0:
                raise ValidationError(f"{name} must be nonzero")

    @property
    def omega21_si(self) -> float:
        """Ground-splitting carrier term in rad/s (defaults to phase-matched)."""
        if self.omega21 is None:
            return self.delta_p * self.gamma31_si
        return self.omega21

    def with_(self, **kwargs) -> "SystemParams":
        return replace(self, **kwargs)

    def content_hash(self) -> str:
        """Stable short hash of all fields, used to stamp derived grids."""
        items = [f"{k}={getattr(self, k)!r}" for k in sorted(self.__dataclass_fields__)]
        return hashlib.sha256(";".join(items).encode()).hexdigest()[:16]


@dataclass(frozen=True)
class DerivedFrequencies:
    """Scalar frequencies derived from SystemParams.

    Produced piecewise by effective_splittings / eit_dispersion and merged by
    derived_frequencies.  Splittings and bandwidths are in gamma31 units,
    group velocity and delay are SI.
    """

    omega_e1: float | None = None
    omega_e2: float | None = None
    gamma_e1: float | None = None
    gamma_e2: float | None = None
    overdamped_1: bool = False
    overdamped_2: bool = False
    group_velocity_nu3: float | None = None
    group_delay: float | None = None
    delta_omega_g: float | None = None
    delta_omega_t: float | None = None
    regime: Regime | None = None
    entanglement: Entanglement | None = None

    @property
    def overdamped(self) -> bool:
        return self.overdamped_1 or self.overdamped_2


def effective_splittings(p: SystemParams) -> DerivedFrequencies:
    """Effective Rabi splittings and linewidths of the two dressed arms.

    Omega_e1 = sqrt(4|omega_c1|^2 - (gamma41-gamma51)^2) with linewidth
    gamma_e1 = (gamma41+gamma51)/2; arm 2 analogously from (GAMMA31, gamma21,
    omega_c2).  A negative radicand marks the arm overdamped: the splitting
    is reported as 0 with the flag set, not as an error.
    """
    r1 = 4 * abs(p.omega_c1) ** 2 - (p.gamma41 - p.gamma51) ** 2
    r2 = 4 * abs(p.omega_c2) ** 2 - (GAMMA31 - p.gamma21) ** 2
    return DerivedFrequencies(
        omega_e1=math.sqrt(r1) if r1 > 0 else 0.0,
        omega_e2=math.sqrt(r2) if r2 > 0 else 0.0,
        gamma_e1=(p.gamma41 + p.gamma51) / 2,
        gamma_e2=(p.gamma21 + GAMMA31) / 2,
        overdamped_1=r1 <= 0,
        overdamped_2=r2 <= 0,
    )


def eit_dispersion(p: SystemParams) -> DerivedFrequencies:
    """Slow-light group velocity, group delay and the two EIT bandwidths.

    nu3 = c / (1 + OD*gamma31*c / (2*L*|omega_c2|^2)) once the carrier
    wavenumber cancels.  delta_omega_g = 4*pi*|omega_c2|^2/(OD*gamma31) and
    delta_omega_t = |omega_c2|^2/sqrt(2*OD*gamma31^2), both returned in
    gamma31 units.
    """
    oc2_si = abs(p.omega_c2) * p.gamma31_si
    delay = p.length_L / C_LIGHT + p.optical_depth * p.gamma31_si / (2 * oc2_si**2)
    return DerivedFrequencies(
        group_velocity_nu3=p.length_L / delay,
        group_delay=delay,
        delta_omega_g=4 * math.pi * abs(p.omega_c2) ** 2 / p.optical_depth,
        delta_omega_t=abs(p.omega_c2) ** 2 / math.sqrt(2 * p.optical_depth),
    )


#: Relative tolerance for the regime tie-break.
REGIME_TIE_RTOL = 1e-9


def _is_tie(d: DerivedFrequencies) -> bool:
    lhs, rhs = 2 * d.gamma_e2, d.delta_omega_g
    return abs(lhs - rhs) <= REGIME_TIE_RTOL * max(abs(lhs), abs(rhs))


def classify_regime(d: DerivedFrequencies) -> Regime:
    """Chi5-dominated when 2*gamma_e2 < delta_omega_g, hybrid otherwise.

    Ties (equal within 1e-9 relative) resolve to hybrid; overdamped arms
    short-circuit to OVERDAMPED.
    """
    if d.overdamped:
        return Regime.OVERDAMPED
    if d.gamma_e2 is None or d.delta_omega_g is None:
        raise ValidationError("classify_regime needs merged splittings and dispersion")
    if _is_tie(d):
        return Regime.HYBRID
    return Regime.CHI5_DOMINATED if 2 * d.gamma_e2 < d.delta_omega_g else Regime.HYBRID


def classify_entanglement(d: DerivedFrequencies, tol: float = 1e-3) -> Entanglement:
    """W state (2x3x2) when the two splittings agree within `tol` relative."""
    if d.overdamped:
        raise OverdampedError("entanglement classification undefined for overdamped arms")
    if abs(d.omega_e1 - d.omega_e2) <= tol * max(d.omega_e1, d.omega_e2):
        return Entanglement.W_2X3X2
    return Entanglement.NONW_2X4X2


def derived_frequencies(p: SystemParams) -> DerivedFrequencies:
    """Merge splittings + dispersion and attach regime/entanglement labels."""
    s = effective_splittings(p)
    e = eit_dispersion(p)
    merged = replace(
        s,
        group_velocity_nu3=e.group_velocity_nu3,
        group_delay=e.group_delay,
        delta_omega_g=e.delta_omega_g,
        delta_omega_t=e.delta_omega_t,
    )
    return replace(
        merged,
        regime=classify_regime(merged),
        entanglement=None if merged.overdamped else classify_entanglement(merged),
    )
