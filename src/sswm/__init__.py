"""Spontaneous six-wave mixing triphoton simulator.

Closed-form susceptibility spectra, analytic triphoton wavepackets and
coincidence rates for a five-level cold-atom system, together with an
independent Fourier-transform oracle and observable extraction.
"""

from .analysis import (CoherenceFit, ObservableReport, TimeTrace,
                       detect_precursor, extract_period, factorizability_residual,
                       fit_coherence_time, ordering_violation_mass)
from .errors import (ConfigError, InsufficientExtremaError, OverdampedError,
                     SingularPointError, SswmError, ValidationError, ZeroMassError)
from .oracle import (OracleConfig, default_extent, rcc_cond_numeric, rcc_numeric,
                     wavepacket_numeric)
from .params import (DerivedFrequencies, Entanglement, Regime, SystemParams,
                     classify_entanglement, classify_regime, derived_frequencies,
                     effective_splittings, eit_dispersion)
from .susceptibility import (SpectralGrid, chi3, chi5, chi5_magnitude_map, delta_k,
                             find_resonances, phi, spectral_grid)
from .wavepacket import (ChannelWeights, WavepacketGrid, analytic_rate_grid,
                         channel_weights, rcc_cascaded_stub, rcc_chi5, rcc_cond12,
                         wavepacket_chi5, wavepacket_hybrid)

__version__ = "0.1.0"

__all__ = [
    "ChannelWeights", "CoherenceFit", "ConfigError", "DerivedFrequencies",
    "Entanglement", "InsufficientExtremaError",
    "ObservableReport", "OracleConfig", "OverdampedError", "Regime",
    "SingularPointError", "SpectralGrid", "SswmError", "SystemParams",
    "TimeTrace", "ValidationError", "WavepacketGrid", "ZeroMassError",
    "analytic_rate_grid", "channel_weights", "chi3", "chi5", "chi5_magnitude_map",
    "classify_entanglement", "classify_regime",
    "default_extent", "delta_k", "derived_frequencies", "detect_precursor",
    "effective_splittings", "eit_dispersion", "extract_period",
    "factorizability_residual", "find_resonances", "fit_coherence_time",
    "ordering_violation_mass", "phi", "rcc_cascaded_stub", "rcc_chi5",
    "rcc_cond12", "rcc_cond_numeric", "rcc_numeric",
    "spectral_grid", "wavepacket_chi5", "wavepacket_hybrid", "wavepacket_numeric",
]
