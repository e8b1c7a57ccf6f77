"""Adaptive wavelet time-frequency analysis with sharpened reassignment.

Continuous wavelet transforms with a time-varying window width, first- and
second-order adaptive phase transforms and synchrosqueezing, automatic
window-width selection for multicomponent signals, and computable recovery
error bounds.
"""
from __future__ import annotations

__version__ = "0.1.0"

from .windows import (  # noqa: F401
    WindowKind,
    WindowModel,
    chirp_factor,
    chirped_transform_G,
    chirped_transform_Gj,
    essential_alpha,
    gauss_hat,
    moment,
    window_eval,
    window_hat_eval,
)

from .signals import (  # noqa: F401
    ClassParams,
    ComponentTruth,
    SampledSignal,
    SignalSpec,
    class_params,
    example1_spec,
    example2_spec,
    linear_chirp,
    poly_phase,
    signal_from_csv,
    signal_to_csv,
    synthesize,
    tone,
)

from .separation import (  # noqa: F401
    SeparationReport,
    SigmaProfile,
    ZoneSet,
    constant_profile,
    profile_to_csv,
    separation_report,
    sigma1,
    sigma2,
    spectral_distance,
    zone_margins,
    zones,
    zones_to_csv,
)

from .cwt import (  # noqa: F401
    CwtStack,
    ScaleGrid,
    compute_stack,
    time_derivative_residual,
)

from .sst import (  # noqa: F401
    PhasePlane,
    SqueezeConfig,
    TfPlane,
    chirp_rate_estimate,
    conservation_defect,
    default_gamma2,
    extract_ridge,
    phase_first,
    phase_second,
    squeeze,
    tf_to_csv,
    tf_to_pgm,
)

from .bounds import (  # noqa: F401
    BoundReport,
    Normalizers,
    RecoveryResult,
    ResidualDiag,
    bounds_first,
    bounds_second,
    expansion_envelopes,
    normalizers,
    recover,
    report_to_csv,
    residual_diagnostics,
)
