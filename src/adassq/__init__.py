"""Adaptive wavelet time-frequency analysis with sharpened reassignment.

Continuous wavelet transforms with a time-varying window width, first- and
second-order adaptive phase transforms and synchrosqueezing, automatic
window-width selection for multicomponent signals, and computable recovery
error bounds.

The package root exports the documented pipeline and the inputs built
beside it; every other name is imported from the module that defines it.
"""
from __future__ import annotations

__version__ = "0.1.0"

from .windows import WindowModel  # noqa: F401

from .signals import (  # noqa: F401
    SampledSignal,
    SignalSpec,
    example1_spec,
    example2_spec,
    linear_chirp,
    poly_phase,
    signal_from_csv,
    synthesize,
    tone,
)

from .separation import (  # noqa: F401
    SigmaProfile,
    constant_profile,
    sigma1,
    sigma2,
    zones,
)

from .cwt import ScaleGrid, compute_stack, stack_walk  # noqa: F401

from .sst import SqueezeConfig, walk  # noqa: F401

from .bounds import certify  # noqa: F401
