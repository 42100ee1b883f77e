"""cinecho: virtual detection trials on browsed image stacks.

A numpy/scipy toolkit that models how a human reader browsing through an
image stack perceives it (spatio-temporal contrast sensitivity applied in
the frequency domain) and how well a channelized model observer detects
lesions in the perceived stacks, with a one-shot multi-reader variance
estimate per trial.
"""

__version__ = "0.1.0"

from .csf import (
    DerivedOptics,
    ViewingConditions,
    derive_optics,
    spatial_csf,
    stcsf,
)
from .display import DisplayModel
from .errors import (
    FormatError,
    LesionClippingWarning,
    PlanError,
    TrainingError,
)

__all__ = [
    "DerivedOptics",
    "ViewingConditions",
    "derive_optics",
    "spatial_csf",
    "stcsf",
    "DisplayModel",
    "FormatError",
    "LesionClippingWarning",
    "PlanError",
    "TrainingError",
    "__version__",
]
