"""cinecho: virtual detection trials on browsed image stacks.

A numpy/scipy toolkit that models how a human reader browsing through an
image stack perceives it (spatio-temporal contrast sensitivity applied in
the frequency domain) and how well a channelized model observer detects
lesions in the perceived stacks, with a one-shot multi-reader variance
estimate per trial.
"""

__version__ = "0.1.0"
