# display.py
# -----------------------------------------------------------------------------
# Display model: integer code values -> luminance on the screen (cd/m^2).
#
# A code c on a display with bit depth b is first normalized to
# t = c / (2^b - 1) in [0, 1], then mapped to luminance either linearly,
#
#     L(t) = l_min*(1 - t) + l_max*t
#
# or along a log-luminance (constant contrast per code step) curve,
#
#     L(t) = l_min^(1-t) * l_max^t .
#
# Both forms hit l_min at t=0 and l_max at t=1 exactly, with no rounding
# residue at the endpoints.
# -----------------------------------------------------------------------------

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["DisplayModel", "MAPPINGS"]

MAPPINGS = ("linear_luminance", "log_luminance")


@dataclass(frozen=True)
class DisplayModel:
    """Monotone mapping from code values to screen luminance.

    l_min and l_max are the black and white levels in cd/m^2,
    0 < l_min < l_max < inf.  bit_depth is the code width in bits (1..16).
    """

    l_min: float = 1.05
    l_max: float = 1000.0
    bit_depth: int = 10
    mapping: str = "linear_luminance"

    def __post_init__(self) -> None:
        if not self.l_max < np.inf:
            raise ValueError(f"l_max must be finite, got {self.l_max!r}")
        if not (0.0 < self.l_min < self.l_max):
            raise ValueError("require 0 < l_min < l_max")
        if not (isinstance(self.bit_depth, int) and 1 <= self.bit_depth <= 16):
            raise ValueError("bit_depth must be an integer in 1..16")
        if self.mapping not in MAPPINGS:
            raise ValueError(f"mapping must be one of {MAPPINGS}")

    @property
    def max_code(self) -> int:
        return (1 << self.bit_depth) - 1

    def code_to_luminance(self, code):
        """Map integer code values to luminance in cd/m^2.

        code may be any array-like of integers in [0, 2^bit_depth - 1];
        values outside that range raise ValueError.  Returns float64 with
        the broadcast shape of the input.
        """
        code = np.asarray(code)
        if code.size and (code.min() < 0 or code.max() > self.max_code):
            raise ValueError(
                f"code values must lie in [0, {self.max_code}] "
                f"for a {self.bit_depth}-bit display")
        t = code.astype(np.float64) / float(self.max_code)
        if self.mapping == "linear_luminance":
            lum = self.l_min * (1.0 - t) + self.l_max * t
        else:
            lum = self.l_min ** (1.0 - t) * self.l_max ** t
        return lum
