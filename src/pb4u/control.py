"""Resolution-aware propagation-depth arithmetic.

Calibration fixes a physical propagation distance D = k_base * l_base; a mesh
with mean edge length L then propagates K = floor(D / L) steps, so the
receptive field covers the same physical distance at every resolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument, real

# floor((D/L) * GUARD) instead of floor(D/L): a half-ulp of division rounding
# must not drop an exact mathematical integer to the one below
_GUARD = 1.0 + 4.0 * float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class ControlConfig:
    k_base: int
    l_base: float

    @property
    def d(self) -> float:
        """Propagation distance."""
        return float(self.k_base) * self.l_base


def calibrate(k_base, l_base) -> ControlConfig:
    """``k_base`` a whole number >= 1 (a checkpoint stores a float) and ``l_base`` finite and > 0."""
    k, l_base = real(k_base, "k_base"), real(l_base, "l_base")
    if not (k >= 1 and k.is_integer()):
        raise InvalidArgument(f"k_base must be a whole number >= 1, got {k_base!r}")
    if l_base <= 0:
        raise InvalidArgument(f"l_base must be > 0, got {l_base!r}")
    return ControlConfig(k_base=int(k_base), l_base=l_base)


def propagation_steps(config: ControlConfig, mean_edge: float) -> int:
    """K for a mesh with the given mean edge length, clamped to at least one
    step so very coarse meshes still aggregate."""
    if mean_edge <= 0:
        raise InvalidArgument(f"mean edge length must be positive, got {mean_edge}")
    k = math.floor((config.d / mean_edge) * _GUARD)
    return max(1, int(k))
