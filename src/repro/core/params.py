"""Tunable constants of the AGM construction.

The paper's constants (e.g. ``|S(u,i)| = 16 n^{2/k} log n`` nearby landmarks,
the dense-level gap of 3, the ``/6`` shrink factor of ``E(u,i)``) are chosen
for the asymptotic analysis; several of them exceed ``n`` outright for the
graph sizes a pure-Python reproduction can handle, in which case every set
degenerates to "all nodes" and the measurement says nothing about scaling.

:class:`AGMParams` therefore exposes every constant:

* :meth:`AGMParams.paper` keeps the published values;
* :meth:`AGMParams.experiment` scales the *constant factors* down (never the
  exponents) so that the ``n^{1/k}``-type scaling is visible at n of a few
  hundred nodes.  The README section "Deviations from the paper" (item 2)
  documents this substitution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.utils.validation import require


@dataclass(frozen=True)
class AGMParams:
    """Constants of the construction (see module docstring)."""

    #: multiplier in front of ``n^{2/k} log2 n`` for the nearby-landmark sets S(u, i)
    landmark_count_factor: float = 16.0
    #: dense level when ``a(u,i+1) <= a(u,i) + dense_gap`` (Definition 2 uses 3)
    dense_gap: int = 3
    #: the sparse guarantee ball is ``E(u,i) = B(u, 2^{a(u,i+1)} / sparse_shrink)``
    sparse_shrink: float = 6.0
    #: extended range: ``R(u) = { j : exists a in L(u), -extend_below <= a - j <= extend_above }``
    extend_below: int = 1
    extend_above: int = 4
    #: bits charged for storing one arbitrary node name (the paper allows polylog(n))
    name_bits: int = 64
    #: landmark sampling probability is ``(n / ln n)^{-1/k}`` scaled by this factor
    sampling_boost: float = 1.0
    #: how many times to re-draw the landmark hierarchy if a sanity check fails
    max_sampling_retries: int = 5

    def __post_init__(self) -> None:
        require(self.landmark_count_factor > 0, "landmark_count_factor must be positive")
        require(self.dense_gap >= 1, "dense_gap must be >= 1")
        require(self.sparse_shrink >= 1.0, "sparse_shrink must be >= 1")
        require(self.extend_below >= 0 and self.extend_above >= 0,
                "extended-range margins must be non-negative")
        require(self.name_bits >= 1, "name_bits must be >= 1")
        require(self.sampling_boost > 0, "sampling_boost must be positive")

    # ------------------------------------------------------------------ #
    # presets
    # ------------------------------------------------------------------ #
    @classmethod
    def paper(cls) -> "AGMParams":
        """The constants as published."""
        return cls()

    @classmethod
    def experiment(cls, landmark_count_factor: float = 1.0) -> "AGMParams":
        """Scaled-down constant factors for small-n experiments (exponents unchanged)."""
        return cls(landmark_count_factor=landmark_count_factor)

    def with_overrides(self, **kwargs) -> "AGMParams":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)

    # ------------------------------------------------------------------ #
    # derived quantities
    # ------------------------------------------------------------------ #
    def nearby_landmark_count(self, n: int, k: int) -> int:
        """``|S(u, i)|``: how many nearby landmarks of each level a node tracks."""
        require(n >= 1 and k >= 1, "n and k must be >= 1")
        raw = self.landmark_count_factor * (n ** (2.0 / k)) * max(math.log2(max(n, 2)), 1.0)
        return max(1, int(math.ceil(raw)))

    def sampling_probability(self, n: int, k: int) -> float:
        """Per-level landmark survival probability ``(n / ln n)^{-1/k}``."""
        require(n >= 2 and k >= 1, "n must be >= 2 and k >= 1")
        base = (n / max(math.log(n), 1.0)) ** (-1.0 / k)
        return min(1.0, base * self.sampling_boost)
