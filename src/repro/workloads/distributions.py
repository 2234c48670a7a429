"""Statistical distributions used by the evaluation workloads (§4.3, §4.4).

* **Web-search flow sizes** — the heavy-tailed flow-size CDF measured in
  production search clusters (DCTCP [2] / pFabric [4]); the paper uses it
  for "flow size and traffic distribution, which also governs the state
  access pattern".
* **Bimodal packet sizes** — datacenter packets cluster around 200 B and
  1400 B (Benson et al. [6]); the paper samples packet sizes from this
  bimodal shape for the real-application experiments.
* **Skewed state access** — "most packets (95%) access only a small
  fraction of states (30%)", derived from heavy-tailed datacenter
  traffic; plus the uniform pattern as the contrast case.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from ..errors import ConfigError

# (flow size in bytes, cumulative probability) — the web-search workload
# CDF as published with pFabric and reused across the datacenter
# transport literature.
WEB_SEARCH_CDF: List[Tuple[int, float]] = [
    (6 * 1024, 0.0),
    (10 * 1024, 0.15),
    (20 * 1024, 0.20),
    (30 * 1024, 0.30),
    (50 * 1024, 0.40),
    (80 * 1024, 0.53),
    (200 * 1024, 0.60),
    (1 * 1024 * 1024, 0.70),
    (2 * 1024 * 1024, 0.80),
    (5 * 1024 * 1024, 0.90),
    (10 * 1024 * 1024, 0.97),
    (30 * 1024 * 1024, 1.00),
]


class EmpiricalCDF:
    """Inverse-transform sampling from a piecewise-linear CDF."""

    def __init__(self, points: Sequence[Tuple[float, float]]):
        if len(points) < 2:
            raise ConfigError("CDF needs at least two points")
        self.values = [float(v) for v, _p in points]
        self.probs = [float(p) for _v, p in points]
        if self.probs[0] != 0.0 or self.probs[-1] != 1.0:
            raise ConfigError("CDF must start at probability 0 and end at 1")
        if any(b < a for a, b in zip(self.probs, self.probs[1:])):
            raise ConfigError("CDF probabilities must be non-decreasing")
        if any(b < a for a, b in zip(self.values, self.values[1:])):
            raise ConfigError("CDF values must be non-decreasing")

    def sample(self, rng: np.random.Generator) -> float:
        """Draw one value by inverse-transform sampling."""
        u = float(rng.random())
        i = bisect_left(self.probs, u)
        if i == 0:
            return self.values[0]
        if i >= len(self.probs):
            return self.values[-1]
        p0, p1 = self.probs[i - 1], self.probs[i]
        v0, v1 = self.values[i - 1], self.values[i]
        if p1 == p0:
            return v1
        frac = (u - p0) / (p1 - p0)
        return v0 + frac * (v1 - v0)

    def mean(self, samples: int = 20000, seed: int = 0) -> float:
        rng = np.random.default_rng(seed)
        return float(np.mean([self.sample(rng) for _ in range(samples)]))


def web_search_flow_sizes() -> EmpiricalCDF:
    """The web-search flow-size distribution (bytes)."""
    return EmpiricalCDF(WEB_SEARCH_CDF)


@dataclass
class BimodalPacketSizes:
    """Datacenter packet sizes clustered around two modes (§4.4)."""

    small: int = 200
    large: int = 1400
    small_fraction: float = 0.55

    def __post_init__(self):
        if not 0.0 <= self.small_fraction <= 1.0:
            raise ConfigError("small_fraction must be in [0, 1]")
        if self.small < 64 or self.large < self.small:
            raise ConfigError("need 64 <= small <= large")

    def sample(self, rng: np.random.Generator) -> int:
        if rng.random() < self.small_fraction:
            return self.small
        return self.large

    @property
    def mean_bytes(self) -> float:
        return self.small_fraction * self.small + (1 - self.small_fraction) * self.large


@dataclass
class UniformAccess:
    """Each state index is (approximately) equally likely."""

    size: int

    def __post_init__(self):
        if self.size < 1:
            raise ConfigError("size must be >= 1")

    def sample(self, rng: np.random.Generator) -> int:
        return int(rng.integers(0, self.size))

    def sample_many(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """``count`` samples in one call: the draws of ``count``
        :meth:`sample` calls, in order (the scalar and batched bounded
        integer paths take one generator word per sample alike)."""
        return rng.integers(0, self.size, count)


@dataclass
class SkewedAccess:
    """Hot-set access skew: ``hot_weight`` of packets touch the
    ``hot_fraction`` of indexes (defaults: 95% of packets -> 30% of
    states, the paper's skewed pattern)."""

    size: int
    hot_fraction: float = 0.30
    hot_weight: float = 0.95

    def __post_init__(self):
        if self.size < 1:
            raise ConfigError("size must be >= 1")
        if not 0.0 < self.hot_fraction <= 1.0:
            raise ConfigError("hot_fraction must be in (0, 1]")
        if not 0.0 <= self.hot_weight <= 1.0:
            raise ConfigError("hot_weight must be in [0, 1]")
        self.hot_count = max(1, int(round(self.size * self.hot_fraction)))

    def sample(self, rng: np.random.Generator) -> int:
        if rng.random() < self.hot_weight:
            return int(rng.integers(0, self.hot_count))
        if self.hot_count >= self.size:
            return int(rng.integers(0, self.size))
        return int(rng.integers(self.hot_count, self.size))

    def sample_many(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """``count`` :meth:`sample` calls. Not one block: it interleaves
        64-bit ``random()`` with 32-bit integer draws, which the
        generator serves from a buffered half-word, so the draws depend
        on their order."""
        return np.array([self.sample(rng) for _ in range(count)], dtype=np.int64)


def zipf_access(size: int, alpha: float, rng: np.random.Generator, count: int) -> np.ndarray:
    """Zipf-distributed index samples (an alternative skew model used in
    the extended ablations)."""
    if size < 1:
        raise ConfigError("size must be >= 1")
    ranks = np.arange(1, size + 1, dtype=float)
    weights = ranks ** (-alpha)
    weights /= weights.sum()
    return rng.choice(size, size=count, p=weights)
