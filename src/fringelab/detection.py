"""Photon-number-counting statistics: outcome distributions, class
aggregation, background mixing, multiplexed-detector efficiency, and Poisson
count synthesis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .fock import MultimodeFockState, StateEnsemble, _whole


def _zeta(zeta: float) -> float:
    """``zeta`` as a float; a ValueError unless it is a background fraction
    in [0, 1).  The message shows ``zeta`` as the caller passed it."""
    if not 0.0 <= zeta < 1.0:
        raise ValueError(f"zeta {zeta} outside [0, 1)")
    return float(zeta)


@dataclass(frozen=True)
class OutcomeDistribution:
    """Probabilities of observing (n1, n2) photons across the two paths."""

    total_photons: int
    probs: dict[tuple[int, int], float]

    def __post_init__(self) -> None:
        total = self.total_photons
        n = _whole(total, "total_photons must be an integer >= 0, got {!r}", total, least=0)
        clean: dict[tuple[int, int], float] = {}
        bad = "outcome ({},{}) is not a pair of photon numbers"
        for (n1, n2), p in self.probs.items():
            key = (_whole(n1, bad, n1, n2, least=0), _whole(n2, bad, n1, n2, least=0))
            if n1 + n2 != n:
                raise ValueError(f"outcome ({n1},{n2}) does not sum to {n}")
            if p < 0:
                raise ValueError(f"negative probability for ({n1},{n2})")
            clean[key] = float(p)
        total = sum(clean.values())
        if not abs(total - 1.0) <= 1e-10:
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        object.__setattr__(self, "total_photons", n)
        object.__setattr__(self, "probs", clean)


@dataclass(frozen=True)
class NoiseAndEfficiencyConfig:
    """Background fraction and multiplexed-detector bin count per arm."""

    zeta: float = 0.0
    bins_per_arm: int = 4

    def __post_init__(self) -> None:
        zeta = _zeta(self.zeta)
        bins = _whole(self.bins_per_arm, "bins_per_arm must be a positive integer", least=1)
        object.__setattr__(self, "zeta", zeta)
        object.__setattr__(self, "bins_per_arm", bins)


def outcome_distribution(
    state: MultimodeFockState | StateEnsemble,
) -> OutcomeDistribution:
    """Group squared amplitudes by the photon totals in each path.

    Ensembles give the weight-averaged distribution of their components.
    """
    if isinstance(state, StateEnsemble):
        acc: dict[tuple[int, int], float] = {}
        for weight, comp in state.components:
            for key, p in outcome_distribution(comp).probs.items():
                acc[key] = acc.get(key, 0.0) + weight * p
        return OutcomeDistribution(state.total_photons, acc)
    probs: dict[tuple[int, int], float] = {}
    for occ, amp in state.amplitudes.items():
        key = state.path_totals(occ)
        probs[key] = probs.get(key, 0.0) + abs(amp) ** 2
    return OutcomeDistribution(state.total_photons, probs)


def aggregate_by_abs_delta(dist: OutcomeDistribution) -> dict[int, float]:
    """Sum outcome probabilities into |n1 - n2| classes.

    Every class reachable at the distribution's photon number appears, with
    zero probability if unpopulated (N = 2 gives {0, 2}; N = 4 gives
    {0, 2, 4}).
    """
    n = dist.total_photons
    classes = {d: 0.0 for d in range(n % 2, n + 1, 2)}
    for (n1, n2), p in dist.probs.items():
        classes[abs(n1 - n2)] += p
    return classes


def add_background(classes: Mapping[int, float], zeta: float) -> dict[int, float]:
    """Mix a uniform accidental-background floor into class probabilities.

    Each probability becomes p*(1 - zeta) + zeta/K with K the class count,
    which preserves normalization exactly.
    """
    zeta = _zeta(float(zeta))
    k = len(classes)
    if k == 0:
        raise ValueError("empty class mapping")
    return {c: p * (1.0 - zeta) + zeta / k for c, p in classes.items()}


def background_fraction(matched_rate: float, accidental_rate: float) -> float:
    """Fraction of recorded events attributable to accidental coincidences."""
    matched_rate = float(matched_rate)
    accidental_rate = float(accidental_rate)
    if not (math.isfinite(matched_rate) and math.isfinite(accidental_rate)):
        raise ValueError(f"rates must be finite, got {matched_rate!r} and {accidental_rate!r}")
    if matched_rate <= 0:
        raise ValueError("matched rate must be positive")
    if accidental_rate < 0 or accidental_rate >= matched_rate:
        raise ValueError("accidental rate must lie in [0, matched rate)")
    return accidental_rate / matched_rate


def multiplex_efficiency(n: int, m: int) -> float:
    """Probability that n photons spread over m equal bins stay in distinct bins."""
    n, m = _whole(n, "need n >= 0 and m >= 1", least=0), _whole(m, "need n >= 0 and m >= 1", least=1)
    if n > m:
        raise ValueError(f"{n} photons cannot occupy distinct bins among {m}")
    return math.perm(m, n) / m**n


def class_efficiencies(total_photons: int, bins_per_arm: int) -> dict[int, float]:
    """Detection efficiency of each |n1 - n2| class for N total photons."""
    bad = "total_photons must be a nonnegative integer, got {!r}"
    n = _whole(total_photons, bad, total_photons, least=0)
    out = {}
    for d in range(n % 2, n + 1, 2):
        n1 = (n + d) // 2
        out[d] = multiplex_efficiency(n1, bins_per_arm) * multiplex_efficiency(n - n1, bins_per_arm)
    return out


def sample_counts(
    classes: Mapping[int, float], expected_total: float, seed
) -> dict[int, int]:
    """Independent Poisson draws with means expected_total * p(class).

    Classes are visited in sorted order so a fixed seed gives identical
    output regardless of the mapping's insertion order.
    """
    expected_total = float(expected_total)
    if expected_total <= 0:
        raise ValueError("expected_total must be positive")
    rng = np.random.default_rng(seed)
    return {
        c: int(rng.poisson(expected_total * classes[c])) for c in sorted(classes)
    }
