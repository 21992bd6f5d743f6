"""Initial damage generation from lognormal fragility curves.

Each component carries a hazard description in one of three forms: an
intensity measure plus four fragility curves, an explicit damage-state
probability mass, or a fixed damage state.  Sampling is independent across
components and fully determined by the supplied rng.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .community import DAMAGED_STATES, Community, DamageState
from .errors import ValidationError

_SQRT2 = math.sqrt(2.0)


def _std_normal_cdf(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / _SQRT2))


@dataclass(frozen=True)
class FragilityCurve:
    """Lognormal exceedance curve for one damage state; which state is
    given by the curve's position in its FragilitySet."""

    median_im: float
    beta: float

    def __post_init__(self) -> None:
        if self.median_im <= 0.0:
            raise ValidationError("fragility median must be > 0")
        if self.beta <= 0.0:
            raise ValidationError("fragility dispersion must be > 0")


@dataclass(frozen=True)
class FragilitySet:
    """Intensity measure plus the four curves (minor through complete) for
    one component.  Medians must increase with severity so the exceedance
    probabilities are nonincreasing."""

    im: float
    curves: tuple[FragilityCurve, FragilityCurve, FragilityCurve, FragilityCurve]

    def __post_init__(self) -> None:
        if self.im <= 0.0:
            raise ValidationError("intensity measure must be > 0")
        if len(self.curves) != len(DAMAGED_STATES):
            raise ValidationError(
                "fragility set needs one curve per damaged state, minor to complete"
            )
        medians = [c.median_im for c in self.curves]
        if any(b <= a for a, b in zip(medians, medians[1:])):
            raise ValidationError(
                "fragility medians must strictly increase with severity"
            )


def exceedance_prob(im: float, curve: FragilityCurve) -> float:
    """P(damage >= the curve's damage state) at intensity im."""
    if im <= 0.0:
        raise ValidationError(f"intensity measure must be > 0, got {im}")
    return _std_normal_cdf(math.log(im / curve.median_im) / curve.beta)


def damage_pmf(fragility: FragilitySet) -> tuple[float, float, float, float, float]:
    """Probability mass over the five damage states, by successive
    differences of the exceedance probabilities."""
    exceed = [exceedance_prob(fragility.im, c) for c in fragility.curves]
    if any(b > a + 1e-12 for a, b in zip(exceed, exceed[1:])):
        raise ValidationError(
            "exceedance probabilities increase with severity; curves cross"
        )
    bounds = [1.0] + exceed + [0.0]
    masses = [max(0.0, a - b) for a, b in zip(bounds, bounds[1:])]
    return tuple(masses)  # type: ignore[return-value]


@dataclass(frozen=True)
class ComponentHazard:
    """Hazard description for one component; exactly one of the three
    fields is set."""

    fragility: FragilitySet | None = None
    pmf: tuple[float, float, float, float, float] | None = None
    fixed: DamageState | None = None

    def __post_init__(self) -> None:
        given = sum(x is not None for x in (self.fragility, self.pmf, self.fixed))
        if given != 1:
            raise ValidationError(
                "component hazard needs exactly one of fragility, pmf, fixed"
            )
        if self.pmf is not None:
            if len(self.pmf) != 5 or any(p < 0.0 for p in self.pmf):
                raise ValidationError("damage pmf needs 5 nonnegative entries")
            if abs(sum(self.pmf) - 1.0) > 1e-9:
                raise ValidationError("damage pmf must sum to 1")

    def damage_pmf(self) -> tuple[float, float, float, float, float]:
        if self.fixed is not None:
            one_hot = [0.0] * 5
            one_hot[int(self.fixed)] = 1.0
            return tuple(one_hot)  # type: ignore[return-value]
        if self.pmf is not None:
            return self.pmf
        assert self.fragility is not None
        return damage_pmf(self.fragility)


def sample_initial_damage(
    community: Community,
    hazards: dict[int, ComponentHazard],
    rng: np.random.Generator,
) -> tuple[DamageState, ...]:
    """Damage vector over the community's components in index order, each
    entry drawn independently from its hazard.  Every component must have a
    hazard entry."""
    missing = [c.id for c in community.components if c.id not in hazards]
    if missing:
        raise ValidationError(f"no hazard entry for components {missing}")
    pmfs = [hazards[c.id].damage_pmf() for c in community.components]
    draws = rng.random(community.n_components)
    states: list[DamageState] = []
    for pmf, u in zip(pmfs, draws):
        # a pmf may sum to 1 - 1e-9, so u can land past the accumulated
        # mass; it then falls to the last state with positive mass
        acc = 0.0
        for state in DamageState:
            p = pmf[int(state)]
            if p > 0.0:
                chosen = state
                acc += p
                if u < acc:
                    break
        states.append(chosen)
    return tuple(states)
