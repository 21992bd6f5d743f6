"""Fragility curves, damage probability masses, and damage sampling."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from recovery_rollout.community import DamageState
from recovery_rollout.errors import ValidationError
from recovery_rollout.hazard import (
    ComponentHazard,
    FragilityCurve,
    FragilitySet,
    damage_pmf,
    exceedance_prob,
    sample_initial_damage,
)

from conftest import damage_for, desk_community, two_utility_community


def curve(median: float, beta: float = 0.5) -> FragilityCurve:
    return FragilityCurve(median_im=median, beta=beta)


def simple_set(im: float = 0.4, beta: float = 0.5) -> FragilitySet:
    medians = (0.2, 0.4, 0.7, 1.2)
    return FragilitySet(
        im=im,
        curves=tuple(curve(m, beta) for m in medians),
    )


def test_exceedance_at_median_is_half():
    c = curve(median=0.45)
    assert exceedance_prob(0.45, c) == pytest.approx(0.5, abs=1e-12)


def test_exceedance_one_beta_above_median():
    beta = 0.6
    c = curve(median=0.3, beta=beta)
    im = 0.3 * math.exp(beta)
    assert exceedance_prob(im, c) == pytest.approx(stats.norm.cdf(1.0), abs=1e-9)
    assert exceedance_prob(im, c) == pytest.approx(0.8413, abs=5e-5)


def test_exceedance_worked_value():
    c = curve(median=0.45, beta=0.5)
    got = exceedance_prob(0.30, c)
    assert got == pytest.approx(stats.norm.cdf(math.log(0.30 / 0.45) / 0.5),
                                abs=1e-12)
    assert got == pytest.approx(0.2087, abs=5e-5)


def test_exceedance_rejects_nonpositive_im():
    with pytest.raises(
        ValidationError, match=re.escape("intensity measure must be > 0, got 0.0")
    ):
        exceedance_prob(0.0, curve(0.3))


def test_pmf_by_successive_differences():
    # choose medians so the four exceedance probabilities hit
    # (0.9, 0.6, 0.3, 0.1) exactly; the pmf must then be the differences
    im = 0.5
    beta = 0.45
    targets = (0.9, 0.6, 0.3, 0.1)
    medians = tuple(im * math.exp(-beta * stats.norm.ppf(p)) for p in targets)
    fs = FragilitySet(
        im=im,
        curves=tuple(curve(m, beta) for m in medians),
    )
    pmf = damage_pmf(fs)
    assert pmf == pytest.approx((0.1, 0.3, 0.3, 0.2, 0.1), abs=1e-9)


def test_pmf_mass_flows_to_none_at_tiny_im():
    pmf = damage_pmf(simple_set(im=1e-6))
    assert pmf[0] == pytest.approx(1.0, abs=1e-6)


def test_pmf_mass_flows_to_complete_at_huge_im():
    pmf = damage_pmf(simple_set(im=1e6))
    assert pmf[4] == pytest.approx(1.0, abs=1e-6)


def test_nonmonotone_medians_rejected():
    with pytest.raises(
        ValidationError, match="fragility medians must strictly increase with severity"
    ):
        FragilitySet(
            im=0.4,
            curves=(
                curve(0.5),
                curve(0.4),
                curve(0.7),
                curve(1.2),
            ),
        )


def test_fragility_set_needs_four_curves():
    with pytest.raises(
        ValidationError,
        match="fragility set needs one curve per damaged state, minor to complete",
    ):
        FragilitySet(im=0.4, curves=(curve(0.2), curve(0.4), curve(0.7)))


def test_crossing_betas_rejected_at_pmf_time():
    # medians increase but wildly different dispersions make the
    # exceedance curves cross at this im
    fs = FragilitySet(
        im=10.0,
        curves=(
            curve(0.2, beta=2.0),
            curve(0.21, beta=0.05),
            curve(0.7, beta=0.5),
            curve(1.2, beta=0.5),
        ),
    )
    with pytest.raises(
        ValidationError,
        match="exceedance probabilities increase with severity; curves cross",
    ):
        damage_pmf(fs)


@given(
    st.floats(min_value=0.05, max_value=3.0),
    st.floats(min_value=0.1, max_value=1.2),
    st.floats(min_value=0.05, max_value=0.5),
)
@settings(max_examples=80, deadline=None)
def test_pmf_sums_to_one(im, first_median, step):
    medians = tuple(first_median + i * step for i in range(4))
    fs = FragilitySet(
        im=im,
        curves=tuple(curve(m, beta=0.5) for m in medians),
    )
    pmf = damage_pmf(fs)
    assert all(p >= 0.0 for p in pmf)
    assert sum(pmf) == pytest.approx(1.0, abs=1e-12)


@given(
    st.floats(min_value=0.05, max_value=2.0),
    st.floats(min_value=0.05, max_value=2.0),
)
@example(im_a=0.05, im_b=0.05000000000000001)
@settings(max_examples=50, deadline=None)
def test_exceedance_monotone_in_im(im_a, im_b):
    # adjacent floats can round to the same z, so strictness holds only
    # once the intensities are more than a relative 1e-6 apart
    c = curve(median=0.5, beta=0.4)
    lo, hi = sorted((im_a, im_b))
    p_lo, p_hi = exceedance_prob(lo, c), exceedance_prob(hi, c)
    assert p_lo <= p_hi
    if hi > lo * (1 + 1e-6):
        assert p_lo < p_hi


def test_hazard_needs_exactly_one_form():
    with pytest.raises(ValidationError):
        ComponentHazard()
    with pytest.raises(ValidationError):
        ComponentHazard(fixed=DamageState.NONE, pmf=(1.0, 0.0, 0.0, 0.0, 0.0))


def test_hazard_pmf_must_sum_to_one():
    with pytest.raises(ValidationError):
        ComponentHazard(pmf=(0.5, 0.5, 0.5, 0.0, 0.0))


def test_fixed_hazard_is_one_hot():
    hz = ComponentHazard(fixed=DamageState.EXTENSIVE)
    assert hz.damage_pmf() == (0.0, 0.0, 0.0, 1.0, 0.0)


def test_degenerate_pmf_always_complete():
    community = two_utility_community()
    hazards = {
        cid: ComponentHazard(pmf=(0.0, 0.0, 0.0, 0.0, 1.0)) for cid in (1, 2, 3, 4)
    }
    rng = np.random.default_rng(3)
    for _ in range(20):
        damage = sample_initial_damage(community, hazards, rng)
        assert all(d is DamageState.COMPLETE for d in damage)


class _TopDrawRng:
    """Stub generator whose every uniform draw sits just below 1."""

    def random(self, n):
        return np.full(n, 1.0 - 1e-12)


def test_draw_past_accumulated_mass_keeps_last_positive_state():
    # the pmf sums to 1 - 5e-10, inside the accepted tolerance, so a draw
    # this high lands past the accumulated mass; COMPLETE has no mass
    community = desk_community()
    hazards = {
        c.id: ComponentHazard(pmf=(0.5, 0.4999999995, 0.0, 0.0, 0.0))
        for c in community.components
    }
    damage = sample_initial_damage(community, hazards, _TopDrawRng())
    assert damage == (DamageState.MINOR,) * community.n_components


def test_sampling_reproducible():
    community = two_utility_community()
    hazards = {
        cid: ComponentHazard(pmf=(0.3, 0.2, 0.2, 0.2, 0.1))
        for cid in (1, 2, 3, 4)
    }
    a = sample_initial_damage(community, hazards, np.random.default_rng(11))
    b = sample_initial_damage(community, hazards, np.random.default_rng(11))
    c = sample_initial_damage(community, hazards, np.random.default_rng(12))
    assert a == b
    assert a != c or True  # different seed may coincide; only equality is law


def test_all_none_overrides_give_zero_damage():
    community = two_utility_community()
    hazards = {cid: ComponentHazard(fixed=DamageState.NONE) for cid in (1, 2, 3, 4)}
    damage = sample_initial_damage(community, hazards, np.random.default_rng(0))
    assert damage == damage_for(community, {})


def test_missing_hazard_entry_rejected():
    community = two_utility_community()
    hazards = {1: ComponentHazard(fixed=DamageState.NONE)}
    with pytest.raises(
        ValidationError, match=re.escape("no hazard entry for components [2, 3, 4]")
    ):
        sample_initial_damage(community, hazards, np.random.default_rng(0))


def test_empirical_frequencies_match_pmf():
    pmf = (0.5, 0.2, 0.15, 0.1, 0.05)
    rng = np.random.default_rng(42)
    n = 100_000
    counts = np.zeros(5)
    draws = rng.random(n)
    bounds = np.cumsum(pmf)
    for u in draws:
        counts[int(np.searchsorted(bounds, u, side="right"))] += 1
    # reference draw path above and the library path must agree in law;
    # check the library sampler directly on a smaller run too
    freq = counts / n
    assert np.abs(freq - np.asarray(pmf)).max() < 0.01

    community = two_utility_community()
    hazards = {cid: ComponentHazard(pmf=pmf) for cid in (1, 2, 3, 4)}
    rng = np.random.default_rng(42)
    lib_counts = np.zeros(5)
    for _ in range(5_000):
        for d in sample_initial_damage(community, hazards, rng):
            lib_counts[int(d)] += 1
    lib_freq = lib_counts / 20_000
    assert np.abs(lib_freq - np.asarray(pmf)).max() < 0.015
