import math
import warnings

import numpy as np
import pytest

from cpbsim import (
    KB_OVER_HBAR,
    DriveProtocol,
    GibbsWeights,
    Waveform,
    WorkDistribution,
    bk_equality,
    bk_ratio_check,
    energy_ladder,
    gibbs_weights,
    sample_work,
    thermal_energy,
    work_distribution_exact,
)
from cpbsim.experiment import MAX_EVENTS
from cpbsim.thermo import ATOM_MASS_FLOOR, EXACT, SAMPLED, WORK_DEDUP_TOL


def test_thermal_energy_scale():
    assert thermal_energy(1.0) == pytest.approx(KB_OVER_HBAR)
    assert thermal_energy(20.0) == pytest.approx(20.0 * KB_OVER_HBAR)
    with pytest.raises(ValueError):
        thermal_energy(0.0)


def test_ladder_is_clean_bijection(ladder):
    assert np.array_equal(ladder.labels, np.arange(-2, 3))
    assert np.all(ladder.overlaps > 0.999)
    # gate starts at -1.95, so n = -2 sits at the bottom of the parabola
    assert ladder.energies[ladder.labels == -2][0] == ladder.energies.min()


def test_bare_ladder_is_charging_parabola(params, protocol):
    bare = energy_ladder(params, protocol, bare=True)
    expected = 4.0 * params.charging_energy * (bare.labels + 1.95) ** 2
    np.testing.assert_allclose(bare.energies, expected, rtol=1e-12)
    assert np.all(bare.overlaps == 1.0)


def test_ladder_tracks_tunneling_shift(params, protocol, ladder):
    bare = energy_ladder(params, protocol, bare=True)
    # level repulsion moves every eigenenergy off the bare parabola
    assert np.all(np.abs(ladder.energies - bare.energies) > 1e-3)


def test_ladder_rejects_open_protocol(params, protocol):
    truncated = DriveProtocol(flux=protocol.flux, gate=protocol.gate, duration=0.5)
    with pytest.raises(ValueError):
        energy_ladder(params, truncated)


def test_ladder_validates_subspace(params, protocol):
    with pytest.raises(ValueError):
        energy_ladder(params, protocol, subspace=(0, 0, 1))
    with pytest.raises(ValueError):
        energy_ladder(params, protocol, subspace=(0, 40))


@pytest.mark.parametrize("temperature", [1.0, 10.0, 50.0])
def test_gibbs_weights_ratio_law(ladder, temperature):
    w = gibbs_weights(ladder, temperature)
    assert w.weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(w.weights > 0.0)
    kt = thermal_energy(temperature)
    for i in range(ladder.labels.size):
        for j in range(ladder.labels.size):
            lhs = math.log(w.weights[i]) - math.log(w.weights[j])
            rhs = -(ladder.energies[i] - ladder.energies[j]) / kt
            assert lhs == pytest.approx(rhs, abs=1e-10)


def test_exact_distribution_normalized(ladder, trans_forward):
    weights = gibbs_weights(ladder, 10.0)
    dist = work_distribution_exact(weights, trans_forward, ladder)
    assert dist.kind == EXACT
    assert dist.mass.sum() == pytest.approx(1.0, abs=1e-12)
    assert 0.0 < dist.excluded_mass < 1e-3
    assert dist.mass.min() >= ATOM_MASS_FLOOR


def test_work_grid_has_21_distinct_atoms(ladder, trans_forward):
    weights = gibbs_weights(ladder, 10.0)
    dist = work_distribution_exact(weights, trans_forward, ladder)
    assert dist.values.size == 21
    assert np.all(np.diff(dist.values) > WORK_DEDUP_TOL)


def test_work_grid_antisymmetric(ladder, trans_forward):
    weights = gibbs_weights(ladder, 10.0)
    dist = work_distribution_exact(weights, trans_forward, ladder)
    np.testing.assert_allclose(
        np.sort(dist.values), np.sort(-dist.values), atol=1e-9
    )


def test_full_space_excluded_mass_vanishes(ladder_full, trans_forward):
    weights = gibbs_weights(ladder_full, 10.0)
    dist = work_distribution_exact(weights, trans_forward, ladder_full)
    assert abs(dist.excluded_mass) < 1e-12


def test_bk_equality_exact_matches_direct_sum(ladder, trans_forward):
    weights = gibbs_weights(ladder, 10.0)
    dist = work_distribution_exact(weights, trans_forward, ladder)
    result = bk_equality(dist, 10.0)
    direct = float(np.dot(dist.mass, np.exp(-dist.values / thermal_energy(10.0))))
    assert result.mean == pytest.approx(direct, rel=1e-14)
    assert result.stderr == 0.0


@pytest.mark.parametrize("temperature", [1.0, 10.0, 50.0])
def test_bk_equality_full_space_is_unity(ladder_full, trans_forward, temperature):
    weights = gibbs_weights(ladder_full, temperature)
    dist = work_distribution_exact(weights, trans_forward, ladder_full)
    result = bk_equality(dist, temperature)
    assert abs(result.mean - 1.0) < 1e-9


def test_subnormal_atoms_are_dropped(ladder_full, trans_forward):
    # at 1 K the cold tail underflows; kept atoms must stay representable
    weights = gibbs_weights(ladder_full, 1.0)
    dist = work_distribution_exact(weights, trans_forward, ladder_full)
    assert dist.values.size < 51 * 51
    assert dist.mass.min() >= ATOM_MASS_FLOOR


def test_sample_work_reproducible(ladder, trans_forward):
    weights = gibbs_weights(ladder, 10.0)
    a = sample_work(weights, trans_forward, ladder, 5000, seed=11)
    b = sample_work(weights, trans_forward, ladder, 5000, seed=11)
    c = sample_work(weights, trans_forward, ladder, 5000, seed=12)
    assert np.array_equal(a.mass, b.mass)
    assert not np.array_equal(a.mass, c.mass)
    assert a.kind == SAMPLED
    assert int(a.mass.sum()) + a.n_discarded == 5000


def test_sample_work_shares_exact_grid(ladder, trans_forward):
    weights = gibbs_weights(ladder, 10.0)
    exact = work_distribution_exact(weights, trans_forward, ladder)
    sampled = sample_work(weights, trans_forward, ladder, 1000, seed=2)
    # exact grid may drop unpopulated atoms, sampled keeps the full grid
    assert np.all(np.isin(np.round(exact.values, 6), np.round(sampled.values, 6)))


def test_sample_work_frequencies_match_exact(ladder, trans_forward):
    weights = gibbs_weights(ladder, 10.0)
    exact = work_distribution_exact(weights, trans_forward, ladder)
    sampled = sample_work(weights, trans_forward, ladder, 100_000, seed=5)
    kept = 100_000 - sampled.n_discarded
    freq = {round(w, 6): c / kept for w, c in zip(sampled.values, sampled.mass)}
    for w, p in zip(exact.values, exact.mass):
        sigma = math.sqrt(p * (1.0 - p) / kept)
        assert abs(freq[round(w, 6)] - p) < 5.0 * sigma + 1e-12


def test_bk_equality_sampled_close_to_unity(ladder, trans_forward):
    weights = gibbs_weights(ladder, 10.0)
    sampled = sample_work(weights, trans_forward, ladder, 100_000, seed=5)
    result = bk_equality(sampled, 10.0)
    assert result.n_events == 100_000 - sampled.n_discarded
    assert abs(result.mean - 1.0) < 5.0 * result.stderr + 1e-3


def test_bk_equality_sampled_full_space_is_finite(ladder_full, trans_forward):
    # at 1 K the factor of the most negative work on the grid is ~1e156; no
    # event reaches that atom, and its squared deviation must not reach inf
    weights = gibbs_weights(ladder_full, 1.0)
    sampled = sample_work(weights, trans_forward, ladder_full, 20_000, seed=5)
    assert np.any(sampled.mass == 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = bk_equality(sampled, 1.0)
    assert math.isfinite(result.stderr) and result.stderr > 0.0
    assert math.isfinite(result.mean)


def test_bk_equality_sampled_matches_closed_form():
    # counts 1 and 3 on two atoms and none on a third whose factor
    # exp(-W/k_BT) is 1e200; the mean is sum(c f) / n and the standard error
    # sqrt(sum(c (f - mean)^2) / ((n - 1) n)) over the populated atoms
    kt = thermal_energy(10.0)
    values = [-kt * math.log(1e200), 0.5 * kt, -0.3 * kt]
    counts = [0, 1, 3]
    dist = WorkDistribution(
        values=np.array(values),
        mass=np.array(counts),
        kind=SAMPLED,
    )
    result = bk_equality(dist, 10.0)
    factors = [math.exp(-w / kt) for w in values]
    n = sum(counts)
    mean = sum(c * f for c, f in zip(counts, factors)) / n
    spread = sum(c * (f - mean) ** 2 for c, f in zip(counts, factors) if c)
    assert factors[0] == pytest.approx(1e200, rel=1e-12)
    assert result.n_events == n
    assert result.mean == pytest.approx(mean, rel=1e-12)
    assert result.stderr == pytest.approx(math.sqrt(spread / ((n - 1) * n)), rel=1e-12)


def test_bk_equality_rejects_single_event(ladder, trans_forward):
    dist = WorkDistribution(
        values=np.array([0.0]),
        mass=np.array([1]),
        kind=SAMPLED,
    )
    with pytest.raises(ValueError):
        bk_equality(dist, 10.0)


def test_empty_sampled_distribution_has_no_probabilities():
    dist = WorkDistribution(values=np.array([0.0]), mass=np.array([0]), kind=SAMPLED)
    with pytest.raises(ValueError, match="^sampled distribution holds no events$"):
        dist.probabilities()


def test_work_statistics_refuse_weights_of_other_labels(ladder, trans_forward):
    weights = GibbsWeights(labels=np.arange(-1, 2), weights=np.full(3, 1.0 / 3.0))
    message = "^weights and ladder cover different labels$"
    with pytest.raises(ValueError, match=message):
        work_distribution_exact(weights, trans_forward, ladder)
    with pytest.raises(ValueError, match=message):
        sample_work(weights, trans_forward, ladder, 10, seed=1)


@pytest.mark.parametrize("n_events", [0, MAX_EVENTS + 1])
def test_sample_work_refuses_event_count(ladder, trans_forward, n_events):
    weights = gibbs_weights(ladder, 10.0)
    with pytest.raises(
        ValueError, match=f"^n_events must be positive and at most {MAX_EVENTS}$"
    ):
        sample_work(weights, trans_forward, ladder, n_events, seed=1)


def test_bk_ratio_check_synthetic():
    fwd = WorkDistribution(
        values=np.array([-1.0, 0.0, 1.0]),
        mass=np.array([0.2, 0.5, 0.3]),
        kind=EXACT,
    )
    bwd = WorkDistribution(
        values=np.array([-1.0, 0.0, 1.0]),
        mass=np.array([0.6, 0.4, 0.0]),
        kind=EXACT,
    )
    kt = thermal_energy(2.0)
    records = bk_ratio_check(fwd, bwd, 2.0)
    assert len(records) == 3
    by_work = {r.work: r for r in records}
    assert not by_work[-1.0].matched
    assert math.isnan(by_work[-1.0].log_ratio)
    assert by_work[0.0].log_ratio == pytest.approx(math.log(0.5 / 0.4))
    assert by_work[1.0].log_ratio == pytest.approx(math.log(0.3 / 0.6))
    assert by_work[1.0].reference == pytest.approx(1.0 / kt)


def test_bk_ratio_check_on_device_pair(ladder, trans_forward, trans_backward):
    weights = gibbs_weights(ladder, 50.0)
    fwd = work_distribution_exact(weights, trans_forward, ladder)
    bwd = work_distribution_exact(weights, trans_backward, ladder)
    records = bk_ratio_check(fwd, bwd, 50.0)
    matched = [r for r in records if r.matched]
    assert len(matched) == 21
    bound = fwd.excluded_mass + bwd.excluded_mass
    for r in matched:
        assert abs(r.log_ratio - r.reference) <= bound
