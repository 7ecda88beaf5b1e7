import numpy as np
import pytest

from cpbsim import (
    BACKWARD,
    DEFAULT_SUBSPACE,
    FORWARD,
    DeviceParams,
    PreparationEnsemble,
    PropagatorConfig,
    TransitionMatrix,
    derive_seed,
    evolve,
    label_rows,
    microrev_deviation,
    partition_seeds,
    prepare_ensemble,
    sample_experiment,
    stochasticity_defect,
    transition_matrix,
)
from cpbsim.experiment import EVENT_PARTITION, MAX_EVENTS

from _golden import PREPARATION_PROBS, SUBSPACE_MASS


def test_transition_matrix_is_doubly_stochastic(trans_forward):
    assert stochasticity_defect(trans_forward) < 1e-12
    assert np.all(trans_forward.matrix >= 0.0)


def test_transition_matrix_column_lookup(trans_forward):
    (row,) = label_rows(trans_forward.labels, [0])
    col = trans_forward.matrix[:, row]
    assert col.sum() == pytest.approx(1.0, abs=1e-12)
    assert col is not None and col.size == trans_forward.labels.size
    with pytest.raises(ValueError):
        label_rows(trans_forward.labels, [99])


def test_identity_without_tunneling(protocol):
    frozen = DeviceParams(josephson_energy_total=0.0)
    u = evolve(frozen, protocol, PropagatorConfig(1e-3))
    trans = transition_matrix(u, np.arange(-25, 26))
    np.testing.assert_allclose(trans.matrix, np.eye(51), atol=1e-24)


def test_transition_matrix_refuses_bad_input():
    labels = np.arange(-1, 2)
    with pytest.raises(ValueError, match="^unknown direction 'sideways'$"):
        transition_matrix(np.eye(3), labels, "sideways")
    for u in (np.eye(5), np.ones((3, 2))):
        with pytest.raises(
            ValueError, match="^propagator shape does not match label count$"
        ):
            transition_matrix(u, labels)


def test_subspace_leakage_shape(trans_forward):
    leak = trans_forward.subspace_leakage(DEFAULT_SUBSPACE)
    assert leak.shape == (5,)
    assert np.all(leak > 0.0) and np.all(leak < 2e-3)


def test_microrev_deviation_against_manual_arithmetic():
    rng = np.random.default_rng(21)
    # random doubly stochastic pair via Sinkhorn scaling
    def doubly_stochastic(m):
        for _ in range(500):
            m = m / m.sum(axis=0, keepdims=True)
            m = m / m.sum(axis=1, keepdims=True)
        return m

    labels = np.arange(-2, 3)
    pf = doubly_stochastic(rng.uniform(0.1, 1.0, size=(5, 5)))
    pb = doubly_stochastic(rng.uniform(0.1, 1.0, size=(5, 5)))
    fwd = TransitionMatrix(matrix=pf, labels=labels, direction=FORWARD)
    bwd = TransitionMatrix(matrix=pb, labels=labels, direction=BACKWARD)
    rep = microrev_deviation(fwd, bwd, subspace=(-1, 0, 1))
    block = np.abs(pf - pb.T)[1:4, 1:4]
    assert rep.max_abs == pytest.approx(block.max())
    assert rep.mean_abs == pytest.approx(block.mean())
    assert rep.max_abs_full == pytest.approx(np.abs(pf - pb.T).max())


def test_microrev_deviation_validates_directions(trans_forward):
    with pytest.raises(ValueError):
        microrev_deviation(trans_forward, trans_forward)


def test_microrev_deviation_refuses_mismatched_shapes():
    fwd = TransitionMatrix(matrix=np.eye(5), labels=np.arange(-2, 3), direction=FORWARD)
    bwd = TransitionMatrix(matrix=np.eye(3), labels=np.arange(-1, 2), direction=BACKWARD)
    with pytest.raises(ValueError, match="^transition matrices have mismatched shapes$"):
        microrev_deviation(fwd, bwd)


def test_repeated_subspace_label_is_refused(trans_forward, trans_backward):
    # a repeated label would count its column twice: 1 - 2 P[0, 0]
    with pytest.raises(ValueError, match="subspace labels must be distinct"):
        trans_forward.subspace_leakage((0, 0))
    with pytest.raises(ValueError, match="subspace labels must be distinct"):
        microrev_deviation(trans_forward, trans_backward, (0, 0))


def test_preparation_refuses_out_of_basis_label(params, protocol, u_forward):
    with pytest.raises(ValueError, match="charge label 100 outside basis"):
        prepare_ensemble(params, protocol, u_forward, (100,))


def test_all_subspace_records_its_labels(
    params, protocol, u_forward, trans_forward, trans_backward
):
    labels = tuple(range(-25, 26))
    rep = microrev_deviation(trans_forward, trans_backward, "all")
    assert rep.subspace == labels
    assert rep.max_abs == rep.max_abs_full
    prep = prepare_ensemble(params, protocol, u_forward, "all")
    assert prep.subspace_mass == pytest.approx(1.0, abs=1e-12)


def test_preparation_probabilities_sum_to_one(preparation):
    assert preparation.probabilities.sum() == pytest.approx(1.0, abs=1e-12)
    assert preparation.subspace_mass == pytest.approx(
        sum(
            preparation.probabilities[list(preparation.labels).index(n)]
            for n in DEFAULT_SUBSPACE
        )
    )


def test_preparation_matches_fine_step_reference(preparation):
    # reference at dt = 1e-5; second-order integrator leaves ~1e-6 here
    labels = list(preparation.labels)
    for n, expected in PREPARATION_PROBS.items():
        assert preparation.probabilities[labels.index(n)] == pytest.approx(
            expected, abs=2e-5
        )
    assert preparation.subspace_mass == pytest.approx(SUBSPACE_MASS, abs=2e-5)


def test_preparation_refuses_an_unresolvable_energy_scale(protocol):
    # the ground state comes from the same checked H(0) solve as the energy
    # ladder: at t = 0 the flux is 1/2, where the asymmetry's share of E_J
    # leaves a bound of 7.4e+290 rad, and U is never reached
    params = DeviceParams(josephson_energy_total=1e308)
    with pytest.raises(ValueError, match=r"^phase rounding bound 7\.4e\+290 rad exceeds"):
        prepare_ensemble(params, protocol, np.eye(params.n_charges))


def test_preparation_rejects_backward(params, backward_protocol, u_backward):
    with pytest.raises(ValueError):
        prepare_ensemble(params, backward_protocol, u_backward)


def test_partition_seeds_cover_range():
    pairs = list(partition_seeds(123, 2 * EVENT_PARTITION + 17))
    assert [length for _rng, length in pairs] == [EVENT_PARTITION, EVENT_PARTITION, 17]
    # partition k draws from the stream keyed on k alone
    for k, (rng, _length) in enumerate(pairs):
        expected = np.random.default_rng(np.random.SeedSequence(entropy=123, spawn_key=(k,)))
        assert rng.bit_generator.state == expected.bit_generator.state


def test_derive_seed_distinct_and_deterministic():
    seeds = {derive_seed(5, i, j) for i in range(6) for j in range(2)}
    assert len(seeds) == 12
    assert derive_seed(5, 3, 1) == derive_seed(5, 3, 1)
    assert derive_seed(5, 3, 1) != derive_seed(6, 3, 1)


def test_sample_experiment_reproducible(preparation, trans_forward):
    a = sample_experiment(preparation, trans_forward, 2000, seed=42)
    b = sample_experiment(preparation, trans_forward, 2000, seed=42)
    c = sample_experiment(preparation, trans_forward, 2000, seed=43)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert a.dtype == np.int64 and a.sum() == 2000


def test_sample_experiment_marginals_match_preparation(preparation, trans_forward):
    n = 200_000
    sample = sample_experiment(preparation, trans_forward, n, seed=7)
    first_counts = sample.sum(axis=0).astype(float)
    labels = list(trans_forward.labels)
    for lab, p in PREPARATION_PROBS.items():
        freq = first_counts[labels.index(lab)] / n
        sigma = np.sqrt(p * (1.0 - p) / n)
        assert abs(freq - p) < 5.0 * sigma


def test_sample_experiment_validation(preparation, trans_forward):
    with pytest.raises(ValueError):
        sample_experiment(preparation, trans_forward, 0, seed=1)
    with pytest.raises(
        ValueError, match=f"^n_events must be positive and at most {MAX_EVENTS}$"
    ):
        sample_experiment(preparation, trans_forward, MAX_EVENTS + 1, seed=1)
    five = PreparationEnsemble(np.full(5, 0.2), np.arange(-2, 3), subspace_mass=1.0)
    with pytest.raises(ValueError, match="^preparation and transition matrix bases differ$"):
        sample_experiment(five, trans_forward, 10, seed=1)
