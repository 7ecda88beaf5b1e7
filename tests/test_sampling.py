"""Dual-route checks of the two-point event sampler.

``_reference_draw`` is the sampler as first written, one ``Generator.choice``
call for the first labels and one per first label for the second labels.
The counting sampler must read the same random stream: same histograms, and
the generator left at the same position.
"""

import itertools

import numpy as np
import pytest

from cpbsim import (
    energy_ladder,
    gibbs_weights,
    label_rows,
    sample_experiment,
    sample_work,
)
from cpbsim import experiment
from cpbsim.experiment import (
    _DRAW_BLOCK,
    EVENT_PARTITION,
    _cdf,
    _column_table,
    _count_below,
    _pair_counts,
    partition_seeds,
)
from cpbsim.thermo import _work_grid

SEEDS = (0, 9, 2**63 - 5)
SUBSPACES = {
    "5-sorted": (-2, -1, 0, 1, 2),
    "5-unsorted": (1, -2, 2, 0, -1),
    "9-sorted": tuple(range(-4, 5)),
    "9-unsorted": (3, -4, 0, 4, -1, 2, -3, 1, -2),
}
TEMPERATURES = (1.0, 30.0)


def _reference_draw(rng, initial_probs, columns, size):
    first = rng.choice(initial_probs.size, size=size, p=initial_probs)
    second = np.empty(size, dtype=np.int64)
    for j in range(initial_probs.size):
        mask = first == j
        hits = int(mask.sum())
        if hits:
            second[mask] = rng.choice(columns.shape[0], size=hits, p=columns[:, j])
    return first, second


def _reference_work_counts(weights, trans, ladder, n_events, seed):
    """Work histogram and discard count from the per-event reference draw."""
    cols = label_rows(trans.labels, ladder.labels)
    columns = trans.matrix[:, cols]
    columns = columns / columns.sum(axis=0, keepdims=True)
    _values, group = _work_grid(ladder)
    counts = np.zeros(group.max() + 1, dtype=np.int64)
    back = np.full(trans.labels.size, -1, dtype=np.int64)
    back[cols] = np.arange(cols.size)
    discarded = 0
    for rng, length in partition_seeds(seed, n_events):
        first, second = _reference_draw(rng, weights.weights, columns, length)
        inside = back[second] >= 0
        discarded += int(length - inside.sum())
        np.add.at(counts, group[first[inside], back[second[inside]]], 1)
    return counts, discarded


@pytest.fixture(scope="module")
def transitions(trans_forward, trans_backward):
    return {"forward": trans_forward, "backward": trans_backward}


@pytest.fixture(scope="module")
def ladders(params, protocol):
    return {
        name: energy_ladder(params, protocol, subspace=sub)
        for name, sub in SUBSPACES.items()
    }


def _ladder_columns(trans, ladder):
    cols = label_rows(trans.labels, ladder.labels)
    columns = trans.matrix[:, cols]
    return cols, columns / columns.sum(axis=0, keepdims=True)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("size", (1, 3, 999))
def test_draw_pairs_and_counts_follow_the_choice_stream(
    seed, size, transitions, ladders
):
    for direction, name, temperature in itertools.product(
        transitions, SUBSPACES, TEMPERATURES
    ):
        trans, ladder = transitions[direction], ladders[name]
        cols, columns = _ladder_columns(trans, ladder)
        probs = gibbs_weights(ladder, temperature).weights

        ref_rng = np.random.default_rng(seed)
        ref_first, ref_second = _reference_draw(ref_rng, probs, columns, size)
        # the ladder's own rows, as sample_work asks, and every row, as
        # sample_experiment does
        for rows in (cols, np.arange(trans.labels.size)):
            rng = np.random.default_rng(seed)
            counts = _pair_counts([(rng, size)], probs, columns, rows)
            expected = np.zeros_like(counts)
            back = {int(r): k for k, r in enumerate(rows)}
            for f, s in zip(ref_first, ref_second):
                if int(s) in back:
                    expected[f, back[int(s)]] += 1
            assert np.array_equal(counts, expected)
            assert rng.bit_generator.state == ref_rng.bit_generator.state


class _FixedUniforms:
    """Stand-in generator that hands out preset uniforms in order.

    ``random`` takes ``size`` or ``out`` as ``Generator.random`` does.
    """

    def __init__(self, values):
        self._values = np.asarray(values, dtype=float)

    def random(self, size=None, out=None):
        n = out.size if size is None else size
        values, self._values = self._values[:n], self._values[n:]
        assert values.size == n
        if out is None:
            return values
        out[...] = values
        return out


@pytest.mark.parametrize("block", (1, 2, 4, _DRAW_BLOCK))
def test_pair_counts_on_table_boundaries(monkeypatch, block):
    # every uniform is a multiple of 1/8, so many sit exactly on a table
    # entry; choice puts x == cdf[k] into outcome k + 1, and so must counts.
    # The label runs hold 4, 4 and 8 uniforms, so blocks 1, 2 and 4 end
    # exactly where a run ends
    monkeypatch.setattr(experiment, "_DRAW_BLOCK", block)
    probs = np.array([0.25, 0.25, 0.5])
    columns = np.array(
        [[0.25, 0.5, 0.0], [0.0, 0.0, 0.25], [0.25, 0.5, 0.25], [0.5, 0.0, 0.5]]
    )
    u = np.tile(np.arange(8) / 8, 2)
    v = np.roll(u, 3)
    # choice's rule: outcome k for cdf[k-1] <= x < cdf[k]; the second-label
    # uniforms are handed out first label by first label
    first = np.cumsum(probs).searchsorted(u, side="right")
    expected = np.zeros((probs.size, columns.shape[0]), dtype=np.int64)
    start = 0
    for j, h in enumerate(np.bincount(first, minlength=probs.size)):
        cdf = np.cumsum(columns[:, j])
        np.add.at(expected[j], cdf.searchsorted(v[start : start + h], side="right"), 1)
        start += h
    stream = np.concatenate((u, v))
    for rows in ([3, 0, 2], [1], [0, 1, 2, 3]):
        rows = np.asarray(rows)
        fixed = _FixedUniforms(stream)
        counts = _pair_counts([(fixed, u.size)], probs, columns, rows)
        assert np.array_equal(counts, expected[:, rows])
        assert fixed._values.size == 0


def test_count_below_skips_thresholds_at_or_below_the_minimum():
    # #{x < t} is 0 for t <= min(x) and x.size for t >= 1.0, since every
    # uniform is below 1, so those thresholds take no comparison pass: a
    # mask no pass has written to keeps its contents
    x = np.random.default_rng(3).random(1000)
    lo = x.min()
    cases = (
        [0.0, lo / 2, lo, np.nextafter(lo, 1.0), 0.5, 0.8],
        [0.0, lo],
        [0.9],
        [],
        [1.0],
        [1.0, 1.0, 1.5],
        [0.0, lo, 1.0, 2.0],
        [0.0, 0.5, 1.0],
    )
    for thresholds in cases:
        thresholds = np.asarray(thresholds, dtype=float)
        mask = np.ones(x.size + 5, dtype=bool)
        counts = _count_below(x, thresholds, mask)
        assert counts.tolist() == [np.count_nonzero(x < t) for t in thresholds]
        skipped = (thresholds <= lo) | (thresholds >= 1.0)
        assert mask.all() == skipped.all()


def _reference_partition_counts(partitions, initial_probs, columns, rows):
    """Summed ``_reference_draw`` histogram of (seed, size) partitions.

    Returns the counts over final indices ``rows`` and each partition's
    generator after its draws.
    """
    counts = np.zeros((initial_probs.size, rows.size), dtype=np.int64)
    back = np.full(columns.shape[0], -1)
    back[rows] = np.arange(rows.size)
    rngs = []
    for seed, size in partitions:
        rng = np.random.default_rng(seed)
        first, second = _reference_draw(rng, initial_probs, columns, size)
        inside = back[second] >= 0
        np.add.at(counts, (first[inside], back[second[inside]]), 1)
        rngs.append(rng)
    return counts, rngs


def _assert_partitions_follow_reference(partitions, initial_probs, columns, rows):
    """Check ``_pair_counts`` on seeded ``(seed, size)`` partitions.

    The counts and each generator's final state must equal those of
    ``_reference_partition_counts``.
    """
    ref, ref_rngs = _reference_partition_counts(partitions, initial_probs, columns, rows)
    rngs = [np.random.default_rng(seed) for seed, _size in partitions]
    counts = _pair_counts(
        [(rng, size) for rng, (_seed, size) in zip(rngs, partitions)],
        initial_probs,
        columns,
        rows,
    )
    assert np.array_equal(counts, ref)
    for rng, ref_rng in zip(rngs, ref_rngs):
        assert rng.bit_generator.state == ref_rng.bit_generator.state


# first-label tables whose entries at 1.0 get no comparison pass: a sum
# 1e-9 short of 1, inside _cdf's tolerance, where only the normalised last
# entry is 1.0, and a last probability of 0, where cdf[-2] == cdf[-1] == 1.0
EDGE_FIRST_PROBS = {
    "short-sum": np.array([0.2, 0.3, 0.1, 0.4 - 1e-9]),
    "zero-last": np.array([0.25, 0.5, 0.25, 0.0]),
}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("case", EDGE_FIRST_PROBS)
def test_pair_counts_skip_first_label_entries_at_one(seed, case):
    probs = EDGE_FIRST_PROBS[case]
    cdf = _cdf(probs)
    assert cdf[-1] == 1.0
    if case == "zero-last":
        assert cdf[-2] == 1.0
    columns = np.random.default_rng(seed % 97).dirichlet(np.ones(6), size=4).T
    columns[5, 1] = 0.0  # a column whose table also ends on a repeated 1.0
    columns /= columns.sum(axis=0, keepdims=True)
    for rows in (np.arange(6), np.array([4, 0, 5])):
        ref, ref_rngs = _reference_partition_counts([(seed, 999)], probs, columns, rows)
        rng = np.random.default_rng(seed)
        counts = _pair_counts([(rng, 999)], probs, columns, rows)
        assert np.array_equal(counts, ref)
        assert rng.bit_generator.state == ref_rngs[0].bit_generator.state
        if case == "zero-last":
            assert not counts[-1].any()


# uneven partitions, a larger one after a short one and a short last one:
# every partition reuses the one draw block and mask of _DRAW_BLOCK entries
PARTITION_SIZES = ((999, 3, 1000, 17), (EVENT_PARTITION, 17))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("sizes", PARTITION_SIZES)
def test_partitions_share_one_buffer(seed, sizes, trans_forward, ladders):
    ladder = ladders["9-unsorted"]
    cols, columns = _ladder_columns(trans_forward, ladder)
    probs = gibbs_weights(ladder, 30.0).weights
    partitions = [(seed + k, size) for k, size in enumerate(sizes)]
    for rows in (cols, np.arange(trans_forward.labels.size)):
        _assert_partitions_follow_reference(partitions, probs, columns, rows)


# every block size meets both partition lists, except block 1 with the
# 250k-event partition: that costs half a million Python rounds and splits
# nothing that block 1 on the short partitions and block 7 on the long one
# do not already split
DRAW_BLOCK_CASES = [
    pytest.param(block, sizes, id=f"{block}-{'-'.join(map(str, sizes))}")
    for block in (1, 7, 1000, _DRAW_BLOCK)
    for sizes in PARTITION_SIZES
    if block > 1 or max(sizes) < EVENT_PARTITION
]


@pytest.mark.parametrize("block,sizes", DRAW_BLOCK_CASES)
def test_pair_counts_do_not_depend_on_draw_block(
    monkeypatch, block, sizes, trans_forward, ladders
):
    # the uniforms are drawn and compared a block at a time: each run, the
    # first-label run and every label's run of second-label uniforms, is
    # split at multiples of the block size counted from the start of that
    # run; block 1 splits every run, 7 and 1000 split runs unevenly
    monkeypatch.setattr(experiment, "_DRAW_BLOCK", block)
    ladder = ladders["9-unsorted"]
    cols, columns = _ladder_columns(trans_forward, ladder)
    probs = gibbs_weights(ladder, 30.0).weights
    partitions = [(11 + k, size) for k, size in enumerate(sizes)]
    _assert_partitions_follow_reference(partitions, probs, columns, cols)


def test_column_table_bounds_at_zero_and_one_take_no_pass(
    preparation, trans_forward
):
    # sample_experiment counts over every row, so each column's table runs
    # from 0.0 to 1.0. Those two bounds, and any entry that rounds to 1.0,
    # count 0 and x.size without a comparison pass: with a zero-length mask
    # any pass would fail
    columns = trans_forward.matrix / trans_forward.matrix.sum(axis=0, keepdims=True)
    probs = preparation.probabilities / preparation.probabilities.sum()
    rows = np.arange(trans_forward.labels.size)
    x = np.random.default_rng(5).random(1000)
    no_pass = np.empty(0, dtype=bool)
    for j in range(columns.shape[1]):
        thresholds, upper, lower = _column_table(columns[:, j], rows)
        assert thresholds[lower[0]] == 0.0 and thresholds[upper[-1]] == 1.0
        edge = thresholds[(thresholds == 0.0) | (thresholds == 1.0)]
        counts = _count_below(x, edge, no_pass)
        assert counts.tolist() == [0 if t == 0.0 else x.size for t in edge]
    for seed in SEEDS:
        _assert_partitions_follow_reference([(seed, 20_000)], probs, columns, rows)


# Both sizes above EVENT_PARTITION run for every seed; directions, ladders
# and temperatures rotate so that each listed value meets a large size.
LARGE_CASES = [
    (0, 250_001, "forward", "5-sorted", 1.0),
    (0, 700_000, "backward", "9-unsorted", 30.0),
    (9, 250_001, "backward", "5-unsorted", 30.0),
    (9, 700_000, "forward", "9-sorted", 1.0),
    (2**63 - 5, 250_001, "forward", "9-unsorted", 30.0),
    (2**63 - 5, 700_000, "backward", "5-sorted", 1.0),
]


@pytest.mark.parametrize("seed,size,direction,name,temperature", LARGE_CASES)
def test_sample_work_matches_reference_histogram(
    seed, size, direction, name, temperature, transitions, ladders
):
    assert size > EVENT_PARTITION
    trans, ladder = transitions[direction], ladders[name]
    weights = gibbs_weights(ladder, temperature)
    dist = sample_work(weights, trans, ladder, size, seed)
    counts, discarded = _reference_work_counts(weights, trans, ladder, size, seed)
    assert np.array_equal(dist.mass, counts)
    assert dist.n_discarded == discarded


@pytest.mark.parametrize("n_events", (3, EVENT_PARTITION + 17))
def test_sample_experiment_matches_reference(preparation, trans_forward, n_events):
    sample = sample_experiment(preparation, trans_forward, n_events, seed=9)
    columns = trans_forward.matrix / trans_forward.matrix.sum(axis=0, keepdims=True)
    probs = preparation.probabilities / preparation.probabilities.sum()
    parts = [
        _reference_draw(rng, probs, columns, length)
        for rng, length in partition_seeds(9, n_events)
    ]
    first = np.concatenate([f for f, _s in parts])
    second = np.concatenate([s for _f, s in parts])
    n = trans_forward.labels.size
    counts = np.zeros((n, n), dtype=np.int64)
    np.add.at(counts, (second, first), 1)
    assert np.array_equal(sample, counts)


@pytest.mark.parametrize(
    "probs, message",
    [
        ([0.5, np.nan, 0.5], "NaN"),
        ([0.6, -0.1, 0.5], "non-negative"),
        ([0.5, 0.5, 1e-6], "sum to 1"),
    ],
)
def test_cdf_rejects_invalid_probabilities(probs, message):
    with pytest.raises(ValueError, match=message):
        _cdf(np.array(probs))
    # the same vectors are refused by the reference route
    with pytest.raises(ValueError):
        np.random.default_rng(0).choice(3, size=2, p=np.array(probs))

