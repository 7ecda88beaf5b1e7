"""Two-point measurement statistics of forward and backward protocols.

The central object is the transition matrix P[m, n] = |<m|U|n>|^2 between
charge labels, which inherits double stochasticity from the unitarity of U.
Microreversibility of the driven device states that the forward matrix
equals the transpose of the matrix of the reversed protocol (mirrored clock
plus inverted flux); ``microrev_deviation`` quantifies how far a simulated
pair is from that identity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .drive import BACKWARD, FORWARD
from .model import DEFAULT_SUBSPACE, DeviceParams, charge_labels, label_rows
from .propagate import PropagatorConfig, _frozen_eigh, evolve

#: Partition length for seeded event streams. Partition k always draws from
#: its own generator spawned from the seed, so the size is part of which
#: events a fixed seed produces.
EVENT_PARTITION = 250_000

#: Most events one sampler call draws: 14-18 min at 8.5-11 ns per event
#: on a 2-vCPU x86-64 host, and 10**5 times the default 10**6 events.
MAX_EVENTS = 10**11


@dataclass(frozen=True)
class TransitionMatrix:
    """Charge-to-charge transition probabilities of one protocol direction.

    ``matrix[m_idx, n_idx]`` is the probability of measuring final label m
    given initial label n; ``labels`` maps indices to charge labels.
    """

    matrix: np.ndarray
    labels: np.ndarray
    direction: str

    def subspace_leakage(self, subspace=DEFAULT_SUBSPACE) -> np.ndarray:
        """Per-column probability of leaving ``subspace``, column order as given."""
        rows = label_rows(self.labels, subspace)
        return 1.0 - self.matrix[np.ix_(rows, rows)].sum(axis=0)


@dataclass(frozen=True)
class PreparationEnsemble:
    """First-measurement outcome distribution from the protocol ground state."""

    probabilities: np.ndarray
    labels: np.ndarray
    subspace_mass: float


@dataclass(frozen=True)
class MicrorevReport:
    """Elementwise deviation of P_forward from transpose(P_backward)."""

    max_abs: float
    mean_abs: float
    max_abs_full: float
    mean_abs_full: float
    subspace: tuple


def transition_matrix(
    u: np.ndarray, labels: np.ndarray, direction: str = FORWARD
) -> TransitionMatrix:
    """Squared-magnitude transition probabilities of a propagator."""
    if direction not in (FORWARD, BACKWARD):
        raise ValueError(f"unknown direction {direction!r}")
    if u.shape[0] != u.shape[1] or u.shape[0] != labels.size:
        raise ValueError("propagator shape does not match label count")
    return TransitionMatrix(
        matrix=np.abs(u) ** 2, labels=np.asarray(labels), direction=direction
    )


def stochasticity_defect(trans: TransitionMatrix) -> float:
    """Largest deviation of any row or column sum from one."""
    row = np.abs(trans.matrix.sum(axis=1) - 1.0).max()
    col = np.abs(trans.matrix.sum(axis=0) - 1.0).max()
    return float(max(row, col))


def run_protocol(
    params: DeviceParams, protocol, config: PropagatorConfig
) -> TransitionMatrix:
    """Evolve the protocol and collapse the propagator to probabilities."""
    u = evolve(params, protocol, config)
    return transition_matrix(u, charge_labels(params), protocol.direction)


def prepare_ensemble(
    params: DeviceParams,
    protocol,
    u: np.ndarray,
    subspace=DEFAULT_SUBSPACE,
) -> PreparationEnsemble:
    """First-measurement distribution after driving the t = 0 ground state.

    The device starts in the exact ground state of the frozen Hamiltonian at
    the protocol start; the drive then spreads it over a handful of charge
    states, which is what makes a multi-state thermal ensemble emulatable.
    ``u`` is the protocol's full-window propagator from :func:`evolve`, so
    callers that also need the transition matrix propagate once. Forward
    protocols only. H(0) must pass :func:`evolve`'s phase-rounding check
    over the protocol's duration (``ValueError``).
    """
    if protocol.direction != FORWARD:
        raise ValueError("preparation is defined for forward protocols")
    ground = _frozen_eigh(params, protocol)[1][:, 0]
    probabilities = np.abs(u @ ground) ** 2
    labels = charge_labels(params)
    rows = label_rows(labels, subspace)
    return PreparationEnsemble(
        probabilities=probabilities,
        labels=labels,
        # Python's sum adds in row order, unlike numpy's pairwise sum
        subspace_mass=float(sum(probabilities[rows])),
    )


def derive_seed(seed: int, *key: int) -> int:
    """Independent child seed for a keyed sub-run (temperature, direction, ...).

    Children of distinct keys never collide with each other or with the
    partition streams spawned by :func:`partition_seeds`, which key on the
    partition index alone.
    """
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(0x5EED, *key))
    return int.from_bytes(seq.generate_state(4, dtype=np.uint32).tobytes(), "little")


def partition_seeds(seed: int, n_events: int):
    """Seeded ``(generator, length)`` pairs covering ``n_events`` events.

    Partition k holds ``EVENT_PARTITION`` events (the last one the rest) and
    draws from ``default_rng(SeedSequence(entropy=seed, spawn_key=(k,)))``.
    Pairs are made one at a time, as the caller reaches them, so iterating
    holds one generator whatever the event count. ``EVENT_PARTITION`` is
    read when iteration starts.
    """
    partition = EVENT_PARTITION
    for k, start in enumerate(range(0, n_events, partition)):
        seq = np.random.SeedSequence(entropy=seed, spawn_key=(k,))
        yield np.random.default_rng(seq), min(partition, n_events - start)


#: Largest |sum(p) - 1| a probability vector may show, as in numpy's ``choice``.
_SUM_TOLERANCE = float(np.sqrt(np.finfo(np.float64).eps))


def _cdf(p: np.ndarray) -> np.ndarray:
    """Cumulative table that ``Generator.choice(p=p)`` searches.

    Outcome k is drawn for a uniform x exactly when ``cdf[k-1] <= x <
    cdf[k]``, i.e. ``cdf.searchsorted(x, side="right") == k``. The checks are
    the ones ``choice`` makes before drawing.
    """
    p = np.asarray(p, dtype=np.float64)
    if np.isnan(p).any():
        raise ValueError("probabilities contain NaN")
    if (p < 0.0).any():
        raise ValueError("probabilities are not non-negative")
    if abs(p.sum() - 1.0) > _SUM_TOLERANCE:
        raise ValueError("probabilities do not sum to 1")
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf


def _count_below(
    x: np.ndarray, thresholds: np.ndarray, mask: np.ndarray
) -> np.ndarray:
    """``#{x < t}`` for uniforms ``x`` in [0, 1) and ascending ``thresholds`` t.

    This is the one place that decides which thresholds are compared: one
    at or below ``min(x)`` counts 0 and one at or above 1.0 counts
    ``x.size``, both without a pass. That covers a table's 0.0 and 1.0
    bounds, entries that round to 1.0, and entries too small for any
    uniform of the slice. Every other threshold takes a comparison pass,
    which writes into ``mask[:x.size]``, so counting allocates no temporary
    the size of ``x``.
    """
    out = mask[: x.size]
    counts = np.full(thresholds.size, x.size, dtype=np.int64)
    start = thresholds.searchsorted(x.min(), side="right")
    stop = thresholds.searchsorted(1.0)
    counts[:start] = 0
    counts[start:stop] = [np.count_nonzero(np.less(x, t, out=out)) for t in thresholds[start:stop]]
    return counts


def _column_table(column: np.ndarray, rows: np.ndarray):
    """Comparison thresholds of one second-label table and their index maps.

    Returns ``(thresholds, upper, lower)``: the distinct bounds of the
    outcomes ``rows``, ascending, and for outcome ``rows[k]`` the indices of
    its bounds ``cdf[rows[k]]`` and ``cdf[rows[k] - 1]`` (0.0 below the first
    outcome) among them. With ``below = _count_below(x, thresholds, mask)``,
    outcome ``rows[k]`` is hit by ``below[upper[k]] - below[lower[k]]``
    uniforms of ``x``.
    """
    bounds = np.concatenate(([0.0], _cdf(column)))
    ends = np.concatenate((bounds[rows], bounds[rows + 1]))
    thresholds, index = np.unique(ends, return_inverse=True)
    return thresholds, index[rows.size :], index[: rows.size]


#: Uniforms drawn per ``Generator.random`` call of the two-point samplers:
#: 512 kB of float64, which fits a 2 MB L2 cache. The block size changes no
#: count and no generator state, only the scratch memory.
_DRAW_BLOCK = 1 << 16


def _count_run(rng, length, thresholds, block, mask):
    """``#{x < t}`` over the next ``length`` uniforms x of ``rng``.

    The run is read into ``block`` a block at a time with
    ``rng.random(out=...)``, which reads the stream as one
    ``rng.random(length)`` call would; counts add exactly over the blocks.
    """
    counts = np.zeros(thresholds.size, dtype=np.int64)
    for lo in range(0, length, block.size):
        x = rng.random(out=block[: min(block.size, length - lo)])
        counts += _count_below(x, thresholds, mask)
    return counts


def _pair_counts(partitions, initial_probs, columns, rows):
    """Two-point event histogram restricted to final indices ``rows``.

    ``partitions`` is any iterable of ``(rng, size)`` pairs, such as
    :func:`partition_seeds`, read once and in order. ``counts[j, k]`` is the
    number of events, summed over the partitions, with initial index j,
    drawn from ``initial_probs``, and final index ``rows[k]``, drawn from
    column j of ``columns``.

    Stream contract: for each partition, the counts and the generator's
    final state equal those of ``first = rng.choice(n, size,
    p=initial_probs)`` followed by one ``rng.choice(m, hits_j, p=columns[:,
    j])`` per initial index j with hits, in increasing j. That is one run of
    ``size`` uniforms for the first indices, then one run of ``hits_j``
    uniforms per label j, each read a block at a time by
    :func:`_count_run`. No per-event label array is built: outcome k of a
    table c is hit by #{x < c[k]} - #{x < c[k-1]} uniforms, exact integer
    arithmetic on comparison counts, which :func:`_count_below` makes.

    Block contract: one call allocates one draw block of ``_DRAW_BLOCK``
    floats and one boolean mask of the same length, whatever the event
    count or the partition sizes (pages that short partitions never write
    cost no resident memory), and the block size changes no count. A
    column's table is built on its first hit, so, as with ``choice``, a
    column that no event reaches is never checked.
    """
    cdf = _cdf(initial_probs)
    block = np.empty(_DRAW_BLOCK)
    mask = np.empty(block.size, dtype=bool)
    tables = {}
    counts = np.zeros((initial_probs.size, rows.size), dtype=np.int64)
    for rng, size in partitions:
        hits = np.diff(_count_run(rng, size, cdf, block, mask), prepend=0)
        for j in np.flatnonzero(hits):
            if j not in tables:
                tables[j] = _column_table(columns[:, j], rows)
            thresholds, upper, lower = tables[j]
            below = _count_run(rng, hits[j], thresholds, block, mask)
            counts[j] += below[upper] - below[lower]
    return counts


def sample_experiment(
    prep: PreparationEnsemble,
    trans: TransitionMatrix,
    n_events: int,
    seed: int,
) -> np.ndarray:
    """Count seeded two-point measurement events.

    Returns the int64 counts ``[m_idx, n_idx]``: the number of events with
    first label ``trans.labels[n_idx]`` and second label
    ``trans.labels[m_idx]``.

    The first outcome follows the preparation distribution, the second the
    matching transition-matrix column. Events are counted in the seeded
    fixed-size partitions of :func:`partition_seeds`, each generator made
    when counting reaches its partition, and the counts are those of the
    events that ``Generator.choice`` would draw from each partition's
    generator (see :func:`_pair_counts`). The scratch memory is one draw
    block and mask, whatever ``n_events``.
    """
    if not 0 < n_events <= MAX_EVENTS:
        raise ValueError(f"n_events must be positive and at most {MAX_EVENTS}")
    if prep.probabilities.size != trans.labels.size:
        raise ValueError("preparation and transition matrix bases differ")
    columns = trans.matrix / trans.matrix.sum(axis=0, keepdims=True)
    probs = prep.probabilities / prep.probabilities.sum()
    rows = np.arange(trans.labels.size)
    return _pair_counts(partition_seeds(seed, n_events), probs, columns, rows).T


def microrev_deviation(
    forward: TransitionMatrix,
    backward: TransitionMatrix,
    subspace=DEFAULT_SUBSPACE,
) -> MicrorevReport:
    """Deviation of the pair from P_forward = transpose(P_backward).

    Reported over the measurement subspace (max and mean of elementwise
    absolute differences) and over the full basis.
    """
    if forward.direction != FORWARD or backward.direction != BACKWARD:
        raise ValueError("need one forward and one backward transition matrix")
    if forward.matrix.shape != backward.matrix.shape:
        raise ValueError("transition matrices have mismatched shapes")
    diff = np.abs(forward.matrix - backward.matrix.T)
    rows = label_rows(forward.labels, subspace)
    block = diff[np.ix_(rows, rows)]
    return MicrorevReport(
        max_abs=float(block.max()),
        mean_abs=float(block.mean()),
        max_abs_full=float(diff.max()),
        mean_abs_full=float(diff.mean()),
        subspace=tuple(forward.labels[rows].tolist()),
    )
