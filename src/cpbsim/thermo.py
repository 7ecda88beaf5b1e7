"""Gibbs-ensemble emulation, work distributions, and fluctuation relations.

Work is defined by two projective energy measurements against the frozen
start-of-protocol Hamiltonian: W = E_second - E_first. Because the default
protocol is cyclic, that frozen operator also rules the endpoint, and the
exclusive and inclusive work definitions coincide. Energies are attached to
charge labels through the near-identity overlap between H(0) eigenstates and
charge states; the thermal ensemble is emulated by drawing the first label
from Boltzmann weights renormalized on the measured subspace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .drive import sample_drive
from .experiment import TransitionMatrix, _sample_pair_counts
from .model import (
    DEFAULT_SUBSPACE,
    KB_OVER_HBAR,
    DeviceParams,
    charge_labels,
    label_rows,
)
from .propagate import _frozen_eigh

#: Work values closer than this (rad/ns) are treated as one atom.
WORK_DEDUP_TOL = 1e-9

#: Each ladder label's H(0) eigenstate must put at least this weight on it.
MIN_OVERLAP = 0.99

#: Atoms below this mass are unpopulated: the pairwise Boltzmann products
#: that build them underflow into the subnormal range, where log-ratios
#: carry only a handful of mantissa bits.
ATOM_MASS_FLOOR = 1e-300

EXACT = "exact"
SAMPLED = "sampled"


@dataclass(frozen=True)
class EnergyLadder:
    """Charge label -> H(0) eigenenergy assignment.

    ``overlaps[i]`` is the squared overlap between charge state labels[i] and
    its assigned eigenstate (all 1.0 in bare-charging mode).
    """

    labels: np.ndarray
    energies: np.ndarray
    overlaps: np.ndarray
    bare: bool = False


@dataclass(frozen=True)
class GibbsWeights:
    """Boltzmann weights over the ladder labels at temperature T (kelvin)."""

    temperature: float
    labels: np.ndarray
    weights: np.ndarray


@dataclass(frozen=True)
class WorkDistribution:
    """Forward or backward two-point work statistics.

    Exact mode stores probabilities over the deduplicated work grid and the
    probability mass excluded by the subspace post-selection. Sampled mode
    stores event counts on the same grid plus the number of discarded
    (leaked) events.
    """

    values: np.ndarray
    mass: np.ndarray
    direction: str
    kind: str
    excluded_mass: float = 0.0
    n_events: int = 0
    n_discarded: int = 0

    def probabilities(self) -> np.ndarray:
        if self.kind == EXACT:
            return self.mass
        total = self.mass.sum()
        if total == 0:
            raise ValueError("sampled distribution holds no events")
        return self.mass / total


@dataclass(frozen=True)
class BKEqualityResult:
    """Mean of exp(-W/k_BT) with its standard error (0 in exact mode)."""

    temperature: float
    mean: float
    stderr: float
    kind: str
    n_events: int = 0


@dataclass(frozen=True)
class BKRatioRecord:
    """One point of the ln(P_F[W]/P_B[-W]) = W/k_BT comparison.

    ``matched`` is False when the counterpart atom carries no mass; such
    records keep ``log_ratio`` as NaN rather than fabricating a value.
    """

    work: float
    log_ratio: float
    reference: float
    forward_mass: float
    backward_mass: float
    matched: bool


def thermal_energy(temperature: float) -> float:
    """k_B*T in rad/ns for T in kelvin."""
    if not temperature > 0:
        raise ValueError("temperature must be positive")
    return KB_OVER_HBAR * temperature


def _endpoint_closed(protocol, tol: float = 1e-9) -> bool:
    start = sample_drive(protocol, 0.0)
    stop = sample_drive(protocol, protocol.duration)
    return (
        abs(start.flux - stop.flux) <= tol
        and abs(start.gate_charge - stop.gate_charge) <= tol
    )


def energy_ladder(
    params: DeviceParams,
    protocol,
    subspace=DEFAULT_SUBSPACE,
    bare: bool = False,
) -> EnergyLadder:
    """Assign start-of-protocol energies to the subspace charge labels.

    Eigen mode (default) takes the eigenenergy of the H(0) eigenstate with
    maximum overlap on each charge state and demands that the assignment be
    a clean bijection (every overlap above ``MIN_OVERLAP``). Bare mode takes
    the charging parabola 4*E_C*(n - n_g(0))^2 instead; it exists for
    sensitivity analysis against the tunneling-induced level shifts.

    The protocol must be endpoint-closed so that a single frozen operator
    rules both measurements.
    """
    if not _endpoint_closed(protocol):
        raise ValueError("protocol is not endpoint-closed; work needs one H(0)")
    full = charge_labels(params)
    rows = label_rows(full, subspace)
    labels = full[rows]
    bias = sample_drive(protocol, 0.0)
    if bare:
        energies = 4.0 * params.charging_energy * (labels - bias.gate_charge) ** 2
        return EnergyLadder(
            labels=labels,
            energies=energies.astype(float),
            overlaps=np.ones(labels.size),
            bare=True,
        )
    levels, states = _frozen_eigh(params, bias)
    weight = np.abs(states) ** 2
    assigned = np.argmax(weight[rows, :], axis=1)
    overlaps = weight[rows, assigned]
    bad = overlaps < MIN_OVERLAP
    if np.any(bad):
        worst = [
            f"n={labels[i]} overlap={overlaps[i]:.4f}" for i in np.flatnonzero(bad)
        ]
        raise ValueError(
            "ambiguous charge-to-eigenstate mapping: " + ", ".join(worst)
        )
    if np.unique(assigned).size != assigned.size:
        raise ValueError("charge-to-eigenstate mapping is not a bijection")
    return EnergyLadder(
        labels=labels, energies=levels[assigned], overlaps=overlaps
    )


def gibbs_weights(ladder: EnergyLadder, temperature: float) -> GibbsWeights:
    """Boltzmann weights exp(-E_n/k_BT) normalized over the ladder labels.

    Raises ``ValueError`` when a weight underflows to exactly 0: that label
    would silently drop out of the ensemble and of every work statistic
    built on it.
    """
    kt = thermal_energy(temperature)
    shifted = (ladder.energies - ladder.energies.min()) / kt
    raw = np.exp(-shifted)
    weights = raw / raw.sum()
    empty = np.flatnonzero(weights == 0.0)
    if empty.size:
        raise ValueError(
            f"Gibbs weight of label {int(ladder.labels[empty[0]])} underflows "
            f"to 0 at {temperature:g} K; raise the temperature or narrow the "
            "subspace"
        )
    return GibbsWeights(
        temperature=temperature, labels=ladder.labels, weights=weights
    )


def _work_grid(ladder: EnergyLadder):
    """Canonical deduplicated work values and the pair -> atom index map.

    ``group[i, j]`` is the atom index of the transition first=i, second=j
    (ladder index order), with W = E_j - E_i.
    """
    n = ladder.labels.size
    pair_work = ladder.energies[None, :] - ladder.energies[:, None]
    flat = pair_work.ravel()
    order = np.argsort(flat, kind="stable")
    values = []
    group_flat = np.empty(flat.size, dtype=np.int64)
    for rank in order:
        w = flat[rank]
        if values and w - values[-1] <= WORK_DEDUP_TOL:
            group_flat[rank] = len(values) - 1
            continue
        values.append(w)
        group_flat[rank] = len(values) - 1
    # one representative per atom: mean of the grouped raw values
    values = np.asarray(values)
    sums = np.zeros(values.size)
    hits = np.zeros(values.size)
    np.add.at(sums, group_flat, flat)
    np.add.at(hits, group_flat, 1.0)
    return sums / hits, group_flat.reshape(n, n)


def work_distribution_exact(
    weights: GibbsWeights, trans: TransitionMatrix, ladder: EnergyLadder
) -> WorkDistribution:
    """Exact two-point work distribution on the ladder subspace.

    Pairs whose second outcome leaves the subspace are excluded and the
    distribution renormalized (the sampled counterpart discards those
    events); the excluded mass is recorded.  Atoms whose mass falls below
    ATOM_MASS_FLOOR are dropped as unpopulated rather than kept as
    precision-starved subnormals.
    """
    if not np.array_equal(weights.labels, ladder.labels):
        raise ValueError("weights and ladder cover different labels")
    cols = label_rows(trans.labels, ladder.labels)
    block = trans.matrix[np.ix_(cols, cols)]  # [second, first] in ladder order
    joint = block * weights.weights[None, :]
    values, group = _work_grid(ladder)
    mass = np.zeros(values.size)
    # group[i, j]: first i, second j; joint[j, i] carries that pair's mass
    np.add.at(mass, group, joint.T)
    total = mass.sum()
    excluded = 1.0 - total
    keep = mass >= ATOM_MASS_FLOOR
    return WorkDistribution(
        values=values[keep],
        mass=mass[keep] / total,
        direction=trans.direction,
        kind=EXACT,
        excluded_mass=float(excluded),
    )


def sample_work(
    weights: GibbsWeights,
    trans: TransitionMatrix,
    ladder: EnergyLadder,
    n_events: int,
    seed: int,
) -> WorkDistribution:
    """Seeded Monte Carlo work records on the exact distribution's grid.

    First label Boltzmann-drawn on the subspace, second from the matching
    transition-matrix column over the full basis; events leaking out of the
    subspace are discarded and counted. Partitions, seeds and the random
    stream are those of :func:`cpbsim.experiment.sample_experiment`, with
    first labels indexed in ladder order.
    """
    if n_events < 1:
        raise ValueError("n_events must be positive")
    if not np.array_equal(weights.labels, ladder.labels):
        raise ValueError("weights and ladder cover different labels")
    cols = label_rows(trans.labels, ladder.labels)
    columns = trans.matrix[:, cols]
    columns = columns / columns.sum(axis=0, keepdims=True)
    # pairs[i, j]: events with first ladder index i and second ladder index j
    pairs = _sample_pair_counts(seed, n_events, weights.weights, columns, cols)
    values, group = _work_grid(ladder)
    counts = np.zeros(values.size, dtype=np.int64)
    np.add.at(counts, group, pairs)
    return WorkDistribution(
        values=values,
        mass=counts,
        direction=trans.direction,
        kind=SAMPLED,
        n_events=n_events,
        n_discarded=n_events - int(pairs.sum()),
    )


def bk_equality(dist: WorkDistribution, temperature: float) -> BKEqualityResult:
    """Mean of exp(-W/k_BT) over the distribution.

    Exact mode evaluates the deterministic sum through logs (safe against
    overflow of the exponential against a tiny atom mass) with zero error;
    sampled mode returns the event-average and its standard error.
    """
    kt = thermal_energy(temperature)
    if dist.kind == EXACT:
        terms = [
            math.exp(math.log(p) - w / kt)
            for w, p in zip(dist.values, dist.mass)
            if p > 0.0
        ]
        return BKEqualityResult(
            temperature=temperature, mean=math.fsum(terms), stderr=0.0, kind=EXACT
        )
    n = int(dist.mass.sum())
    if n < 2:
        raise ValueError("need at least two sampled events")
    factors = np.exp(-dist.values / kt)
    mean = float(np.dot(dist.mass, factors) / n)
    # atoms no event reached weigh nothing; their factors may square to inf
    deviation = np.where(dist.mass > 0, factors - mean, 0.0)
    var = float(np.dot(dist.mass, deviation**2) / (n - 1))
    return BKEqualityResult(
        temperature=temperature,
        mean=mean,
        stderr=math.sqrt(var / n),
        kind=SAMPLED,
        n_events=n,
    )


def bk_ratio_check(
    forward: WorkDistribution, backward: WorkDistribution, temperature: float
):
    """Per-atom comparison of ln(P_F[W]/P_B[-W]) against W/k_BT.

    Emits one record per forward atom with mass; atoms without a matching
    populated -W atom on the backward side are flagged, never fabricated.
    """
    kt = thermal_energy(temperature)
    p_fwd = forward.probabilities()
    p_bwd = backward.probabilities()
    records = []
    for w, pf in zip(forward.values, p_fwd):
        if pf <= 0.0:
            continue
        candidates = np.flatnonzero(np.abs(backward.values + w) <= WORK_DEDUP_TOL)
        pb = float(p_bwd[candidates[0]]) if candidates.size else 0.0
        matched = pb > 0.0
        records.append(
            BKRatioRecord(
                work=float(w),
                log_ratio=math.log(pf) - math.log(pb) if matched else math.nan,
                reference=float(w) / kt,
                forward_mass=float(pf),
                backward_mass=pb,
                matched=matched,
            )
        )
    return records
