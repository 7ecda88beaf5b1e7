"""Scratch-memory bounds of the hot paths.

The two-point sampler draws its uniforms in one fixed-size block and makes
each partition's generator only when it reaches that partition, and
``evolve`` and the spectrum and ratio traces walk fixed-size blocks of
instants, so none holds scratch memory that grows with the event,
partition, step or sample count. The CSV writer encodes each row onto the
payload's bytes, so it holds the payload about once. The bounds are on the
peak heap that ``tracemalloc`` sees during one call, over what was already
held before it and, for the traces and the writer, over what it keeps.
"""

import tracemalloc

import numpy as np
import pytest

from cpbsim import (
    PropagatorConfig,
    energy_ladder,
    evolve,
    experiment,
    gibbs_weights,
    partition_seeds,
    ratio_trace,
    sample_experiment,
    sample_work,
    spectrum_trace,
)
from cpbsim.cli import _OutputSet

MIB = 2**20


def _traced(fn, *args):
    """Largest traced heap, in bytes, that ``fn(*args)`` adds at any time,
    and what it still holds on return, its result included."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn(*args)
        kept, peak = tracemalloc.get_traced_memory()
        return peak - held, kept - held
    finally:
        if started:
            tracemalloc.stop()


def _scratch_peak(fn, *args):
    """Largest traced heap, in bytes, that ``fn(*args)`` adds at any time."""
    return _traced(fn, *args)[0]


def test_sample_work_scratch_is_bounded(params, protocol, trans_forward):
    ladder = energy_ladder(params, protocol)
    weights = gibbs_weights(ladder, 10.0)
    assert _scratch_peak(sample_work, weights, trans_forward, ladder, 10**6, 7) <= MIB


def test_sample_experiment_scratch_is_bounded(preparation, trans_forward):
    assert _scratch_peak(sample_experiment, preparation, trans_forward, 10**6, 7) <= MIB


def test_sampler_scratch_does_not_grow_with_partitions(
    monkeypatch, params, protocol, preparation, trans_forward
):
    # 2,000 partitions of 500 events: a generator held per partition would
    # cost about 1.3 kB each, 2.5 MiB in all
    monkeypatch.setattr(experiment, "EVENT_PARTITION", 500)
    assert sum(1 for _pair in partition_seeds(7, 10**6)) == 2000
    ladder = energy_ladder(params, protocol)
    weights = gibbs_weights(ladder, 10.0)
    assert _scratch_peak(sample_experiment, preparation, trans_forward, 10**6, 7) <= MIB
    assert _scratch_peak(sample_work, weights, trans_forward, ladder, 10**6, 7) <= MIB


def test_evolve_scratch_does_not_grow_with_steps(params, protocol):
    # 6,667 steps at the default dt against 667: a tenfold step count may
    # not raise the peak by more than a quarter MiB
    coarse = _scratch_peak(evolve, params, protocol, PropagatorConfig(1e-3))
    fine = _scratch_peak(evolve, params, protocol, PropagatorConfig(1e-4))
    assert fine <= MIB
    assert fine - coarse < 0.25 * MIB


@pytest.mark.parametrize("trace", [spectrum_trace, ratio_trace])
def test_trace_scratch_does_not_grow_with_samples(params, protocol, trace):
    # 4,000 samples against 500: assembling every instant at once held about
    # 2.7 kB per sample at N = 51, 9 MiB more at 4,000
    small_peak, small_result = _traced(trace, params, protocol, 500)
    large_peak, large_result = _traced(trace, params, protocol, 4000)
    assert (large_peak - large_result) - (small_peak - small_result) < 0.25 * MIB


def test_csv_payload_is_held_about_once(tmp_path):
    # 4,000 rows of 52 floats, about 3 MiB of text: a list of the row
    # strings, their join and its encoding held three copies, and at least
    # two of them were alive together (scratch about 1.07 payloads)
    rows = np.random.default_rng(7).standard_normal((4000, 52)).tolist()
    out = _OutputSet(str(tmp_path / "o"))
    peak, kept = _traced(out.write, "spectrum.csv", rows)
    payload = len(out.payloads["spectrum.csv"])
    assert payload > 3 * MIB
    assert peak - kept < 0.5 * payload
