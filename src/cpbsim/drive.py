"""Flux and gate drive protocols and their time-reversed counterparts.

A protocol pairs a flux waveform with a gate-charge waveform over a fixed
duration and carries a direction tag. Sampling a backward protocol applies
the two ingredients of the reversed schedule: the clock is mirrored
(t -> duration - t) and the flux sign is inverted. Both ingredients can be
switched off individually, which exists only to support negative-control
experiments; physical reversal keeps both on.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np

from .model import BiasPoint

FORWARD = "forward"
BACKWARD = "backward"

#: Drive frequency (cycles/ns) shared by the default flux and gate waveforms.
DEFAULT_FREQUENCY = 1.5

#: Default protocol duration: one full drive period, so the bias is closed
#: (identical at both endpoints) and sits deep in the charge regime there.
DEFAULT_DURATION = 2.0 / 3.0


@dataclass(frozen=True)
class Waveform:
    """Offset cosine ``offset + amplitude*cos(2*pi*frequency*t + phase)``."""

    offset: float
    amplitude: float
    frequency: float
    phase: float = 0.0

    def value(self, t: float) -> float:
        return self.offset + self.amplitude * math.cos(self._argument(t))

    def _argument(self, t: float) -> float:
        return 2.0 * math.pi * self.frequency * t + self.phase


@dataclass(frozen=True)
class DriveProtocol:
    """Cosine flux/gate drive over [0, duration].

    The defaults are the benchmark drive: flux swings over [-1/2, 1/2] flux
    quanta while the gate charge sweeps 0.05 - 2*cos(2*pi*1.5*t), both at
    1.5 cycles/ns over one period, t in ns. ``mirror_time`` and
    ``invert_flux`` default to the physical reversal recipe and only matter
    when ``direction`` is backward.
    """

    duration: float = DEFAULT_DURATION
    direction: str = FORWARD
    mirror_time: bool = True
    invert_flux: bool = True
    flux: Waveform = Waveform(offset=0.0, amplitude=0.5, frequency=DEFAULT_FREQUENCY)
    gate: Waveform = Waveform(offset=0.05, amplitude=-2.0, frequency=DEFAULT_FREQUENCY)

    def __post_init__(self) -> None:
        _check_direction(self.direction)
        if not self.duration > 0.0:
            raise ValueError("duration must be positive")
        # the argument is linear in t, so largest in magnitude at an endpoint
        for name, waveform in (("flux", self.flux), ("gate", self.gate)):
            if not all(math.isfinite(waveform._argument(t)) for t in (0.0, self.duration)):
                raise ValueError(
                    f"protocol.duration {self.duration:g} makes the argument "
                    f"2*pi*frequency*t + phase of protocol.{name} (frequency "
                    f"{waveform.frequency:g}, phase {waveform.phase:g}) non-finite"
                )

    def forward_bias(self, t: float) -> BiasPoint:
        return BiasPoint(flux=self.flux.value(t), gate_charge=self.gate.value(t))


@dataclass(frozen=True)
class TabulatedProtocol:
    """Protocol defined by a sampled waveform table, linearly interpolated.

    ``times`` must start at 0, increase strictly, and define the duration
    through the last entry. Shares the sampling and reversal semantics of
    :class:`DriveProtocol`. ``path`` names the file the table was read from,
    if any, as an absolute path, so the config echo re-runs from any directory.
    """

    times: np.ndarray
    flux_values: np.ndarray
    gate_values: np.ndarray
    direction: str = FORWARD
    mirror_time: bool = True
    invert_flux: bool = True
    path: Optional[str] = None

    def __post_init__(self) -> None:
        _check_direction(self.direction)
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1 or t.size < 2:
            raise ValueError("waveform table needs at least two samples")
        columns = (t, self.flux_values, self.gate_values)
        if not all(np.isfinite(np.asarray(c, dtype=float)).all() for c in columns):
            raise ValueError("waveform table values must be finite")
        if t[0] != 0.0:
            raise ValueError("waveform table must start at t = 0")
        if np.any(np.diff(t) <= 0.0):
            raise ValueError("waveform table times must increase strictly")
        if len(self.flux_values) != t.size or len(self.gate_values) != t.size:
            raise ValueError("waveform table columns must have equal length")

    @property
    def duration(self) -> float:
        return float(self.times[-1])

    def forward_bias(self, t: float) -> BiasPoint:
        return BiasPoint(
            flux=float(np.interp(t, self.times, self.flux_values)),
            gate_charge=float(np.interp(t, self.times, self.gate_values)),
        )


def _check_direction(direction: str) -> None:
    if direction not in (FORWARD, BACKWARD):
        raise ValueError(f"protocol.direction must be {FORWARD!r} or {BACKWARD!r}")


def sample_drive(protocol, t: float) -> BiasPoint:
    """Bias point seen by the device at time ``t`` into the protocol.

    Forward protocols sample the waveforms directly. Backward protocols run
    the mirrored clock and flip the flux sign, so the sampled flux equals
    minus the forward flux at duration - t, exactly (same float operations).
    """
    duration = protocol.duration
    if not 0.0 <= t <= duration:
        raise ValueError(f"t = {t} outside protocol window [0, {duration}]")
    if protocol.direction == FORWARD:
        return protocol.forward_bias(t)
    source = duration - t if protocol.mirror_time else t
    bias = protocol.forward_bias(source)
    flux = -bias.flux if protocol.invert_flux else bias.flux
    return BiasPoint(flux=flux, gate_charge=bias.gate_charge)


def reverse_protocol(protocol):
    """Toggle the direction tag; involutive. Sampling applies the reversal."""
    flipped = BACKWARD if protocol.direction == FORWARD else FORWARD
    return replace(protocol, direction=flipped)


def load_waveform_table(path) -> TabulatedProtocol:
    """Read a waveform table CSV with header ``t_ns,flux_phi0,n_g``."""
    expected = ["t_ns", "flux_phi0", "n_g"]
    with open(Path(path), newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty waveform table") from None
        if [c.strip() for c in header] != expected:
            raise ValueError(
                f"{path}: waveform table header must be {','.join(expected)}"
            )
        rows = []
        for row in filter(None, reader):
            if len(row) != len(expected):
                raise ValueError(
                    f"{path}: line {reader.line_num} has {len(row)} cells, "
                    f"expected {len(expected)}"
                )
            try:
                rows.append([float(cell) for cell in row])
            except ValueError as exc:
                raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    if len(rows) < 2:
        raise ValueError(f"{path}: waveform table needs at least two samples")
    data = np.asarray(rows, dtype=float)
    return TabulatedProtocol(
        times=data[:, 0],
        flux_values=data[:, 1],
        gate_values=data[:, 2],
        path=os.path.abspath(path),
    )
