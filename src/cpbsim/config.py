"""Run configuration: strict JSON ingestion with built-in device defaults.

Config files are plain JSON with nested sections (device, protocol,
propagator, detector) plus scalar run controls. Every key is optional, so
an empty object reproduces the reference device and drive settings;
unknown keys are rejected rather than silently ignored.  Units follow the
library convention: energies and work in rad/ns, times in ns, flux in
units of the flux quantum, temperatures in kelvin, capacitances in fF.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from typing import Any, Mapping, Optional, Tuple, Union

from .drive import (
    BACKWARD,
    DEFAULT_DURATION,
    FORWARD,
    DriveProtocol,
    TabulatedProtocol,
    default_protocol,
    load_waveform_table,
)
from .model import DEFAULT_SUBSPACE, DeviceParams
from .noise import DEFAULT_BATH_TEMPERATURE, DetectorParams
from .propagate import PropagatorConfig
from .thermo import EXACT, SAMPLED

DEFAULT_TEMPERATURES_K = (1.0, 10.0, 20.0, 30.0, 40.0, 50.0)
DEFAULT_EVENTS = 1_000_000
DEFAULT_SEED = 20260814
DEFAULT_OUTPUT_DIR = "runs"
DEFAULT_SAMPLE_POINTS = 667
DEFAULT_MICROREV_TOLERANCE = 1e-3


class _Section:
    """One config mapping; tracks handed-out keys to reject leftovers."""

    def __init__(self, name: str, data: Any) -> None:
        if data is None:
            data = {}
        if not isinstance(data, Mapping):
            raise ValueError(f"config section {name!r} must be a JSON object")
        self.name = name
        self._data = dict(data)
        self._seen: set = set()

    def take(self, key: str, default: Any) -> Any:
        self._seen.add(key)
        return self._data.get(key, default)

    def has(self, key: str) -> bool:
        return key in self._data

    def close(self) -> None:
        unknown = sorted(set(self._data) - self._seen)
        if unknown:
            raise ValueError(f"unknown config key(s) in {self.name}: {unknown}")


def _float(name: str, value: Any) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"config key {name!r} must be a number")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ValueError(f"config key {name!r} must be finite")
    return number


def _int(name: str, value: Any, minimum: Optional[int] = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"config key {name!r} must be an integer")
    if minimum is not None and value < minimum:
        raise ValueError(f"config key {name!r} must be >= {minimum}")
    return int(value)


def _bool(name: str, value: Any) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"config key {name!r} must be true or false")
    return value


def _str(name: str, value: Any) -> str:
    if not isinstance(value, str):
        raise ValueError(f"config key {name!r} must be a string")
    return value


def _fields(name: str, data: Any, ref):
    """Copy of dataclass instance ``ref`` with the keys of section ``name``.

    A field with an int default is read by :func:`_int`, any other by
    :func:`_float`; the dataclass itself validates the values.
    """
    sec = _Section(name, data)
    values = {}
    for f in dataclasses.fields(ref):
        default = getattr(ref, f.name)
        read = _int if isinstance(default, int) else _float
        values[f.name] = read(f"{name}.{f.name}", sec.take(f.name, default))
    out = dataclasses.replace(ref, **values)
    sec.close()
    return out


def _protocol(data: Any):
    sec = _Section("protocol", data)
    family = _str("protocol.family", sec.take("family", "cosine"))
    direction = _str("protocol.direction", sec.take("direction", FORWARD))
    if direction not in (FORWARD, BACKWARD):
        raise ValueError("protocol.direction must be 'forward' or 'backward'")
    mirror_time = _bool("protocol.mirror_time", sec.take("mirror_time", True))
    invert_flux = _bool("protocol.invert_flux", sec.take("invert_flux", True))
    if family == "cosine":
        ref = default_protocol()
        duration = _float("protocol.duration", sec.take("duration", ref.duration))
        flux = _fields("protocol.flux", sec.take("flux", {}), ref.flux)
        gate = _fields("protocol.gate", sec.take("gate", {}), ref.gate)
        sec.close()
        protocol = DriveProtocol(
            flux=flux,
            gate=gate,
            duration=duration,
            direction=direction,
            mirror_time=mirror_time,
            invert_flux=invert_flux,
        )
        return protocol, None
    if family == "table":
        if not sec.has("table_path"):
            raise ValueError("protocol.family 'table' requires protocol.table_path")
        path = _str("protocol.table_path", sec.take("table_path", None))
        if sec.has("duration"):
            raise ValueError("a waveform table defines its own duration")
        if sec.has("flux") or sec.has("gate"):
            raise ValueError("waveform tables do not take flux/gate sections")
        sec.take("duration", None)
        sec.take("flux", None)
        sec.take("gate", None)
        sec.close()
        table = load_waveform_table(path)
        protocol = dataclasses.replace(
            table,
            direction=direction,
            mirror_time=mirror_time,
            invert_flux=invert_flux,
        )
        return protocol, path
    raise ValueError("protocol.family must be 'cosine' or 'table'")


def _subspace(value: Any) -> Union[Tuple[int, ...], str]:
    if value == "all":
        return "all"
    if not isinstance(value, (list, tuple)) or not value:
        raise ValueError("subspace must be 'all' or a non-empty list of labels")
    labels = tuple(_int("subspace entry", v, -(10**9)) for v in value)
    if len(set(labels)) != len(labels):
        raise ValueError("subspace labels must be distinct")
    return labels


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run settings for the command-line front end."""

    device: DeviceParams
    protocol: Union[DriveProtocol, TabulatedProtocol]
    propagator: PropagatorConfig
    subspace: Union[Tuple[int, ...], str]
    temperatures_k: Tuple[float, ...]
    events: int
    seed: int
    mode: str
    bare_ladder: bool
    microrev_tolerance: float
    bath_temperature_k: float
    detector: DetectorParams
    spectrum_samples: int
    trace_samples: int
    output_dir: str
    table_path: Optional[str] = None

    def resolved(self) -> dict:
        """Defaults-applied echo; re-ingesting it reproduces this config."""
        if self.table_path is None:
            proto: dict = {
                "family": "cosine",
                "duration": self.protocol.duration,
                "direction": self.protocol.direction,
                "mirror_time": self.protocol.mirror_time,
                "invert_flux": self.protocol.invert_flux,
                "flux": dataclasses.asdict(self.protocol.flux),
                "gate": dataclasses.asdict(self.protocol.gate),
            }
        else:
            proto = {
                "family": "table",
                "table_path": self.table_path,
                "direction": self.protocol.direction,
                "mirror_time": self.protocol.mirror_time,
                "invert_flux": self.protocol.invert_flux,
            }
        return {
            "device": dataclasses.asdict(self.device),
            "protocol": proto,
            "propagator": dataclasses.asdict(self.propagator),
            "subspace": "all" if self.subspace == "all" else list(self.subspace),
            "temperatures_k": list(self.temperatures_k),
            "events": self.events,
            "seed": self.seed,
            "mode": self.mode,
            "bare_ladder": self.bare_ladder,
            "microrev_tolerance": self.microrev_tolerance,
            "bath_temperature_k": self.bath_temperature_k,
            "detector": dataclasses.asdict(self.detector),
            "spectrum_samples": self.spectrum_samples,
            "trace_samples": self.trace_samples,
            "output_dir": self.output_dir,
        }


def config_from_mapping(data: Mapping) -> RunConfig:
    """Build a validated RunConfig; unknown keys raise ValueError."""
    sec = _Section("config", data)
    device = _fields("device", sec.take("device", {}), DeviceParams())
    protocol, table_path = _protocol(sec.take("protocol", {}))
    propagator = _fields("propagator", sec.take("propagator", {}), PropagatorConfig())
    subspace = _subspace(sec.take("subspace", list(DEFAULT_SUBSPACE)))
    raw_temps = sec.take("temperatures_k", list(DEFAULT_TEMPERATURES_K))
    if not isinstance(raw_temps, (list, tuple)) or not raw_temps:
        raise ValueError("temperatures_k must be a non-empty list")
    temperatures = tuple(_float("temperatures_k entry", t) for t in raw_temps)
    if any(t <= 0.0 for t in temperatures):
        raise ValueError("temperatures_k entries must be positive")
    events = _int("events", sec.take("events", DEFAULT_EVENTS), 1)
    seed = _int("seed", sec.take("seed", DEFAULT_SEED), 0)
    if seed >= 2**64:
        raise ValueError("seed must fit in 64 bits")
    mode = _str("mode", sec.take("mode", SAMPLED))
    if mode not in (EXACT, SAMPLED):
        raise ValueError("mode must be 'exact' or 'sampled'")
    bare_ladder = _bool("bare_ladder", sec.take("bare_ladder", False))
    microrev_tolerance = _float(
        "microrev_tolerance",
        sec.take("microrev_tolerance", DEFAULT_MICROREV_TOLERANCE),
    )
    if microrev_tolerance <= 0.0:
        raise ValueError("microrev_tolerance must be positive")
    bath = _float(
        "bath_temperature_k",
        sec.take("bath_temperature_k", DEFAULT_BATH_TEMPERATURE),
    )
    if bath <= 0.0:
        raise ValueError("bath_temperature_k must be positive")
    detector = _fields("detector", sec.take("detector", {}), DetectorParams())
    spectrum_samples = _int(
        "spectrum_samples", sec.take("spectrum_samples", DEFAULT_SAMPLE_POINTS), 2
    )
    trace_samples = _int(
        "trace_samples", sec.take("trace_samples", DEFAULT_SAMPLE_POINTS), 2
    )
    output_dir = _str("output_dir", sec.take("output_dir", DEFAULT_OUTPUT_DIR))
    sec.close()
    return RunConfig(
        device=device,
        protocol=protocol,
        propagator=propagator,
        subspace=subspace,
        temperatures_k=temperatures,
        events=events,
        seed=seed,
        mode=mode,
        bare_ladder=bare_ladder,
        microrev_tolerance=microrev_tolerance,
        bath_temperature_k=bath,
        detector=detector,
        spectrum_samples=spectrum_samples,
        trace_samples=trace_samples,
        output_dir=output_dir,
        table_path=table_path,
    )


def read_mapping(path) -> dict:
    """Top-level JSON object of a config file; malformed JSON raises ValueError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"config file {path}: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError("config file must contain a JSON object")
    return data


def load_config(path) -> RunConfig:
    return config_from_mapping(read_mapping(path))
