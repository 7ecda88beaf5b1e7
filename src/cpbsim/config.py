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
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional, Tuple, Union

from .drive import DriveProtocol, TabulatedProtocol, load_waveform_table
from .experiment import MAX_EVENTS
from .model import DEFAULT_SUBSPACE, DeviceParams, charge_labels, label_rows
from .noise import DEFAULT_BATH_TEMPERATURE, DetectorParams
from .propagate import MAX_SAMPLES, PropagatorConfig
from .thermo import EXACT, SAMPLED

DEFAULT_SEED = 20260814

#: Most entries of ``temperatures_k``. Each temperature adds two work
#: distributions and three payloads that stay in memory until the manifest
#: is written: on the subspace "all" in exact mode, 1.2 MB and 0.27 s at
#: N = 101 and 0.38 MB and 48 ms at N = 51, so a run at the bound stays
#: under about 0.2 GB and 30 s.
MAX_TEMPERATURES = 100


def _section(name: str, data: Any) -> dict:
    """Copy of config section ``name``; ``null`` reads as ``{}``."""
    if data is None:
        return {}
    if not isinstance(data, Mapping):
        raise ValueError(f"config section {name!r} must be a JSON object")
    return dict(data)


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


def _int(name: str, value: Any) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"config key {name!r} must be an integer")
    return int(value)


def _bool(name: str, value: Any) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"config key {name!r} must be true or false")
    return value


def _str(name: str, value: Any) -> str:
    if not isinstance(value, str):
        raise ValueError(f"config key {name!r} must be a string")
    return value


def _floats(name: str, value: Any) -> Tuple[float, ...]:
    if not isinstance(value, (list, tuple)) or not value:
        raise ValueError(f"{name} must be a non-empty list")
    return tuple(_float(f"{name} entry", v) for v in value)


def _reader(default: Any):
    """Reader of a key whose default is ``default``, chosen by its type."""
    if isinstance(default, bool):
        return _bool
    if isinstance(default, int):
        return _int
    if isinstance(default, float):
        return _float
    if isinstance(default, str):
        return _str
    if isinstance(default, tuple):
        return _floats
    return lambda name, value: _fields(name, value, default)


def _fields(name: str, data: Any, ref, prefix: Optional[str] = None):
    """Copy of dataclass instance ``ref`` with the keys of section ``name``.

    An absent key keeps ``ref``'s value. A present one is read by the
    ``read`` entry of the field's metadata, else by :func:`_reader` of
    ``ref``'s value, and named ``prefix + key`` (``prefix`` defaults to
    ``name + "."``); the dataclass itself validates the values. A key that
    names no field is refused.
    """
    sec = _section(name, data)
    if prefix is None:
        prefix = f"{name}."
    values = {}
    for f in dataclasses.fields(ref):
        if f.name in sec:
            read = f.metadata.get("read") or _reader(getattr(ref, f.name))
            values[f.name] = read(prefix + f.name, sec.pop(f.name))
    out = dataclasses.replace(ref, **values)
    if sec:
        raise ValueError(f"unknown config key(s) in {name}: {sorted(sec)}")
    return out


def _protocol(name: str, data: Any):
    """The protocol section: a cosine drive, or a waveform table's switches."""
    sec = _section(name, data)
    family = _str("protocol.family", sec.pop("family", "cosine"))
    if family == "table":
        if "table_path" not in sec:
            raise ValueError("protocol.family 'table' requires protocol.table_path")
        path = _str("protocol.table_path", sec.pop("table_path"))
        if "duration" in sec:
            raise ValueError("a waveform table defines its own duration")
        if "flux" in sec or "gate" in sec:
            raise ValueError("waveform tables do not take flux/gate sections")
    elif family != "cosine":
        raise ValueError("protocol.family must be 'cosine' or 'table'")
    drive = _fields(name, sec, DriveProtocol())
    if family == "cosine":
        return drive
    return dataclasses.replace(load_waveform_table(path), **_switches(drive))


def _switches(protocol) -> dict:
    """The reversal switches, the keys a table shares with a cosine drive."""
    keys = ("direction", "mirror_time", "invert_flux")
    return {k: getattr(protocol, k) for k in keys}


def _protocol_echo(protocol) -> dict:
    if isinstance(protocol, TabulatedProtocol):
        return {"family": "table", "table_path": protocol.path, **_switches(protocol)}
    return {"family": "cosine", **dataclasses.asdict(protocol)}


def _subspace(name: str, value: Any) -> Union[Tuple[int, ...], str]:
    if value == "all":
        return "all"
    if not isinstance(value, (list, tuple)) or not value:
        raise ValueError("subspace must be 'all' or a non-empty list of labels")
    return tuple(_int("subspace entry", v) for v in value)


def _echo(value: Any) -> Any:
    if dataclasses.is_dataclass(value):
        return dataclasses.asdict(value)
    if isinstance(value, tuple):
        return list(value)
    return value


@dataclass(frozen=True)
class RunConfig:
    """Run settings for the command-line front end, one field per config key.

    The defaults are the reference device and drive, so ``RunConfig()`` is
    the config of an empty JSON object. Each key is read by the type of its
    default (see :func:`_reader`) unless its metadata names a reader, and
    echoed by :meth:`resolved` the same way.
    """

    device: DeviceParams = DeviceParams()
    protocol: Union[DriveProtocol, TabulatedProtocol] = field(
        default=DriveProtocol(),
        metadata={"read": _protocol, "echo": _protocol_echo},
    )
    propagator: PropagatorConfig = PropagatorConfig()
    subspace: Union[Tuple[int, ...], str] = field(
        default=DEFAULT_SUBSPACE, metadata={"read": _subspace}
    )
    temperatures_k: Tuple[float, ...] = (1.0, 10.0, 20.0, 30.0, 40.0, 50.0)
    events: int = 1_000_000
    seed: int = DEFAULT_SEED
    mode: str = SAMPLED
    bare_ladder: bool = False
    microrev_tolerance: float = 1e-3
    bath_temperature_k: float = DEFAULT_BATH_TEMPERATURE
    detector: DetectorParams = DetectorParams()
    spectrum_samples: int = 667
    trace_samples: int = 667
    output_dir: str = "runs"

    def __post_init__(self) -> None:
        label_rows(charge_labels(self.device), self.subspace)
        if len(self.temperatures_k) > MAX_TEMPERATURES:
            raise ValueError(
                f"config key 'temperatures_k' must hold at most {MAX_TEMPERATURES} entries"
            )
        if not all(t > 0.0 for t in self.temperatures_k):
            raise ValueError("temperatures_k entries must be positive")
        if self.events < 1:
            raise ValueError("config key 'events' must be >= 1")
        if self.events > MAX_EVENTS:
            raise ValueError(f"config key 'events' must be finite and at most {MAX_EVENTS}")
        if self.seed < 0:
            raise ValueError("config key 'seed' must be >= 0")
        if self.seed >= 2**64:
            raise ValueError("seed must fit in 64 bits")
        if self.mode not in (EXACT, SAMPLED):
            raise ValueError("mode must be 'exact' or 'sampled'")
        if not self.microrev_tolerance > 0.0:
            raise ValueError("microrev_tolerance must be positive")
        if not self.bath_temperature_k > 0.0:
            raise ValueError("bath_temperature_k must be positive")
        for key in ("spectrum_samples", "trace_samples"):
            if getattr(self, key) < 2:
                raise ValueError(f"config key {key!r} must be >= 2")
            if getattr(self, key) > MAX_SAMPLES:
                raise ValueError(f"config key {key!r} must be at most {MAX_SAMPLES}")

    def resolved(self) -> dict:
        """Defaults-applied echo; re-ingesting it reproduces this config."""
        return {
            f.name: f.metadata.get("echo", _echo)(getattr(self, f.name))
            for f in dataclasses.fields(self)
        }


def config_from_mapping(data: Mapping) -> RunConfig:
    """Build a validated RunConfig; unknown keys raise ValueError."""
    return _fields("config", data, RunConfig(), prefix="")


def read_mapping(path) -> dict:
    """Top-level JSON object of a config file; malformed JSON raises ValueError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"config file {path}: {exc}") from None
        except RecursionError:
            raise ValueError(f"config file {path}: nested too deeply") from None
    if not isinstance(data, dict):
        raise ValueError("config file must contain a JSON object")
    return data
