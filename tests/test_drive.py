import math

import numpy as np
import pytest

from cpbsim import (
    BACKWARD,
    DEFAULT_DURATION,
    FORWARD,
    DriveProtocol,
    TabulatedProtocol,
    Waveform,
    load_waveform_table,
    reverse_protocol,
    sample_drive,
)


def test_waveform_value():
    w = Waveform(offset=1.0, amplitude=2.0, frequency=0.25, phase=math.pi / 2)
    assert w.value(0.0) == pytest.approx(1.0 + 2.0 * math.cos(math.pi / 2))
    assert w.value(1.0) == pytest.approx(1.0 - 2.0 * math.sin(math.pi / 2))


def test_default_protocol_start_bias(protocol):
    bias = sample_drive(protocol, 0.0)
    assert bias.flux == pytest.approx(0.5)
    assert bias.gate_charge == pytest.approx(-1.95)
    assert protocol.duration == pytest.approx(2.0 / 3.0)


def test_default_protocol_endpoint_closure(protocol):
    start = sample_drive(protocol, 0.0)
    end = sample_drive(protocol, protocol.duration)
    assert end.flux == pytest.approx(start.flux, abs=1e-12)
    assert end.gate_charge == pytest.approx(start.gate_charge, abs=1e-12)


def test_duration_validation():
    with pytest.raises(ValueError):
        DriveProtocol(
            flux=Waveform(0.0, 0.5, 1.5), gate=Waveform(0.05, -2.0, 1.5), duration=0.0
        )
    with pytest.raises(ValueError):
        DriveProtocol(
            flux=Waveform(0.0, 0.5, 1.5),
            gate=Waveform(0.05, -2.0, 1.5),
            direction="sideways",
        )


def test_sample_outside_window_raises(protocol):
    with pytest.raises(ValueError):
        sample_drive(protocol, -1e-9)
    with pytest.raises(ValueError):
        sample_drive(protocol, protocol.duration + 1e-9)


def test_backward_sampling_mirrors_and_inverts(protocol, backward_protocol):
    for t in np.linspace(0.0, protocol.duration, 41):
        fwd = sample_drive(protocol, float(protocol.duration - t))
        bwd = sample_drive(backward_protocol, float(t))
        assert bwd.flux == -fwd.flux
        assert bwd.gate_charge == fwd.gate_charge


def test_backward_flux_negates_forward_for_even_waveforms(protocol, backward_protocol):
    # the default cosines are even about duration/2, so the mirrored clock
    # is invisible and only the flux sign flip remains
    for t in np.linspace(0.0, protocol.duration, 17):
        fwd = sample_drive(protocol, float(t))
        bwd = sample_drive(backward_protocol, float(t))
        assert bwd.flux == pytest.approx(-fwd.flux, abs=1e-12)
        assert bwd.gate_charge == pytest.approx(fwd.gate_charge, abs=1e-12)


def test_reversal_toggles_can_be_disabled(protocol):
    no_invert = DriveProtocol(
        flux=protocol.flux,
        gate=protocol.gate,
        duration=protocol.duration,
        direction=BACKWARD,
        invert_flux=False,
    )
    no_mirror = DriveProtocol(
        flux=protocol.flux,
        gate=protocol.gate,
        duration=protocol.duration,
        direction=BACKWARD,
        mirror_time=False,
    )
    t = 0.1
    fwd_mirrored = sample_drive(protocol, protocol.duration - t)
    fwd_here = sample_drive(protocol, t)
    assert sample_drive(no_invert, t).flux == fwd_mirrored.flux
    assert sample_drive(no_mirror, t).flux == -fwd_here.flux


def test_reverse_protocol_involutive(protocol):
    back = reverse_protocol(protocol)
    assert back.direction == BACKWARD
    again = reverse_protocol(back)
    assert again.direction == FORWARD
    assert again == protocol


def test_mirror_toggle_matters_for_phase_shifted_drive():
    proto = DriveProtocol()
    shifted = DriveProtocol(
        flux=Waveform(
            proto.flux.offset,
            proto.flux.amplitude,
            proto.flux.frequency,
            math.pi / 3,
        ),
        gate=Waveform(
            proto.gate.offset,
            proto.gate.amplitude,
            proto.gate.frequency,
            math.pi / 3,
        ),
        duration=proto.duration,
    )
    proper = reverse_protocol(shifted)
    broken = DriveProtocol(
        flux=shifted.flux,
        gate=shifted.gate,
        duration=shifted.duration,
        direction=BACKWARD,
        mirror_time=False,
    )
    t = 0.2
    assert sample_drive(proper, t).gate_charge != pytest.approx(
        sample_drive(broken, t).gate_charge, abs=1e-6
    )


def test_tabulated_protocol_validation():
    with pytest.raises(ValueError):
        TabulatedProtocol(
            times=np.array([0.1, 0.2]),
            flux_values=np.zeros(2),
            gate_values=np.zeros(2),
        )
    with pytest.raises(ValueError):
        TabulatedProtocol(
            times=np.array([0.0, 0.2, 0.2]),
            flux_values=np.zeros(3),
            gate_values=np.zeros(3),
        )
    with pytest.raises(ValueError):
        TabulatedProtocol(
            times=np.array([0.0, 0.2]),
            flux_values=np.zeros(3),
            gate_values=np.zeros(2),
        )
    with pytest.raises(ValueError):
        TabulatedProtocol(
            times=np.array([0.0]), flux_values=np.zeros(1), gate_values=np.zeros(1)
        )


@pytest.mark.parametrize(
    "column, value",
    [("flux_values", math.nan), ("gate_values", math.inf), ("times", math.nan)],
    ids=["flux-nan", "gate-inf", "time-nan"],
)
def test_tabulated_protocol_rejects_non_finite(column, value):
    # a NaN time also passes the increasing-times check, since every
    # comparison with NaN is false
    table = {
        "times": np.array([0.0, 0.1, 0.2]),
        "flux_values": np.zeros(3),
        "gate_values": np.zeros(3),
    }
    table[column][1] = value
    with pytest.raises(ValueError, match="must be finite"):
        TabulatedProtocol(**table)


def test_tabulated_protocol_interpolates(protocol):
    times = np.linspace(0.0, protocol.duration, 2001)
    table = TabulatedProtocol(
        times=times,
        flux_values=np.array([protocol.flux.value(t) for t in times]),
        gate_values=np.array([protocol.gate.value(t) for t in times]),
    )
    assert table.duration == pytest.approx(protocol.duration)
    for t in (0.0, 0.123, 0.5, table.duration):
        exact = sample_drive(protocol, t)
        approx = sample_drive(table, t)
        assert approx.flux == pytest.approx(exact.flux, abs=1e-5)
        assert approx.gate_charge == pytest.approx(exact.gate_charge, abs=1e-5)
    mirrored = reverse_protocol(table)
    bias = sample_drive(mirrored, 0.1)
    ref = sample_drive(table, table.duration - 0.1)
    assert bias.flux == pytest.approx(-ref.flux, abs=1e-12)


def test_load_waveform_table_roundtrip(tmp_path, protocol):
    path = tmp_path / "drive.csv"
    times = np.linspace(0.0, protocol.duration, 11)
    lines = ["t_ns,flux_phi0,n_g"]
    for t in times:
        lines.append(f"{t:.12g},{protocol.flux.value(t):.12g},{protocol.gate.value(t):.12g}")
    path.write_text("\n".join(lines) + "\n")
    table = load_waveform_table(path)
    assert table.times.size == 11
    assert table.duration == pytest.approx(protocol.duration)
    assert sample_drive(table, 0.0).gate_charge == pytest.approx(-1.95)


def test_load_waveform_table_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,flux,gate\n0,0,0\n1,0,0\n")
    with pytest.raises(ValueError, match="header"):
        load_waveform_table(path)


def test_load_waveform_table_rejects_short_table(tmp_path):
    path = tmp_path / "short.csv"
    path.write_text("t_ns,flux_phi0,n_g\n0,0,0\n")
    with pytest.raises(ValueError):
        load_waveform_table(path)
