import copy
import csv
import dataclasses
import hashlib
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

import cpbsim._lapack
import cpbsim.cli
import cpbsim.config
import cpbsim.experiment
from cpbsim.cli import _OutputSet, main
from cpbsim.config import RunConfig, config_from_mapping, read_mapping
from cpbsim.drive import TabulatedProtocol
from cpbsim.experiment import _DRAW_BLOCK, EVENT_PARTITION, partition_seeds


def _write_config(tmp_path, mapping, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(mapping), encoding="utf-8")
    return str(path)


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _read_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"bogus": 1})
    out = tmp_path / "o"
    code = main(["spectrum", "--config", cfg, "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == (
        "cpbsim: unknown config key(s) in config: ['bogus']\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("n_charges", [1, 3])
def test_device_rule_is_the_config_rule(tmp_path, capsys, n_charges):
    cfg = _write_config(tmp_path, {"device": {"n_charges": n_charges}})
    out = tmp_path / "o"
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "cpbsim: n_charges must be odd and >= 5\n"
    assert not out.exists()


def test_missing_config_file_exits_2(tmp_path, capsys):
    path = tmp_path / "nope.json"
    out = tmp_path / "o"
    code = main(["spectrum", "--config", str(path), "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == (
        f"cpbsim: [Errno 2] No such file or directory: '{path}'\n"
    )
    assert not out.exists()


def test_bad_temperatures_flag_exits_2(tmp_path, capsys):
    out = tmp_path / "o"
    for value, line in (
        ("ten", "bad --temperatures value: 'ten'"),
        ("-5", "temperatures_k entries must be positive"),
    ):
        code = main(["gibbs", "--temperatures", value, "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"cpbsim: {line}\n"
        assert not out.exists()


@pytest.mark.parametrize(
    "mapping, argv",
    [
        ({"device": {"josephson_energy_total": math.nan}}, ["run", "--dt", "1e-3"]),
        ({"device": {"charging_energy": 10**400}}, ["run", "--dt", "1e-3"]),
        ({}, ["gibbs", "--exact", "--temperatures", "nan"]),
        ({}, ["gibbs", "--exact", "--temperatures", "inf"]),
        # the duration over the smallest subnormal step is inf steps
        ({}, ["run", "--exact", "--dt", "5e-324"]),
        # 10,101,011 steps, more than propagate.MAX_STEPS
        ({}, ["run", "--exact", "--dt", "6.6e-8"]),
        # more events than experiment.MAX_EVENTS, refused before a draw
        ({}, ["run", "--sampled", "--dt", "1e-3", "--events", str(2**63 - 1)]),
        ({}, ["gibbs", "--sampled", "--events", str(10**11 + 1)]),
    ],
    ids=["config-nan", "config-int-overflow", "temperature-nan", "temperature-inf",
         "step-count", "step-count-bound", "event-count-bound-run",
         "event-count-bound-gibbs"],
)
def test_non_finite_values_exit_2(tmp_path, capsys, mapping, argv):
    # Python's json reads NaN and Infinity, so the config layer must refuse them
    cfg = _write_config(tmp_path, mapping)
    out = tmp_path / "o"
    assert main(argv + ["--config", cfg, "--out", str(out)]) == 2
    assert "must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_failed_command_leaves_no_output_directory(tmp_path, capsys):
    # one event cannot give an exponentiated-work mean; the failure comes
    # after the first temperature's payloads were formed
    out = tmp_path / "partial"
    code = main(["gibbs", "--sampled", "--events", "1", "--dt", "1e-3", "--out", str(out)])
    assert code == 2
    assert "at least two sampled events" in capsys.readouterr().err
    assert not out.exists()


def test_rerun_leaves_only_its_manifests_files(tmp_path, monkeypatch):
    # the first run's 1 K payloads must not stay beside the second's manifest;
    # the second run is made from inside the first's directory, as --out .
    out = tmp_path / "g"
    for temperatures, target in (("1,10", str(out)), ("10", ".")):
        argv = ["gibbs", "--exact", "--dt", "1e-3", "--temperatures", temperatures]
        assert main(argv + ["--out", target]) == 0
        monkeypatch.chdir(out)
    listed = set(_read_json(out / "manifest.json")["outputs"])
    assert listed == {"work_forward_T10K.csv", "work_backward_T10K.csv",
                      "bk_ratio_T10K.csv", "bk_table.csv", "bk_report.json"}
    assert {p.name for p in out.iterdir()} == listed | {"manifest.json"}
    assert [p.name for p in tmp_path.iterdir()] == ["g"]


# under nest/a/o the missing parents nest and nest/a are made for the run and
# removed again when it fails
@pytest.mark.parametrize("name", ["o", "nest/a/o"])
def test_failed_payload_write_leaves_nothing(tmp_path, capsys, monkeypatch, name):
    writes = []
    write_bytes = Path.write_bytes

    def failing_second_write(self, data):
        writes.append(self.name)
        if len(writes) == 2:
            raise OSError(28, "No space left on device")
        return write_bytes(self, data)

    monkeypatch.setattr(Path, "write_bytes", failing_second_write)
    out = tmp_path / name
    assert main(["noise", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "cpbsim: [Errno 28] No space left on device\n"
    assert writes == ["noise_trace.csv", "detector.json"]
    assert list(tmp_path.iterdir()) == []


def test_failed_swap_restores_the_earlier_run(tmp_path, capsys, monkeypatch):
    # the earlier run's directory is moved aside and then back when the new
    # one cannot be moved into place
    out = tmp_path / "o"
    assert main(["noise", "--out", str(out)]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    replace = os.replace

    def failing_swap(src, dst):
        if Path(src).name == "new":
            raise OSError(18, "Invalid cross-device link")
        return replace(src, dst)

    monkeypatch.setattr(os, "replace", failing_swap)
    assert main(["noise", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "cpbsim: [Errno 18] Invalid cross-device link\n"
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    assert list(tmp_path.iterdir()) == [out]


@pytest.mark.parametrize("existing", ["foreign file", "file", "foreign manifest"])
def test_out_holding_other_files_is_refused(tmp_path, capsys, existing):
    # refused before the command runs, and nothing in --out is touched
    out = tmp_path / "o"
    if existing == "file":
        out.write_text("mine\n")
    else:
        out.mkdir()
        (out / "notes.txt").write_text("mine\n")
        if existing == "foreign manifest":
            (out / "manifest.json").write_text('{"outputs": {"notes.txt": ""}}\n')
    before = {p: p.read_bytes() for p in [out, *out.glob("*")] if p.is_file()}
    assert main(["spectrum", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"cpbsim: output directory {out} ")
    assert {p: p.read_bytes() for p in [out, *out.glob("*")] if p.is_file()} == before
    assert [p.name for p in tmp_path.iterdir()] == ["o"]


@pytest.mark.parametrize(
    "temperature, refusal",
    [("1e-3", "label 0 underflows to 0 at 0.001 K"),
     ("1e-320", "label -1 underflows to 0 at 9.99989e-321 K")],
    ids=["1e-3", "1e-320"],
)
def test_gibbs_refuses_underflowing_weights(tmp_path, capsys, temperature, refusal):
    # at 1 mK the Boltzmann weights of labels 0, 1 and 2 underflow to 0,
    # which used to drop them from the exact exponentiated-work sum; at a
    # subnormal temperature the energy shifts overflow on the way there,
    # and the refusal is still the only line
    out = tmp_path / "cold"
    argv = ["gibbs", "--exact", "--temperatures", temperature, "--dt", "1e-3"]
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"cpbsim: Gibbs weight of {refusal}; raise the temperature or narrow the subspace\n"
    )
    assert not out.exists()


def _assert_refused(mapping, message):
    with pytest.raises(ValueError) as excinfo:
        config_from_mapping(mapping)
    assert str(excinfo.value) == message


@pytest.mark.parametrize(
    "mapping, message",
    [
        ({"propagator": [1]}, "config section 'propagator' must be a JSON object"),
        ({"propagator": {"time_step": "1e-4"}},
         "config key 'propagator.time_step' must be a number"),
        ({"propagator": {"time_step": True}},
         "config key 'propagator.time_step' must be a number"),
        ({"propagator": {"time_step": None}},
         "config key 'propagator.time_step' must be a number"),
        ({"propagator": {"time_step": math.nan}},
         "config key 'propagator.time_step' must be finite"),
        ({"propagator": {"time_step": 0.0}}, "time_step must be positive"),
        ({"propagator": {"step": 1e-4}},
         "unknown config key(s) in propagator: ['step']"),
    ],
    ids=["not-object", "string", "bool", "null", "nan", "zero", "unknown-key"],
)
def test_malformed_propagator_messages(mapping, message):
    _assert_refused(mapping, message)


# one wrong type and one wrong value per top-level key (propagator above);
# bare_ladder and output_dir accept every value of their type
MALFORMED_CONFIGS = {
    "device-type": ({"device": [1]}, "config section 'device' must be a JSON object"),
    "device-value": ({"device": {"n_charges": 4}}, "n_charges must be odd and >= 5"),
    "device-value-int64": (
        {"device": {"n_charges": 2**63 - 1}}, "n_charges must be at most 101"
    ),
    # the first odd basis size above model.MAX_CHARGES
    "device-value-bound": (
        {"device": {"n_charges": 103}}, "n_charges must be at most 101"
    ),
    "protocol-type": (
        {"protocol": "cosine"}, "config section 'protocol' must be a JSON object"
    ),
    "protocol-value": (
        {"protocol": {"direction": "sideways"}},
        "protocol.direction must be 'forward' or 'backward'",
    ),
    "protocol-family-type": (
        {"protocol": {"family": 1}}, "config key 'protocol.family' must be a string"
    ),
    "protocol-family-value": (
        {"protocol": {"family": "square"}},
        "protocol.family must be 'cosine' or 'table'",
    ),
    "protocol-direction-type": (
        {"protocol": {"direction": 1}},
        "config key 'protocol.direction' must be a string",
    ),
    "protocol-mirror_time-type": (
        {"protocol": {"mirror_time": 1}},
        "config key 'protocol.mirror_time' must be true or false",
    ),
    "protocol-duration-type": (
        {"protocol": {"duration": "1"}},
        "config key 'protocol.duration' must be a number",
    ),
    "protocol-duration-value": (
        {"protocol": {"duration": 0}}, "duration must be positive"
    ),
    "protocol-flux-type": (
        {"protocol": {"flux": [1]}},
        "config section 'protocol.flux' must be a JSON object",
    ),
    "protocol-flux-key": (
        {"protocol": {"flux": {"bogus": 1}}},
        "unknown config key(s) in protocol.flux: ['bogus']",
    ),
    "protocol-unknown-key": (
        {"protocol": {"bogus": 1}}, "unknown config key(s) in protocol: ['bogus']"
    ),
    # each table case is refused before the (absent) table file is read
    "protocol-table-no-path": (
        {"protocol": {"family": "table"}},
        "protocol.family 'table' requires protocol.table_path",
    ),
    "protocol-table-path-type": (
        {"protocol": {"family": "table", "table_path": 1}},
        "config key 'protocol.table_path' must be a string",
    ),
    "protocol-table-duration": (
        {"protocol": {"family": "table", "table_path": "wave.csv", "duration": 1.0}},
        "a waveform table defines its own duration",
    ),
    "protocol-table-flux": (
        {"protocol": {"family": "table", "table_path": "wave.csv", "flux": {}}},
        "waveform tables do not take flux/gate sections",
    ),
    "protocol-table-times": (
        {"protocol": {"family": "table", "table_path": "wave.csv", "times": [0, 1]}},
        "unknown config key(s) in protocol: ['times']",
    ),
    "subspace-type": (
        {"subspace": 3}, "subspace must be 'all' or a non-empty list of labels"
    ),
    "subspace-value": ({"subspace": [1, 1]}, "subspace labels must be distinct"),
    "subspace-range": ({"subspace": [100]}, "charge label 100 outside basis"),
    "subspace-range-low": (
        {"subspace": [-2000000000]}, "charge label -2000000000 outside basis"
    ),
    "subspace-range-device": (
        {"device": {"n_charges": 5}, "subspace": [3]}, "charge label 3 outside basis"
    ),
    "temperatures_k-type": (
        {"temperatures_k": 10}, "temperatures_k must be a non-empty list"
    ),
    "temperatures_k-value": (
        {"temperatures_k": [10, -1]}, "temperatures_k entries must be positive"
    ),
    "events-type": ({"events": 1.5}, "config key 'events' must be an integer"),
    "events-value": ({"events": 0}, "config key 'events' must be >= 1"),
    "events-bound": (
        {"events": 10**11 + 1},
        "config key 'events' must be finite and at most 100000000000",
    ),
    "seed-type": ({"seed": "x"}, "config key 'seed' must be an integer"),
    "seed-value": ({"seed": -1}, "config key 'seed' must be >= 0"),
    "seed-value-64bit": ({"seed": 2**64}, "seed must fit in 64 bits"),
    "mode-type": ({"mode": 1}, "config key 'mode' must be a string"),
    "mode-value": ({"mode": "both"}, "mode must be 'exact' or 'sampled'"),
    "bare_ladder-type": (
        {"bare_ladder": 1}, "config key 'bare_ladder' must be true or false"
    ),
    "microrev_tolerance-type": (
        {"microrev_tolerance": "1e-3"},
        "config key 'microrev_tolerance' must be a number",
    ),
    "microrev_tolerance-value": (
        {"microrev_tolerance": 0}, "microrev_tolerance must be positive"
    ),
    "bath_temperature_k-type": (
        {"bath_temperature_k": True}, "config key 'bath_temperature_k' must be a number"
    ),
    "bath_temperature_k-value": (
        {"bath_temperature_k": -0.03}, "bath_temperature_k must be positive"
    ),
    "detector-type": (
        {"detector": "x"}, "config section 'detector' must be a JSON object"
    ),
    "detector-value": (
        {"detector": {"measurement_time": 0}},
        "sensitivity and measurement time must be positive",
    ),
    "spectrum_samples-type": (
        {"spectrum_samples": 2.0}, "config key 'spectrum_samples' must be an integer"
    ),
    "spectrum_samples-value": (
        {"spectrum_samples": 1}, "config key 'spectrum_samples' must be >= 2"
    ),
    # numpy's linspace raised IndexError at this count
    "spectrum_samples-bound": (
        {"spectrum_samples": 2**63 - 1},
        "config key 'spectrum_samples' must be at most 100000",
    ),
    "spectrum_samples-bound-plus-one": (
        {"spectrum_samples": 10**5 + 1},
        "config key 'spectrum_samples' must be at most 100000",
    ),
    "trace_samples-type": (
        {"trace_samples": 2.0}, "config key 'trace_samples' must be an integer"
    ),
    "trace_samples-value": (
        {"trace_samples": 1}, "config key 'trace_samples' must be >= 2"
    ),
    "trace_samples-bound": (
        {"trace_samples": 2**63 - 1},
        "config key 'trace_samples' must be at most 100000",
    ),
    "trace_samples-bound-plus-one": (
        {"trace_samples": 10**5 + 1}, "config key 'trace_samples' must be at most 100000"
    ),
    "output_dir-type": ({"output_dir": 1}, "config key 'output_dir' must be a string"),
    "unknown-key": (
        {"bogus": 1, "mode": "exact"}, "unknown config key(s) in config: ['bogus']"
    ),
}


@pytest.mark.parametrize(
    "mapping, message", MALFORMED_CONFIGS.values(), ids=MALFORMED_CONFIGS.keys()
)
def test_malformed_config_messages(mapping, message):
    _assert_refused(mapping, message)


def test_default_config_is_the_empty_mapping():
    assert RunConfig() == config_from_mapping({})


# config_from_mapping({}).resolved(), written out
DEFAULT_ECHO = {
    "device": {
        "charging_energy": 18.84955592153876,
        "josephson_energy_total": 62.83185307179586,
        "asymmetry": 0.05,
        "n_charges": 51,
    },
    "protocol": {
        "family": "cosine",
        "duration": 0.6666666666666666,
        "direction": "forward",
        "mirror_time": True,
        "invert_flux": True,
        "flux": {"offset": 0.0, "amplitude": 0.5, "frequency": 1.5, "phase": 0.0},
        "gate": {"offset": 0.05, "amplitude": -2.0, "frequency": 1.5, "phase": 0.0},
    },
    "propagator": {"time_step": 0.0001},
    "subspace": [-2, -1, 0, 1, 2],
    "temperatures_k": [1.0, 10.0, 20.0, 30.0, 40.0, 50.0],
    "events": 1000000,
    "seed": 20260814,
    "mode": "sampled",
    "bare_ladder": False,
    "microrev_tolerance": 0.001,
    "bath_temperature_k": 0.03,
    "detector": {
        "charge_sensitivity": 1.7e-06,
        "measurement_time": 20.0,
        "island_capacitance": 6.5,
        "coupling_capacitance": 0.2,
    },
    "spectrum_samples": 667,
    "trace_samples": 667,
    "output_dir": "runs",
}


def _overrides(mapping, flags):
    args = cpbsim.cli.build_parser().parse_args(["run", *flags])
    return cpbsim.cli._merge_overrides(mapping, args)


@pytest.mark.parametrize(
    "mapping, flags, change",
    [
        ({}, ["--seed", "11"], {"seed": 11}),
        ({}, ["--events", "250017"], {"events": 250017}),
        ({}, ["--dt", "1e-3"], {"propagator": {"time_step": 0.001}}),
        ({}, ["--duration", "0.5"], {"protocol": {"duration": 0.5}}),
        ({}, ["--temperatures", " 1, 2.5,,40"], {"temperatures_k": [1.0, 2.5, 40.0]}),
        ({}, ["--no-flux-inversion"], {"protocol": {"invert_flux": False}}),
        ({}, ["--no-time-mirror"], {"protocol": {"mirror_time": False}}),
        ({}, ["--out", "elsewhere"], {"output_dir": "elsewhere"}),
        ({}, ["--exact"], {"mode": "exact"}),
        # the file's mode is not the default, so --sampled has work to do
        ({"mode": "exact"}, ["--sampled"], {"mode": "sampled"}),
        # a null section reads as {}, with or without a flag into it
        ({"protocol": None}, ["--no-time-mirror"], {"protocol": {"mirror_time": False}}),
        ({"propagator": None}, ["--dt", "1e-3"], {"propagator": {"time_step": 0.001}}),
    ],
    ids=["seed", "events", "dt", "duration", "temperatures", "no-flux-inversion",
         "no-time-mirror", "out", "exact", "sampled", "protocol-null",
         "propagator-null"],
)
def test_override_flags_set_their_keys(mapping, flags, change):
    expected = copy.deepcopy(DEFAULT_ECHO)
    for key, value in change.items():
        if isinstance(value, dict):
            expected[key].update(value)
        else:
            expected[key] = value
    echo = config_from_mapping(_overrides(mapping, flags)).resolved()
    # json.dumps keeps key order, which the manifest echo depends on
    assert json.dumps(echo) == json.dumps(expected)


@pytest.mark.parametrize(
    "mapping, flags, message",
    [
        ({"protocol": [1]}, ["--duration", "1"],
         "config section 'protocol' must be a JSON object"),
        ({}, ["--temperatures", "ten"], "bad --temperatures value: 'ten'"),
        ({}, ["--temperatures", " , "],
         "--temperatures needs a comma-separated kelvin list"),
    ],
    ids=["protocol-not-object", "temperatures-word", "temperatures-empty"],
)
def test_override_flag_messages(mapping, flags, message):
    with pytest.raises(ValueError) as excinfo:
        _overrides(mapping, flags)
    assert str(excinfo.value) == message


def test_gibbs_refuses_repeated_tags_before_propagating(tmp_path, capsys, monkeypatch):
    calls = _count_propagations(monkeypatch)
    out = tmp_path / "o"
    code = main(["gibbs", "--exact", "--temperatures", "10,10", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err == "cpbsim: two outputs of this run are named work_forward_T10K.csv\n"
    assert not out.exists()
    assert calls == []


@pytest.mark.parametrize("command", ["run", "microrev", "gibbs"])
def test_out_of_basis_subspace_refused_before_propagating(
    tmp_path, capsys, monkeypatch, command
):
    calls = _count_propagations(monkeypatch)
    cfg = _write_config(tmp_path, {"subspace": [100]})
    out = tmp_path / "o"
    assert main([command, "--exact", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "cpbsim: charge label 100 outside basis\n"
    assert not out.exists()
    assert calls == []


@pytest.mark.parametrize("temperatures", ["10,10", "10,10.0000001"])
def test_colliding_output_names_exit_2(tmp_path, capsys, temperatures):
    # both temperatures format as T10K, so their work files share a name
    out = tmp_path / "o"
    code = main(["gibbs", "--exact", "--dt", "1e-3", "--temperatures", temperatures,
                 "--out", str(out)])
    assert code == 2
    assert "work_forward_T10K.csv" in capsys.readouterr().err
    assert not out.exists()


def test_output_set_refuses_a_repeated_name(tmp_path):
    # cmd_gibbs refuses repeated tags before it writes, so no command gets here
    out = _OutputSet(str(tmp_path / "o"))
    out.write("bk_table.csv", [["a"]])
    with pytest.raises(ValueError, match="^two outputs of this run are named bk_table.csv$"):
        out.write("bk_table.csv", [["a"]])


@pytest.mark.parametrize(
    "error, line",
    [
        (MemoryError("Unable to allocate 14.6 TiB"), "Unable to allocate 14.6 TiB"),
        (MemoryError(), "MemoryError"),
        (OverflowError("math range error"), "math range error"),
        (FloatingPointError("overflow encountered"), "overflow encountered"),
        (ZeroDivisionError("float division by zero"), "float division by zero"),
    ],
    ids=["MemoryError", "MemoryError-bare", "OverflowError", "FloatingPointError",
         "ZeroDivisionError"],
)
def test_numeric_errors_exit_2(tmp_path, capsys, monkeypatch, error, line):
    def failing_evolve(*args, **kwargs):
        raise error

    monkeypatch.setattr(cpbsim.cli, "evolve", failing_evolve)
    out = tmp_path / "o"
    assert main(["run", "--dt", "1e-3", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"cpbsim: {line}\n"
    assert not out.exists()


def test_config_stage_numeric_errors_exit_2(tmp_path, capsys, monkeypatch):
    # as when the host runs out of memory while the config is built
    def failing_labels(*args, **kwargs):
        raise MemoryError("Unable to allocate 29.8 GiB")

    monkeypatch.setattr(cpbsim.config, "charge_labels", failing_labels)
    out = tmp_path / "o"
    assert main(["spectrum", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "cpbsim: Unable to allocate 29.8 GiB\n"
    assert not out.exists()


PHASE_LINE = (
    "phase rounding bound {} rad exceeds 1e-06: "
    "the energy scale is too large to propagate"
)

HUGE_EC = {"device": {"charging_energy": 1e308}}
HUGE_EJ = {"device": {"josephson_energy_total": 1e308}}
LARGE_EC = {"device": {"charging_energy": 1e305}}
LARGER_EC = {"device": {"charging_energy": 1e307}}
FAR_GATE = {"protocol": {"gate": {"offset": 1e200}}}
WARNING_ARGVS = (["spectrum"], ["noise"], ["run", "--exact"],
                 ["gibbs", "--exact", "--temperatures", "10"])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "config, argv, line",
    [
        (HUGE_EC, ["run", "--exact"],
         "the Hamiltonian has a non-finite entry"),
        (HUGE_EC, ["gibbs", "--exact", "--temperatures", "10"],
         "the Hamiltonian has a non-finite entry"),
        # bare mode reads the charging parabola off the same H(0)
        ({**HUGE_EC, "bare_ladder": True},
         ["gibbs", "--exact", "--temperatures", "10"],
         "the Hamiltonian has a non-finite entry"),
        (HUGE_EC, ["spectrum"],
         "the Hamiltonian has a non-finite entry"),
        (HUGE_EC, ["microrev"],
         "the Hamiltonian has a non-finite entry"),
        # finite entries whose levels span more than the float range
        (HUGE_EJ, ["spectrum"],
         "the spectrum has a non-finite level"),
        # ... and whose step phases have no correct digit
        (HUGE_EJ, ["run", "--exact"],
         PHASE_LINE.format("1.25e+292")),
        (HUGE_EJ, ["run", "--sampled"],
         PHASE_LINE.format("1.25e+292")),
        (HUGE_EJ, ["microrev"], PHASE_LINE.format("1.25e+292")),
        # gibbs checks H(0) before mapping its eigenstates to charges; at t = 0
        # the flux sits at 1/2, where only the asymmetry's share of E_J is left
        (HUGE_EJ, ["gibbs", "--exact", "--temperatures", "10"],
         PHASE_LINE.format("7.4e+290")),
        # diagonals that overflow in numpy, where 4*E_C alone is finite or
        # the gate charge sits far out; refused without numpy's warning
        *[(config, argv, "the Hamiltonian has a non-finite entry")
          for config in (LARGE_EC, LARGER_EC, FAR_GATE) for argv in WARNING_ARGVS],
    ],
    ids=["run", "gibbs", "gibbs-bare", "spectrum", "microrev", "spectrum-josephson",
         "run-josephson", "run-sampled-josephson", "microrev-josephson",
         "gibbs-josephson",
         *[f"{config}-{argv[0]}" for config in ("ec-1e305", "ec-1e307", "gate-1e200")
           for argv in WARNING_ARGVS]],
)
def test_overflowing_hamiltonian_exits_2(tmp_path, capsys, config, argv, line):
    cfg = _write_config(tmp_path, config)
    out = tmp_path / "o"
    assert main(argv + ["--dt", "1e-3", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"cpbsim: {line}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["spectrum", "noise", "run", "microrev", "gibbs"])
def test_overflowing_waveform_argument_exits_2(tmp_path, capsys, command):
    # 2*pi*1.5*duration overflows; refused when the config is read, before
    # a waveform is sampled or a step count formed
    cfg = _write_config(tmp_path, {"protocol": {"duration": 1.7976931348623157e308},
                                   "spectrum_samples": 10, "trace_samples": 10})
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "cpbsim: protocol.duration 1.79769e+308 makes the argument 2*pi*frequency*t "
        "+ phase of protocol.flux (frequency 1.5, phase 0) non-finite\n"
    )
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("josephson", [5e154, 1e200, 1e308])
def test_noise_runs_at_huge_josephson_energy(tmp_path, capsys, josephson):
    # dstevx scales T before bisecting, where bisection alone could not
    # start; the levels delocalize over many charges, so <0|n|0> = <1|n|1>
    cfg = _write_config(tmp_path, {"device": {"josephson_energy_total": josephson}})
    out = tmp_path / "o"
    assert main(["noise", "--config", cfg, "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    header, *rows = _read_csv(out / "noise_trace.csv")
    assert header == ["t_ns", "ratio", "t2_over_t1", "beta"] and len(rows) == 667
    assert {(row[1], row[2]) for row in rows} == {("inf", "2")}


@pytest.mark.parametrize("command", ["spectrum", "noise", "run"])
@pytest.mark.parametrize(
    "protocol, line",
    [
        ({"flux": {"offset": 1e308}},
         "protocol.flux offset 1e+308 and amplitude 0.5 allow a flux of 1e+308 flux "
         "quanta, whose phase pi*flux overflows"),
        ({"flux": {"amplitude": 1e308}},
         "protocol.flux offset 0 and amplitude 1e+308 allow a flux of 1e+308 flux "
         "quanta, whose phase pi*flux overflows"),
        ({"family": "table", "table_path": "{table}"},
         "the waveform table's flux_phi0 holds a flux of 1e+308 flux quanta, whose "
         "phase pi*flux overflows"),
    ],
    ids=["offset", "amplitude", "table"],
)
def test_flux_with_overflowing_phase_exits_2(tmp_path, capsys, command, protocol, line):
    table = tmp_path / "wave.csv"
    table.write_text("t_ns,flux_phi0,n_g\n0,0.5,-1.95\n0.5,1e308,-1.95\n")
    protocol = {k: v.format(table=table) if isinstance(v, str) else v
                for k, v in protocol.items()}
    cfg = _write_config(tmp_path, {"protocol": protocol})
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"cpbsim: {line}\n"
    assert not out.exists()


def test_ambiguous_ladder_refused_before_propagating(tmp_path, capsys, monkeypatch):
    # n_g(0) = 0.5 - 2 = -1.5 gives charges n and -3 - n equal charging
    # energies, and tunneling splits each of the pairs nearest the gate
    # charge evenly between two eigenstates
    calls = _count_propagations(monkeypatch)
    cfg = _write_config(tmp_path, {"protocol": {"gate": {"offset": 0.5}}})
    out = tmp_path / "o"
    argv = ["gibbs", "--exact", "--dt", "1e-3", "--config", cfg, "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "cpbsim: ambiguous charge-to-eigenstate mapping: n=-2 overlap=0.4999, "
        "n=-1 overlap=0.4999, n=0 overlap=0.4999, n=1 overlap=0.5000\n"
    )
    assert not out.exists()
    assert calls == []


# the third text nests far past the recursion limit of the JSON decoder
@pytest.mark.parametrize(
    "text",
    ["{not json", "[1, 2]",
     pytest.param('{"a": ' + "[" * 100_000 + "]" * 100_000 + "}", id="nested")],
)
def test_config_reader_shared_by_cli_and_loader(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError) as excinfo:
        config_from_mapping(read_mapping(path))
    out = tmp_path / "o"
    assert main(["spectrum", "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"cpbsim: {excinfo.value}\n"
    assert not out.exists()


def test_spectrum_outputs_and_manifest(tmp_path):
    out = tmp_path / "levels"
    cfg = _write_config(tmp_path, {"spectrum_samples": 41})
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
    rows = _read_csv(out / "spectrum.csv")
    assert len(rows) == 42
    assert rows[0][0] == "t_ns" and rows[0][1] == "e00" and rows[0][-1] == "e50"
    for row in rows[1:]:
        levels = [float(c) for c in row[1:]]
        assert levels[0] == 0.0
        assert all(b >= a for a, b in zip(levels, levels[1:]))

    manifest = _read_json(out / "manifest.json")
    assert manifest["tool"] == "cpbsim"
    # the volatile LAPACK binding sits next to the timestamp
    keys = list(manifest)
    assert keys[keys.index("timestamp_utc") + 1] == "lapack"
    assert manifest["lapack"] == cpbsim._lapack.BINDING
    assert set(manifest["lapack"]) == {"library", "corename", "config"}
    digest = hashlib.sha256((out / "spectrum.csv").read_bytes()).hexdigest()
    assert manifest["outputs"]["spectrum.csv"] == digest
    # the resolved-config echo must round-trip through the parser unchanged
    echo = manifest["config"]
    assert config_from_mapping(echo).resolved() == echo


def test_run_forward_exact_outputs(tmp_path):
    out = tmp_path / "run"
    assert main(["run", "--dt", "1e-3", "--exact", "--out", str(out)]) == 0
    rows = _read_csv(out / "transition_matrix.csv")
    assert len(rows) == 52
    matrix = np.array([[float(c) for c in row[1:]] for row in rows[1:]])
    np.testing.assert_allclose(matrix.sum(axis=0), 1.0, atol=1e-10)
    np.testing.assert_allclose(matrix.sum(axis=1), 1.0, atol=1e-10)

    prep = _read_csv(out / "preparation.csv")
    assert prep[0] == ["label", "probability"]
    total = sum(float(r[1]) for r in prep[1:])
    assert total == pytest.approx(1.0, abs=1e-10)

    report = _read_json(out / "run_report.json")
    assert report["stochasticity_defect"] < 1e-12
    assert report["subspace"] == [-2, -1, 0, 1, 2]
    assert report["subspace_mass"] > 0.999
    assert not (out / "counts.csv").exists()


def test_run_sampled_counts(tmp_path):
    out = tmp_path / "runs"
    code = main(
        ["run", "--dt", "1e-3", "--sampled", "--events", "2000", "--seed", "9",
         "--out", str(out)]
    )
    assert code == 0
    rows = _read_csv(out / "counts.csv")
    counts = np.array([[int(c) for c in row[1:]] for row in rows[1:]])
    assert counts.sum() == 2000
    assert _read_json(out / "run_report.json")["events"] == 2000


# counts.csv of `run --sampled --dt 1e-3 --events 250017`: the events cross
# a partition boundary, and the payload holds only integers
SAMPLED_COUNTS_SHA256 = {
    "11": "aaaa57c238fb86b0b01d62e1aeb30050ea2b9e82f1254eaec9c0af0633fd6eb5",
    "20260814": "8a683d0a4bd4cbcf8ebacce53bcef4a5c1bb7906a2d5a7144b2f571560de87d4",
}


@pytest.mark.parametrize("seed", sorted(SAMPLED_COUNTS_SHA256))
def test_run_sampled_counts_bytes_are_pinned(tmp_path, seed):
    out = tmp_path / "runs"
    code = main(["run", "--dt", "1e-3", "--sampled", "--events", "250017",
                 "--seed", seed, "--out", str(out)])
    assert code == 0
    digest = hashlib.sha256((out / "counts.csv").read_bytes()).hexdigest()
    assert digest == SAMPLED_COUNTS_SHA256[seed]
    assert _read_json(out / "manifest.json")["outputs"]["counts.csv"] == digest


# payload bytes at dt 1e-3, with the default subspace (None) or another one
SUBSPACE_PAYLOAD_SHA256 = {
    "spectrum": (["spectrum"], None, {
        "spectrum.csv":
            "791c00b4ab47502a981b001de0340f4061eb01abe088a269661986fb8f2f64e6",
    }),
    "noise": (["noise"], None, {
        "detector.json":
            "7da738f010bf2f3abdb5d45ece31b2d52c5548fabb34cdf5948723f94852794c",
    }),
    "run": (["run", "--exact"], None, {
        "transition_matrix.csv":
            "3f6637c6dd2add3ce58191db43a8364ecb1455cbe1dadb4745ed930ea1d29bea",
        "transition_matrix.json":
            "075a47d3bf8cb38e71f323d774e3e0ee3ebba5b61154dfeb2a2021b9a41db23a",
        "preparation.csv":
            "bfa36d9bea1bef74d9d44f83216400d75bfc6695202380240654c25df69e5928",
    }),
    "gibbs-sampled": (
        ["gibbs", "--sampled", "--events", "20000", "--temperatures", "10"], None, {
            "work_forward_T10K.csv":
                "a8cfbf902eb90652511d5741a97c3ebb7069e2b58b9b2e3577e2feac308f80e2",
            "work_backward_T10K.csv":
                "1ee70a51e2c47069e25deb1c6cf270d7a2c2d01773ebe1fa463a4e1938005880",
            "bk_ratio_T10K.csv":
                "6384e5ccc767a854652673435964442145aa62eb5b086e8b16982415fe2cfb6d",
            "bk_table.csv":
                "66d5c372d80772c600b19ad665471d0888a4e51b33cf5c28074e293fab999434",
        },
    ),
    # subspace_mass is written at 17 digits, so this pin also fixes the
    # roundoff of the H(0) ground state from the gauge-real tridiagonal
    # solve; test_propagate checks that state against the dense route
    "run-all": (["run", "--exact"], "all", {
        "run_report.json":
            "3bed9a5000010e1552208d43fe7afb13013b01f683d742650d2319cfa5646ecc",
    }),
    "microrev": (["microrev"], [2, -1, 0], {
        "microrev_cells.csv":
            "d35d428cca7477ff0e26a089b00f3fb35909cc36aac7c8b3342e277d541df9c7",
        "microrev.json":
            "98dd958bebf72bd6d90688ed9bc774d84ee18628723dd0549f2b285155b866c2",
    }),
    "gibbs": (["gibbs", "--exact"], [2, -1, 0], {
        "bk_report.json":
            "7697e86c44db9c4d842d5ae8abde9f94abc1e10f7ab359f6713907c7a88ec799",
    }),
    "noise-trace": (["noise"], None, {
        "noise_trace.csv":
            "4dcdc10fe958ffb43255d1b3132a598e1e15f813eef6dc92deb09603847f77b4",
    }),
    # 250,017 events span a full 250k-event partition, which the sampler
    # draws in several blocks of uniforms, and a 17-event one. The values
    # were recorded with a sampler that drew each partition's uniforms in
    # one call, so they also show that the block size changes no byte
    "gibbs-sampled-blocks": (
        ["gibbs", "--sampled", "--events", "250017", "--temperatures", "1,10"],
        None, {
            "work_forward_T1K.csv":
                "6566b4c86ed715a9f92739ab6bbdc60c916881bfcbb782137fbd1e5083a621bd",
            "work_backward_T1K.csv":
                "5bb039a6ce83e8f9f34c889007c3f910de1455c8115807144190cd5fb0855a6c",
            "work_forward_T10K.csv":
                "eda17c1832219b86b850f577c018c1e87772ff7a92ce1c11098fdff9b1e0b954",
            "work_backward_T10K.csv":
                "4c5159c08cd51c7941f3fae7efb4dec43a91b1c5b5eb983e9116d77b522ce9d4",
            "bk_ratio_T1K.csv":
                "21184fb487628a3362ab9508ab83267f7b4ac0e4c9a36f3030850e2943b8570c",
            "bk_ratio_T10K.csv":
                "d5e867d5447ac8564a7083da7cb7b62e2c903526ef9e80de16da0a7823794695",
            "bk_table.csv":
                "1d1a1cee9cab65a2e3285acf22bba9b183e0fe26f40998edb93aae0258aacd5b",
            "bk_report.json":
                "28e1ee0ce6e7b37d336f3857df72d0543ff58838a9171ddb4b20959478ba4a98",
        },
    ),
    # the 1 K ratio file holds an unmatched atom: a nan,...,false row
    "gibbs-unmatched": (
        ["gibbs", "--sampled", "--events", "20000", "--temperatures", "1,10",
         "--seed", "3"], None, {
            "bk_ratio_T1K.csv":
                "43b5313d5aa77c9834f60be8aba7bf0223bb23c0edf905cbcf743264b92af011",
        },
    ),
}


@pytest.mark.parametrize(
    "argv, subspace, expected",
    SUBSPACE_PAYLOAD_SHA256.values(),
    ids=SUBSPACE_PAYLOAD_SHA256.keys(),
)
def test_subspace_payload_bytes_are_pinned(tmp_path, argv, subspace, expected):
    cfg = _write_config(tmp_path, {} if subspace is None else {"subspace": subspace})
    out = tmp_path / "o"
    assert main(argv + ["--dt", "1e-3", "--config", cfg, "--out", str(out)]) == 0
    digests = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in expected
    }
    # the digests hold for the BLAS kernels they were recorded with
    # (SkylakeX), so a failure names the kernels it ran on
    lapack = _read_json(out / "manifest.json")["lapack"]
    assert digests == expected, f"LAPACK and BLAS from {lapack}"


def _count_propagations(monkeypatch):
    """The direction of every ``evolve`` call, in call order, as a list."""
    calls = []
    evolve = cpbsim.cli.evolve

    def counting_evolve(*args, **kwargs):
        calls.append(args[1].direction)
        return evolve(*args, **kwargs)

    monkeypatch.setattr(cpbsim.cli, "evolve", counting_evolve)
    monkeypatch.setattr(cpbsim.experiment, "evolve", counting_evolve)
    return calls


def test_run_propagates_once(tmp_path, monkeypatch):
    calls = _count_propagations(monkeypatch)
    out = tmp_path / "once"
    code = main(
        ["run", "--dt", "1e-3", "--sampled", "--events", "1000", "--out", str(out)]
    )
    assert code == 0
    assert (out / "preparation.csv").exists() and (out / "counts.csv").exists()
    assert calls == ["forward"]


@pytest.mark.parametrize(
    "argv",
    [["microrev"], ["gibbs", "--exact"], ["gibbs", "--sampled", "--events", "2000"]],
    ids=["microrev", "gibbs-exact", "gibbs-sampled"],
)
def test_reversal_commands_propagate_each_direction_once(tmp_path, monkeypatch, argv):
    # two temperatures, so that a propagation per temperature would show
    calls = _count_propagations(monkeypatch)
    out = tmp_path / "pair"
    flags = ["--dt", "1e-3", "--temperatures", "10,50", "--out", str(out)]
    assert main(argv + flags) == 0
    assert calls == ["forward", "backward"]


def test_run_backward_skips_preparation(tmp_path):
    out = tmp_path / "bwd"
    cfg = _write_config(tmp_path, {"protocol": {"direction": "backward"}})
    assert main(["run", "--config", cfg, "--dt", "1e-3", "--out", str(out)]) == 0
    assert not (out / "preparation.csv").exists()
    doc = _read_json(out / "transition_matrix.json")
    assert doc["direction"] == "backward"


def test_microrev_passes_by_default(tmp_path):
    out = tmp_path / "mr"
    assert main(["microrev", "--dt", "1e-3", "--out", str(out)]) == 0
    doc = _read_json(out / "microrev.json")
    assert doc["passed"] is True
    assert doc["max_abs"] < 1e-3
    cells = _read_csv(out / "microrev_cells.csv")
    assert len(cells) == 26  # header + 5x5 subspace
    # cells carry 12 significant digits, so recomputation is only that good
    for row in cells[1:]:
        assert abs(float(row[2]) - float(row[3])) == pytest.approx(
            float(row[4]), abs=1e-11
        )


def test_microrev_flags_broken_reversal(tmp_path):
    out = tmp_path / "mrbad"
    code = main(["microrev", "--dt", "1e-3", "--no-flux-inversion", "--out", str(out)])
    assert code == 3
    assert (out / "manifest.json").is_file()
    doc = _read_json(out / "microrev.json")
    assert doc["passed"] is False
    assert doc["max_abs"] > 1e-2
    assert doc["invert_flux"] is False


def test_gibbs_exact_full_space(tmp_path):
    out = tmp_path / "gibbs"
    cfg = _write_config(tmp_path, {"subspace": "all", "temperatures_k": [10.0]})
    code = main(["gibbs", "--config", cfg, "--dt", "1e-3", "--exact", "--out", str(out)])
    assert code == 0
    report = _read_json(out / "bk_report.json")
    assert report["mode"] == "exact"
    assert len(report["ladder"]["labels"]) == 51
    assert abs(report["table"][0]["one_minus_mean"]) < 1e-9

    work = _read_csv(out / "work_forward_T10K.csv")
    assert work[0] == ["W_rad_per_ns", "probability"]
    total = math.fsum(float(r[1]) for r in work[1:])
    assert total == pytest.approx(1.0, abs=1e-9)

    ratio = _read_csv(out / "bk_ratio_T10K.csv")
    assert ratio[0][:3] == ["W_rad_per_ns", "log_ratio", "reference"]
    assert len(ratio) > 1


def test_gibbs_sampled_counts(tmp_path):
    out = tmp_path / "gibbs_s"
    code = main(
        ["gibbs", "--temperatures", "10", "--sampled", "--events", "5000",
         "--dt", "1e-3", "--seed", "7", "--out", str(out)]
    )
    assert code == 0
    work = _read_csv(out / "work_forward_T10K.csv")
    assert work[0] == ["W_rad_per_ns", "count"]
    counts = [int(r[1]) for r in work[1:]]
    row = _read_json(out / "bk_report.json")["table"][0]
    assert sum(counts) == row["n_events"]
    assert row["n_events"] + row["n_discarded"] == 5000


def test_payloads_are_byte_deterministic(tmp_path):
    cfg = _write_config(tmp_path, {"temperatures_k": [10.0]})
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = main(["gibbs", "--config", cfg, "--dt", "1e-3", "--exact",
                     "--out", str(out)])
        assert code == 0
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    for name in names:
        if name == "manifest.json":
            continue
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    # manifests agree except for the timestamp and the differing --out echo
    docs = [_read_json(out / "manifest.json") for out in outs]
    for doc in docs:
        doc.pop("timestamp_utc")
        doc["config"].pop("output_dir")
    assert docs[0] == docs[1]


def _write_table(tmp_path):
    """The default drive sampled at 201 points, as a waveform table."""
    table = tmp_path / "wave.csv"
    times = np.linspace(0.0, 2.0 / 3.0, 201)
    with open(table, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t_ns", "flux_phi0", "n_g"])
        for t in times:
            writer.writerow(
                [f"{t:.12g}",
                 f"{0.5 * math.cos(3.0 * math.pi * t):.12g}",
                 f"{0.05 - 2.0 * math.cos(3.0 * math.pi * t):.12g}"]
            )
    return table


def test_waveform_table_protocol(tmp_path):
    table = _write_table(tmp_path)
    cfg = _write_config(
        tmp_path,
        {"protocol": {"family": "table", "table_path": str(table)},
         "spectrum_samples": 11},
    )
    out = tmp_path / "tab"
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
    rows = _read_csv(out / "spectrum.csv")
    assert len(rows) == 12
    assert float(rows[-1][0]) == pytest.approx(2.0 / 3.0)


def test_waveform_table_echo_round_trips(tmp_path):
    table = _write_table(tmp_path)
    cfg = _write_config(
        tmp_path,
        {"protocol": {"family": "table", "table_path": str(table),
                      "direction": "backward", "mirror_time": False}},
    )
    first = tmp_path / "first"
    assert main(["run", "--config", cfg, "--dt", "1e-3", "--out", str(first)]) == 0
    echo = _read_json(first / "manifest.json")["config"]
    assert echo["protocol"] == {
        "family": "table",
        "table_path": str(table),
        "direction": "backward",
        "mirror_time": False,
        "invert_flux": True,
    }
    assert config_from_mapping(echo).resolved() == echo

    second = tmp_path / "second"
    cfg = _write_config(tmp_path, echo, name="echo.json")
    assert main(["run", "--config", cfg, "--out", str(second)]) == 0
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    for name in names:
        if name != "manifest.json":
            assert (first / name).read_bytes() == (second / name).read_bytes()
    again = _read_json(second / "manifest.json")["config"]
    assert {**again, "output_dir": echo["output_dir"]} == echo


# `--events` values of the sampled round trips: the first crosses one
# partition boundary, the second is one past a draw block inside a partition
CROSSES_PARTITION = EVENT_PARTITION + EVENT_PARTITION // 5
PAST_DRAW_BLOCK = _DRAW_BLOCK + 1


def test_sampled_round_trips_cross_their_boundaries():
    def lengths(events):
        return [length for _rng, length in partition_seeds(0, events)]

    assert lengths(CROSSES_PARTITION) == [
        EVENT_PARTITION, CROSSES_PARTITION - EVENT_PARTITION
    ]
    assert lengths(PAST_DRAW_BLOCK) == [_DRAW_BLOCK + 1]


# (argv, whether the drive is the default one written as a waveform table)
ROUND_TRIPS = {
    "noise": (["noise"], False),
    "spectrum": (["spectrum"], False),
    "gibbs-exact": (["gibbs", "--exact", "--dt", "1e-3", "--temperatures", "10"], False),
    "run-exact": (["run", "--exact", "--dt", "1e-3"], False),
    "microrev": (["microrev", "--dt", "1e-3"], False),
    "run-sampled-partitions": (
        ["run", "--sampled", "--dt", "1e-3", "--events", str(CROSSES_PARTITION)], False
    ),
    "gibbs-sampled-partitions": (
        ["gibbs", "--sampled", "--dt", "1e-3", "--events", str(CROSSES_PARTITION),
         "--temperatures", "10,30"], False,
    ),
    "run-sampled-draw-block": (
        ["run", "--sampled", "--dt", "1e-3", "--events", str(PAST_DRAW_BLOCK)], False
    ),
    "run-table": (["run", "--exact", "--dt", "1e-3", "--no-time-mirror"], True),
}


@pytest.mark.parametrize("argv, table", ROUND_TRIPS.values(), ids=ROUND_TRIPS.keys())
def test_config_echo_round_trips(tmp_path, argv, table):
    # a run re-made from its manifest's config echo alone writes the same bytes
    if table:
        protocol = {"family": "table", "table_path": str(_write_table(tmp_path))}
        argv = argv + ["--config", _write_config(tmp_path, {"protocol": protocol})]
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(argv + ["--out", str(first)]) == 0
    echo = _read_json(first / "manifest.json")["config"]
    assert config_from_mapping(echo).resolved() == echo

    cfg = _write_config(tmp_path, echo, name="echo.json")
    assert main([argv[0], "--config", cfg, "--out", str(second)]) == 0
    manifests = [_read_json(out / "manifest.json") for out in (first, second)]
    for out, manifest in zip((first, second), manifests):
        written = sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
        assert written and list(manifest["outputs"]) == written
    assert manifests[1]["outputs"] == manifests[0]["outputs"]
    for name in manifests[0]["outputs"]:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name
    assert {**manifests[1]["config"], "output_dir": echo["output_dir"]} == echo


def test_relative_table_path_echo_runs_from_another_directory(tmp_path, monkeypatch):
    # a relative table_path is read from the working directory, and the echo
    # names the file it read, so the echo re-runs from anywhere
    cfg_dir = tmp_path / "cfg"
    cfg_dir.mkdir()
    table = _write_table(cfg_dir)
    _write_config(
        cfg_dir,
        {"protocol": {"family": "table", "table_path": "wave.csv"},
         "spectrum_samples": 11},
        name="rel.json",
    )
    monkeypatch.chdir(cfg_dir)
    first = tmp_path / "first"
    assert main(["spectrum", "--config", "rel.json", "--out", str(first)]) == 0
    echo = _read_json(first / "manifest.json")["config"]
    assert Path(echo["protocol"]["table_path"]) == table.resolve()

    monkeypatch.chdir(tmp_path)
    cfg = _write_config(tmp_path, echo, name="echo.json")
    second = tmp_path / "second"
    assert main(["spectrum", "--config", cfg, "--out", str(second)]) == 0
    assert (first / "spectrum.csv").read_bytes() == (second / "spectrum.csv").read_bytes()


def test_waveform_table_rejects_duration(tmp_path, capsys):
    table = tmp_path / "wave.csv"
    table.write_text("t_ns,flux_phi0,n_g\n0,0.5,-1.95\n0.5,0.5,-1.95\n")
    cfg = _write_config(
        tmp_path,
        {"protocol": {"family": "table", "table_path": str(table), "duration": 1.0}},
    )
    out = tmp_path / "o"
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "cpbsim: a waveform table defines its own duration\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "rows, line",
    [
        ("0,0.5,-1.95\n0.25,nan,-1.95\n0.5,0.5,-1.95\n",
         "waveform table values must be finite"),
        ("0,0.5\n0.5,0.5\n", "{table}: line 2 has 2 cells, expected 3"),
        ("0,0.5,-1.95,1\n0.5,0.5,-1.95,1\n", "{table}: line 2 has 4 cells, expected 3"),
        ("0,0.5,-1.95\n0.25,0.5\n0.5,0.5,-1.95\n",
         "{table}: line 3 has 2 cells, expected 3"),
        ("0,0.5,-1.95\n0.25,abc,-1.95\n0.5,0.5,-1.95\n",
         "{table}: line 3: could not convert string to float: 'abc'"),
    ],
    ids=["nan-cell", "2-cells", "4-cells", "ragged", "non-numeric"],
)
def test_waveform_table_rejects_bad_cells(tmp_path, capsys, rows, line):
    table = tmp_path / "wave.csv"
    table.write_text("t_ns,flux_phi0,n_g\n" + rows)
    cfg = _write_config(
        tmp_path, {"protocol": {"family": "table", "table_path": str(table)}}
    )
    out = tmp_path / "o"
    assert main(["run", "--config", cfg, "--dt", "1e-3", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"cpbsim: {line.format(table=table)}\n"
    assert not out.exists()


def test_empty_waveform_table_exits_2(tmp_path, capsys):
    table = tmp_path / "wave.csv"
    table.write_text("")
    cfg = _write_config(
        tmp_path, {"protocol": {"family": "table", "table_path": str(table)}}
    )
    out = tmp_path / "o"
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"cpbsim: {table}: empty waveform table\n"
    assert not out.exists()


def _random_protocol_section(rng, table):
    """A protocol section of random family, keys, key order and values."""
    section = {}
    if rng.random() < 0.5:
        section["direction"] = str(rng.choice(["forward", "backward"]))
    for key in ("mirror_time", "invert_flux"):
        if rng.random() < 0.5:
            section[key] = bool(rng.random() < 0.5)
    if rng.random() < 0.5:
        n = int(rng.integers(2, 9))
        times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.01, 0.3, n - 1))])
        cells = np.column_stack((times, rng.uniform(-1, 1, n), rng.uniform(-3, 3, n)))
        lines = [",".join(map(repr, row)) for row in cells.tolist()]
        table.write_text("t_ns,flux_phi0,n_g\n" + "\n".join(lines) + "\n")
        section.update(family="table", table_path=str(table))
    else:
        if rng.random() < 0.5:
            section["family"] = "cosine"
        if rng.random() < 0.5:
            section["duration"] = float(rng.uniform(0.1, 2.0))
        for name in ("flux", "gate"):
            if rng.random() < 0.5:
                keys = ("offset", "amplitude", "frequency", "phase")
                section[name] = {
                    k: float(rng.uniform(-2.0, 2.0)) for k in keys if rng.random() < 0.5
                }
    keys = list(section)
    rng.shuffle(keys)
    return {k: section[k] for k in keys}


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_random_protocol_sections_round_trip(tmp_path, seed):
    rng = np.random.default_rng(seed)
    families = set()
    for case in range(20):
        section = _random_protocol_section(rng, tmp_path / f"wave{case}.csv")
        cfg = config_from_mapping({"protocol": section})
        echo = json.loads(json.dumps(cfg.resolved()))
        again = config_from_mapping(echo)
        for f in dataclasses.fields(RunConfig):
            read, first = getattr(again, f.name), getattr(cfg, f.name)
            assert type(read) is type(first)
            if isinstance(read, TabulatedProtocol):
                # a table's arrays compare elementwise
                for g in dataclasses.fields(read):
                    assert np.array_equal(getattr(read, g.name), getattr(first, g.name))
            else:
                assert read == first
        assert json.dumps(again.resolved()) == json.dumps(echo)
        families.add(echo["protocol"]["family"])
    assert families == {"cosine", "table"}


def test_seed_changes_sampled_output(tmp_path):
    blobs = []
    for seed in ("5", "6"):
        out = tmp_path / f"s{seed}"
        code = main(["run", "--dt", "1e-3", "--sampled", "--events", "1000",
                     "--seed", seed, "--out", str(out)])
        assert code == 0
        blobs.append((out / "counts.csv").read_bytes())
    assert blobs[0] != blobs[1]


def _oracle_cell(value, json_value):
    """A value as the per-cell rules print it in a CSV cell or a JSON value."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        if not json_value:
            return format(float(value), ".12g")
        return format(float(value), ".17g") if math.isfinite(value) else "null"
    if not json_value:
        return str(value)
    return "null" if value is None else json.dumps(value)


def _oracle_json(obj, indent=0):
    pad, inner = "  " * indent, "  " * (indent + 1)
    if isinstance(obj, (list, dict)) and not obj:
        return "[]" if isinstance(obj, list) else "{}"
    if isinstance(obj, dict):
        items = [f"{inner}{json.dumps(k)}: {_oracle_json(v, indent + 1)}"
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, list):
        items = [f"{inner}{_oracle_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    return _oracle_cell(obj, json_value=True)


FLOAT_EDGES = (-0.0, 0.0, math.inf, -math.inf, math.nan, 5e-324, 2.5e-310, 1e300,
               -1e300, 0.1, 1 / 3)
INT_EDGES = (0, -1, 2**53 + 1, -(2**53) - 3, 2**63 - 1, -(2**63))


def _random_value(rng, kind):
    if kind in ("float", "np.float64"):
        if rng.random() < 0.3:
            value = FLOAT_EDGES[rng.integers(len(FLOAT_EDGES))]
        else:
            value = float(rng.standard_normal() * 10.0 ** rng.integers(-30, 30))
        return value if kind == "float" else np.float64(value)
    if kind in ("int", "np.int64"):
        value = INT_EDGES[rng.integers(len(INT_EDGES))] if rng.random() < 0.4 else (
            int(rng.integers(-(2**62), 2**62)))
        return value if kind == "int" else np.int64(value)
    if kind == "big int":
        return 2**70 + int(rng.integers(1000))
    if kind in ("bool", "np.bool_"):
        value = bool(rng.integers(2))
        return value if kind == "bool" else np.bool_(value)
    if kind == "None":
        return None
    return ("t_ns", "e07", 'a "quoted" \\ label', "Δ", "")[rng.integers(5)]


KINDS = ("float", "np.float64", "int", "np.int64", "big int", "bool", "np.bool_",
         "str", "None")


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_formatter_matches_per_cell_rules(seed):
    rng = np.random.default_rng(seed)
    # repeated row shapes reuse a template; the others are fresh type tuples
    shapes = [["float"] * 6, ["int", "np.float64", "bool", "str"],
              ["np.int64", "float", "float", "np.bool_"]]
    rows = []
    for _ in range(300):
        if rng.random() < 0.5:
            shape = shapes[rng.integers(len(shapes))]
        else:
            shape = [KINDS[i] for i in rng.integers(len(KINDS), size=rng.integers(1, 9))]
        rows.append([_random_value(rng, kind) for kind in shape])

    expected = "".join(
        ",".join(_oracle_cell(v, json_value=False) for v in row) + "\n" for row in rows
    )
    assert cpbsim.cli._csv(rows) == expected
    assert cpbsim.cli._csv(tuple(row) for row in rows) == expected

    # finite-float lists of one length at two depths, and a float list with
    # a nan, which prints null; a tuple prints as the list of its items
    floats = rng.standard_normal(4).tolist()
    doc = {"rows": rows, "empty": [], "nested": {"x": rows[:5], "y": {}, "f": floats},
           "floats": rng.standard_normal(4).tolist(), "nan": [*floats[:2], math.nan],
           "tuple": tuple(floats)}
    assert cpbsim.cli._jdump(doc) == _oracle_json({**doc, "tuple": floats})


def test_json_refuses_a_type_without_a_rule():
    with pytest.raises(TypeError, match="cannot serialize complex"):
        cpbsim.cli._jdump({"z": [1.0, 2j]})
